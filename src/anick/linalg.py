"""Exact sparse linear algebra over the rationals or a prime field.

``echelon`` takes sparse ``{column: scalar}`` rows and returns the
reduced row echelon form as monic pivot rows; ``nullspace`` is built on
it and is sparse too.  ``rank`` counts the pivots of the same forward
pass and is the one entry point that takes dense rows.  Inside, rows are
plain Python integers: over Q a row of ``int`` entries is taken as it is,
any other is first scaled by the lcm of its denominators, and rows are
eliminated fraction-free over Z (``row <- g*row - f*pivot``, divided by
its content gcd), so no value is ever rounded; over Fp the residues are
reduced modulo p against monic pivot rows.  Field elements appear again
only in the rows ``echelon`` returns (over Q an ``int`` where integral, a
``Fraction`` otherwise, over Fp a residue); completion takes the integer
rows of ``_reduced`` themselves.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd, lcm
from typing import Iterable

from .fields import Field


def _int_row(row: Iterable[tuple], p: int) -> tuple[dict, int]:
    """The nonzero entries of ``(column, scalar)`` pairs as residues mod p
    of any ``int`` entries (scale 1) or, over Q (p = 0), as integers after
    scaling the row by the lcm of its denominators (a row of ``int``
    entries is taken as it is); and the scale."""
    if p:
        return {j: r for j, x in row if (r := x % p)}, 1
    entries = {j: x for j, x in row if x}
    if all(type(x) is int for x in entries.values()):
        return entries, 1
    scale = lcm(*(x.denominator for x in entries.values()))
    return {j: x.numerator * (scale // x.denominator) for j, x in entries.items()}, scale


def _cancel(vec: dict, pivot: dict, col, p: int) -> dict:
    """Clear ``vec[col]`` with ``g*vec - f*pivot``, where f, g sit at col.

    Pivots mod p are monic, so g = 1 there; over Z a row that had to be
    scaled is divided by its content gcd again afterwards.
    """
    f, g = vec[col], pivot[col]
    if g != 1:
        d = gcd(f, g)
        f, g = f // d, g // d
        vec = {c: g * v for c, v in vec.items()}
    for c, v in pivot.items():
        new = vec.get(c, 0) - f * v
        if p:
            new %= p
        if new:
            vec[c] = new
        else:
            del vec[c]
    if g != 1 and vec:
        d = gcd(*vec.values())
        vec = {c: v // d for c, v in vec.items()}
    return vec


def _pivots(rows: Iterable, field: Field) -> dict:
    """The forward pass over rows of ``(column, scalar)`` pairs: pivot rows
    keyed by their leading (smallest) column.

    Each row is reduced by its leading column until it vanishes or starts
    a new pivot row, which is kept monic (mod p) or primitive with a
    positive leading entry (over Z).
    """
    p = field.p
    pivots: dict = {}
    for row in rows:
        vec = _int_row(row, p)[0]
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is not None:
                vec = _cancel(vec, pivot, lead, p)
                continue
            if p:
                inv = pow(vec[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in vec.items()}
            else:
                d = gcd(*vec.values()) * (1 if vec[lead] > 0 else -1)
                pivots[lead] = {c: v // d for c, v in vec.items()}
            break
    return pivots


def _reduced(rows: Iterable[dict], field: Field) -> list[tuple]:
    """``echelon``'s rows as ``(leading column, integer row)`` pairs, each
    row primitive with a positive lead (over Z) or monic (mod p): the
    forward pass back-substituted from the last pivot row up."""
    pivots, p = _pivots((row.items() for row in rows), field), field.p
    cols = sorted(pivots)
    for c in reversed(cols):
        for k in [k for k in pivots[c] if k != c and k in pivots]:
            pivots[c] = _cancel(pivots[c], pivots[k], k, p)
        if not p and (d := gcd(*pivots[c].values())) != 1:
            pivots[c] = {k: v // d for k, v in pivots[c].items()}
    return [(c, pivots[c]) for c in cols]


def echelon(rows: Iterable[dict], field: Field) -> list[dict]:
    """Reduced row echelon form of sparse rows: the nonzero rows, each
    with a one at its leading (smallest) column and zeros at the other
    rows' leading columns, by ascending leading column.  Columns may be
    any totally ordered keys, and zero entries are dropped."""
    return [{k: field.of(v, row[c]) for k, v in row.items()} for c, row in _reduced(rows, field)]


def _last_first(row: list) -> Iterable[tuple]:
    """The nonzero entries of a dense row keyed by their negated column."""
    return ((-j, row[j]) for j in compress(count(), row))


def rank(rows: list[list], field: Field) -> int:
    """The number of pivot rows of the forward pass; a rank needs no
    back-substitution.

    Columns are keyed by their negated index, so each row pivots on its
    last nonzero column.  An induced matrix of the resolution is nearly
    triangular that way round in the Anick order of its chains, and far
    fewer entries are updated than when pivoting on the first column.

    The rows are dense because the benchmark's traced run reads matrix
    size and fill from them; they become sparse once it counts those from
    the chains instead.
    """
    return len(_pivots(map(_last_first, rows), field))


def nullspace(rows: list[dict], ncols: int, field: Field) -> list[dict]:
    """Canonical kernel basis of the linear map given by sparse rows over
    the columns ``0..ncols-1``, as sparse ``{column: scalar}`` vectors.

    Each basis vector has a one in a distinct free column and the pivot
    columns back-substituted, which makes the output deterministic.
    """
    reduced, p = echelon(rows, field), field.p
    pivots = [min(row) for row in reduced]
    basis = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        vec = {f: field.one}
        for row, c in zip(reduced, pivots):
            if f in row:
                vec[c] = p - row[f] if p else -row[f]
        basis.append(vec)
    return basis
