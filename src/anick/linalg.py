"""Exact sparse linear algebra over the rationals or a prime field.

``echelon`` takes sparse ``{column: scalar}`` rows and returns the
reduced row echelon form as monic pivot rows; ``nullspace`` is built on
it and is sparse too.  ``rank`` counts the pivots of the same forward
pass and is the one entry point that takes dense rows.  Inside, rows are
plain Python integers: over Q each row is first scaled by the lcm of its
denominators and then eliminated fraction-free over Z (``row <- g*row -
f*pivot``, divided by its content gcd), so no intermediate value is ever
rounded; over Fp the residues are reduced modulo p against monic pivot
rows.  Field elements appear again only in the rows ``echelon`` returns:
over Q an ``int`` where the entry is integral and a ``Fraction``
otherwise, over Fp a ``ModP``.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable

from .fields import Field, PrimeField


def _int_row(row: Iterable[tuple], p: int) -> dict:
    """The nonzero entries of ``(column, scalar)`` pairs as residues mod p
    or, over Q (p = 0), as integers after scaling the row by the lcm of
    its denominators (an ``int`` entry has denominator 1)."""
    if p:
        return {j: r for j, x in row if (r := getattr(x, "value", x) % p)}
    entries = {j: x for j, x in row if x}
    scale = lcm(*(x.denominator for x in entries.values()))
    return {j: x.numerator * (scale // x.denominator) for j, x in entries.items()}


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


def _pivots(rows: Iterable, field: Field) -> tuple[dict, int]:
    """The forward pass over rows of ``(column, scalar)`` pairs: pivot rows
    keyed by their leading (smallest) column, and p (0 for Q).

    Each row is reduced by its leading column until it vanishes or starts
    a new pivot row, which is kept monic (mod p) or primitive with a
    positive leading entry (over Z).
    """
    p = field.p if isinstance(field, PrimeField) else 0
    pivots: dict = {}
    for row in rows:
        vec = _int_row(row, p)
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
    return pivots, p


def echelon(rows: Iterable[dict], field: Field) -> list[dict]:
    """Reduced row echelon form of sparse rows: the nonzero rows, each
    with a one at its leading (smallest) column and zeros at the other
    rows' leading columns, by ascending leading column.

    Columns may be any totally ordered keys, and zero entries are
    dropped.  The pivot rows of the forward pass are back-substituted
    from the last one up with the same cancellation step.
    """
    pivots, p = _pivots((row.items() for row in rows), field)
    cols = sorted(pivots)
    for c in reversed(cols):
        for k in [k for k in pivots[c] if k != c and k in pivots]:
            pivots[c] = _cancel(pivots[c], pivots[k], k, p)
    return [{k: field.of(v, pivots[c][c]) for k, v in pivots[c].items()} for c in cols]


def rank(rows: list[list], field: Field) -> int:
    """The number of pivot rows of the forward pass; a rank needs no
    back-substitution.

    The rows are dense because the benchmark's traced run reads matrix
    size and fill from them; they become sparse once it counts those from
    the chains instead.
    """
    return len(_pivots(map(enumerate, rows), field)[0])


def nullspace(rows: list[dict], ncols: int, field: Field) -> list[dict]:
    """Canonical kernel basis of the linear map given by sparse rows over
    the columns ``0..ncols-1``, as sparse ``{column: scalar}`` vectors.

    Each basis vector has a one in a distinct free column and the pivot
    columns back-substituted, which makes the output deterministic.
    """
    reduced = echelon(rows, field)
    pivots = [min(row) for row in reduced]
    basis = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        vec = {f: field.one}
        for row, c in zip(reduced, pivots):
            if f in row:
                vec[c] = -row[f]
        basis.append(vec)
    return basis
