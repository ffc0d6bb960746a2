"""Exact sparse linear algebra over the rationals or a prime field.

Rows are stored as ``{column: int}`` maps of their nonzero entries and
reduced by one elimination routine on plain Python integers.  Over Q each
row is first scaled by the lcm of its denominators and then eliminated
fraction-free over Z (``row <- g*row - f*pivot``, divided by its content
gcd), so no intermediate value is ever rounded.  Over Fp the residues are
reduced modulo p against monic pivot rows.  Field elements appear again
only in the rows that ``rref`` returns: over Q an ``int`` where the entry
is integral and a ``Fraction`` otherwise, over Fp a ``ModP``.
"""

from __future__ import annotations

from math import gcd, lcm

from .fields import Field, PrimeField


def _int_row(row: list, p: int) -> dict[int, int]:
    """Nonzero entries as residues mod p or, over Q (p = 0), as integers
    after scaling the row by the lcm of its denominators (an ``int`` entry
    has denominator 1)."""
    if p:
        return {j: r for j, x in enumerate(row) if (r := getattr(x, "value", x) % p)}
    entries = {j: x for j, x in enumerate(row) if x}
    scale = lcm(*(x.denominator for x in entries.values()))
    return {j: x.numerator * (scale // x.denominator) for j, x in entries.items()}


def _cancel(vec: dict[int, int], pivot: dict[int, int], col: int, p: int) -> dict[int, int]:
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


def _echelon(rows: list[list], field: Field) -> tuple[dict[int, dict[int, int]], int]:
    """Pivot rows keyed by their leading (smallest) column, and p (0 for Q).

    Each row is reduced by its leading column until it vanishes or starts
    a new pivot row, which is then made monic (mod p) or primitive with a
    positive leading entry (over Z).
    """
    p = field.p if isinstance(field, PrimeField) else 0
    pivots: dict[int, dict[int, int]] = {}
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


def rank(rows: list[list], field: Field) -> int:
    return len(_echelon(rows, field)[0])


def rref(rows: list[list], field: Field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and pivot column indices.

    The pivot rows come first, back-substituted and scaled to a leading
    one, then one zero row for every dependent input row.
    """
    pivots, p = _echelon(rows, field)
    cols = sorted(pivots)
    for c in reversed(cols):
        for k in [k for k in pivots[c] if k != c and k in pivots]:
            pivots[c] = _cancel(pivots[c], pivots[k], k, p)
    out = [[field.zero] * (len(rows[0]) if rows else 0) for _ in rows]
    for r, c in enumerate(cols):
        for k, v in pivots[c].items():
            out[r][k] = field.of(v, pivots[c][c])
    return out, cols


def nullspace(rows: list[list], ncols: int, field: Field) -> list[list]:
    """Canonical kernel basis of the linear map given by the rows.

    Each basis vector has a one in a distinct free column and the pivot
    columns back-substituted, which makes the output deterministic.
    """
    reduced, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [field.zero] * ncols
        vec[f] = field.one
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(vec)
    return basis
