"""Induced complexes over the ground field and bigraded Betti tables.

Applying the augmentation to the resolution keeps exactly the terms whose
algebra cofactor is the empty word, leaving finite matrices between chain
bases in each internal degree.  Betti numbers are kernel dimensions minus
incoming ranks, computed by exact elimination.  Chains at level n
contribute to homological degree n + 1; homological degree 0 is the
ground field itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import linalg
from .chains import Chain
from .errors import AlgebraError, CoverageError
from .groebner import Presentation, complete
from .resolution import ResolutionContext


def induced_matrix_from_context(
    ctx: ResolutionContext, level: int, degree: int
) -> tuple[list[Chain], list[Chain], list[list]]:
    """Rows (level-1 chains), columns (level chains) and dense matrix, inside ctx's bounds."""
    if not (0 <= level <= ctx.level_max and 0 <= degree <= ctx.deg_max):
        raise ctx._outside(f"level {level}, degree {degree}")
    cols = ctx.chains.at(level, degree)
    rows = ctx.chains.at(level - 1, degree)
    row_of = {c.id: r for r, c in enumerate(rows)}
    dense = [[0] * len(cols) for _ in rows]
    for j, c in enumerate(cols):
        for (i, w), a in ctx.differential(c.id).items():
            if not w:
                dense[row_of[i]][j] = a
    return rows, cols, dense


@dataclass
class BettiTable:
    """Dimensions of the bigraded homology, with per-entry reliability."""

    values: list[list[int]]
    reliable: list[list[bool]]
    i_max: int
    j_max: int

    def diagonal(self) -> list[int]:
        top = min(self.i_max, self.j_max)
        return [self.values[i][i] for i in range(top + 1)]

    def column_alternating_sum(self, j: int):
        return sum(
            (-1) ** i * self.values[i][j] for i in range(self.i_max + 1)
        )


def betti_table(
    presentation: Presentation,
    i_max: int,
    j_max: int,
    ctx: ResolutionContext | None = None,
) -> BettiTable:
    """b[i][j] for homological degrees <= i_max, internal <= j_max, ranked in
    ``ctx.field``; the presentation builds a missing context, else must share its alphabet."""
    if i_max < 0 or j_max < 0:
        raise CoverageError(f"Betti bounds must be >= 0, got ({i_max}, {j_max})")
    if ctx is None:
        gb = complete(presentation, j_max)
        ctx = ResolutionContext(gb, level_max=i_max, deg_max=j_max)
    elif presentation.alphabet != ctx.alphabet:
        raise AlgebraError(f"{presentation.alphabet} differs from the context's {ctx.alphabet}")
    values = [[0] * (j_max + 1) for _ in range(i_max + 1)]
    reliable = [[True] * (j_max + 1) for _ in range(i_max + 1)]
    values[0][0] = 1

    @cache
    def rank(level: int, degree: int) -> int:
        dense = induced_matrix_from_context(ctx, level, degree)[2]
        return linalg.rank(dense, ctx.field)

    for i in range(1, i_max + 1):
        # Level-(i-1) chains have degree at least i, so b[i][j] = 0 for j < i.
        for j in range(i, j_max + 1):
            # The context's basis covers deg_max, so these are its bounds.
            if j > ctx.deg_max or i > ctx.level_max:
                reliable[i][j] = False
                continue
            out_rank = rank(i - 1, j) if i > 1 else 0
            values[i][j] = len(ctx.chains.at(i - 1, j)) - out_rank - rank(i, j)
    return BettiTable(values, reliable, i_max, j_max)


@dataclass(frozen=True)
class KoszulVerdict:
    """Either diagonal up to a degree, or a failing off-diagonal witness."""

    up_to: int | None
    fails_at: tuple[int, int] | None = None
    witness: int | None = None

    @property
    def is_koszul(self) -> bool:
        return self.fails_at is None

    def __str__(self) -> str:
        if self.is_koszul:
            return f"koszul-up-to({self.up_to})"
        i, j = self.fails_at
        return f"fails-at({i},{j})"


def koszul_verdict(table: BettiTable, max_degree: int) -> KoszulVerdict:
    """Diagonal check over all reliable entries with internal degree <= D."""
    if not 0 <= max_degree <= min(table.i_max, table.j_max):
        raise CoverageError(
            f"table covers ({table.i_max}, {table.j_max}) but degree "
            f"{max_degree} was requested"
        )
    for j in range(0, max_degree + 1):
        for i in range(0, table.i_max + 1):
            if i == j:
                continue
            if not table.reliable[i][j]:
                raise CoverageError(
                    f"entry ({i}, {j}) is not reliable; cannot decide"
                )
            if table.values[i][j] != 0:
                return KoszulVerdict(None, (i, j), table.values[i][j])
    return KoszulVerdict(max_degree)


def euler_check(table: BettiTable, hilbert: list[int]) -> list:
    """Residuals of the Euler characteristic identity, degree by degree.

    The product of the Hilbert series with the alternating Betti sums must
    be 1; residual[j] is the degree-j coefficient of that product minus
    [j == 0], so all zeros is a pass.
    """
    top = min(table.j_max, len(hilbert) - 1)
    numerator = [table.column_alternating_sum(j) for j in range(top + 1)]
    residuals = []
    for j in range(top + 1):
        acc = sum(hilbert[m] * numerator[j - m] for m in range(j + 1))
        residuals.append(acc - (1 if j == 0 else 0))
    return residuals
