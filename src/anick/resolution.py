"""Resolution differentials by leading-term splitting.

The free modules are spanned by pairs (chain, normal word); the product
word of a pair well-orders the basis through deglex, ties broken by chain
length.  The differential of a level-n chain ``c = c' + t`` is

    d(c (x) 1) = c' (x) t  -  split(d(c' (x) t))

where ``split`` inverts the previous differential term by term: take the
order-maximal pair, locate the unique level chain prefix of its product
word, emit that chain with the left-over cofactor, subtract its
differential, and repeat.  The maximal term strictly decreases at every
step, so the recursion terminates; a missing chain prefix means the
Groebner data is invalid for the requested degree and raises.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import NormalWordAutomaton, normal_word_automaton
from .chains import Chain, ChainSet, enumerate_chains
from .errors import SplittingError, TruncationError
from .groebner import GroebnerBasis, Presentation, complete, normal_form
from .poly import LinComb, Polynomial
from .words import EMPTY, Word, deglex_desc


class FreeElement(LinComb):
    """Element of (chain basis) tensor (algebra) in the normal-word basis,
    keyed by (chain, normal word)."""

    __slots__ = ()

    def max_term(self) -> tuple[tuple[Chain, Word], object]:
        """The term whose product word is deglex-maximal, ties broken by the
        longer chain."""
        key = min(self.terms, key=_max_term_key)
        return key, self.terms[key]


def _max_term_key(k: tuple[Chain, Word]) -> tuple[tuple[int, Word], int]:
    """Sorts pairs descending: by product word under ``deglex_desc``, then
    longer chain first."""
    chain_word = k[0].word
    return deglex_desc(chain_word + k[1]), -len(chain_word)


@dataclass
class ResolutionSlice:
    """Matrix of one differential in one internal degree, stored by columns."""

    level: int
    degree: int
    col_labels: list[tuple[Chain, Word]]
    row_labels: list  # pairs for level >= 1, plain normal words for level 0
    columns: list[dict[int, object]]
    composes_to_zero: bool | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))


class ResolutionContext:
    """Shared state for differential computation over one Groebner basis.

    Chain enumeration, normal forms and differentials are all memoized
    here; the context is valid for levels and internal degrees within the
    bounds it was built with.
    """

    def __init__(self, gb: GroebnerBasis, level_max: int, deg_max: int):
        if not gb.covers_degree(deg_max):
            raise TruncationError(
                f"basis valid through degree {gb.valid_degree} cannot support "
                f"resolution data up to degree {deg_max}"
            )
        self.gb = gb
        self.presentation = gb.presentation
        self.alphabet = gb.presentation.alphabet
        self.field = gb.presentation.field
        self.level_max = level_max
        self.deg_max = deg_max
        relevant = [o for o in gb.obstructions if len(o) <= deg_max]
        self.chains: ChainSet = enumerate_chains(self.alphabet, relevant, level_max, deg_max)
        # Dropping obstructions above deg_max cannot affect smaller degrees,
        # but it does cap how far the word automaton stays truthful.
        aut_valid = gb.valid_degree
        if len(relevant) < len(gb.obstructions):
            aut_valid = deg_max if aut_valid is None else min(aut_valid, deg_max)
        self.automaton: NormalWordAutomaton = normal_word_automaton(
            self.alphabet, relevant, aut_valid
        )
        self._basis_list = list(gb.elements)
        self._nf_cache: dict[Word, Polynomial] = {}
        self._diff_cache: dict[Chain, FreeElement] = {}
        self._letter_chain = {c.word[0]: c for c in self.chains.level(0)}

    def nf_word(self, w: Word) -> Polynomial:
        cached = self._nf_cache.get(w)
        if cached is None:
            cached = normal_form(Polynomial.monomial(w, self.field.one), self._basis_list)
            self._nf_cache[w] = cached
        return cached

    def act_right(self, elem: FreeElement, w: Word) -> FreeElement:
        """Right action of a word on a free-module element, in normal form."""
        if not w:
            return elem
        return FreeElement.from_pairs(
            ((c, word), coeff * scalar)
            for (c, u), coeff in elem.terms.items()
            for word, scalar in self.nf_word(u + w).terms.items()
        )

    def _split0(self, p: Polynomial) -> FreeElement:
        """Split a positive-degree algebra element over the letter module."""
        if EMPTY in p.terms:
            raise SplittingError("cannot split a degree-0 term")
        return FreeElement.from_pairs(
            ((self._letter_chain[w[0]], w[1:]), coeff) for w, coeff in p.terms.items()
        )

    def split(self, level: int, xi: FreeElement) -> FreeElement:
        """Find eta at the given level whose differential is xi.

        xi must lie in the kernel of the previous differential and be
        supported below the given level's chains, which holds for every
        element this engine feeds in.
        """
        emitted: list[tuple[tuple[Chain, Word], object]] = []
        work = xi
        while not work.is_zero:
            (c0, w0), coeff = work.max_term()
            found: list[tuple[Chain, Word]] = []
            for cut in range(1, len(w0) + 1):
                cand = self.chains.find(level, c0.word + w0[:cut])
                if cand is not None:
                    found.append((cand, w0[cut:]))
            if not found:
                raise SplittingError(
                    f"no level-{level} chain prefix for product word "
                    f"{c0.word + w0}; the basis data is incomplete or invalid"
                )
            if len(found) > 1:
                raise SplittingError(
                    f"ambiguous chain prefix for product word {c0.word + w0}"
                )
            hat, leftover = found[0]
            emitted.append(((hat, leftover), coeff))
            work = work.add_scaled(self.act_right(self.differential(hat), leftover), -coeff)
        return FreeElement.from_pairs(emitted)

    def differential(self, c: Chain) -> FreeElement:
        """d(c (x) 1) as an element one level down.  Levels >= 1 only."""
        if c.level == 0:
            raise SplittingError("level-0 differentials map into the algebra")
        cached = self._diff_cache.get(c)
        if cached is not None:
            return cached
        # A level-1 chain's prefix is its first letter, so its correction
        # splits the word's normal form over the letter module.
        if c.level == 1:
            correction = self._split0(self.nf_word(c.word))
        else:
            xi = self.act_right(self.differential(c.prefix), c.tail)
            correction = self.split(c.level - 1, xi)
        out = FreeElement({(c.prefix, c.tail): self.field.one}) - correction
        self._diff_cache[c] = out
        return out

    def induced_differential(self, c: Chain) -> dict[Chain, object]:
        """Unit-cofactor part of the differential, over chains one level down."""
        return {c2: a for (c2, w), a in self.differential(c).terms.items() if w == EMPTY}

    def pair_basis(self, level: int, degree: int) -> list[tuple[Chain, Word]]:
        """Basis of the level module in one internal degree, ascending."""
        out: list[tuple[Chain, Word]] = []
        for d in range(0, degree + 1):
            for c in self.chains.at(level, d):
                for w in self.automaton.accepted_words(degree - d):
                    out.append((c, w))
        out.sort(key=_max_term_key, reverse=True)
        return out

    def slice(self, level: int, degree: int) -> ResolutionSlice:
        """Matrix of the differential at one level and internal degree."""
        cols = self.pair_basis(level, degree)
        if level == 0:
            rows = self.automaton.accepted_words(degree)
            row_index = {w: i for i, w in enumerate(rows)}
            columns = []
            for c, w in cols:
                image = self.nf_word(c.word + w)
                columns.append({row_index[u]: a for u, a in image.terms.items()})
            return ResolutionSlice(level, degree, cols, rows, columns)
        rows = self.pair_basis(level - 1, degree)
        row_index = {k: i for i, k in enumerate(rows)}
        columns = []
        for c, w in cols:
            image = self.act_right(self.differential(c), w)
            columns.append({row_index[k]: a for k, a in image.terms.items()})
        return ResolutionSlice(level, degree, cols, rows, columns)

    def slices(self) -> list[ResolutionSlice]:
        """Exact differential matrices for all levels and degrees in range.

        The composite of consecutive differentials is verified to vanish in
        every internal degree, and each slice records that check.
        """
        out: list[ResolutionSlice] = []
        for level in range(0, self.level_max + 1):
            for degree in range(0, self.deg_max + 1):
                s = self.slice(level, degree)
                if level >= 1:
                    # The same degree one level down, deg_max + 1 slices back.
                    lower = out[-(self.deg_max + 1)]
                    s.composes_to_zero = verify_composition(lower, s)
                    if not s.composes_to_zero:
                        raise SplittingError(
                            f"differential composition is nonzero at level {level}, "
                            f"degree {degree}"
                        )
                out.append(s)
        return out


def verify_composition(lower: ResolutionSlice, upper: ResolutionSlice) -> bool:
    """Check that applying the lower matrix after the upper gives zero."""
    col_index = {k: i for i, k in enumerate(lower.col_labels)}
    for col in upper.columns:
        image = LinComb.from_pairs(
            (row, a * b)
            for mid, a in col.items()
            for row, b in lower.columns[col_index[upper.row_labels[mid]]].items()
        )
        if not image.is_zero:
            return False
    return True


def resolution_slices(
    presentation: Presentation, level_max: int, deg_max: int
) -> list[ResolutionSlice]:
    """Exact differential matrices for all levels and degrees in range,
    each checked by ``ResolutionContext.slices``."""
    return ResolutionContext(complete(presentation, deg_max), level_max, deg_max).slices()
