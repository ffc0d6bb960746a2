"""Resolution differentials by leading-term splitting.

The free modules are spanned by pairs (chain, normal word); the product
word of a pair well-orders the basis through deglex, ties broken by chain
length.  Following Anick, chains start at the (-1)-chain ``1``, the empty
word, whose module is the algebra itself, so a letter's differential is
``d(x (x) 1) = 1 (x) x``.  The differential of a level-n chain
``c = c' + t``, n >= 1, is

    d(c (x) 1) = c' (x) t  -  split(d(c' (x) t))

where ``split`` inverts the previous differential term by term: take the
order-maximal pair (c0, w0), find the level chain prefix of its product
word, emit that chain with the left-over cofactor, subtract its
differential, and repeat.  That prefix is unique and extends c0 (Anick's
greedy decomposition), so it is ``c0 + t`` for the first new tail ``t`` in
``ChainSet.extensions[c0.tail]`` that begins w0 and makes a chain; no
other cut of w0 is tried.  As in ``Reducer.reduce``, the terms wait in
one dict, updated in place, beside a lazy-deletion heap; a step adds
only pairs below the one it rewrites, so a popped pair missing from the
dict has cancelled.  Every new tail is nonempty, so a pair with an empty
cofactor can only cancel: it waits in the dict but never enters the
heap, and one left at the end raises.  The maximal term strictly
decreases at every step, so the recursion terminates; a missing chain
prefix means the Groebner data is invalid for the requested degree and
raises.  ``differential`` sums ``d(c') t`` straight into the dict it
hands to ``split`` and negates the split in one pass.

Over Fp the context computes on plain ``int`` residues in 1..p-1 and
stores no zero: normal forms are converted once per cache miss, and
``act_right``, ``split`` and ``differential`` reduce mod p where they
sum.  Over Q (``p == 0``) coefficients are ``int`` or ``Fraction``.
Field scalars (``ModP`` over Fp) are built only in ``slice``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .automaton import NormalWordAutomaton, normal_word_automaton
from .chains import Chain, ChainSet, enumerate_chains
from .errors import SplittingError, TruncationError
from .groebner import GroebnerBasis, Presentation, Reducer, complete, normal_form
from .poly import LinComb, Polynomial
from .words import EMPTY, Word, deglex_desc


class FreeElement(LinComb):
    """Element of (chain basis) tensor (algebra) in the normal-word basis,
    keyed by (chain, normal word)."""

    __slots__ = ()


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


class ResolutionContext:
    """Shared state for differential computation over one Groebner basis.

    Chain enumeration, normal forms and differentials are all memoized
    here; the context is valid for levels and internal degrees within the
    bounds it was built with.  ``p`` is the prime over Fp, where every
    coefficient the context holds is an ``int`` residue, and 0 over Q.
    """

    def __init__(self, gb: GroebnerBasis, level_max: int, deg_max: int):
        if not gb.covers_degree(deg_max):
            raise TruncationError(
                f"basis valid through degree {gb.valid_degree} cannot support "
                f"resolution data up to degree {deg_max}"
            )
        self.gb = gb
        self.alphabet = gb.presentation.alphabet
        self.field = gb.presentation.field
        self.level_max = level_max
        self.deg_max = deg_max
        relevant = [o for o in gb.obstructions if len(o) <= deg_max]
        self.chains: ChainSet = enumerate_chains(self.alphabet, relevant, level_max, deg_max)
        # Dropping obstructions above deg_max cannot affect smaller degrees,
        # but it does cap how far the word automaton stays truthful; the
        # basis itself is valid through deg_max at least.
        aut_valid = deg_max if len(relevant) < len(gb.obstructions) else gb.valid_degree
        self.automaton: NormalWordAutomaton = normal_word_automaton(
            self.alphabet, relevant, aut_valid
        )
        self._reducer = Reducer(self.field, gb.elements)
        self.p = self._reducer.p
        self._nf_cache: dict[Word, dict[Word, object]] = {}
        self._diff_cache: dict[Chain, FreeElement] = {}
        self._basis_cache: dict[tuple[int, int], tuple[tuple[Chain, Word], ...]] = {}
        # Anick's (-1)-chain; it stays out of the chain set.
        self.unit = Chain(EMPTY, -1, 0, 0, None)

    def _reduced(self, terms: dict) -> FreeElement:
        """The element over terms, reduced mod p over Fp; zeros are pruned."""
        p = self.p
        return FreeElement({k: a % p for k, a in terms.items()} if p else terms)

    def nf_word(self, w: Word) -> dict[Word, object]:
        """The normal form of a word as ``{word: scalar}`` terms, residues
        over Fp."""
        cached = self._nf_cache.get(w)
        if cached is None:
            cached = normal_form(Polynomial.monomial(w, self.field.one), self._reducer).terms
            if self.p:
                cached = {u: c.value for u, c in cached.items()}
            self._nf_cache[w] = cached
        return cached

    def _times(self, elem: FreeElement, w: Word) -> dict:
        """The terms of elem . w in normal form, summed but not reduced."""
        nf_word, out = self.nf_word, {}
        for (c, u), coeff in elem.terms.items():
            for word, scalar in nf_word(u + w).items():
                k = c, word
                out[k] = out.get(k, 0) + coeff * scalar
        return out

    def act_right(self, elem: FreeElement, w: Word) -> FreeElement:
        """Right action of a word on a free-module element, in normal form."""
        return self._reduced(self._times(elem, w)) if w else elem

    def split(self, level: int, xi: FreeElement) -> FreeElement:
        """Find eta at the given level whose differential is xi.

        xi must lie in the kernel of the previous differential and be
        supported below the given level's chains, which holds for every
        element this engine feeds in.  At level 0, xi is an algebra element
        keyed by ``self.unit`` and must have no degree-0 term.  Over Fp its
        coefficients may be residues or ``ModP``; the result holds residues.
        A pair with an empty cofactor is never split, since no chain
        extension fits it; it must cancel.  A term at another level, or one
        that does not cancel, raises ``SplittingError``.
        """
        find, extensions, p = self.chains.find, self.chains.extensions, self.p
        if p:  # a coefficient may be a ModP or an unreduced int: read residues
            work = {k: r for k, a in xi.terms.items() if (r := getattr(a, "value", a) % p)}
        else:
            work = dict(xi.terms)
        # Products in one split share a length, so the word itself orders
        # them as ``_max_term_key`` does; chain length breaks ties.
        heap = []
        for c, w in work:
            if c.level != level - 1:
                raise SplittingError(
                    f"a level-{level} split got a level-{c.level} term {c.word} (x) {w}"
                )
            if w:  # no tail fits an empty cofactor; such a pair can only cancel
                heap.append((c.word + w, -len(c.word), (c, w)))
        heapq.heapify(heap)
        emitted: dict[tuple[Chain, Word], object] = {}
        while heap:
            c0, w0 = key = heapq.heappop(heap)[2]
            coeff = work.get(key)
            if coeff is None:
                continue
            for t in extensions.get(c0.tail, ()):
                if w0[:len(t)] == t and (hat := find(level, c0.word + t)) is not None:
                    break
            else:
                raise SplittingError(
                    f"no level-{level} chain prefix for product word "
                    f"{c0.word + w0}; the basis data is incomplete or invalid"
                )
            leftover = w0[hat.tail_len:]
            emitted[hat, leftover] = coeff
            image = self.differential(hat)
            if leftover:
                image = self.act_right(image, leftover)
            # The image leads with key at coefficient 1, so key cancels.
            for k, a in image.terms.items():
                prev = work.get(k)
                if prev is None:
                    # A product of nonzero residues is nonzero mod prime p.
                    work[k] = -coeff * a % p if p else -coeff * a
                    if k[1]:
                        heapq.heappush(heap, (k[0].word + k[1], -len(k[0].word), k))
                elif s := (prev - coeff * a) % p if p else prev - coeff * a:
                    work[k] = s
                else:
                    del work[k]
        if work:
            # A pair left over has an empty cofactor or one that is not a
            # normal word, so xi is not in the image of the differential.
            raise SplittingError(f"level-{level} split left {len(work)} terms uncancelled")
        return FreeElement(emitted)

    def differential(self, c: Chain) -> FreeElement:
        """d(c (x) 1) as an element one level down; a letter x maps to
        1 (x) x over the (-1)-chain."""
        cached = self._diff_cache.get(c)
        if cached is not None:
            return cached
        if c.level == 0:
            out = FreeElement({(self.unit, c.word): 1})
        else:
            # split reduces d(c') . t mod p itself; every term it returns
            # lies below the product word of (c', t).
            xi = FreeElement(self._times(self.differential(c.prefix), c.tail))
            out, p = FreeElement({(c.prefix, c.tail): 1}), self.p
            for k, a in self.split(c.level - 1, xi).terms.items():
                out.terms[k] = -a % p if p else -a
        self._diff_cache[c] = out
        return out

    def induced_differential(self, c: Chain) -> dict[Chain, object]:
        """Unit-cofactor part of the differential, over chains one level down."""
        return {c2: a for (c2, w), a in self.differential(c).terms.items() if w == EMPTY}

    def pair_basis(self, level: int, degree: int) -> list[tuple[Chain, Word]]:
        """Basis of the level module in one internal degree, ascending.

        Each basis is built once per context; every call returns a new list.
        """
        cached = self._basis_cache.get((level, degree))
        if cached is None:
            if level == -1:
                out = [(self.unit, w) for w in self.automaton.accepted_words(degree)]
            else:
                out = []
                for d in range(0, degree + 1):
                    for c in self.chains.at(level, d):
                        for w in self.automaton.accepted_words(degree - d):
                            out.append((c, w))
                out.sort(key=_max_term_key, reverse=True)
            cached = self._basis_cache[level, degree] = tuple(out)
        return list(cached)

    def slice(self, level: int, degree: int) -> ResolutionSlice:
        """Matrix of the differential at one level and internal degree."""
        cols = self.pair_basis(level, degree)
        rows = self.pair_basis(level - 1, degree)
        row_index = {k: i for i, k in enumerate(rows)}
        of = self.field.of
        columns = []
        for c, w in cols:
            terms = self.act_right(self.differential(c), w).terms
            if self.p:
                columns.append({row_index[k]: of(a) for k, a in terms.items()})
            else:  # an int is already a scalar of Q; a Fraction may be integral
                columns.append(
                    {row_index[k]: a if type(a) is int else of(a) for k, a in terms.items()}
                )
        if level == 0:
            rows = [w for _, w in rows]
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
    # The lower column under each row of the upper slice.
    below = [lower.columns[col_index[k]] for k in upper.row_labels]
    for col in upper.columns:
        acc: dict[int, object] = {}
        for mid, a in col.items():
            for row, b in below[mid].items():
                acc[row] = acc.get(row, 0) + a * b
        if any(acc.values()):
            return False
    return True


def resolution_slices(
    presentation: Presentation, level_max: int, deg_max: int
) -> list[ResolutionSlice]:
    """Exact differential matrices for all levels and degrees in range,
    each checked by ``ResolutionContext.slices``."""
    return ResolutionContext(complete(presentation, deg_max), level_max, deg_max).slices()
