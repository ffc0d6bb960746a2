"""Resolution differentials by leading-term splitting.

The free modules are spanned by pairs (chain, normal word); the product
word of a pair well-orders the basis through deglex, ties broken by chain
length.  Following Anick, chains start at the (-1)-chain ``1``, the empty
word, whose module is the algebra itself, so a letter's differential is
``d(x (x) 1) = 1 (x) x``.  The differential of a level-n chain
``c = c' + t``, n >= 1, is

    d(c (x) 1) = c' (x) t  -  split(d(c' (x) t))

where ``split`` inverts the previous differential term by term: take the
order-maximal pair (c0, w0), emit the level chain prefix of its product
word with the left-over cofactor, subtract that pair's differential, and
repeat.  The prefix is unique and extends c0 (Anick's greedy
decomposition): it is the child ``c0 + t`` of c0 whose tail ``t`` begins
w0.  At most one child's tail does, since a longer one would hold the
shorter one's obstruction in its window, which must be clean.  As in
``Reducer.reduce``, the terms wait in one dict beside a lazy-deletion
heap; a pair with an empty cofactor fits no tail, so it stays off the heap
and must cancel.  The maximal term strictly decreases, so the recursion
terminates; a missing chain prefix means the Groebner data is invalid for
the requested degree and raises.

Inside a context a chain is its int id, ``Chain.id`` (0 is the chain
set's unit, every letter's prefix, then its chains level by level): the
split's terms, heap and result, the differential cache and the pair bases
are keyed by ``(chain id, word)``, and each id's chain holds its word,
level, tail and prefix.  Each id's children, as (tail, its length, id),
are grouped once under their prefix ids.  Only the public
methods (``differential``, ``split``, ``act_right``, ``pair_basis``,
``slice``) take or return pairs keyed by ``Chain``, found by level and word.
A chain, or a ``slice`` or ``pair_basis`` level or degree, outside the
context's bounds raises ``TruncationError``; a wrong type, ``TypeError``.

Over Fp the context computes on plain ``int`` residues in 1..p-1 and
stores no zero, reducing mod p where it sums; over Q (``p == 0``)
coefficients are ``int`` or ``Fraction``.  The elements it returns hold
the same scalars and carry ``p``; an element of another modulus handed to
it raises ``FieldError``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .automaton import NormalWordAutomaton, normal_word_automaton
from .chains import Chain, ChainSet, enumerate_chains
from .errors import CoverageError, FieldError, SplittingError, TruncationError
from .groebner import GroebnerBasis, Presentation, Reducer, complete, normal_form
from .poly import LinComb, Polynomial
from .words import EMPTY, Word


class FreeElement(LinComb):
    """Element of (chain basis) tensor (algebra) in the normal-word basis,
    keyed by (chain, normal word)."""

    __slots__ = ()


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
        if level_max < 0 or deg_max < 0:
            raise CoverageError(f"context bounds must be >= 0, got ({level_max}, {deg_max})")
        if gb.valid_degree is not None and deg_max > gb.valid_degree:
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
        self.p = self.field.p
        self._nf_cache: dict[Word, dict[Word, object]] = {}
        self._basis_cache: dict[tuple[int, int], tuple[tuple[int, Word], ...]] = {}
        # Ids run 0 (the chain set's unit), then 1..n in index order: _chains[c.id] is c.
        self.unit = self.chains.unit
        self._chains = chains = [self.unit, *self.chains.index.values()]
        # Id -> the chains one level up that extend it, as (tail, its length, id).
        self._children: dict[int, list[tuple[Word, int, int]]] = {}
        self._at: dict[int, dict[int, Word]] = {-1: {0: EMPTY}}  # level -> id -> word
        for c in chains[1:]:
            self._children.setdefault(c.prefix.id, []).append((c.tail, c.tail_len, c.id))
            self._at.setdefault(c.level, {})[c.id] = c.word
        self._diff: dict[int, dict] = {}  # filled lazily; a negative id misses

    def _outside(self, what: str) -> TruncationError:
        bounds = f"levels <= {self.level_max}, degrees <= {self.deg_max}"
        return TruncationError(f"{what} is outside this context's bounds ({bounds})")

    def _id_of(self, c: Chain) -> int:
        """The id of the chain equal to c, found by level and word."""
        if not isinstance(c, Chain):
            raise TypeError(f"expected a Chain or an int chain id, got {type(c).__name__}")
        found = self.unit if c == self.unit else self.chains.find(c.level, c.word)
        if found is None:
            raise self._outside(repr(c))
        return found.id

    def nf_word(self, w: Word) -> dict[Word, object]:
        """The normal form of a word as ``{word: scalar}`` terms, residues
        over Fp.  A word with no leading-word factor is its own normal form;
        ``Reducer.find`` keeps the search, so ``normal_form`` does not
        search a reducible word again."""
        cached = self._nf_cache.get(w)
        if cached is None:
            if self._reducer.find(w) is None:
                cached = {w: 1}
            else:
                cached = normal_form(Polynomial.monomial(w, 1, self.p), self._reducer).terms
            self._nf_cache[w] = cached
        return cached

    def _times(self, terms: dict, w: Word) -> dict:
        """terms . w in normal form, summed but not reduced, keyed as terms is."""
        nf_word, out = self.nf_word, {}
        for (c, u), coeff in terms.items():
            for word, scalar in nf_word(u + w).items():
                k = c, word
                out[k] = out.get(k, 0) + coeff * scalar
        return out

    def _own(self, elem: FreeElement) -> dict:
        """elem's terms; elem must be over the context's field."""
        if not isinstance(elem, FreeElement):
            raise TypeError(f"expected a FreeElement, got {type(elem).__name__}")
        if elem.p != self.p:
            raise FieldError(f"an element mod {elem.p} in a context over {self.field.name}")
        return elem.terms

    def act_right(self, elem: FreeElement, w: Word) -> FreeElement:
        """Right action of a word on a free-module element, in normal form."""
        terms = self._own(elem)
        return FreeElement(self._times(terms, w), self.p) if w else elem

    def split(self, level: int, xi: FreeElement | dict) -> FreeElement | dict:
        """Find eta at the given level whose differential is xi.

        xi must lie in the kernel of the previous differential and be
        supported below the given level's chains, which holds for every
        element this engine feeds in.  At level 0, xi is an algebra element
        keyed by ``self.unit`` and must have no degree-0 term.  A
        ``FreeElement`` of another modulus raises ``FieldError``; over Fp a
        dict's coefficients may be any ``int``; the result holds residues.
        A ``FreeElement`` gives one; a dict keyed by (chain id, word) a dict.
        A pair with an empty cofactor is never split, since no chain
        extension fits it; it must cancel.  A term at another level, or one
        that does not cancel, raises ``SplittingError``; a chain outside the
        context's bounds, or an id that names none, ``TruncationError``; any
        other xi, or a ``FreeElement`` key with no ``Chain``, ``TypeError``.
        """
        p, at, children = self.p, self._at.get(level - 1, {}), self._children
        if public := not isinstance(xi, dict):
            terms = {}
            for (c, w), a in self._own(xi).items():
                if not isinstance(c, Chain):
                    raise TypeError(f"expected a Chain in a key, got {type(c).__name__}")
                if c.level != level - 1:
                    raise SplittingError(
                        f"a level-{level} split got a level-{c.level} term {c.word} (x) {w}"
                    )
                terms[self._id_of(c), w] = a
            xi = terms
        work = {k: r for k, a in xi.items() if (r := a % p if p else a)}
        # Products in one split share a length, so the word orders them in deglex,
        # the shorter cofactor (the longer chain) first on a tie.  A pair with an
        # empty cofactor fits no tail and stays off the heap, unless at lacks its id.
        try:  # at[i] raises for an id that names no chain one level down
            heap = [(at[i] + w, len(w), (i, w)) for i, w in work if w or i not in at]
        except KeyError as e:
            raise self._outside(f"chain id {e.args[0]} at level {level - 1}") from None
        heapq.heapify(heap)
        emitted: dict[tuple[int, Word], object] = {}
        while heap:
            key = heapq.heappop(heap)[2]
            coeff = work.get(key)
            if coeff is None:
                continue
            i, w0 = key
            for t, n, hat in children.get(i, ()):
                if w0[:n] == t:
                    break
            else:
                raise SplittingError(
                    f"no level-{level} chain prefix for product word "
                    f"{at[i] + w0}; the basis data is incomplete or invalid"
                )
            leftover = w0[n:]
            emitted[hat, leftover] = coeff
            image = self.differential(hat)
            if leftover:
                image = self._times(image, leftover)
            # The image leads with key at coefficient 1, so key cancels.
            # work holds no zero, so prev is 0 exactly when k is new.
            for k, a in image.items():
                prev = work.get(k, 0)
                if s := (prev - coeff * a) % p if p else prev - coeff * a:
                    work[k] = s
                    if not prev and k[1]:
                        heapq.heappush(heap, (at[k[0]] + k[1], len(k[1]), k))
                elif prev:
                    del work[k]
        if work:
            # A pair left over has an empty cofactor or one that is not a
            # normal word, so xi is not in the image of the differential.
            raise SplittingError(f"level-{level} split left {len(work)} terms uncancelled")
        if not public:
            return emitted
        return FreeElement({(self._chains[i], w): a for (i, w), a in emitted.items()}, p)

    def differential(self, c: Chain | int) -> FreeElement | dict:
        """d(c (x) 1) as an element one level down; a letter x maps to
        1 (x) x over the (-1)-chain.  A ``Chain`` gives a ``FreeElement``;
        inside the context, a chain id gives the cached dict keyed by
        ``(chain id, word)``.  A chain or an id out of range raises
        ``TruncationError``, and the (-1)-chain's id 0 ``SplittingError``."""
        i = c if type(c) is int else self._id_of(c)
        out = self._diff.get(i)
        if out is None:
            if not 0 < i < len(self._chains):
                if not i:
                    raise SplittingError("the (-1)-chain has no differential")
                raise self._outside(f"chain id {i}")
            chain, p = self._chains[i], self.p
            out = {(chain.prefix.id, chain.tail): 1}
            if chain.level:
                # split reduces d(c') . t mod p itself; every term it returns
                # lies below the product word of (c', t).
                xi = self._times(self.differential(chain.prefix.id), chain.tail)
                for k, a in self.split(chain.level - 1, xi).items():
                    out[k] = -a % p if p else -a
            self._diff[i] = out
        if type(c) is int:
            return out
        return FreeElement({(self._chains[i], w): a for (i, w), a in out.items()}, self.p)

    def _pair_ids(self, level: int, degree: int) -> tuple[tuple[int, Word], ...]:
        """``pair_basis`` as (chain id, word) pairs, built once per context."""
        cached = self._basis_cache.get((level, degree))
        if cached is None:
            if not (-1 <= level <= self.level_max and 0 <= degree <= self.deg_max):
                raise self._outside(f"level {level}, degree {degree}")
            accepted = self.automaton.accepted_words
            if level == -1:
                out = [(0, w) for w in accepted(degree)]
            else:
                out, words = [], self._at.get(level, {})
                for d in range(0, degree + 1):
                    if at := self.chains.at(level, d):  # one word list per cofactor degree
                        cofactors = accepted(degree - d)
                        out += [(c.id, w) for c in at for w in cofactors]
                # The split heap's key, reversed: ascending in the order in
                # which the heap pops the greatest pair first.
                out.sort(key=lambda k: (words[k[0]] + k[1], len(k[1])), reverse=True)
            cached = self._basis_cache[level, degree] = tuple(out)
        return cached

    def pair_basis(self, level: int, degree: int) -> list[tuple[Chain, Word]]:
        """Basis of the level module in one internal degree, ascending.

        Each basis is built once per context; every call returns a new list.
        A level outside -1..level_max or a degree outside 0..deg_max raises
        ``TruncationError``.
        """
        chains = self._chains
        return [(chains[i], w) for i, w in self._pair_ids(level, degree)]

    def slice(self, level: int, degree: int) -> ResolutionSlice:
        """Matrix of the differential at one level and internal degree;
        one outside the context's bounds raises ``TruncationError``."""
        rows = self._pair_ids(level - 1, degree)
        row_index = {k: i for i, k in enumerate(rows)}
        of, p = self.field.of, self.p
        columns = []
        for i, w in self._pair_ids(level, degree):
            terms = self.differential(i)
            if w:
                terms = self._times(terms, w)
            if p:
                columns.append({row_index[k]: r for k, a in terms.items() if (r := a % p)})
            else:  # an int is already a scalar of Q; a Fraction may be integral
                columns.append(
                    {row_index[k]: a if type(a) is int else of(a) for k, a in terms.items() if a}
                )
        rows = [w for _, w in rows] if level == 0 else self.pair_basis(level - 1, degree)
        return ResolutionSlice(level, degree, self.pair_basis(level, degree), rows, columns)

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
                    s.composes_to_zero = verify_composition(lower, s, self.p)
                    if not s.composes_to_zero:
                        raise SplittingError(
                            f"differential composition is nonzero at level {level}, "
                            f"degree {degree}"
                        )
                out.append(s)
        return out


def verify_composition(lower: ResolutionSlice, upper: ResolutionSlice, p: int) -> bool:
    """Check that applying the lower matrix after the upper gives zero
    modulo p (exactly for p = 0); the upper slice's rows are the lower
    slice's columns, in order."""
    for col in upper.columns:
        acc: dict[int, object] = {}
        for mid, a in col.items():
            for row, b in lower.columns[mid].items():
                acc[row] = acc.get(row, 0) + a * b
        if any(v % p for v in acc.values()) if p else any(acc.values()):
            return False
    return True


def resolution_slices(
    presentation: Presentation, level_max: int, deg_max: int
) -> list[ResolutionSlice]:
    """Exact differential matrices for all levels and degrees in range,
    each checked by ``ResolutionContext.slices``."""
    return ResolutionContext(complete(presentation, deg_max), level_max, deg_max).slices()
