"""Resolution differentials by leading-term splitting.

The free modules are spanned by pairs (chain, normal word); the product
word of a pair well-orders each level's basis through deglex, since no
chain word of a level is a proper prefix of another.  Following Anick,
chains start at the (-1)-chain ``1``, the empty word, whose module is the
algebra itself, so a letter's differential is ``d(x (x) 1) = 1 (x) x``.
The differential of a level-n chain ``c = c' + t``, n >= 1, is

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

Inside a context a chain is its int id, ``Chain.id`` (0 is the chain set's
unit, then its chains level by level), and a word is a ``str`` of code
points, as in ``Reducer``: ``nf_word`` and ``split`` take and return them,
and the differential cache and the pair bases hold ``(chain id, code
word)``.  An id's code word is its prefix's plus its tail's; a dict maps
(prefix id, tail code) to the child id.  Only ``differential`` of a
``Chain``, ``pair_basis`` and ``slice`` give ``Chain`` keys and tuple
words.  A letter outside the alphabet raises ``AlgebraError`` where a word
reaches ``nf_word``; a chain, level or degree outside the context's bounds,
``TruncationError``; a wrong type, ``TypeError``.

Over Fp the context computes on plain ``int`` residues in 1..p-1 and
stores no zero, reducing mod p where it sums; over Q (``p == 0``)
coefficients are ``int`` or ``Fraction``.  The ``FreeElement`` that
``differential`` returns for a ``Chain`` holds the same scalars and
carries ``p``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .automaton import NormalWordAutomaton, normal_word_automaton
from .chains import Chain, ChainSet, enumerate_chains
from .errors import AlgebraError, CoverageError, SplittingError, TruncationError
from .groebner import GroebnerBasis, Presentation, Reducer, _code, _word, complete, normal_form
from .poly import LinComb, Polynomial
from .words import Word


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
        for name, bound in (("level_max", level_max), ("deg_max", deg_max)):
            if type(bound) is not int:
                raise TypeError(f"{name} must be an int, got {type(bound).__name__}")
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
        self._letters = _code(range(self.alphabet.size))  # every letter, for _check
        self._nf_cache: dict[str, dict[str, object]] = {}
        self._basis_cache: dict[tuple[int, int], tuple[tuple[int, str, Word], ...]] = {}
        # Ids run 0 (the chain set's unit), then 1..n in index order: _chains[c.id] is c.
        self.unit = self.chains.unit
        self._chains = chains = [self.unit, *self.chains.index.values()]
        self._child: dict[tuple[int, str], int] = {}  # (prefix id, tail code) -> child id
        self._at: dict[int, dict[int, str]] = {-1: {0: ""}}  # level -> id -> code word
        tails = {t: _code(t) for t in {c.tail for c in chains[1:]}}
        for c in chains[1:]:
            self._child[c.prefix.id, t := tails[c.tail]] = c.id
            self._at.setdefault(c.level, {})[c.id] = self._at[c.level - 1][c.prefix.id] + t
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

    def _check(self, w: str) -> str:
        """w, if a code word over the alphabet; ``str.strip`` raises ``TypeError`` on a non-str."""
        if str.strip(w, self._letters):  # the strip stops at a letter outside the alphabet
            raise AlgebraError(f"word {_word(w)} has a letter outside 0..{len(self._letters) - 1}")
        return w

    def nf_word(self, w: str) -> dict[str, object]:
        """The normal form of a code word as ``{code word: scalar}`` terms, residues over
        Fp; a word with no leading-word factor is its own.  ``Reducer.find`` keeps the
        search, so ``normal_form`` does not search it again.  w is checked on a miss."""
        cached = self._nf_cache.get(w)
        if cached is None:
            cached = {w: 1}  # unless w has a leading-word factor
            if self._reducer.find(self._check(w)) is not None:
                nf = normal_form(Polynomial.monomial(_word(w), 1, self.p), self._reducer)
                cached = {_code(u): a for u, a in nf.terms.items()}
            self._nf_cache[w] = cached
        return cached

    def _times(self, terms: dict, w: str) -> dict:
        """terms . w in normal form, summed but not reduced, keyed as terms is."""
        nf_word, out = self.nf_word, {}
        for (c, u), coeff in terms.items():
            for word, scalar in nf_word(u + w).items():
                k = c, word
                out[k] = out.get(k, 0) + coeff * scalar
        return out

    def split(self, level: int, xi: dict) -> dict:
        """Find eta at the given level whose differential is xi, both keyed by
        (chain id, code word).

        xi must lie in the kernel of the previous differential and be supported
        on the chains one level down, which holds for every element this engine
        feeds in.  At level 0, xi is an algebra element keyed by the unit's id 0
        and must have no degree-0 term.  Over Fp its coefficients may be any
        ``int``; the result holds residues.  A pair with an empty cofactor is
        never split, since no chain extension fits it; it must cancel.  A term
        that does not cancel raises ``SplittingError``; an id that names no chain
        one level down, ``TruncationError``; a letter outside the alphabet in a
        left-over cofactor, ``AlgebraError``; any xi but a dict, ``TypeError``.
        """
        if not isinstance(xi, dict):
            raise TypeError(f"expected a dict of (id, code word) terms, got {type(xi).__name__}")
        p, at, child = self.p, self._at.get(level - 1, {}), self._child
        work = {k: r for k, a in xi.items() if (r := a % p if p else a)}
        # Products in one split share a length, so the code word orders them in deglex;
        # one level's chains are prefix-free, so equal words mean equal keys.  A pair
        # with an empty cofactor fits no tail and stays off the heap, unless at lacks its id.
        try:  # at[i] raises for an id that names no chain one level down
            heap = [(at[k[0]] + k[1], k) for k in work if k[1] or k[0] not in at]
        except KeyError as e:
            raise self._outside(f"chain id {e.args[0]} at level {level - 1}") from None
        heapq.heapify(heap)
        emitted: dict[tuple[int, str], object] = {}
        while heap:
            key = heapq.heappop(heap)[1]
            coeff = work.get(key)
            if coeff is None:
                continue
            i, w0 = key
            hat, n = child.get(key), len(w0)  # most often the tail is all of w0
            while hat is None and n > 1:  # at most one child's tail begins w0
                n -= 1
                hat = child.get((i, w0[:n]))
            if hat is None:
                raise SplittingError(
                    f"no level-{level} chain prefix for product word "
                    f"{_word(at[i] + w0)}; the basis data is incomplete or invalid"
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
                        heapq.heappush(heap, (at[k[0]] + k[1], k))
                elif prev:
                    del work[k]
        if work:
            # A pair left over has an empty cofactor or one that is not a
            # normal word, so xi is not in the image of the differential.
            raise SplittingError(f"level-{level} split left {len(work)} terms uncancelled")
        return emitted

    def differential(self, c: Chain | int) -> FreeElement | dict:
        """d(c (x) 1) as an element one level down; a letter x maps to
        1 (x) x over the (-1)-chain.  A ``Chain`` gives a ``FreeElement``;
        inside the context, a chain id gives the cached dict keyed by
        ``(chain id, code word)``.  A chain or an id out of range raises
        ``TruncationError``, and the (-1)-chain's id 0 ``SplittingError``."""
        i = c if type(c) is int else self._id_of(c)
        out = self._diff.get(i)
        if out is None:
            if not 0 < i < len(self._chains):
                if not i:
                    raise SplittingError("the (-1)-chain has no differential")
                raise self._outside(f"chain id {i}")
            chain, p = self._chains[i], self.p
            out = {(chain.prefix.id, t := self._at[chain.level][i][-chain.tail_len:]): 1}
            if chain.level:
                # split reduces d(c') . t mod p itself; every term it returns
                # lies below the product word of (c', t).
                xi = self._times(self.differential(chain.prefix.id), t)
                for k, a in self.split(chain.level - 1, xi).items():
                    out[k] = -a % p if p else -a
            self._diff[i] = out
        if type(c) is int:
            return out
        return FreeElement({(self._chains[i], _word(w)): a for (i, w), a in out.items()}, self.p)

    def _pair_ids(self, level: int, degree: int) -> tuple[tuple[int, str, Word], ...]:
        """``pair_basis`` as (chain id, code word, word), built once per context."""
        if type(level) is not int or type(degree) is not int:
            raise TypeError(f"level and degree must be ints, got {level!r}, {degree!r}")
        cached = self._basis_cache.get((level, degree))
        if cached is None:
            if not (-1 <= level <= self.level_max and 0 <= degree <= self.deg_max):
                raise self._outside(f"level {level}, degree {degree}")
            accepted = self.automaton.accepted_words
            if level == -1:
                out = [(0, _code(w), w) for w in accepted(degree)]
            else:
                out, words = [], self._at.get(level, {})
                for d in range(0, degree + 1):
                    if at := self.chains.at(level, d):  # one word list per cofactor degree
                        cofactors = [(_code(w), w) for w in accepted(degree - d)]
                        out += [(c.id, s, w) for c in at for s, w in cofactors]
                # The split heap's key, reversed: ascending in the order in
                # which the heap pops the greatest pair first.
                out.sort(key=lambda k: words[k[0]] + k[1], reverse=True)
            cached = self._basis_cache[level, degree] = tuple(out)
        return cached

    def pair_basis(self, level: int, degree: int) -> list[tuple[Chain, Word]]:
        """Basis of the level module in one internal degree, ascending.

        Each basis is built once per context; every call returns a new list.
        A level outside -1..level_max or a degree outside 0..deg_max raises
        ``TruncationError``.
        """
        chains = self._chains
        return [(chains[i], w) for i, _, w in self._pair_ids(level, degree)]

    def slice(self, level: int, degree: int) -> ResolutionSlice:
        """Matrix of the differential at one level and internal degree;
        one outside the context's bounds raises ``TruncationError``."""
        rows = self._pair_ids(level - 1, degree)
        row_index = {(i, s): r for r, (i, s, _) in enumerate(rows)}
        of, p = self.field.of, self.p
        columns = []
        for i, w, _ in self._pair_ids(level, degree):
            terms = self.differential(i)
            if w:
                terms = self._times(terms, w)
            if p:
                columns.append({row_index[k]: r for k, a in terms.items() if (r := a % p)})
            else:  # an int is already a scalar of Q; a Fraction may be integral
                columns.append(
                    {row_index[k]: a if type(a) is int else of(a) for k, a in terms.items() if a}
                )
        rows = [w for *_, w in rows] if level == 0 else self.pair_basis(level - 1, degree)
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
