"""Normal forms, S-polynomials and truncated completion.

Relations are homogeneous, so completion runs degree by degree: the basis
elements of degree d follow from those of lower degree alone, and a
degree bound D yields every reduced-basis element of degree at most D.
An S-pair whose overlap word exceeds D is never silently dropped: it
downgrades the completeness certificate instead.

Rewriting is fraction-free: a ``Reducer`` holds each basis element as an
integer row and reduces integer (over Fp, residue) coefficients, and only
``normal_form`` divides back into the field; ``complete`` never does.
Inside both, a word is a ``str`` of code points; outside, it is a tuple.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import Iterable

from . import linalg
from .errors import AlgebraError, FieldError, TruncationError
from .fields import Field
from .poly import Polynomial
from .words import Alphabet, Word, overlaps


@dataclass(frozen=True)
class Presentation:
    """A finitely presented graded algebra: alphabet, field, relations."""

    alphabet: Alphabet
    field: Field
    relations: tuple[Polynomial, ...]

    def __post_init__(self):
        letters, p = range(self.alphabet.size), self.field.p
        for rel in self.relations:
            if rel.p != p:
                raise AlgebraError(f"a relation mod {rel.p} over {self.field.name}")
            if any(i not in letters for w in rel.terms for i in w):
                raise AlgebraError("relation uses a letter outside the alphabet")
            if rel.is_zero:
                raise AlgebraError("relation is zero")
            if not rel.is_homogeneous:
                raise AlgebraError("relation is not homogeneous")
            if rel.degree() < 1:
                raise AlgebraError("relations must have degree at least 1")

    @property
    def is_quadratic(self) -> bool:
        return all(r.degree() == 2 for r in self.relations)

    def max_relation_degree(self) -> int:
        return max((r.degree() for r in self.relations), default=0)


@dataclass(frozen=True)
class Certificate:
    """Completeness status of a truncated Groebner basis."""

    complete: bool
    degree: int | None = None

    def __str__(self) -> str:
        if self.complete:
            return "certified-complete"
        return f"complete-up-to-degree({self.degree})"


@dataclass(frozen=True)
class GroebnerBasis:
    presentation: Presentation
    elements: tuple[Polynomial, ...]
    truncation_degree: int
    certificate: Certificate

    @property
    def obstructions(self) -> tuple[Word, ...]:
        return tuple(g.lead_word() for g in self.elements)

    @property
    def valid_degree(self) -> int | None:
        """Degree through which the obstruction set is known complete.

        None means all degrees (certified complete basis).
        """
        return None if self.certificate.complete else self.truncation_degree


def _code(w: Word) -> str:
    """w as a string of code points; a letter that is no code point raises ``AlgebraError``."""
    try:
        return bytes(w).decode("latin-1")
    except ValueError:  # a letter of 256 or more
        if all(0 <= i <= 0x10FFFF for i in w):
            return "".join(map(chr, w))
    raise AlgebraError(f"word {w} has a letter outside 0..0x10FFFF")


def _word(s: str) -> Word:
    try:
        return tuple(s.encode("latin-1"))
    except UnicodeEncodeError:  # a letter of 256 or more
        return tuple(map(ord, s))


class Reducer:
    """Monic basis elements as integer rows (over Q the primitive multiple
    with a positive lead, over Fp the residues with lead 1), and the one
    rewriting loop.  ``memo`` maps each word looked up to its reducer;
    adding rows clears it, since a new leading word may divide a seen word.
    A polynomial of another modulus than the field's raises ``FieldError``.
    ``rows``, ``first``, ``memo``, ``find``'s word and ``reduce``'s remainders are ``_code``s.
    """

    def __init__(self, field: Field, basis: Iterable[Polynomial] = ()):
        self.field, self.p = field, field.p
        self.rows: list[tuple[str, int, dict[str, int]]] = []  # (lead, lc, tail)
        self.first: dict[str, int] = {}
        self.memo: dict[str, tuple[int, int] | None] = {}
        self.extend(basis)

    def extend(self, basis: Iterable[Polynomial]) -> None:
        rows = [(g, self._int_row(g)[0]) for g in basis]
        if any(g.is_zero or g.lead_coeff() != 1 for g, _ in rows):
            raise AlgebraError("normal_form requires monic basis elements")
        # A monic row scaled by the lcm of its denominators is primitive.
        self._add_rows((_code(g.lead_word()), row) for g, row in rows)

    def _int_row(self, poly: Polynomial) -> tuple[dict[str, int], int]:
        """``linalg._int_row`` of poly, which must be over the reducer's field."""
        if poly.p != self.p:
            raise FieldError(f"a polynomial mod {poly.p} in a reducer over {self.field.name}")
        return linalg._int_row(((_code(w), c) for w, c in poly.terms.items()), self.p)

    def _add_rows(self, rows: Iterable[tuple[str, dict[str, int]]]) -> None:
        """Add primitive (over Fp, monic) integer rows as ``(lead, row)``."""
        for lead, row in rows:
            self.first.setdefault(lead, len(self.rows))
            self.rows.append((lead, row.pop(lead), row))
        self.lengths = sorted({len(lead) for lead in self.first})
        self.memo.clear()

    def find(self, w: str) -> tuple[int, int] | None:
        """The leftmost position of a ``_code`` string w holding a leading word (an
        empty one sits at len(w) in "") and the least basis index there, kept in ``memo``."""
        if (hit := self.memo.get(w, False)) is False:
            hit = self.memo[w] = self._find(w)
        return hit

    def _find(self, w: str) -> tuple[int, int] | None:
        """``find`` of a ``_code`` string, unmemoized; it tries only leads that end in w."""
        first, miss, end = self.first, len(self.rows), len(w)
        for pos in range(end + 1):
            gi = miss
            for n in self.lengths:
                if pos + n > end:
                    break
                if (hit := first.get(w[pos:pos + n], miss)) < gi:
                    gi = hit
            if gi < miss:
                return pos, gi
        return None

    def reduce(self, poly: Polynomial, trace: list | None = None) -> tuple[dict, int]:
        """The integer remainder of poly and the multiplier M with ``M *
        poly == remainder + sum(f * left * G * right)``.

        Each step rewrites the deglex-greatest reducible word, of
        coefficient c, by a row G of lead lc as ``linalg._cancel`` does:
        ``pending <- m*pending - f*left*G*right``, ``(f, m) = (c, lc) /
        gcd(c, lc)``; over Fp m = 1, and coefficients are reduced mod p
        when popped.  ``trace`` gets the steps as ``normal_form`` does.
        Words wait in a dict beside lazy heaps of plain words, one per
        length and longest first (in one length ascending strings descend in
        deglex); a step adds words below, so no longer than, the one it
        rewrites, and a popped word missing from the dict has cancelled.
        """
        p, rows, memo = self.p, self.rows, self.memo
        pending, scale = self._int_row(poly)
        heaps: dict[int, list[str]] = {}
        for w in sorted(pending):
            heaps.setdefault(len(w), []).append(w)
        done: dict[str, int] = {}
        while heaps:
            heap = heaps.pop(n := max(heaps))
            while heap:
                w = heapq.heappop(heap)
                c = pending.pop(w, 0)
                if p:
                    c %= p
                if not c:
                    continue
                # find(w), written out: calling it cost gb-g4 45.5 -> 46.5 ms (CPython 3.11).
                hit = memo.get(w, False)
                if hit is False:
                    hit = memo[w] = self._find(w)
                if hit is None:
                    done[w] = c
                    continue
                pos, gi = hit
                lead, lc, tail = rows[gi]
                left, right = w[:pos], w[pos + len(lead):]
                if trace is not None:
                    trace.append((gi, self.field.of(c, scale), _word(left), _word(right)))
                if lc != 1:
                    m = lc // gcd(c, lc)
                    c, scale = c * m // lc, scale * m
                    if m != 1:
                        for terms in (pending, done):
                            for u in terms:
                                terms[u] *= m
                for u, a in tail.items():
                    x = left + u + right
                    prev = pending.get(x)
                    if prev is None:
                        pending[x] = -c * a
                        heapq.heappush(heap if len(x) == n else heaps.setdefault(len(x), []), x)
                    elif total := prev - c * a:
                        pending[x] = total
                    else:
                        del pending[x]
        return done, scale


def normal_form(
    p: Polynomial,
    reducer: Reducer,
    trace: list[tuple[int, object, Word, Word]] | None = None,
) -> Polynomial:
    """Reduce p against the monic basis held by a ``Reducer``.

    The order-maximal reducible term is rewritten first; within that term
    the leftmost obstruction occurrence is used, by the first basis element
    whose leading word sits there, which makes normal forms deterministic.
    When ``trace`` is given, each step appends
    ``(basis index, coefficient, left cofactor, right cofactor)`` with the
    convention ``p == result + sum(c * left * g * right)``.  It rewrites
    integers (``Reducer.reduce``) and divides back into the reducer's
    field by their multiplier.
    """
    done, scale = reducer.reduce(p, trace)
    return Polynomial({_word(w): reducer.field.of(c, scale) for w, c in done.items()}, reducer.p)


def s_polynomial(g: Polynomial, h: Polynomial, overlap_len: int) -> Polynomial:
    """S-polynomial of two monic polynomials at a given overlap length.

    The suffix of lead(g) of that length must equal the prefix of lead(h);
    the result is ``g * suffix - prefix * h`` where the shared overlap word
    cancels, formed in one dict.  An operand that is not a ``Polynomial``
    raises ``TypeError``; two moduli raise ``FieldError``.
    """
    if not (isinstance(g, Polynomial) and isinstance(h, Polynomial)):
        raise TypeError(f"expected two Polynomials, got {type(g).__name__}, {type(h).__name__}")
    if g.lead_coeff() != 1 or h.lead_coeff() != 1:
        raise AlgebraError("s_polynomial requires monic inputs")
    u, w = g.lead_word(), h.lead_word()
    if not (1 <= overlap_len < len(u)) or not (overlap_len < len(w)):
        raise AlgebraError(f"invalid overlap length {overlap_len}")
    if u[len(u) - overlap_len:] != w[:overlap_len]:
        raise AlgebraError("words do not overlap at the given length")
    suffix, prefix = w[overlap_len:], u[:len(u) - overlap_len]
    out = {v + suffix: c for v, c in g.terms.items()}
    for v, c in h.terms.items():
        out[prefix + v] = out.get(prefix + v, 0) - c
    return Polynomial(out, g._modulus(h))


def complete(presentation: Presentation, max_deg: int) -> GroebnerBasis:
    """The reduced Groebner basis through degree max_deg, one degree at a time.

    At degree d the relations of degree d and the S-polynomials whose
    overlap word has length d are reduced against the basis so far, which
    holds only elements of lower degree.  One reduced echelon step over
    the nonzero remainders, with the degree-d words as columns (greatest
    first), gives the degree-d elements from its integer pivot rows.  A
    degree-d leading word divides no shorter word, so no earlier element
    is ever superseded or reduced again.  Elements come out sorted by
    leading word, and the certificate is certified-complete exactly when
    no overlap word is longer than max_deg.
    """
    if type(max_deg) is not int:
        raise TypeError(f"truncation degree must be an int, got {type(max_deg).__name__}")
    if max_deg < presentation.max_relation_degree():
        raise TruncationError(
            f"truncation degree {max_deg} is below the maximal relation degree "
            f"{presentation.max_relation_degree()}"
        )
    relations: dict[int, list[Polynomial]] = {}
    for rel in presentation.relations:
        relations.setdefault(rel.degree(), []).append(rel)
    # S-pairs (i, j, overlap length) bucketed by overlap-word length; every
    # overlap word is longer than both leading words.
    pairs: dict[int, list[tuple[int, int, int]]] = {}
    basis: list[Polynomial] = []
    field, p = presentation.field, presentation.field.p
    reducer = Reducer(field)
    # Degrees with nothing to reduce are skipped, so a bound far above a
    # finite basis costs nothing.
    while relations or pairs:
        d = min(chain(relations, pairs))
        if d > max_deg:
            break
        s_polys = (s_polynomial(basis[i], basis[j], l) for i, j, l in pairs.pop(d, ()))
        # The words of one degree are the columns: as strings they ascend
        # in descending deglex order, so a row's smallest column is its
        # leading word.  The basis grows only after echelon has drawn
        # every remainder, undivided: an integer multiple has the same
        # pivot rows.  The reducer takes those integer rows as they are.
        remainders = (reducer.reduce(f)[0] for f in chain(relations.pop(d, ()), s_polys))
        start, rows = len(basis), linalg._reduced(remainders, field)[::-1]
        for lead, row in rows:
            basis.append(Polynomial({_word(w): field.of(c, row[lead]) for w, c in row.items()}, p))
        reducer._add_rows(rows)
        # Pairing each new element with those before it only lists every
        # pair once.
        for new in range(start, len(basis)):
            u = basis[new].lead_word()
            for j, h in enumerate(basis[:new + 1]):
                w = h.lead_word()
                for l in overlaps(u, w):
                    pairs.setdefault(len(u) + len(w) - l, []).append((new, j, l))
                if j != new:
                    for l in overlaps(w, u):
                        pairs.setdefault(len(u) + len(w) - l, []).append((j, new, l))
    # What is left are pairs above max_deg.
    certificate = Certificate(not pairs, max_deg if pairs else None)
    return GroebnerBasis(presentation, tuple(basis), max_deg, certificate)
