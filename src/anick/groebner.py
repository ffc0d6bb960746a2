"""Normal forms, S-polynomials and truncated completion.

Relations are homogeneous, so completion runs degree by degree: the basis
elements of degree d follow from those of lower degree alone, and a
degree bound D yields every reduced-basis element of degree at most D.
An S-pair whose overlap word exceeds D is never silently dropped: it
downgrades the completeness certificate instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain

from . import linalg
from .errors import AlgebraError, TruncationError
from .fields import Field, is_one
from .poly import Polynomial
from .words import EMPTY, Alphabet, Word, deglex_desc, overlaps


@dataclass(frozen=True)
class Presentation:
    """A finitely presented graded algebra: alphabet, field, relations."""

    alphabet: Alphabet
    field: Field
    relations: tuple[Polynomial, ...]

    def __post_init__(self):
        letters = range(self.alphabet.size)
        for rel in self.relations:
            if any(i not in letters for w in rel.terms for i in w):
                raise AlgebraError("relation uses a letter outside the alphabet")
            if rel.is_zero:
                raise AlgebraError("zero relation")
            if not rel.is_homogeneous:
                raise AlgebraError("relations must be homogeneous")
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

    @classmethod
    def certified(cls) -> "Certificate":
        return cls(True, None)

    @classmethod
    def up_to(cls, degree: int) -> "Certificate":
        return cls(False, degree)

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

    def covers_degree(self, degree: int) -> bool:
        return self.valid_degree is None or degree <= self.valid_degree


def normal_form(
    p: Polynomial,
    basis: list[Polynomial],
    trace: list[tuple[int, object, Word, Word]] | None = None,
) -> Polynomial:
    """Reduce p against a list of monic polynomials.

    The order-maximal reducible term is rewritten first; within that term
    the leftmost obstruction occurrence is used, by the first basis element
    whose leading word sits there, which makes normal forms deterministic.
    When ``trace`` is given, each step appends
    ``(basis index, coefficient, left cofactor, right cofactor)`` with the
    convention ``p == result + sum(c * left * g * right)``.

    Pending terms live in a dict beside a lazy-deletion heap keyed by
    ``deglex_desc``, so the heap minimum is the deglex maximum.  A
    rewriting step subtracts ``c * left * g * right`` from the dict in
    place: g's leading word cancels exactly (g is monic) and is skipped,
    and only words new to the dict are pushed.
    Every word a step adds is below the word it rewrites, so a popped word
    never comes back; a popped word missing from the dict has cancelled.
    """
    first: dict[Word, int] = {}
    for gi, g in enumerate(basis):
        if g.is_zero or not is_one(g.lead_coeff()):
            raise AlgebraError("normal_form requires monic basis elements")
        first.setdefault(g.lead_word(), gi)
    lengths = sorted({len(lead) for lead in first})
    pending = dict(p.terms)
    heap = [deglex_desc(w) for w in pending]
    heapq.heapify(heap)
    done: dict[Word, object] = {}
    while heap:
        w = heapq.heappop(heap)[1]
        c = pending.pop(w, None)
        if c is None:
            continue
        hit = _find_reducer(w, first, lengths)
        if hit is None:
            done[w] = c
            continue
        pos, gi = hit
        g = basis[gi]
        lead = g.lead_word()
        left, right = w[:pos], w[pos + len(lead):]
        neg = -c
        for u, a in g.terms.items():
            if u == lead:
                continue
            x = left + u + right
            prev = pending.get(x)
            if prev is None:
                pending[x] = neg * a
                heapq.heappush(heap, deglex_desc(x))
            elif total := prev + neg * a:
                pending[x] = total
            else:
                del pending[x]
        if trace is not None:
            trace.append((gi, c, left, right))
    return Polynomial(done)


def _find_reducer(
    w: Word, first: dict[Word, int], lengths: list[int]
) -> tuple[int, int] | None:
    """The leftmost position of w holding a leading word, and the smallest
    basis index among the leading words there; ``first`` maps each leading
    word to its first index and ``lengths`` lists their lengths ascending."""
    n = len(w)
    for pos in range(n):
        best = None
        for length in lengths:
            if pos + length > n:
                break
            gi = first.get(w[pos:pos + length])
            if gi is not None and (best is None or gi < best):
                best = gi
        if best is not None:
            return pos, best
    return None


def s_polynomial(g: Polynomial, h: Polynomial, overlap_len: int) -> Polynomial:
    """S-polynomial of two monic polynomials at a given overlap length.

    The suffix of lead(g) of that length must equal the prefix of lead(h);
    the result is ``g * suffix - prefix * h`` where the shared overlap word
    cancels.
    """
    if not is_one(g.lead_coeff()) or not is_one(h.lead_coeff()):
        raise AlgebraError("s_polynomial requires monic inputs")
    u, w = g.lead_word(), h.lead_word()
    if not (1 <= overlap_len < len(u)) or not (overlap_len < len(w)):
        raise AlgebraError(f"invalid overlap length {overlap_len}")
    if u[len(u) - overlap_len:] != w[:overlap_len]:
        raise AlgebraError("words do not overlap at the given length")
    return g.word_mul(EMPTY, w[overlap_len:]) - h.word_mul(u[:len(u) - overlap_len], EMPTY)


def complete(presentation: Presentation, max_deg: int) -> GroebnerBasis:
    """The reduced Groebner basis through degree max_deg, one degree at a time.

    At degree d the relations of degree d and the S-polynomials whose
    overlap word has length d are reduced against the basis so far, which
    holds only elements of lower degree.  One reduced echelon step over
    the nonzero remainders, with the degree-d words as columns (greatest
    first), gives the degree-d elements as its monic pivot rows.  A
    degree-d leading word divides no shorter word, so no earlier element
    is ever superseded or reduced again.  Elements come out sorted by
    leading word, and the certificate is certified-complete exactly when
    no overlap word is longer than max_deg.
    """
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
    # Degrees with nothing to reduce are skipped, so a bound far above a
    # finite basis costs nothing.
    while relations or pairs:
        d = min(chain(relations, pairs))
        if d > max_deg:
            break
        s_polys = (s_polynomial(basis[i], basis[j], l) for i, j, l in pairs.pop(d, ()))
        # The words of one degree are the columns: as tuples they ascend
        # in descending deglex order, so a row's smallest column is its
        # leading word.  The basis grows only after echelon has drawn
        # every remainder.
        remainders = (normal_form(p, basis).terms for p in chain(relations.pop(d, ()), s_polys))
        for row in reversed(linalg.echelon(remainders, presentation.field)):
            new = len(basis)
            basis.append(Polynomial(row))
            u = basis[new].lead_word()
            for j, h in enumerate(basis):
                w = h.lead_word()
                for l in overlaps(u, w):
                    pairs.setdefault(len(u) + len(w) - l, []).append((new, j, l))
                if j != new:
                    for l in overlaps(w, u):
                        pairs.setdefault(len(u) + len(w) - l, []).append((j, new, l))
    # What is left are pairs above max_deg.
    certificate = Certificate.up_to(max_deg) if pairs else Certificate.certified()
    return GroebnerBasis(presentation, tuple(basis), max_deg, certificate)
