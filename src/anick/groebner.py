"""Normal forms, S-polynomials and truncated Buchberger completion.

Completion processes critical pairs in ascending overlap-word degree, so a
degree bound D yields every reduced-basis element of degree at most D.  A
pair whose overlap word exceeds D is never silently dropped: it downgrades
the completeness certificate instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import AlgebraError, TruncationError
from .fields import Field, is_one
from .poly import Polynomial
from .words import EMPTY, Alphabet, Word, contains_factor, overlaps


@dataclass(frozen=True)
class Presentation:
    """A finitely presented graded algebra: alphabet, field, relations."""

    alphabet: Alphabet
    field: Field
    relations: tuple[Polynomial, ...]

    def __post_init__(self):
        order = self.alphabet.order
        for rel in self.relations:
            if rel.order != order:
                raise AlgebraError("relation order does not match the alphabet")
            if rel.is_zero:
                raise AlgebraError("zero relation")
            if not rel.is_homogeneous:
                raise AlgebraError("relations must be homogeneous")
            if rel.degree() < 1:
                raise AlgebraError("relations must have degree at least 1")

    @property
    def order(self):
        return self.alphabet.order

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
    ``(-len(w), w)``; index 0 is the greatest letter, so the heap minimum
    is the deglex maximum.  A rewriting step subtracts ``c * left * g *
    right`` from the dict in place: g's leading word cancels exactly (g is
    monic) and is skipped, and only words new to the dict are pushed.
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
    heap = [(-len(w), w) for w in pending]
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
                heapq.heappush(heap, (-len(x), x))
            elif total := prev + neg * a:
                pending[x] = total
            else:
                del pending[x]
        if trace is not None:
            trace.append((gi, c, left, right))
    return Polynomial(done, p.order)


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


def interreduce(polys: list[Polynomial]) -> list[Polynomial]:
    """Monic inter-reduced generating set with the same two-sided ideal.

    Leading terms of the result form an antichain under factor
    divisibility and every element is fully reduced against the others.
    """
    work = [p.monic() for p in polys if not p.is_zero]
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            rest = work[:i] + work[i + 1:]
            reduced = normal_form(work[i], rest)
            if reduced.is_zero:
                work.pop(i)
                changed = True
                break
            reduced = reduced.monic()
            if reduced != work[i]:
                work[i] = reduced
                changed = True
                break
    order = polys[0].order if polys else None
    if order is None:
        return []
    return sorted(work, key=lambda g: order.key(g.lead_word()))


def complete(presentation: Presentation, max_deg: int) -> GroebnerBasis:
    """Truncated Buchberger completion with a completeness certificate.

    Critical pairs are processed in ascending overlap-word degree (ties
    broken by the overlap word itself), the basis is kept monic and
    inter-reduced throughout, and the certificate is certified-complete
    exactly when no pending pair above the bound was left unprocessed.
    """
    if max_deg < presentation.max_relation_degree():
        raise TruncationError(
            f"truncation degree {max_deg} is below the maximal relation degree "
            f"{presentation.max_relation_degree()}"
        )
    order = presentation.order
    alive: dict[int, Polynomial] = {}
    next_id = 0
    heap: list[tuple[int, tuple, int, int, int, int]] = []
    seq = 0
    overflow = False

    def push_pairs(new_id: int) -> None:
        nonlocal seq
        g = alive[new_id]
        u = g.lead_word()
        for other_id, h in list(alive.items()):
            w = h.lead_word()
            for l in overlaps(u, w):
                word = u + w[l:]
                seq += 1
                heapq.heappush(heap, (len(word), order.key(word), seq, new_id, other_id, l))
            if other_id != new_id:
                for l in overlaps(w, u):
                    word = w + u[l:]
                    seq += 1
                    heapq.heappush(heap, (len(word), order.key(word), seq, other_id, new_id, l))

    def reduce_tail(g: Polynomial, others: list[Polynomial]) -> Polynomial:
        lead = g.lead_word()
        tail = Polynomial({w: c for w, c in g.terms.items() if w != lead}, order)
        reduced = normal_form(tail, others)
        return Polynomial({lead: g.terms[lead], **reduced.terms}, order)

    def add_element(candidate: Polynomial) -> None:
        nonlocal next_id
        queue = [candidate]
        while queue:
            cand = queue.pop(0)
            cand = normal_form(cand, list(alive.values()))
            if cand.is_zero:
                continue
            cand = cand.monic()
            lead = cand.lead_word()
            # Existing elements whose leading term the new lead divides are
            # superseded; they go back through full reduction.
            stash = []
            for eid, g in list(alive.items()):
                if contains_factor(g.lead_word(), lead):
                    stash.append(g)
                    del alive[eid]
            alive[next_id] = cand
            push_pairs(next_id)
            next_id += 1
            # Tail-reduce survivors against the enlarged basis; leading
            # terms are untouched, so queued pairs stay valid.
            for eid, g in list(alive.items()):
                others = [h for oid, h in alive.items() if oid != eid]
                g2 = reduce_tail(g, others)
                if g2 != g:
                    alive[eid] = g2
            queue.extend(stash)

    for rel in interreduce(list(presentation.relations)):
        add_element(rel)

    while heap:
        deg, _, _, i, j, l = heapq.heappop(heap)
        if i not in alive or j not in alive:
            continue
        if deg > max_deg:
            overflow = True
            continue
        s = s_polynomial(alive[i], alive[j], l)
        reduced = normal_form(s, list(alive.values()))
        if not reduced.is_zero:
            add_element(reduced.monic())

    certificate = Certificate.certified() if not overflow else Certificate.up_to(max_deg)
    elements = tuple(sorted(alive.values(), key=lambda g: order.key(g.lead_word())))
    return GroebnerBasis(presentation, elements, max_deg, certificate)
