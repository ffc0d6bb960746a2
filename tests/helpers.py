"""Independent reference implementations used as test oracles.

Everything here recomputes expected values by a route different from the
engine under test: chains are classified top-down over all words, word
counts come from exhaustive enumeration, ideal slice dimensions from
sparse echelon over spanning products, and differentials from the
closed-form shape formulas for the three-generator fixture.  Normal forms
come from the plain rewriting loop that rescans the pending polynomial on
every step, and level-1 differentials from splitting such a normal form
over the letters, without the (-1)-chain; all differentials from a split
that takes the ``DegLex`` maximum of the whole work element and tries
every cut of its cofactor, with a right action built on that rewriting
loop and computed in field scalars.  Truncated Groebner bases come from
incremental Buchberger completion over a pair heap, the engine's
algorithm before it completed degree by degree; it orders words by
``DegLex``, the reference order.  Finiteness verdicts come from a
depth-first search for a cycle in the normal-word automaton, and
antichain checks from a factor scan of every ordered pair of words.
The last section holds what only tests use, so the package leaves it out.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import product

from anick import FreeElement, KoszulVerdict, Polynomial, Reducer, betti_table, koszul_verdict
from anick.errors import (
    AlgebraError,
    AntichainError,
    NotQuadraticError,
    SplittingError,
    TruncationError,
)
from anick.groebner import (
    Certificate,
    GroebnerBasis,
    Presentation,
    _code,
    _word,
    normal_form,
    s_polynomial,
)
from anick.linalg import echelon
from anick.words import EMPTY, DegLex, Word, deglex_desc, overlaps


# ---------------------------------------------------------------------------
# word utilities (deliberately separate from the package's implementations)

def all_words(size: int, degree: int):
    return [tuple(w) for w in product(range(size), repeat=degree)]


def bf_occurrences(word, factor):
    n, m = len(word), len(factor)
    return [i for i in range(n - m + 1) if word[i:i + m] == factor]


def bf_has_factor(word, factor):
    return bool(bf_occurrences(word, factor))


def check_antichain_reference(words) -> tuple[Word, ...]:
    """``anick.words.check_antichain`` by a scan of every ordered pair."""
    for i, u in enumerate(words):
        for j, w in enumerate(words):
            if i != j and bf_has_factor(w, u):
                raise AntichainError(
                    f"obstruction {u} divides obstruction {w}; not an antichain"
                )
    return tuple(sorted(set(words), key=lambda w: (len(w), w)))


def bf_normal_count(size: int, degree: int, obstructions) -> int:
    """Number of degree-j words containing no obstruction, by enumeration."""
    count = 0
    for w in all_words(size, degree):
        if not any(bf_has_factor(w, o) for o in obstructions):
            count += 1
    return count


# ---------------------------------------------------------------------------
# top-down chain-condition oracle

def bf_chain_tail(word, level, obstructions, memo=None):
    """Tail of ``word`` as a level-n chain, or None.

    Tries every prefix/tail split of the word and applies the chain
    condition directly: the combined window of the previous tail and the
    new tail must contain exactly one obstruction occurrence, ending at
    the window's end and starting strictly inside the previous tail.
    Raises AssertionError when two splits both work, which would violate
    decomposition uniqueness.
    """
    if memo is None:
        memo = {}
    key = (word, level)
    if key in memo:
        return memo[key]
    result = None
    if level == 0:
        result = word if len(word) == 1 else None
    else:
        found = []
        for tail_len in range(1, len(word)):
            prefix, tail = word[:-tail_len], word[-tail_len:]
            prev_tail = bf_chain_tail(prefix, level - 1, obstructions, memo)
            if prev_tail is None:
                continue
            window = prev_tail + tail
            occs = [
                (p, p + len(o))
                for o in obstructions
                for p in bf_occurrences(window, o)
            ]
            if len(occs) == 1 and occs[0][1] == len(window) and occs[0][0] < len(prev_tail):
                found.append(tail)
        assert len(found) <= 1, f"ambiguous level-{level} decomposition of {word}"
        result = found[0] if found else None
    memo[key] = result
    return result


def bf_chains(size, obstructions, level, deg_max):
    """All level-n chain words of degree <= deg_max, by scanning every word."""
    memo = {}
    out = []
    for degree in range(1, deg_max + 1):
        for w in all_words(size, degree):
            if bf_chain_tail(w, level, obstructions, memo) is not None:
                out.append(w)
    return sorted(out)


# ---------------------------------------------------------------------------
# shape classification for the xyz fixture (x=0, y=1, z=2)

X, Y, Z = 0, 1, 2


def u_word(ks):
    out = [X]
    for k in ks:
        out.extend([Y] * k + [X])
    return tuple(out)


def v_word(ks):
    return u_word(ks) + (Z,)


def w_word(ks):
    return u_word(ks) + (Z, Y)


def tuples_with_sum_at_most(length, bound):
    if length == 0:
        return [()] if bound >= 0 else []
    out = []
    for first in range(bound + 1):
        for rest in tuples_with_sum_at_most(length - 1, bound - first):
            out.append((first,) + rest)
    return out


def shape_chains(level, deg_max):
    """Expected level-n chain words for the xyz fixture, three shapes."""
    words = set()
    for ks in tuples_with_sum_at_most(level, deg_max - (level + 1)):
        words.add(u_word(ks))
    if level >= 1:
        for ks in tuples_with_sum_at_most(level - 1, deg_max - (level + 1)):
            words.add(v_word(ks))
    if level >= 2:
        for ks in tuples_with_sum_at_most(level - 2, deg_max - (level + 1)):
            words.add(w_word(ks))
    return {w for w in words if len(w) <= deg_max}


def classify_shape(word):
    """Return ('U'|'V'|'W', exponents) for a shaped word, else None."""
    body = word
    kind = "U"
    if len(word) >= 2 and word[-2:] == (Z, Y):
        kind, body = "W", word[:-2]
    elif word[-1] == Z:
        kind, body = "V", word[:-1]
    if not body or body[0] != X or body[-1] != X:
        return None
    ks = []
    run = None
    for letter in body[1:]:
        if letter == Y:
            if run is None:
                run = 1
            else:
                run += 1
        elif letter == X:
            ks.append(run or 0)
            run = None
        else:
            return None
    if run is not None:
        return None
    return kind, tuple(ks)


def formula_differential(word):
    """Closed-form level-n differential of a shaped chain word, n >= 2.

    The boundary of a shaped chain is its prefix chain tensored with the
    tail, plus one merged-exponent chain per adjacent exponent pair with
    alternating signs, written here with the final merge positive.
    Returns (first_term, corrections): first_term is a (chain word,
    cofactor word) pair with coefficient one and corrections maps chain
    words (unit cofactor) to signs.
    """
    kind, ks = classify_shape(word)
    if kind == "U":
        first = (u_word(ks[:-1]), (Y,) * ks[-1] + (X,))
        build = u_word
    elif kind == "V":
        first = (u_word(ks), (Z,))
        build = v_word
    else:
        first = (v_word(ks), (Y,))
        build = w_word
    corrections = {}
    m = len(ks)
    for i in range(m - 1):
        merged = ks[:i] + (ks[i] + ks[i + 1] + 1,) + ks[i + 2:]
        corrections[build(merged)] = (-1) ** (m - 2 - i)
    return first, corrections


# ---------------------------------------------------------------------------
# sparse echelon over the rationals, for ideal slice dimensions

class SparseEchelon:
    """Row space of sparse vectors keyed by arbitrary comparable columns."""

    def __init__(self):
        self.rows = {}

    def insert(self, vec: dict) -> bool:
        vec = {c: Fraction(v) for c, v in vec.items() if v}
        while vec:
            pivot = min(vec)
            row = self.rows.get(pivot)
            if row is None:
                scale = vec[pivot]
                self.rows[pivot] = {c: v / scale for c, v in vec.items()}
                return True
            factor = vec[pivot]
            for c, v in row.items():
                new = vec.get(c, Fraction(0)) - factor * v
                if new:
                    vec[c] = new
                else:
                    vec.pop(c, None)
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def ideal_slice_dims(size, relations, deg_max):
    """dim of each degree slice of the two-sided ideal of the relations.

    relations: list of dicts  word tuple -> coefficient.
    Spans every product u * r * v of the right degree and echelonizes.
    """
    dims = []
    for degree in range(deg_max + 1):
        ech = SparseEchelon()
        for rel in relations:
            rel_deg = len(next(iter(rel)))
            pad = degree - rel_deg
            if pad < 0:
                continue
            for left_len in range(pad + 1):
                for left in all_words(size, left_len):
                    for right in all_words(size, pad - left_len):
                        ech.insert({left + w + right: c for w, c in rel.items()})
        dims.append(ech.rank)
    return dims


def series_inverse_coefficients(numerator, top):
    """Coefficients of 1/numerator(t) through degree top, exact integers."""
    out = [0] * (top + 1)
    out[0] = 1
    assert numerator[0] == 1
    for j in range(1, top + 1):
        acc = 0
        for m in range(1, min(j, len(numerator) - 1) + 1):
            acc += numerator[m] * out[j - m]
        out[j] = -acc
    return out


# ---------------------------------------------------------------------------
# plain rewriting loop, the reference for ``anick.groebner.normal_form``

def normal_form_reference(
    p: Polynomial,
    basis: list[Polynomial],
    trace: list[tuple[int, object, Word, Word]] | None = None,
) -> Polynomial:
    """Reduce p against a list of monic polynomials.

    The order-maximal reducible term is rewritten first; within that term
    the leftmost obstruction occurrence is used, which makes normal forms
    deterministic.  When ``trace`` is given, each step appends
    ``(basis index, coefficient, left cofactor, right cofactor)`` with the
    convention ``p == result + sum(c * left * g * right)``.
    """
    for g in basis:
        if g.is_zero or g.lead_coeff() != 1:
            raise AlgebraError("normal_form requires monic basis elements")
    leads = [g.lead_word() for g in basis]
    done: dict[Word, object] = {}
    pending = Polynomial(p.terms, p.p)
    while not pending.is_zero:
        w = pending.lead_word()
        c = pending.terms[w]
        hit: tuple[int, int] | None = None
        # The position len(w) is scanned too: an empty lead sits there in ().
        for pos in range(len(w) + 1):
            for gi, lead in enumerate(leads):
                if w[pos:pos + len(lead)] == lead:
                    hit = (pos, gi)
                    break
            if hit:
                break
        if hit is None:
            # Irreducible terms leave pending in strictly decreasing order,
            # so each word lands here at most once.
            done[w] = c
            pending = Polynomial({u: a for u, a in pending.terms.items() if u != w}, p.p)
            continue
        pos, gi = hit
        left, right = w[:pos], w[pos + len(leads[gi]):]
        pending = pending.add_scaled(basis[gi].word_mul(left, right), -c)
        if trace is not None:
            trace.append((gi, c, left, right))
    return Polynomial(done, p.p)


def letter_split_differential(ctx, chain) -> FreeElement:
    """d of a level-1 chain o as the pair (o[0], o[1:]) minus the normal form
    of o, each of its words w split as (w[0], w[1:]) over the letter chains.
    The engine instead splits through the (-1)-chain ``ctx.unit``."""
    letters = {c.word: c for c in ctx.chains.level(0)}
    o = chain.word
    nf = normal_form_reference(Polynomial.monomial(o, 1, ctx.p), list(ctx.gb.elements))
    return FreeElement({(letters[o[:1]], o[1:]): 1}, ctx.p) - FreeElement.from_pairs(
        (((letters[w[:1]], w[1:]), c) for w, c in nf.terms.items()), ctx.p
    )


# ---------------------------------------------------------------------------
# cut-scanning split, the reference for ``ResolutionContext.split``

def split_reference(ctx, level: int, xi: FreeElement, differential, act_right) -> FreeElement:
    """eta at the given level with d(eta) = xi, as the engine split before it
    kept a heap: every step takes the maximum of the whole work element
    (by product word under ``DegLex``, then chain length), tries every cut
    of its cofactor against the chain index, and rebuilds the work element
    with the given differential and right action."""
    order = DegLex(ctx.alphabet.size)
    emitted = []
    work = xi
    while not work.is_zero:
        c0, w0 = max(work.terms, key=lambda k: (order.key(k[0].word + k[1]), len(k[0].word)))
        coeff = work.terms[c0, w0]
        found = []
        for cut in range(1, len(w0) + 1):
            cand = ctx.chains.find(level, c0.word + w0[:cut])
            if cand is not None:
                found.append((cand, w0[cut:]))
        if len(found) != 1:
            raise SplittingError(f"{len(found)} level-{level} chain prefixes of {c0.word + w0}")
        hat, leftover = found[0]
        emitted.append(((hat, leftover), coeff))
        work = work.add_scaled(act_right(differential(hat), leftover), -coeff)
    return FreeElement.from_pairs(emitted, ctx.p)


def differentials_reference(ctx) -> dict:
    """Every chain's differential (residues over Fp), by
    the recursion over ``split_reference`` and a right action that reduces
    each product word with ``normal_form_reference``; memoized apart from
    the engine's caches."""
    basis, p = list(ctx.gb.elements), ctx.p
    memo, nfs = {}, {}

    def act_right(elem, w):
        if not w:
            return elem
        pairs = []
        for (c, u), coeff in elem.terms.items():
            if u + w not in nfs:
                nfs[u + w] = normal_form_reference(Polynomial.monomial(u + w, 1, p), basis)
            pairs += (((c, v), coeff * a) for v, a in nfs[u + w].terms.items())
        return FreeElement.from_pairs(pairs, p)

    def d(c):
        if c not in memo:
            if c.level == 0:
                memo[c] = FreeElement({(ctx.unit, c.word): 1}, p)
            else:
                xi = act_right(d(c.prefix), c.tail)
                memo[c] = FreeElement({(c.prefix, c.tail): 1}, p) - split_reference(
                    ctx, c.level - 1, xi, d, act_right
                )
        return memo[c]

    return {c: d(c) for c in ctx.chains.index.values()}


def assert_context_scalars(ctx, coeffs) -> None:
    """Inside a context a coefficient is an ``int`` or a ``Fraction`` over
    Q, and over Fp a plain ``int`` residue in 1..p-1."""
    coeffs = list(coeffs)
    if ctx.p:
        assert all(type(c) is int and 0 < c < ctx.p for c in coeffs), coeffs
    else:
        assert all(type(c) in (int, Fraction) and c for c in coeffs), coeffs


# ---------------------------------------------------------------------------
# incremental Buchberger completion, the reference for ``anick.complete``

def complete_reference(presentation: Presentation, max_deg: int) -> GroebnerBasis:
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
    order, field = DegLex(presentation.alphabet.size), presentation.field
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
        tail = Polynomial({w: c for w, c in g.terms.items() if w != lead}, g.p)
        reduced = normal_form(tail, Reducer(field, others))
        return Polynomial({lead: g.terms[lead], **reduced.terms}, g.p)

    def add_element(candidate: Polynomial) -> None:
        nonlocal next_id
        queue = [candidate]
        while queue:
            cand = queue.pop(0)
            cand = normal_form(cand, Reducer(field, alive.values()))
            if cand.is_zero:
                continue
            cand = cand.monic()
            lead = cand.lead_word()
            # Existing elements whose leading term the new lead divides are
            # superseded; they go back through full reduction.
            stash = []
            for eid, g in list(alive.items()):
                if bf_has_factor(g.lead_word(), lead):
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

    for rel in interreduce(list(presentation.relations), field):
        add_element(rel)

    while heap:
        deg, _, _, i, j, l = heapq.heappop(heap)
        if i not in alive or j not in alive:
            continue
        if deg > max_deg:
            overflow = True
            continue
        s = s_polynomial(alive[i], alive[j], l)
        reduced = normal_form(s, Reducer(field, alive.values()))
        if not reduced.is_zero:
            add_element(reduced.monic())

    certificate = Certificate(not overflow, max_deg if overflow else None)
    elements = tuple(sorted(alive.values(), key=lambda g: order.key(g.lead_word())))
    return GroebnerBasis(presentation, elements, max_deg, certificate)


# ---------------------------------------------------------------------------
# what the package no longer exports: only tests used these

def right_action(ctx, elem: FreeElement, w: Word) -> FreeElement:
    """elem . w in normal form, each product word reduced by ``ctx.nf_word``."""
    pairs = []
    for (c, u), a in elem.terms.items():
        pairs += (((c, _word(v)), a * b) for v, b in ctx.nf_word(_code(u + w)).items())
    return FreeElement.from_pairs(pairs, ctx.p)


def split_element(ctx, level: int, xi: FreeElement) -> FreeElement:
    """``ctx.split`` of xi, passed in and read back through chain ids and code words."""
    chains = {c.id: c for c in (ctx.unit, *ctx.chains.index.values())}
    eta = ctx.split(level, {(c.id, _code(w)): a for (c, w), a in xi.terms.items()})
    return FreeElement({(chains[i], _word(w)): a for (i, w), a in eta.items()}, ctx.p)


def koszul_verdict_for(presentation: Presentation, max_degree: int) -> KoszulVerdict:
    """The Koszul verdict of a quadratic presentation through max_degree,
    from its Betti table."""
    if not presentation.is_quadratic:
        raise NotQuadraticError("Koszulness is defined for quadratic presentations only")
    return koszul_verdict(betti_table(presentation, max_degree, max_degree), max_degree)


def interreduce(polys: list[Polynomial], field) -> list[Polynomial]:
    """Monic inter-reduced generating set with the same two-sided ideal,
    ascending by leading word.

    Leading terms of the result form an antichain under factor
    divisibility and every element is fully reduced against the others.
    """
    work = [p.monic() for p in polys if not p.is_zero]
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            rest = work[:i] + work[i + 1:]
            reduced = normal_form(work[i], Reducer(field, rest))
            if reduced.is_zero:
                work.pop(i)
                changed = True
                break
            reduced = reduced.monic()
            if reduced != work[i]:
                work[i] = reduced
                changed = True
                break
    return sorted(work, key=lambda g: deglex_desc(g.lead_word()), reverse=True)


def rref(rows: list[list], field) -> tuple[list[list], list[int]]:
    """Dense reduced row echelon form and pivot column indices: the pivot
    rows, scaled to a leading one, then one zero row for every dependent
    input row."""
    reduced = echelon([dict(enumerate(row)) for row in rows], field)
    out = [[field.zero] * (len(rows[0]) if rows else 0) for _ in rows]
    for r, row in enumerate(reduced):
        for k, v in row.items():
            out[r][k] = v
    return out, [min(row) for row in reduced]


def dense(s) -> list[list]:
    """The matrix of a resolution slice as dense rows, padded with the int
    0 (the package renders and ranks slices from their sparse columns)."""
    out = [[0] * len(s.col_labels) for _ in s.row_labels]
    for j, col in enumerate(s.columns):
        for i, c in col.items():
            out[i][j] = c
    return out


def induce(slices) -> dict[tuple[int, int], tuple[list[Word], list[list]]]:
    """Resolution slices of level >= 1 restricted to unit algebra
    cofactors: ``(level, degree)`` maps to the column chain words and the
    dense matrix, rows indexed by the unit-cofactor pairs one level down."""
    out = {}
    for s in slices:
        if s.level == 0:
            continue
        cols = [j for j, (_, w) in enumerate(s.col_labels) if w == EMPTY]
        unit_rows = [i for i, (_, w) in enumerate(s.row_labels) if w == EMPTY]
        row_at = {i: r for r, i in enumerate(unit_rows)}
        dense = [[0] * len(cols) for _ in unit_rows]
        for out_col, j in enumerate(cols):
            for i, c in s.columns[j].items():
                if i in row_at:
                    dense[row_at[i]][out_col] = c
        out[s.level, s.degree] = ([s.col_labels[j][0].word for j in cols], dense)
    return out


def path_counts(graph, level_max: int, deg_max: int) -> dict[int, int]:
    """Number of length-n paths from letter vertices of a chain graph,
    n = 0..level_max, restricted to paths whose generated chain degree is
    <= deg_max."""
    # state: (node index, accumulated degree) -> multiplicity
    state: dict[tuple[int, int], int] = {}
    for i, node in enumerate(graph.nodes):
        if node.kind == "letter":
            state[(i, 1)] = state.get((i, 1), 0) + 1
    succ: dict[int, list[int]] = {}
    for a, b in graph.edges:
        succ.setdefault(a, []).append(b)
    counts = {0: sum(state.values())}
    for level in range(1, level_max + 1):
        nxt: dict[tuple[int, int], int] = {}
        for (i, deg), mult in state.items():
            for j in succ.get(i, []):
                d2 = deg + len(graph.nodes[j].tail)
                if d2 <= deg_max:
                    nxt[(j, d2)] = nxt.get((j, d2), 0) + mult
        state = nxt
        counts[level] = sum(state.values())
    return counts


def accepts(automaton, w: Word) -> bool:
    """Whether the normal-word automaton reads w without dying."""
    state = 0  # the empty word
    for letter in w:
        state = automaton.transitions[state][letter]
        if state is None:
            return False
    return True


def finite_dimensional_reference(aut) -> tuple[bool, int | None]:
    """Whether the automaton's language is finite, and its longest word's
    length, by an iterative depth-first search for a cycle among the
    states reachable from the start, state 0."""
    longest: dict[int, int] = {}
    on_path = {0}
    stack = [(0, iter(aut.transitions[0]))]
    while stack:
        s, edges = stack[-1]
        for t in edges:
            if t is None or t in longest:
                continue
            if t in on_path:
                return False, None
            on_path.add(t)
            stack.append((t, iter(aut.transitions[t])))
            break
        else:
            stack.pop()
            on_path.discard(s)
            longest[s] = max(
                (1 + longest[t] for t in aut.transitions[s] if t is not None), default=0
            )
    return True, longest[0]
