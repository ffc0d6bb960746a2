"""Randomized properties on small presentations, two letters, degree <= 6."""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from anick import (
    Alphabet,
    Polynomial,
    Presentation,
    Reducer,
    ResolutionContext,
    betti_table,
    complete,
    enumerate_chains,
    euler_check,
    normal_form,
    normal_word_automaton,
)
from anick.fields import PrimeField, Rationals
from anick.groebner import _word
from anick.homology import induced_matrix_from_context
from anick.linalg import nullspace
from anick.words import DegLex
from helpers import (
    assert_context_scalars,
    bf_chains,
    bf_normal_count,
    check_antichain_reference,
    differentials_reference,
    interreduce,
    letter_split_differential,
)

FIELD = Rationals()
ALPHA = Alphabet(("a", "b"))


def all_words(degree):
    return [tuple(w) for w in product(range(2), repeat=degree)]


@st.composite
def homogeneous_polynomials(draw, degree_range=(2, 3), field=FIELD):
    degree = draw(st.integers(*degree_range))
    pool = all_words(degree)
    support = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)
    )
    coeffs = draw(
        st.lists(
            st.sampled_from([-2, -1, 1, 2]),
            min_size=len(support),
            max_size=len(support),
        )
    )
    return Polynomial({w: field.of(c) for w, c in zip(support, coeffs)}, field.p)


@st.composite
def presentations(draw, field=FIELD):
    count = draw(st.integers(1, 2))
    rels = tuple(draw(homogeneous_polynomials(field=field)) for _ in range(count))
    return Presentation(ALPHA, field, rels)


@st.composite
def polynomials(draw):
    degree = draw(st.integers(1, 5))
    pool = all_words(degree)
    support = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True)
    )
    coeffs = draw(
        st.lists(
            st.sampled_from([-3, -1, 1, 2]),
            min_size=len(support),
            max_size=len(support),
        )
    )
    return Polynomial({w: FIELD.of(c) for w, c in zip(support, coeffs)})


@settings(max_examples=40, deadline=None)
@given(presentations(), polynomials())
def test_normal_form_is_idempotent(pres, p):
    reducer = Reducer(pres.field, complete(pres, 6).elements)
    once = normal_form(p, reducer)
    assert normal_form(once, reducer) == once


@settings(max_examples=40, deadline=None)
@given(st.lists(homogeneous_polynomials(), min_size=1, max_size=3))
def test_interreduce_leaves_a_leading_antichain(polys):
    reduced = interreduce(polys, FIELD)
    leads = [g.lead_word() for g in reduced]
    check_antichain_reference(leads)
    for g in reduced:
        others = [h for h in reduced if h is not g]
        assert normal_form(g, Reducer(FIELD, others)) == g


@settings(max_examples=30, deadline=None)
@given(presentations())
def test_chain_enumeration_agrees_with_word_scan(pres):
    gb = complete(pres, 6)
    obstructions = [o for o in gb.obstructions if len(o) <= 6]
    chain_set = enumerate_chains(ALPHA, obstructions, 3, 6)
    for level in range(0, 4):
        got = {
            c.word
            for d in range(7)
            for c in chain_set.at(level, d)
        }
        assert got == set(bf_chains(2, obstructions, level, 6))


@settings(max_examples=40, deadline=None)
@given(presentations())
def test_hilbert_counts_match_brute_force(pres):
    gb = complete(pres, 6)
    automaton = normal_word_automaton(ALPHA, gb.obstructions, gb.valid_degree)
    counts = automaton.hilbert_coefficients(5)
    for degree in range(6):
        assert counts[degree] == bf_normal_count(2, degree, gb.obstructions)


@settings(max_examples=40, deadline=None)
@given(presentations())
def test_completion_is_confluent_within_bound(pres):
    from anick import s_polynomial
    from anick.words import overlaps

    gb = complete(pres, 6)
    assert all(len(w) <= 6 for w in gb.obstructions)
    basis = list(gb.elements)
    reducer = Reducer(pres.field, basis)
    for g in basis:
        for h in basis:
            for l in overlaps(g.lead_word(), h.lead_word()):
                if len(g.lead_word()) + len(h.lead_word()) - l > 6:
                    continue
                assert normal_form(s_polynomial(g, h, l), reducer).is_zero


@settings(max_examples=25, deadline=None)
@given(presentations())
def test_reports_are_stable_across_runs(pres):
    import json

    from anick.reports import gb_payload

    payloads = []
    for _ in range(2):
        payloads.append(json.dumps(gb_payload(complete(pres, 5)), indent=2))
    assert payloads[0] == payloads[1]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([FIELD, PrimeField(5)]).flatmap(presentations))
def test_low_differentials_split_through_the_unit_chain(pres):
    # A letter maps to 1 (x) letter, and splitting through the (-1)-chain
    # gives every level-1 differential the old letter-split rule gives.
    ctx = ResolutionContext(complete(pres, 5), 1, 5)
    for letter in ctx.chains.level(0):
        terms = ctx.differential(letter).terms
        assert terms == {(ctx.unit, letter.word): 1}
        assert_context_scalars(ctx, terms.values())
    for chain in ctx.chains.level(1):
        got = ctx.differential(chain)
        assert got == letter_split_differential(ctx, chain)
        assert_context_scalars(ctx, got.terms.values())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([FIELD, PrimeField(5)]).flatmap(presentations))
def test_differentials_match_the_cut_scanning_split(pres):
    # Every differential through degree 6, term by term, against the
    # recursion over the split that scans every cut of the cofactor.
    ctx = ResolutionContext(complete(pres, 6), 6, 6)
    for c, elem in differentials_reference(ctx).items():
        got = ctx.differential(c)
        assert got == elem
        assert_context_scalars(ctx, got.terms.values())


@st.composite
def scalar_guard_cases(draw):
    """(presentation, polynomial, unit) over Q or F_5.  With ``unit`` every
    relation is +-u or +-(u - v), so every element completion produces is
    one of those too and no scalar is ever divided."""
    field = draw(st.sampled_from([FIELD, PrimeField(5)]))
    unit = draw(st.booleans())
    rels = []
    for _ in range(draw(st.integers(1, 2))):
        pool = all_words(draw(st.integers(2, 3)))
        if unit:
            pair = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
            sign = draw(st.sampled_from([1, -1]))
            terms = {w: field.of(sign * (-1) ** i) for i, w in enumerate(pair)}
        else:
            support = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
            terms = {w: field.of(draw(st.sampled_from([-2, -1, 1, 2]))) for w in support}
        rels.append(Polynomial(terms, field.p))
    pool = all_words(draw(st.integers(1, 5)))
    support = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True))
    p = Polynomial({w: field.of(draw(st.sampled_from([-3, -1, 1, 2]))) for w in support}, field.p)
    return Presentation(ALPHA, field, tuple(rels)), p, unit


RELATION_COLUMNS = all_words(2) + all_words(3)


@settings(max_examples=60, deadline=None)
@given(scalar_guard_cases())
def test_scalars_stay_int_fraction_or_modp(case):
    # A float can only enter through int / int; integral rationals are
    # ints wherever nothing was divided.
    pres, p, unit = case
    field = pres.field
    gb = complete(pres, 5)
    basis = list(gb.elements)
    returned = [c for g in basis for c in g.terms.values()]
    nf = normal_form(p, Reducer(field, basis))
    returned += nf.terms.values()
    # Every polynomial and element returned carries the field's modulus.
    assert all(g.p == field.p for g in (*basis, nf))
    # What a context computes stays inside it: act_right, split,
    # differential and the induced matrices.
    ctx = ResolutionContext(gb, 3, 5)
    inside = []
    for level in (2, 3):
        for chain in ctx.chains.level(level):
            xi = ctx.act_right(ctx.differential(chain.prefix), chain.tail)
            inside += xi.terms.values()
            inside += ctx.split(level - 1, xi).terms.values()
    for chain in ctx.chains.index.values():
        d = ctx.differential(chain)
        assert d.p == field.p
        inside += d.terms.values()
    for level in range(1, 4):
        for degree in range(6):
            _, _, dense = induced_matrix_from_context(ctx, level, degree)
            inside += [a for row in dense for a in row if a]
    assert_context_scalars(ctx, inside)
    entries = [a for s in ctx.slices() for col in s.columns for a in col.values()]
    returned += entries
    rows = [
        {j: r.terms[w] for j, w in enumerate(RELATION_COLUMNS) if w in r.terms}
        for r in pres.relations
    ]
    kernel = [c for vec in nullspace(rows, len(RELATION_COLUMNS), field) for c in vec.values()]
    if field == FIELD:
        assert all(type(c) in (int, Fraction) for c in returned + kernel)
        # Completion builds its coefficients with field.of, never an
        # integral Fraction.
        assert not any(
            type(c) is Fraction and c.denominator == 1 for g in basis for c in g.terms.values()
        )
        assert all(type(c) is int for c in kernel if c.denominator == 1)
        # An integral Fraction of the context's arithmetic leaves a slice
        # as an int.
        assert all(type(c) is int for c in entries if c.denominator == 1)
        if unit:
            assert all(type(c) is int for c in returned + inside)
    else:
        assert all(type(c) is int and 0 < c < 5 for c in returned + kernel)


def assert_ordered_as_deglex_defines(pres, degree):
    """Terms, leading words, chains, normal words and pair bases come out in
    the order ``DegLex.key`` defines, the reference for the engine's key."""
    key = DegLex(pres.alphabet.size).key

    def ascending(keys):
        return all(a < b for a, b in zip(keys, keys[1:]))

    gb = complete(pres, degree)
    for g in gb.elements + pres.relations:
        words = [w for w, _ in g.sorted_terms()]
        assert ascending([key(w) for w in reversed(words)])
        assert g.lead_word() == words[0] == max(g.terms, key=key)
    ctx = ResolutionContext(gb, degree, degree)
    for d in range(degree + 1):
        assert ascending([key(w) for w in ctx.automaton.accepted_words(d)])
        for level in range(degree + 1):
            assert ascending([key(c.word) for c in ctx.chains.at(level, d)])
            pairs = ctx.pair_basis(level, d)
            assert ascending([(key(c.word + w), len(c.word)) for c, w in pairs])


def test_xyz_comes_out_in_deglex_order(xyz):
    assert_ordered_as_deglex_defines(xyz, 6)


@st.composite
def quadratic_presentations(draw, field=FIELD):
    alphabet = Alphabet(("x", "y", "z")[: draw(st.integers(2, 3))])
    pool = list(product(range(alphabet.size), repeat=2))
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        coeffs = st.sampled_from([-2, -1, 1, 2]).map(field.of)
        rels.append(Polynomial({w: draw(coeffs) for w in support}, field.p))
    return Presentation(alphabet, field, tuple(rels))


@settings(max_examples=40, deadline=None)
@given(quadratic_presentations())
def test_random_quadratic_algebra_comes_out_in_deglex_order(pres):
    assert_ordered_as_deglex_defines(pres, 5)


@settings(max_examples=30, deadline=None)
@given(quadratic_presentations(), st.integers(2, 5))
def test_chain_ids_are_context_positions(pres, degree):
    # The context's chain set comes from enumerate_chains, which numbers its
    # chains 1..n in index order; the context reads each id's chain by it.
    # Inside the context a word is a code word; the public differential's are tuples.
    ctx = ResolutionContext(complete(pres, degree), degree, degree)
    ids = [c.id for c in ctx.chains.index.values()]
    assert ctx.unit.id == 0 and ids == list(range(1, len(ids) + 1))
    for c in ctx.chains.index.values():
        assert ctx._chains[c.id] is c
        by_id = {(ctx._chains[i], _word(w)): a for (i, w), a in ctx.differential(c.id).items()}
        assert by_id == ctx.differential(c).terms


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([FIELD, PrimeField(5)]).flatmap(quadratic_presentations))
def test_betti_table_satisfies_the_euler_identity(pres):
    # The alternating Betti sums times the Hilbert series give 1 through D.
    ctx = ResolutionContext(complete(pres, 5), 5, 5)
    table = betti_table(pres, 5, 5, ctx=ctx)
    assert euler_check(table, ctx.automaton.hilbert_coefficients(5)) == [0] * 6
