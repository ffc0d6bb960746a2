"""Randomized properties on small presentations, two letters, degree <= 6."""

from itertools import product

from hypothesis import given, settings, strategies as st

from anick import (
    Alphabet,
    Polynomial,
    Presentation,
    complete,
    enumerate_chains,
    interreduce,
    normal_form,
    normal_word_automaton,
)
from anick.fields import Rationals
from anick.words import contains_factor
from helpers import bf_chains, bf_normal_count

FIELD = Rationals()
ALPHA = Alphabet(("a", "b"))
ORDER = ALPHA.order


def all_words(degree):
    return [tuple(w) for w in product(range(2), repeat=degree)]


@st.composite
def homogeneous_polynomials(draw, degree_range=(2, 3)):
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
    return Polynomial(
        {w: FIELD.of(c) for w, c in zip(support, coeffs)}, ORDER
    )


@st.composite
def presentations(draw):
    count = draw(st.integers(1, 2))
    rels = tuple(draw(homogeneous_polynomials()) for _ in range(count))
    return Presentation(ALPHA, FIELD, rels)


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
    return Polynomial({w: FIELD.of(c) for w, c in zip(support, coeffs)}, ORDER)


@settings(max_examples=40, deadline=None)
@given(presentations(), polynomials())
def test_normal_form_is_idempotent(pres, p):
    basis = list(complete(pres, 6).elements)
    once = normal_form(p, basis)
    assert normal_form(once, basis) == once


@settings(max_examples=40, deadline=None)
@given(st.lists(homogeneous_polynomials(), min_size=1, max_size=3))
def test_interreduce_leaves_a_leading_antichain(polys):
    reduced = interreduce(polys)
    leads = [g.lead_word() for g in reduced]
    for i, u in enumerate(leads):
        for j, w in enumerate(leads):
            if i != j:
                assert not contains_factor(w, u)
    for g in reduced:
        others = [h for h in reduced if h is not g]
        assert normal_form(g, others) == g


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
    for g in basis:
        for h in basis:
            for l in overlaps(g.lead_word(), h.lead_word()):
                if len(g.lead_word()) + len(h.lead_word()) - l > 6:
                    continue
                assert normal_form(s_polynomial(g, h, l), basis).is_zero


@settings(max_examples=25, deadline=None)
@given(presentations())
def test_reports_are_stable_across_runs(pres):
    import json

    from anick.reports import gb_payload

    payloads = []
    for _ in range(2):
        payloads.append(json.dumps(gb_payload(complete(pres, 5)), indent=2))
    assert payloads[0] == payloads[1]
