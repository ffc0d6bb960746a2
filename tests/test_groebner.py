import hashlib
import json
from fractions import Fraction
from itertools import permutations, product

import pytest
from helpers import (
    bf_normal_count,
    complete_reference,
    ideal_slice_dims,
    interreduce,
    normal_form_reference,
)
from hypothesis import given, settings, strategies as st

from anick import (
    Alphabet,
    Polynomial,
    Presentation,
    complete,
    normal_form,
    normal_word_automaton,
    parse_presentation,
    quadratic_dual,
    render_poly,
    s_polynomial,
)
from anick.errors import AlgebraError, TruncationError
from anick.fields import PrimeField, Rationals
from anick.reports import gb_payload
from anick.words import DegLex, contains_factor, overlaps

G4_RELATIONS = (
    "relations:\n  a*b - b*a + c*d\n  a*c - 2*d*b\n  b*d + a^2 - c^2\n  d*a - b*c\n"
)


def g4(letters="abcd"):
    """Generic four-generator quadratic algebra, letters greatest first."""
    return parse_presentation(f"vars: {' > '.join(letters)}\n" + G4_RELATIONS)


def words(presentation, *texts):
    return [presentation.alphabet.word(t) for t in texts]


def mono(presentation, text, coeff=1):
    return Polynomial.monomial(presentation.alphabet.word(text), presentation.field.of(coeff))


def test_normal_form_kills_obstruction_multiples(xyz, xyz_gb8):
    basis = list(xyz_gb8.elements)
    assert normal_form(mono(xyz, "yxz"), basis).is_zero


def test_normal_form_two_step_reduction(xyz):
    relations = list(xyz.relations)
    assert normal_form(mono(xyz, "xxz"), relations).is_zero


def test_normal_form_fixes_normal_words(xyz, xyz_gb8):
    p = mono(xyz, "yx")
    assert normal_form(p, list(xyz_gb8.elements)) == p


def test_normal_form_idempotent(xyz, xyz_gb8):
    basis = list(xyz_gb8.elements)
    for text in ("xxz", "xyxyx", "zyx", "yyy"):
        once = normal_form(mono(xyz, text), basis)
        assert normal_form(once, basis) == once


def test_normal_form_trace_witnesses_ideal_membership(xyz, xyz_gb8):
    basis = list(xyz_gb8.elements)
    p = mono(xyz, "xyxz") + mono(xyz, "xxy", 2)
    trace = []
    reduced = normal_form(p, basis, trace=trace)
    rebuilt = reduced
    for gi, coeff, left, right in trace:
        rebuilt = rebuilt + basis[gi].word_mul(left, right).scaled(coeff)
    assert rebuilt == p


# Words of length 0-4 over three letters; bases of 1-5 monic polynomials,
# each lead after the first drawn as a fresh word, a factor of an earlier
# lead, a duplicate of one or the empty word, so bases need not be
# antichains.
NF_FIELDS = [Rationals(), PrimeField(5)]
NF_ORDER = DegLex(3)
NF_WORDS = st.lists(st.integers(0, 2), max_size=4).map(tuple)
NF_COEFFS = st.sampled_from([1, -1, 2, -2, 3])


@st.composite
def monic_with_lead(draw, field, lead):
    below = [
        w for w in draw(st.lists(NF_WORDS, max_size=3))
        if NF_ORDER.key(w) < NF_ORDER.key(lead)
    ]
    terms = {w: field.of(draw(NF_COEFFS)) for w in below}
    terms[lead] = field.one
    return Polynomial(terms)


@st.composite
def reduction_cases(draw):
    """(p, basis) over Q or F_5, the basis possibly redundant."""
    field = draw(st.sampled_from(NF_FIELDS))
    basis = [draw(monic_with_lead(field, draw(NF_WORDS)))]
    size = draw(st.integers(1, 5))
    while len(basis) < size:
        base = draw(st.sampled_from(basis)).lead_word()
        cut = st.integers(0, len(base))
        factor = st.tuples(cut, cut).map(lambda ij: base[min(ij):max(ij)])
        lead = draw(st.one_of(NF_WORDS, factor, st.just(base), st.just(())))
        basis.insert(draw(st.integers(0, len(basis))), draw(monic_with_lead(field, lead)))
    p = Polynomial(
        {w: field.of(draw(NF_COEFFS)) for w in draw(st.lists(NF_WORDS, max_size=6))}
    )
    return p, basis


@settings(max_examples=300, deadline=None)
@given(reduction_cases())
def test_normal_form_matches_plain_rewriting_loop(case):
    p, basis = case
    trace, want_trace = [], []
    assert normal_form(p, basis, trace=trace) == normal_form_reference(
        p, basis, trace=want_trace
    )
    assert trace == want_trace
    for g in [p, *basis]:
        if not g.is_zero:
            assert g.lead_word() == max(g.terms, key=NF_ORDER.key)


def test_complete_generic_four_generator_algebra():
    # Hilbert series 1/(1-2t)^2, counted over the words avoiding the
    # obstructions rather than through the automaton.
    gb = complete(g4(), 6)
    assert len(gb.elements) == 43
    assert str(gb.certificate) == "complete-up-to-degree(6)"
    for n in range(7):
        assert bf_normal_count(4, n, gb.obstructions) == (n + 1) * 2 ** n


# Basis size and sha256 of json.dumps(gb_payload(complete(g4, D)), indent=2),
# computed with the incremental Buchberger completion that
# ``complete_reference`` keeps.
G4_PAYLOADS = {
    6: (43, "0dd1cdfcb19f01d058c61ce7c05d48a0b209a5a0905650672ecc2306bcde6cae"),
    7: (67, "0234fd602265131fde20a80832864d79719cedc8c98c29b642d9c12f836adbf1"),
}


@pytest.mark.parametrize("max_deg", sorted(G4_PAYLOADS))
def test_g4_payload_digest_is_pinned(max_deg):
    gb = complete(g4(), max_deg)
    text = json.dumps(gb_payload(gb), indent=2)
    assert (len(gb.elements), hashlib.sha256(text.encode()).hexdigest()) == G4_PAYLOADS[max_deg]


ORACLE_COEFFS = [1, -1, 2, -3]


@st.composite
def oracle_presentations(draw):
    """2-3 letters over Q or F_5 and 1-3 relations of degree 1-3 with
    non-monic leads; after the first, a relation may duplicate an earlier
    one or be a combination of earlier ones of its degree."""
    field = draw(st.sampled_from(NF_FIELDS))
    alphabet = Alphabet(("x", "y", "z")[: draw(st.integers(2, 3))])
    coeff = st.sampled_from(ORACLE_COEFFS).map(field.of)
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["fresh", "duplicate", "dependent"])) if rels else "fresh"
        if kind == "duplicate":
            rel = draw(st.sampled_from(rels))
        elif kind == "dependent":
            base = draw(st.sampled_from(rels))
            other = draw(st.sampled_from([r for r in rels if r.degree() == base.degree()]))
            rel = base.scaled(draw(coeff)).add_scaled(other, draw(coeff))
            if rel.is_zero:
                rel = base.scaled(draw(coeff))
        else:
            pool = list(product(range(alphabet.size), repeat=draw(st.integers(1, 3))))
            support = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
            rel = Polynomial({w: draw(coeff) for w in support})
        rels.append(rel)
    return Presentation(alphabet, field, tuple(rels))


def assert_matches_oracle(pres, max_deg):
    got, want = complete(pres, max_deg), complete_reference(pres, max_deg)
    assert [g.terms for g in got.elements] == [g.terms for g in want.elements]
    assert got.certificate == want.certificate


# The example count comes from the active hypothesis profile (conftest.py).
@settings(deadline=None)
@given(oracle_presentations())
def test_complete_matches_buchberger_oracle(pres):
    for max_deg in range(pres.max_relation_degree(), 7):
        assert_matches_oracle(pres, max_deg)


def test_complete_matches_oracle_under_every_g4_precedence():
    for letters in permutations("abcd"):
        assert_matches_oracle(g4(letters), 5)


def test_complete_with_a_bound_far_above_a_finite_basis_returns_at_once(yxsq_low):
    gb = complete(yxsq_low, 10**9)
    assert gb.elements == complete(yxsq_low, 6).elements
    assert gb.certificate.complete


def test_complete_never_calls_rank_or_nullspace(monkeypatch, xyz):
    # The benchmark's traced run wraps linalg.rank and linalg.nullspace and
    # counts every rank argument as a homology matrix, so completion must
    # reach the eliminator through linalg.echelon only.
    import anick.linalg

    calls = []
    for name in ("rank", "nullspace"):
        real = getattr(anick.linalg, name)
        monkeypatch.setattr(
            anick.linalg, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    complete(g4(), 6)
    complete(xyz, 11)
    assert calls == []


def test_s_polynomial_overlap_identity(xyz):
    # (xyx + y^2x) z - xy (xz) = y^2 x z
    g = mono(xyz, "xyx") + mono(xyz, "yyx")
    h = mono(xyz, "xz")
    assert s_polynomial(g, h, 1) == mono(xyz, "yyxz")


def test_s_polynomial_of_monomials_vanishes(xyz):
    assert s_polynomial(mono(xyz, "xz"), mono(xyz, "zy"), 1).is_zero


def test_s_polynomial_self_overlap(xyz):
    g = mono(xyz, "xx") + mono(xyz, "yx")
    s = s_polynomial(g, g, 1)
    assert s == mono(xyz, "yxx") - mono(xyz, "xyx")


def test_s_polynomial_rejects_bad_overlap(xyz):
    with pytest.raises(AlgebraError):
        s_polynomial(mono(xyz, "xz"), mono(xyz, "zy"), 2)
    with pytest.raises(AlgebraError):
        s_polynomial(mono(xyz, "zy"), mono(xyz, "xz"), 1)


@pytest.mark.parametrize(
    "field, lead, ok",
    [
        (Rationals(), 1, True),
        (Rationals(), Fraction(1), True),
        (Rationals(), 2, False),
        (Rationals(), -1, False),
        (Rationals(), Fraction(1, 2), False),
        (PrimeField(5), PrimeField(5).one, True),
        (PrimeField(5), PrimeField(5).of(2), False),
        (PrimeField(5), PrimeField(5).of(-1), False),
    ],
)
def test_monicity_is_checked_for_every_scalar_kind(field, lead, ok):
    alpha = Alphabet(("x", "y"))
    g = Polynomial({alpha.word("xy"): lead, alpha.word("yx"): field.one})
    h = Polynomial.monomial(alpha.word("yx"), field.one)
    p = Polynomial.monomial(alpha.word("xyy"), field.one)
    if ok:
        assert normal_form(p, [g]) == Polynomial.monomial(alpha.word("yyx"), field.one)
        assert s_polynomial(g, h, 1) == Polynomial.monomial(alpha.word("yxx"), field.one)
        return
    with pytest.raises(AlgebraError):
        normal_form(p, [g])
    with pytest.raises(AlgebraError):
        s_polynomial(g, h, 1)
    with pytest.raises(AlgebraError):
        s_polynomial(h, g, 1)


def expected_family(xyz, k_max):
    out = []
    for k in range(k_max + 1):
        out.append(mono(xyz, "x" + "y" * k + "x") + mono(xyz, "y" * (k + 1) + "x"))
    out.append(mono(xyz, "xz"))
    out.append(mono(xyz, "zy"))
    return out


def test_complete_xyz_to_degree_six(xyz):
    gb = complete(xyz, 6)
    leads = {xyz.alphabet.str_word(w) for w in gb.obstructions}
    assert leads == {"x^2", "x*y*x", "x*y^2*x", "x*y^3*x", "x*y^4*x", "x*z", "z*y"}
    assert not gb.certificate.complete
    assert gb.certificate.degree == 6


def test_complete_xyz_to_degree_eight_exact_basis(xyz, xyz_gb8):
    assert set(xyz_gb8.elements) == set(expected_family(xyz, 6))
    assert str(xyz_gb8.certificate) == "complete-up-to-degree(8)"


def test_complete_quadratic_ordering_is_certified(yxsq_low):
    gb = complete(yxsq_low, 6)
    assert len(gb.elements) == 1
    assert render_poly(yxsq_low.alphabet, gb.elements[0]) == "y*x - x^2"
    assert gb.certificate.complete


def test_complete_dual_adds_one_cubic(xyz):
    dual = quadratic_dual(xyz)
    gb = complete(dual, 6)
    rendered = {render_poly(dual.alphabet, g) for g in gb.elements}
    assert rendered == {
        "x!^2 - y!*x!",
        "x!*y!",
        "y!^2",
        "y!*z!",
        "z!*x!",
        "z!^2",
        "z!*y!*x!",
    }
    assert gb.certificate.complete


def test_complete_dual_slice_dimensions_match_linear_algebra(xyz):
    # Degree-by-degree rank of the spanning products u*r*v pins down the
    # quotient dimensions independently of completion.
    dual = quadratic_dual(xyz)
    gb = complete(dual, 6)
    automaton = normal_word_automaton(dual.alphabet, gb.obstructions, gb.valid_degree)
    counts = automaton.hilbert_coefficients(6)
    relations = [
        {w: Fraction(str(c)) for w, c in rel.terms.items()} for rel in dual.relations
    ]
    dims = ideal_slice_dims(dual.alphabet.size, relations, 6)
    for degree in range(7):
        assert counts[degree] == 3 ** degree - dims[degree]


def test_complete_primal_slice_dimensions_match_linear_algebra(xyz, xyz_gb8):
    automaton = normal_word_automaton(
        xyz.alphabet, xyz_gb8.obstructions, xyz_gb8.valid_degree
    )
    counts = automaton.hilbert_coefficients(5)
    relations = [
        {w: Fraction(str(c)) for w, c in rel.terms.items()} for rel in xyz.relations
    ]
    dims = ideal_slice_dims(3, relations, 5)
    for degree in range(6):
        assert counts[degree] == 3 ** degree - dims[degree]


def test_complete_alternative_precedence_is_finite():
    alt = parse_presentation(
        "vars: y > x > z\nrelations:\n  x^2 + y*x\n  x*z\n  z*y\n"
    )
    gb = complete(alt, 8)
    leads = {alt.alphabet.str_word(w) for w in gb.obstructions}
    assert leads == {"y*x", "x*z", "z*y", "z*x^2"}
    assert gb.certificate.complete


def test_hilbert_coefficients_are_order_independent(xyz, xyz_gb8):
    alt = parse_presentation(
        "vars: y > x > z\nrelations:\n  x^2 + y*x\n  x*z\n  z*y\n"
    )
    gb_alt = complete(alt, 8)
    a1 = normal_word_automaton(xyz.alphabet, xyz_gb8.obstructions, xyz_gb8.valid_degree)
    a2 = normal_word_automaton(alt.alphabet, gb_alt.obstructions, gb_alt.valid_degree)
    assert a1.hilbert_coefficients(8) == a2.hilbert_coefficients(8)


def test_interreduce_drops_redundant_elements(xyz):
    g1 = mono(xyz, "xx") + mono(xyz, "yx")
    g2 = mono(xyz, "xxx") + mono(xyz, "yxx")
    assert interreduce([g1, g2]) == [g1]


def test_interreduce_keeps_reduced_sets(xyz):
    g1, g2 = mono(xyz, "xz"), mono(xyz, "zy")
    assert set(interreduce([g1, g2])) == {g1, g2}


def test_interreduce_rescales_to_monic(xyz):
    g = mono(xyz, "xx", 2) + mono(xyz, "yx", 2)
    assert interreduce([g]) == [mono(xyz, "xx") + mono(xyz, "yx")]


def test_completed_leading_words_form_antichain(xyz, xyz_gb8):
    leads = [g.lead_word() for g in xyz_gb8.elements]
    for i, u in enumerate(leads):
        for j, w in enumerate(leads):
            if i != j:
                assert not contains_factor(w, u)


def test_confluence_up_to_truncation(xyz_gb8):
    basis = list(xyz_gb8.elements)
    for g in basis:
        for h in basis:
            for l in overlaps(g.lead_word(), h.lead_word()):
                word = g.lead_word() + h.lead_word()[l:]
                if len(word) > xyz_gb8.truncation_degree:
                    continue
                s = s_polynomial(g, h, l)
                assert normal_form(s, basis).is_zero


def test_complete_rejects_tiny_truncation(xyz):
    with pytest.raises(TruncationError):
        complete(xyz, 1)


def test_presentation_rejects_inhomogeneous_relations(xyz):
    from anick import Presentation

    bad = mono(xyz, "x") + mono(xyz, "xx")
    with pytest.raises(AlgebraError):
        Presentation(xyz.alphabet, xyz.field, (bad,))


@pytest.mark.parametrize("letter", [5, -1])
def test_presentation_rejects_letters_outside_the_alphabet(letter):
    bad = Polynomial({(0, letter): 1})
    with pytest.raises(AlgebraError, match="outside the alphabet"):
        Presentation(Alphabet(("x", "y")), Rationals(), (bad,))


def test_prime_field_completion_matches_rational_leads(xyz):
    over_f5 = parse_presentation(
        "vars: x > y > z\nfield: Fp 5\nrelations:\n  x^2 + y*x\n  x*z\n  z*y\n"
    )
    gb5 = complete(over_f5, 6)
    gbq = complete(xyz, 6)
    assert {w for w in gb5.obstructions} == {w for w in gbq.obstructions}
