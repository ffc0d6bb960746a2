import hashlib
import json
from fractions import Fraction
from itertools import permutations, product

import pytest
from helpers import (
    bf_normal_count,
    check_antichain_reference,
    complete_reference,
    ideal_slice_dims,
    interreduce,
    normal_form_reference,
)
from hypothesis import example, given, settings, strategies as st

from anick import (
    Alphabet,
    Polynomial,
    Presentation,
    Reducer,
    complete,
    normal_form,
    normal_word_automaton,
    parse_presentation,
    quadratic_dual,
    render_poly,
    s_polynomial,
)
from anick.errors import AlgebraError, FieldError, TruncationError
from anick.fields import PrimeField, Rationals
from anick.groebner import _code
from anick.reports import gb_payload
from anick.resolution import FreeElement
from anick.words import DegLex, overlaps

G4_RELATIONS = (
    "relations:\n  a*b - b*a + c*d\n  a*c - 2*d*b\n  b*d + a^2 - c^2\n  d*a - b*c\n"
)


def g4(letters="abcd", field="Q"):
    """Generic four-generator quadratic algebra, letters greatest first."""
    return parse_presentation(f"vars: {' > '.join(letters)}\nfield: {field}\n" + G4_RELATIONS)


def words(presentation, *texts):
    return [presentation.alphabet.word(t) for t in texts]


def mono(presentation, text, coeff=1):
    field = presentation.field
    return Polynomial.monomial(presentation.alphabet.word(text), field.of(coeff), field.p)


def test_normal_form_kills_obstruction_multiples(xyz, xyz_gb8):
    reducer = Reducer(xyz.field, xyz_gb8.elements)
    assert normal_form(mono(xyz, "yxz"), reducer).is_zero


def test_normal_form_two_step_reduction(xyz):
    reducer = Reducer(xyz.field, xyz.relations)
    assert normal_form(mono(xyz, "xxz"), reducer).is_zero


def test_normal_form_fixes_normal_words(xyz, xyz_gb8):
    p = mono(xyz, "yx")
    assert normal_form(p, Reducer(xyz.field, xyz_gb8.elements)) == p


def test_normal_form_idempotent(xyz, xyz_gb8):
    reducer = Reducer(xyz.field, xyz_gb8.elements)
    for text in ("xxz", "xyxyx", "zyx", "yyy"):
        once = normal_form(mono(xyz, text), reducer)
        assert normal_form(once, reducer) == once


def test_normal_form_trace_witnesses_ideal_membership(xyz, xyz_gb8):
    basis = list(xyz_gb8.elements)
    p = mono(xyz, "xyxz") + mono(xyz, "xxy", 2)
    trace = []
    reduced = normal_form(p, Reducer(xyz.field, basis), trace=trace)
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
# (numerator, denominator): the fractional tails give a Q basis element an
# integer row with a leading coefficient other than 1, so reduction takes
# the scaling step m != 1.
NF_COEFFS = st.sampled_from([(1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (1, 2), (-2, 3)])


@st.composite
def monic_with_lead(draw, field, lead, words=NF_WORDS):
    below = [
        w for w in draw(st.lists(words, max_size=3))
        if NF_ORDER.key(w) < NF_ORDER.key(lead)
    ]
    terms = {w: field.of(*draw(NF_COEFFS)) for w in below}
    terms[lead] = field.one
    return Polynomial(terms, field.p)


@st.composite
def reduction_cases(draw, words=NF_WORDS):
    """(field, p, basis) over Q or F_5, the basis possibly redundant."""
    field = draw(st.sampled_from(NF_FIELDS))
    basis = [draw(monic_with_lead(field, draw(words), words))]
    size = draw(st.integers(1, 5))
    while len(basis) < size:
        base = draw(st.sampled_from(basis)).lead_word()
        cut = st.integers(0, len(base))
        factor = st.tuples(cut, cut).map(lambda ij: base[min(ij):max(ij)])
        lead = draw(st.one_of(words, factor, st.just(base), st.just(())))
        basis.insert(draw(st.integers(0, len(basis))), draw(monic_with_lead(field, lead, words)))
    p = Polynomial(
        {w: field.of(*draw(NF_COEFFS)) for w in draw(st.lists(words, max_size=6))}, field.p
    )
    return field, p, basis


# xy + yx/2 has the integer row 2xy + yx, so rewriting xyy scales the
# remainder so far (xxx) and the pending yyy by m = 2.
SCALING_CASE = (
    Rationals(),
    Polynomial({(0, 0, 0): 1, (0, 1, 1): 1, (1, 1, 1): 1}),
    [Polynomial({(0, 1): 1, (1, 0): Fraction(1, 2)})],
)


# With a > b, rewriting ab by ab + a leaves -a, which is shorter than ba
# but sorts before it as a tuple: ba must still be rewritten first, so the
# trace uses the basis elements in the order 0, 1, 2.
LENGTH_ORDER_CASE = (
    Rationals(),
    Polynomial({(0, 1): 1, (1, 0): 1}),
    [Polynomial({(0, 1): 1, (0,): 1}), Polynomial({(1, 0): 1}), Polynomial({(0,): 1})],
)


# A Reducer rewrites words as strings of code points: letters below 256
# convert through latin-1, the others through chr and ord.  These straddle
# that edge and take a lone surrogate and the last code point.
WIDE_WORDS = st.lists(st.sampled_from([0, 1, 255, 256, 0xD800, 0x10FFFF]), max_size=4).map(tuple)


@settings(max_examples=400, deadline=None)
@given(st.one_of(reduction_cases(), reduction_cases(WIDE_WORDS)))
@example(SCALING_CASE)
@example(LENGTH_ORDER_CASE)
def test_normal_form_matches_plain_rewriting_loop(case):
    field, p, basis = case
    trace, want_trace = [], []
    assert normal_form(p, Reducer(field, basis), trace=trace) == normal_form_reference(
        p, basis, trace=want_trace
    )
    assert trace == want_trace
    for g in [p, *basis]:
        if not g.is_zero:
            assert g.lead_word() == max(g.terms, key=NF_ORDER.key)


def test_public_words_stay_tuples_of_int():
    pres = g4()
    gb = complete(pres, 5)
    trace = []
    p = mono(pres, "dcba") + mono(pres, "abcd", 2)
    nf = normal_form(p, Reducer(pres.field, gb.elements), trace=trace)
    assert trace and not nf.is_zero
    words = [w for g in gb.elements for w in g.terms] + list(gb.obstructions) + list(nf.terms)
    words += [w for _, _, left, right in trace for w in (left, right)]
    assert all(type(w) is tuple and all(type(i) is int for i in w) for w in words)


def _reducer_entries(letter):
    """Each way a word enters a Reducer (a lead, a tail, a reduced term, a
    searched word, converted as ``find``'s tuple callers do), called with a
    word holding letter."""
    w, field = (0, letter), Rationals()
    reducer = Reducer(field, [Polynomial({(0, 0): 1})])
    return [
        lambda: Reducer(field, [Polynomial({w: 1})]),
        lambda: Reducer(field, [Polynomial({(0, 0, 0): 1, w: 1})]),
        lambda: normal_form(Polynomial({w: 1}), reducer),
        lambda: reducer.find(_code(w)),
    ]


@pytest.mark.parametrize("entry", range(4))
@pytest.mark.parametrize("letter", [-1, 0x110000])
def test_a_letter_that_is_no_code_point_raises_algebra_error(letter, entry):
    # Tuple words took these silently; a plain chr conversion raises a raw
    # ValueError.
    with pytest.raises(AlgebraError, match="has a letter outside 0..0x10FFFF"):
        _reducer_entries(letter)[entry]()


def test_a_surrogate_letter_is_an_ordinary_letter():
    x = 0xD800
    basis = [Polynomial({(0, x): 1, (x, 0): -1})]
    reducer = Reducer(Rationals(), basis)
    assert reducer.find(_code((x, 0, x))) == (1, 0)
    trace, want_trace = [], []
    p = Polynomial({(0, 0, x): 1})
    assert normal_form(p, reducer, trace) == Polynomial({(x, 0, 0): 1})
    normal_form_reference(p, basis, want_trace)
    assert trace == want_trace


def test_unit_basis_element_reduces_the_empty_word():
    # The empty word's only position is len(()) = 0.
    p = Polynomial({(): 2, (0,): 1})
    trace = []
    assert normal_form(p, Reducer(Rationals(), [Polynomial({(): 1})]), trace=trace).is_zero
    assert trace == [(0, 1, (), (0,)), (0, 2, (), ())]


def leftmost_factor(w, leads):
    """The first position of w where some lead occurs, with the smallest
    index of a lead there; found by comparing every lead at every position."""
    for pos in range(len(w) + 1):
        hits = [i for i, lead in enumerate(leads) if w[pos:pos + len(lead)] == lead]
        if hits:
            return pos, hits[0]
    return None


# Leads of length 0-4 over two letters: lists of them repeat words, hold
# factors of one another and the empty word.
FIND_LEADS = st.lists(st.lists(st.integers(0, 1), max_size=4).map(tuple), max_size=7)


@settings(max_examples=300, deadline=None)
@given(FIND_LEADS, st.lists(st.integers(0, 1), max_size=9).map(tuple))
@example([(0, 1), (1,), (0, 1), ()], (1, 1, 0, 1))
@example([(0, 0, 1, 1), (1, 1)], (0, 0, 1))
def test_reducer_find_is_the_leftmost_factor_of_least_index(leads, w):
    reducer = Reducer(Rationals(), [Polynomial.monomial(lead, 1) for lead in leads])
    assert reducer.find(_code(w)) == leftmost_factor(w, leads)


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
# ``complete_reference`` keeps; "D-fpP" is the same over Fp P, pinned while
# prime-field coefficients were still a wrapper type and not int residues.
G4_PAYLOADS = {
    6: (43, "0dd1cdfcb19f01d058c61ce7c05d48a0b209a5a0905650672ecc2306bcde6cae"),
    7: (67, "0234fd602265131fde20a80832864d79719cedc8c98c29b642d9c12f836adbf1"),
    "6-fp32003": (43, "d861b7c84d01a96e9f205dac3a368c2a44d8a914bc697340773397e1785eedef"),
}


@pytest.mark.parametrize("key", list(G4_PAYLOADS))
def test_g4_payload_digest_is_pinned(key):
    max_deg, _, p = str(key).partition("-fp")
    gb = complete(g4(field=f"Fp {p}" if p else "Q"), int(max_deg))
    text = json.dumps(gb_payload(gb), indent=2)
    assert (len(gb.elements), hashlib.sha256(text.encode()).hexdigest()) == G4_PAYLOADS[key]


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
            rel = Polynomial({w: draw(coeff) for w in support}, field.p)
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


def test_complete_matches_oracle_on_g4_over_a_prime_field():
    # The residue branch on a realistic basis: 43 elements at D=6.
    assert_matches_oracle(g4(field="Fp 32003"), 6)


def test_reducer_memo_is_cleared_when_elements_are_added():
    alpha = Alphabet(("x", "y"))
    field = Rationals()
    xy = Polynomial.monomial(alpha.word("xy"), field.one)
    reducer = Reducer(field)
    assert normal_form(xy, reducer) == xy
    yx = Polynomial.monomial(alpha.word("yx"), field.one)
    reducer.extend([xy - yx])
    assert normal_form(xy, reducer) == normal_form(xy, Reducer(field, [xy - yx])) == yx


@pytest.mark.parametrize("algebra, max_deg", [("g4", 6), ("g4-fp5", 6), ("xyz", 8)])
def test_complete_hands_the_reducer_the_rows_extend_builds(monkeypatch, xyz, algebra, max_deg):
    # complete adds echelon's integer pivot rows without going through
    # monic polynomials; they must be the rows extend builds from those.
    import anick.groebner

    made = []

    class Recording(Reducer):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(anick.groebner, "Reducer", Recording)
    pres = {"g4": g4(), "g4-fp5": g4(field="Fp 5"), "xyz": xyz}[algebra]
    gb = complete(pres, max_deg)
    (reducer,) = made
    assert reducer.rows == Reducer(pres.field, gb.elements).rows


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


def test_s_polynomial_of_two_moduli_raises_field_error():
    # s_polynomial builds its result in one dict, so it keeps the check that
    # subtracting the two products made.
    for p, q in [(5, 7), (5, 0), (0, 7)]:
        with pytest.raises(FieldError, match="mixed moduli"):
            s_polynomial(Polynomial({(0, 2): 1}, p), Polynomial({(2, 1): 1}, q), 1)


@pytest.mark.parametrize(
    "g, h",
    [
        (Polynomial({(0, 2): 1}), None),
        (FreeElement({(0, (0,)): 1}), Polynomial({(0, 2): 1})),
        (FreeElement({(0, (0, 1)): 1}), FreeElement({(0, (1, 0)): 1})),
    ],
)
def test_s_polynomial_of_a_non_polynomial_raises_type_error(g, h):
    # The operands' kinds are checked before their leading coefficients.
    with pytest.raises(TypeError, match="expected two Polynomials"):
        s_polynomial(g, h, 1)


# Words over two letters, so tails collide and monomials cancel to zero.
BITS = st.integers(0, 1)
S_WORDS = st.lists(BITS, max_size=4).map(tuple)


@st.composite
def overlapping_pairs(draw):
    """(g, h, l): monic g and h over Q or F_5 whose leads overlap at l; h
    is g itself for a drawn self-overlap."""
    field = draw(st.sampled_from(NF_FIELDS))
    u = tuple(draw(st.lists(BITS, min_size=2, max_size=4)))
    g = draw(monic_with_lead(field, u, S_WORDS))
    if draw(st.booleans()) and (own := overlaps(u, u)):
        return g, g, draw(st.sampled_from(own))
    l = draw(st.integers(1, len(u) - 1))
    w = u[len(u) - l:] + tuple(draw(st.lists(BITS, min_size=1, max_size=2)))
    return g, draw(monic_with_lead(field, w, S_WORDS)), l


@settings(max_examples=200, deadline=None)
@given(overlapping_pairs())
def test_s_polynomial_matches_its_definition(case):
    g, h, l = case
    u, w = g.lead_word(), h.lead_word()
    s = s_polynomial(g, h, l)
    assert s == g.word_mul((), w[l:]) - h.word_mul(u[:len(u) - l], ())
    assert s.p == g.p and all(s.terms.values())


@pytest.mark.parametrize(
    "field, lead, ok",
    [
        (Rationals(), 1, True),
        (Rationals(), Fraction(1), True),
        (Rationals(), 2, False),
        (Rationals(), -1, False),
        (Rationals(), Fraction(1, 2), False),
        pytest.param(PrimeField(5), PrimeField(5).one, True, id="field5-lead5-True"),
        pytest.param(PrimeField(5), PrimeField(5).of(2), False, id="field6-lead6-False"),
        pytest.param(PrimeField(5), PrimeField(5).of(-1), False, id="field7-lead7-False"),
    ],
)
def test_monicity_is_checked_for_every_scalar_kind(field, lead, ok):
    alpha = Alphabet(("x", "y"))
    g = Polynomial({alpha.word("xy"): lead, alpha.word("yx"): field.one}, field.p)
    h = Polynomial.monomial(alpha.word("yx"), field.one, field.p)
    p = Polynomial.monomial(alpha.word("xyy"), field.one, field.p)
    if ok:
        yyx = Polynomial.monomial(alpha.word("yyx"), field.one, field.p)
        assert normal_form(p, Reducer(field, [g])) == yyx
        assert s_polynomial(g, h, 1) == Polynomial.monomial(alpha.word("yxx"), field.one, field.p)
        return
    with pytest.raises(AlgebraError):
        normal_form(p, Reducer(field, [g]))
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
    assert interreduce([g1, g2], xyz.field) == [g1]


def test_interreduce_keeps_reduced_sets(xyz):
    g1, g2 = mono(xyz, "xz"), mono(xyz, "zy")
    assert set(interreduce([g1, g2], xyz.field)) == {g1, g2}


def test_interreduce_rescales_to_monic(xyz):
    g = mono(xyz, "xx", 2) + mono(xyz, "yx", 2)
    assert interreduce([g], xyz.field) == [mono(xyz, "xx") + mono(xyz, "yx")]


def test_completed_leading_words_form_antichain(xyz, xyz_gb8):
    leads = [g.lead_word() for g in xyz_gb8.elements]
    check_antichain_reference(leads)


def test_confluence_up_to_truncation(xyz, xyz_gb8):
    basis = list(xyz_gb8.elements)
    reducer = Reducer(xyz.field, basis)
    for g in basis:
        for h in basis:
            for l in overlaps(g.lead_word(), h.lead_word()):
                word = g.lead_word() + h.lead_word()[l:]
                if len(word) > xyz_gb8.truncation_degree:
                    continue
                s = s_polynomial(g, h, l)
                assert normal_form(s, reducer).is_zero


@pytest.mark.parametrize("bound", [4.5, 4.0, True, "4", None])
def test_a_bound_that_is_not_exactly_an_int_raises_type_error(xyz, xyz_ctx, bound):
    # complete(p, 4.5) was certified complete-up-to-degree(4.5), and True
    # raised a TruncationError below the relation degree; pair_basis(1.5, 2)
    # returned [] and slice(1.0, 2) a slice.
    with pytest.raises(TypeError, match="must be an int"):
        complete(xyz, bound)
    for method in (xyz_ctx.pair_basis, xyz_ctx.slice):
        with pytest.raises(TypeError):
            method(bound, 2)
        with pytest.raises(TypeError, match="must be ints"):
            method(1, bound)


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


# xy + 3yx and xy + yx/2, with p given as the modulus.
XY_3YX = {(0, 1): 1, (1, 0): 3}
XY_HALF_YX = {(0, 1): 1, (1, 0): Fraction(1, 2)}


@pytest.mark.parametrize("field", [PrimeField(5), Rationals()], ids=["F5", "Q"])
def test_presentation_rejects_a_relation_of_another_field(field):
    # Over F_5 the F_7 residues would be read mod 5; over Q they are no
    # rationals at all.
    rel = Polynomial(XY_3YX, 7)
    with pytest.raises(AlgebraError, match="relation mod 7"):
        complete(Presentation(Alphabet(("x", "y")), field, (rel,)), 3)


def test_presentation_rejects_a_non_int_coefficient_over_a_prime_field():
    # The relation itself cannot be built: a combination over Fp holds
    # only int residues.
    with pytest.raises(FieldError, match="no int residue"):
        Presentation(Alphabet(("x", "y")), PrimeField(5), (Polynomial(XY_HALF_YX, 5),))


def test_reducer_rejects_a_polynomial_of_another_field():
    xyy = Polynomial.monomial((0, 1, 1), 1)
    # At F_5 the rational basis element would leave a coefficient 11/4.
    with pytest.raises(FieldError):
        normal_form(xyy, Reducer(PrimeField(5), [Polynomial(XY_HALF_YX)]))
    reducer = Reducer(PrimeField(5), [Polynomial(XY_3YX, 5)])  # 3 = 1/2 mod 5
    with pytest.raises(FieldError):
        reducer.extend([Polynomial(XY_3YX, 7)])
    with pytest.raises(FieldError):
        reducer.reduce(xyy)
    # xyy -> -3 yxy -> 9 yyx, and 9 = 4 = 1/4 mod 5, as over Q.
    assert normal_form(Polynomial(xyy.terms, 5), reducer) == Polynomial({(1, 1, 0): 4}, 5)
