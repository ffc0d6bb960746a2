from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anick import Alphabet, FreeElement, Polynomial, render_poly
from anick.errors import AlgebraError, FieldError
from anick.fields import PrimeField, Rationals


@pytest.fixture
def alpha():
    return Alphabet(("x", "y", "z"))


def poly(alpha, *terms):
    field = Rationals()
    return Polynomial({alpha.word(w): field.of(c) for w, c in terms})


def test_combine_matches_term_by_term_expansion(alpha):
    # x^2*z - 1 * (x^2 + y*x) * z: expand each word of q by hand
    p = poly(alpha, ("xxz", 1))
    q = poly(alpha, ("xx", 1), ("yx", 1))
    result = p.add_scaled(q.word_mul((), alpha.word("z")), Fraction(-1))
    expected = {}
    for w, c in q.terms.items():
        key = w + alpha.word("z")
        expected[key] = expected.get(key, Fraction(0)) - c
    expected[alpha.word("xxz")] = expected.get(alpha.word("xxz"), Fraction(0)) + 1
    expected = {w: c for w, c in expected.items() if c}
    assert result.terms == expected
    assert result == poly(alpha, ("yxz", -1))


def test_combine_with_zero_scalar_is_identity(alpha):
    p = poly(alpha, ("xy", 2), ("zz", -1))
    q = poly(alpha, ("xx", 1))
    assert p.add_scaled(q.word_mul((), ()), Fraction(0)) == p


def test_combine_embeds_into_zero(alpha):
    zero = Polynomial.zero()
    q = poly(alpha, ("xz", 1))
    assert zero.add_scaled(q.word_mul((), ()), Fraction(1)) == q


def test_combine_is_compatible_with_concatenation(alpha):
    p = poly(alpha, ("zzz", 1))
    q = poly(alpha, ("xy", 1), ("yx", -2))
    l, r = alpha.word("z"), alpha.word("x")
    via_both = p.add_scaled(q.word_mul(l, r), Fraction(3))
    via_staged = p + q.word_mul(l, ()).word_mul((), r).scaled(Fraction(3))
    assert via_both == via_staged


def test_no_zero_coefficients_survive(alpha):
    p = poly(alpha, ("xy", 1))
    q = poly(alpha, ("xy", -1))
    assert (p + q).terms == {}
    assert p.add_scaled(p, Fraction(-1)).terms == {}
    assert p.add_scaled(q, Fraction(2)).terms == {alpha.word("xy"): -1}
    assert Polynomial({alpha.word("xx"): Fraction(0)}).is_zero


def test_lead_term_and_degree(alpha):
    p = poly(alpha, ("yx", 1), ("xx", 1))
    assert p.lead_word() == alpha.word("xx")
    assert p.degree() == 2
    assert p.is_homogeneous
    mixed = poly(alpha, ("x", 1), ("xx", 1))
    assert not mixed.is_homogeneous
    with pytest.raises(AlgebraError):
        Polynomial.zero().lead_word()


def test_monic_rescaling(alpha):
    p = poly(alpha, ("xx", 2), ("yx", 2))
    assert p.monic() == poly(alpha, ("xx", 1), ("yx", 1))


def test_product_convolves(alpha):
    p = poly(alpha, ("x", 1), ("y", 1))
    q = poly(alpha, ("x", 1), ("y", -1))
    assert p * q == poly(alpha, ("xx", 1), ("xy", -1), ("yx", 1), ("yy", -1))


def test_render_poly(alpha):
    p = poly(alpha, ("xx", 1), ("yx", -1))
    assert render_poly(alpha, p) == "x^2 - y*x"
    assert render_poly(alpha, Polynomial.zero()) == "0"
    half = Polynomial({alpha.word("xy"): Fraction(1, 2)})
    assert render_poly(alpha, half) == "1/2*x*y"
    assert render_poly(alpha, Polynomial({(): 3, (0,): -1})) == "-x + 3"


def test_prime_field_arithmetic(alpha):
    field = PrimeField(5)
    p = Polynomial({alpha.word("xx"): field.of(3), alpha.word("yx"): field.of(4)}, field.p)
    m = p.monic()
    assert m.terms[alpha.word("xx")] == field.one
    assert m.terms[alpha.word("yx")] == field.of(4, 3) == 3
    assert (p - p).is_zero
    assert str(field.of(7)) == "2"


def test_from_pairs_sums_repeated_keys(alpha):
    xy, yx = alpha.word("xy"), alpha.word("yx")
    pairs = [(xy, Fraction(1)), (yx, Fraction(2)), (xy, Fraction(-1)), (yx, Fraction(1))]
    assert Polynomial.from_pairs(pairs) == poly(alpha, ("yx", 3))
    assert Polynomial.from_pairs([]).is_zero


# Words of length at most 2 over two letters: a support this small makes
# keys collide, so sums cancel often.
FIELDS = [Rationals(), PrimeField(5)]
WORDS = st.lists(st.integers(0, 1), max_size=2).map(tuple)
SMALL = st.integers(-3, 3)
SCALARS = st.sampled_from([0, 1, -1, 2, -2])


@st.composite
def poly_pairs(draw):
    """(field, p, q) with q cancelling some of p's terms against c * q."""
    field = draw(st.sampled_from(FIELDS))
    p = {w: field.of(draw(SMALL)) for w in draw(st.lists(WORDS, max_size=5))}
    q = {w: field.of(draw(SMALL)) for w in draw(st.lists(WORDS, max_size=5))}
    c = field.of(draw(SCALARS))
    if c and p:
        for w in draw(st.lists(st.sampled_from(sorted(p)), max_size=3)):
            q[w] = field.of(-p[w], c)
    return field, Polynomial(p, field.p), Polynomial(q, field.p), c


def plain_add_scaled(p: dict, q: dict, c, modulus: int) -> dict:
    out = dict(p)
    for w, a in q.items():
        out[w] = out.get(w, 0) + c * a
    if modulus:
        out = {w: a % modulus for w, a in out.items()}
    return {w: a for w, a in out.items() if a}


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
def test_add_scaled_matches_plain_dict_oracle(case):
    field, p, q, c = case
    result = p.add_scaled(q, c)
    assert result.terms == plain_add_scaled(p.terms, q.terms, c, field.p)
    for value in (result, p + q, p - q, -p, p.scaled(c), q.word_mul((0,), (1,))):
        assert all(value.terms.values())
    assert (p - p).is_zero
    assert (p + q) - q == p
    assert p.scaled(field.zero).is_zero


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.dictionaries(st.tuples(st.integers(0, 2), WORDS), SMALL, max_size=5),
    st.dictionaries(st.tuples(st.integers(0, 2), WORDS), SMALL, max_size=5),
)
def test_free_element_arithmetic(field, a_terms, b_terms):
    a = FreeElement({k: field.of(v) for k, v in a_terms.items()}, field.p)
    b = FreeElement({k: field.of(v) for k, v in b_terms.items()}, field.p)
    assert (a + b) - b == a
    assert a.add_scaled(b, field.of(-1)) == a - b
    assert a.scaled(field.zero).is_zero
    assert (a - a).is_zero
    assert all((a + b).terms.values())


def test_mixed_moduli_raise():
    f5, f7, q = (Polynomial({(0,): 1, (1,): 2}, p) for p in (5, 7, 0))
    for a, b in [(f5, f7), (f5, q), (q, f7)]:
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a.add_scaled(b, 2)):
            with pytest.raises(FieldError):
                op()
    with pytest.raises(FieldError):
        FreeElement({(0, ()): 1}, 5) - FreeElement({(0, ()): 1}, 7)
    assert f5 != Polynomial({(0,): 1, (1,): 2}) and f5 == Polynomial({(0,): 6, (1,): -3}, 5)


def test_combining_two_kinds_raises_type_error():
    # A polynomial plus a free-module element was a Polynomial keyed by
    # words and (chain, word) pairs alike; a scalar operand raised a raw
    # AttributeError.
    poly, elem = Polynomial({(0,): 1}), FreeElement({(0, (0,)): 1})
    for a, b in [(poly, elem), (elem, poly), (poly, 1), (elem, 2)]:
        for op in (lambda: a + b, lambda: a - b, lambda: a.add_scaled(b, 2)):
            with pytest.raises(TypeError, match="cannot combine"):
                op()
    for b in (elem, 2):
        with pytest.raises(TypeError, match="cannot combine"):
            poly * b


def test_a_prime_field_combination_holds_only_int_residues(alpha):
    # Fraction(1, 2) % 5 is Fraction(1, 2): kept, it would leave a
    # Fraction in every normal form computed with it.
    xy, yx = alpha.word("xy"), alpha.word("yx")
    for make in (
        lambda: Polynomial({xy: Fraction(1, 2), yx: 1}, 5),
        lambda: Polynomial({xy: Fraction(5, 1)}, 5),
        lambda: FreeElement({(0, xy): Fraction(1, 2)}, 5),
        lambda: Polynomial({xy: 1}, 5).scaled(Fraction(1, 2)),
        # A zero float factor used to return the element unchecked.
        lambda: Polynomial({xy: 1}, 5).add_scaled(Polynomial({yx: 1}, 5), 0.0),
    ):
        with pytest.raises(FieldError, match="no int residue"):
            make()


@pytest.mark.parametrize("c", [0.5, 2.0, Decimal("0.5"), 1 + 0j, True, 0.0])
def test_a_rational_combination_holds_only_ints_and_fractions(alpha, c):
    # Such a coefficient was kept over Q, and completion then failed in
    # linalg with a raw AttributeError; a bool passed as 1, and add_scaled
    # returned its element unchecked for a zero float factor.
    xy, yx = alpha.word("xy"), alpha.word("yx")
    makes = [lambda: Polynomial({xy: c, yx: 1}), lambda: FreeElement({(0, xy): c})]
    if c is not True:  # True times an int is an exact int
        makes += [lambda: Polynomial({xy: 1}).add_scaled(Polynomial({yx: 1}), c)]
    for make in makes:
        with pytest.raises(FieldError, match="neither an int nor a Fraction"):
            make()
    assert Polynomial({xy: Fraction(1, 2), yx: -1}).terms == {xy: Fraction(1, 2), yx: -1}
