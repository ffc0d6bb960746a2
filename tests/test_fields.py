"""Scalars of both fields: integral rationals as int, residues as int."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from anick import Polynomial
from anick.errors import FieldError
from anick.fields import PrimeField, Rationals, _is_prime

Q = Rationals()
F5 = PrimeField(5)


def test_rationals_are_int_when_integral():
    assert Q.p == 0
    assert type(Q.zero) is int and Q.zero == 0
    assert type(Q.one) is int and Q.one == 1
    for value, expected in [((3,), 3), ((-4, 2), -2), ((6, -3), -2), ((0, 7), 0)]:
        got = Q.of(*value)
        assert type(got) is int and got == expected
    assert Q.of(1, 2) == Fraction(1, 2) and type(Q.of(-3, 6)) is Fraction
    with pytest.raises(ZeroDivisionError):
        Q.of(1, 0)


def test_inverse_is_exact_and_never_a_float():
    # monic divides by the leading coefficient: over Q by its exact
    # inverse, an int whenever that is integral; over Fp by pow(c, -1, p).
    for c, expected in [(1, 1), (-1, -1), (2, Fraction(1, 2)), (Fraction(1, 3), 3),
                        (Fraction(-2, 3), Fraction(-3, 2)), (Fraction(-1, 4), -4)]:
        got = Polynomial({(0,): c, (1,): 1}).monic().terms[(1,)]
        assert got == expected
        assert type(got) is type(expected)
    assert Polynomial({(0,): 2, (1,): 1}, 5).monic() == Polynomial({(0,): 1, (1,): 3}, 5)
    assert F5.of(1, 2) == 3


def test_is_one_on_every_scalar_kind():
    # A polynomial whose leading coefficient equals one is already monic.
    for c, p in [(1, 0), (Fraction(1), 0), (F5.one, 5), (F5.of(6), 5), (11, 5)]:
        g = Polynomial({(0,): c, (1,): 2}, p)
        assert g.monic() is g
    for c, p in [(-1, 0), (2, 0), (Fraction(1, 2), 0), (4, 5), (F5.of(-1), 5)]:
        g = Polynomial({(0,): c, (1,): 2}, p)
        assert g.monic() is not g and g.monic().lead_coeff() == 1


def test_operators_and_prime_field_constructor():
    assert F5.p == 5 and F5.zero == 0 and F5.one == 1
    assert type(F5.zero) is int and type(F5.one) is int
    assert F5.of(3) == 3 and F5.of(8) == 3 and F5.of(-1) == 4
    assert F5.of(1, 3) == 2 and F5.of(-7, 2) == 4 and F5.of(3, 4) == 2
    a, b = Polynomial({(): 3}, 5), Polynomial({(): 4}, 5)
    assert (a + b).terms == {(): 2} and (a - b).terms == {(): 4} and (a * b).terms == {(): 2}
    assert (-a).terms == {(): 2} and a.scaled(2).terms == {(): 1}
    assert (a + a.scaled(4)).is_zero and a.scaled(10).is_zero
    with pytest.raises(ZeroDivisionError):
        F5.of(1, 10)
    with pytest.raises(ZeroDivisionError):
        F5.of(1, 0)


@given(
    st.sampled_from([PrimeField(p) for p in (2, 3, 5, 32003, 2**31 - 1)]),
    st.integers(-50, 50) | st.integers(-(10**40), 10**40),
)
def test_of_an_integer_is_its_residue(field, a):
    p = field.p
    got = field.of(a)
    assert got == field.of(a, 1) == field.of(a * (p + 1), p + 1) == a % p
    assert type(got) is int and 0 <= got < p
    with pytest.raises(ZeroDivisionError):
        field.of(a, p)


def test_large_primes_are_certified_quickly():
    # Trial division would need about 7.6e8 steps for 2**61 - 1 alone.
    for p in (2**61 - 1, 18446744073709551557):
        start = time.perf_counter()
        assert PrimeField(p).p == p
        assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051])
def test_carmichael_and_strong_pseudoprimes_are_rejected(n):
    # 561 is a Carmichael number; the other two are strong pseudoprimes to
    # bases 2, 3, 5, 7 and to bases 2 through 23.
    with pytest.raises(FieldError, match="is not prime"):
        PrimeField(n)


@pytest.mark.parametrize("p", [5.0, "5", Fraction(5), True])
def test_a_modulus_that_is_not_an_int_is_a_field_error(p):
    # No scalar is a float, so no modulus is one either; a bool is not an int here.
    with pytest.raises(FieldError, match="is not prime"):
        PrimeField(p)


def test_primality_agrees_with_trial_division_below_twenty_thousand():
    primes = [n for n in range(2, 20000) if all(n % d for d in range(2, int(n**0.5) + 1))]
    assert [n for n in range(-3, 20000) if _is_prime(n)] == primes


def test_a_thirty_digit_modulus_is_a_field_error():
    # Miller-Rabin over the bases up to 41 is exact only below about 3.3e24.
    with pytest.raises(FieldError, match="cannot certify"):
        PrimeField(10**29 + 7)
