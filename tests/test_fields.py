"""Scalars of both fields: integral rationals as int, residues as ModP."""

from fractions import Fraction

import pytest

from anick.errors import FieldError
from anick.fields import ModP, PrimeField, Rationals, inverse, is_one

Q = Rationals()
F5 = PrimeField(5)


def test_rationals_are_int_when_integral():
    assert type(Q.zero) is int and Q.zero == 0
    assert type(Q.one) is int and Q.one == 1
    for value, expected in [((3,), 3), ((-4, 2), -2), ((6, -3), -2), ((0, 7), 0)]:
        got = Q.of(*value)
        assert type(got) is int and got == expected
    assert Q.of(1, 2) == Fraction(1, 2) and type(Q.of(-3, 6)) is Fraction
    with pytest.raises(ZeroDivisionError):
        Q.of(1, 0)


def test_inverse_is_exact_and_never_a_float():
    for c, expected in [(1, 1), (-1, -1), (2, Fraction(1, 2)), (Fraction(1, 3), 3),
                        (Fraction(-2, 3), Fraction(-3, 2)), (Fraction(-1, 4), -4)]:
        got = inverse(c)
        assert got == expected
        assert type(got) is type(expected)
    assert inverse(ModP(2, 5)) == ModP(3, 5)


def test_is_one_on_every_scalar_kind():
    assert is_one(1) and is_one(Fraction(1)) and is_one(ModP(1, 5)) and is_one(F5.one)
    for c in (0, -1, 2, Fraction(1, 2), ModP(0, 5), ModP(4, 5), ModP(6, 5)):
        assert not is_one(c)


def test_equal_residues_are_equal_and_hash_equal():
    a, b = ModP(3, 5), F5.of(8)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, ModP(3, 7)}) == 2
    assert ModP(3, 5) != ModP(3, 7)
    assert ModP(2, 5) != ModP(3, 5)
    assert repr(a) == "ModP(value=3, p=5)"
    assert str(a) == "3"


def test_residues_never_equal_bare_ints():
    assert ModP(1, 5) != 1
    assert 1 != ModP(1, 5)
    assert ModP(0, 5) != 0
    assert {ModP(1, 5): "r"}.get(1) is None


def test_mixed_moduli_raise():
    a, b = ModP(1, 5), ModP(1, 7)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(FieldError):
            op()


def test_operators_and_prime_field_constructor():
    a, b = F5.of(3), F5.of(4)
    assert a + b == ModP(2, 5) and a - b == ModP(4, 5) and a * b == ModP(2, 5)
    assert -a == ModP(2, 5) and a / b == ModP(2, 5)
    assert a + 3 == 3 + a == ModP(1, 5)
    assert 1 - a == ModP(3, 5) and a - 1 == ModP(2, 5)
    assert 2 * a == a * 2 == ModP(1, 5)
    assert 1 / a == ModP(2, 5) and a / 2 == ModP(4, 5)
    assert F5.of(1, 3) == ModP(2, 5) and F5.of(-7, 2) == ModP(4, 5)
    assert bool(F5.zero) is False and bool(F5.one) is True
    with pytest.raises(ZeroDivisionError):
        a / F5.zero
    with pytest.raises(ZeroDivisionError):
        1 / F5.zero
    with pytest.raises(ZeroDivisionError):
        F5.of(1, 10)
    assert a.__add__(Fraction(1, 2)) is NotImplemented
    assert a.__mul__(0.5) is NotImplemented
