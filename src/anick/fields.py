"""Exact scalar arithmetic: rational numbers or a prime field.

Rational coefficients are plain ``int`` values when they are integral and
``fractions.Fraction`` values otherwise; arithmetic between the two stays
exact, and no scalar is ever a ``float`` (``inverse`` never divides two
ints with ``/``).  Prime-field coefficients are ``ModP`` values that carry
their modulus, so polynomial code never needs to know which field it is
working over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldError


class ModP:
    """Residue modulo a prime p.

    Immutable by convention: equality and hash are on ``(value, p)``, and
    a residue never equals a bare ``int``.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value
        self.p = p

    def __eq__(self, other):
        if type(other) is not ModP:
            return NotImplemented
        return self.value == other.value and self.p == other.p

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self) -> str:
        return f"ModP(value={self.value!r}, p={self.p!r})"

    def _residue(self, other) -> int | None:
        """The integer an operand stands for, or None if it is no scalar
        of this field; residues of another modulus raise."""
        if type(other) is ModP:
            if other.p != self.p:
                raise FieldError(f"mixed moduli {self.p} and {other.p}")
            return other.value
        if isinstance(other, int):
            return other
        return None

    def __add__(self, other):
        v = self._residue(other)
        if v is None:
            return NotImplemented
        return ModP((self.value + v) % self.p, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._residue(other)
        if v is None:
            return NotImplemented
        return ModP((self.value - v) % self.p, self.p)

    def __rsub__(self, other):
        v = self._residue(other)
        if v is None:
            return NotImplemented
        return ModP((v - self.value) % self.p, self.p)

    def __mul__(self, other):
        v = self._residue(other)
        if v is None:
            return NotImplemented
        return ModP(self.value * v % self.p, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return ModP(-self.value % self.p, self.p)

    def _quotient(self, a: int, b: int) -> "ModP":
        if b % self.p == 0:
            raise ZeroDivisionError("division by zero residue")
        return ModP(a * pow(b, -1, self.p) % self.p, self.p)

    def __truediv__(self, other):
        v = self._residue(other)
        if v is None:
            return NotImplemented
        return self._quotient(self.value, v)

    def __rtruediv__(self, other):
        v = self._residue(other)
        if v is None:
            return NotImplemented
        return self._quotient(v, self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self) -> str:
        return str(self.value)


# Miller-Rabin over the prime bases up to 41 is exact below this bound,
# the least strong pseudoprime to all of them (about 3.317e24).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; from ``_MR_BOUND`` on it raises
    ``FieldError`` rather than guess."""
    if n >= _MR_BOUND:
        raise FieldError(f"cannot certify {n} prime: the limit is {_MR_BOUND - 1}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Rationals:
    """The field of rational numbers."""

    @property
    def name(self) -> str:
        return "Q"

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def of(self, numerator: int, denominator: int = 1) -> int | Fraction:
        """numerator / denominator: an ``int`` when integral."""
        q = Fraction(numerator, denominator)
        return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True)
class PrimeField:
    """The prime field with p elements."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise FieldError(f"{self.p} is not prime")

    @property
    def name(self) -> str:
        return f"Fp {self.p}"

    @property
    def zero(self) -> ModP:
        return ModP(0, self.p)

    @property
    def one(self) -> ModP:
        return ModP(1, self.p)

    def of(self, numerator: int, denominator: int = 1) -> ModP:
        if denominator == 1:
            return ModP(numerator % self.p, self.p)
        if denominator % self.p == 0:
            raise ZeroDivisionError("denominator vanishes in the prime field")
        return ModP(numerator % self.p, self.p) / ModP(denominator % self.p, self.p)


Field = Rationals | PrimeField


def is_one(c) -> bool:
    """Whether a scalar of either field is one, without arithmetic."""
    return getattr(c, "value", c) == 1


def inverse(c):
    """The exact inverse of a nonzero scalar; over Q an ``int`` whenever
    it is integral (c = 1/n), never a ``float``."""
    if isinstance(c, ModP):
        return 1 / c
    return Rationals().of(c.denominator, c.numerator)


def field_from_name(text: str) -> Field:
    """Parse a field descriptor such as ``Q``, ``q``, ``Fp 5`` or ``fp:5``."""
    t = text.strip()
    low = t.lower()
    if low == "q":
        return Rationals()
    for sep in (":", " "):
        if low.startswith("fp" + sep):
            body = t[3:].strip()
            try:  # isdigit() admits digits int() rejects, such as '²'
                p = int(body) if body.isdigit() else None
            except ValueError:  # or beyond the interpreter's digit limit
                p = None
            if p is None:
                raise FieldError(f"bad prime in field descriptor {text!r}")
            return PrimeField(p)
    raise FieldError(f"unknown field descriptor {text!r} (expected Q or Fp <prime>)")
