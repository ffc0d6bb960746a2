"""Exact scalars: rational numbers or a prime field.

Rational coefficients are plain ``int`` values when they are integral and
``fractions.Fraction`` values otherwise, so no scalar is ever a ``float``.
Prime-field coefficients are plain ``int`` residues in 0..p-1; a field's
``p`` is its modulus, 0 for Q, and a linear combination holds it once for
all its coefficients (``poly.LinComb``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldError


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
    """The field of rational numbers, of modulus ``p`` 0."""

    # Class attributes, not dataclass fields.
    p, name, zero, one = 0, "Q", 0, 1

    def of(self, numerator: int, denominator: int = 1) -> int | Fraction:
        """numerator / denominator: an ``int`` when integral."""
        q = Fraction(numerator, denominator)
        return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True)
class PrimeField:
    """The prime field with p elements."""

    p: int

    def __post_init__(self):
        if type(self.p) is not int or not _is_prime(self.p):
            raise FieldError(f"{self.p!r} is not prime")

    zero, one = 0, 1

    @property
    def name(self) -> str:
        return f"Fp {self.p}"

    def of(self, numerator: int, denominator: int = 1) -> int:
        """numerator / denominator as a residue in 0..p-1."""
        p = self.p
        if denominator == 1:
            return numerator % p
        if denominator % p == 0:
            raise ZeroDivisionError("denominator vanishes in the prime field")
        return numerator * pow(denominator, -1, p) % p


Field = Rationals | PrimeField


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
