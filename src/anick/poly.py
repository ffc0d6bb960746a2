"""Exact sparse linear combinations, and polynomials in the free algebra.

``LinComb`` is a finitely supported map from keys to nonzero scalars with
its arithmetic.  A polynomial is one keyed by words; its leading word
sorts first by ``words.deglex_desc``.  All operations are pure and build
their results through the one constructor, which checks scalar types,
reduces residues and prunes zeros, so the support invariant always holds.
A combination holds its field's modulus ``p`` once: over Fp its
coefficients are ``int`` residues in 1..p-1, over Q (p = 0) ``int`` or
``Fraction`` values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import AlgebraError, FieldError
from .fields import Rationals
from .words import EMPTY, Alphabet, Word, deglex_desc

_RATIONAL = frozenset((int, Fraction))  # the exact scalar types over Q


class LinComb:
    """A finitely supported map from keys to nonzero scalars, over Fp or,
    with p = 0, over Q.

    Polynomials (keyed by words) and free-module elements (keyed by chain
    and normal word) share this arithmetic.  Results are new values of the
    caller's kind; an operand of another kind raises ``TypeError``.  Combining
    two moduli, a coefficient over Fp that is not an ``int``, or one over Q
    that is not exactly an ``int`` or a ``Fraction``, raises ``FieldError``.
    """

    __slots__ = ("terms", "p")

    def __init__(self, terms: Mapping, p: int = 0):
        if p:
            if any(type(c) is not int for c in terms.values()):
                raise FieldError(f"a coefficient mod {p} is no int residue")
            self.terms = {k: r for k, c in terms.items() if (r := c % p)}
        else:
            if not _RATIONAL.issuperset(map(type, terms.values())):
                raise FieldError("a coefficient over Q is neither an int nor a Fraction")
            self.terms = {k: c for k, c in terms.items() if c}
        self.p = p

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, object]], p: int = 0):
        """The sum of ``(key, coeff)`` pairs."""
        out: dict = {}
        for k, c in pairs:
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return cls(out, p)

    def _modulus(self, other: "LinComb") -> int:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.p != self.p:
            raise FieldError(f"mixed moduli {self.p} and {other.p}")
        return self.p

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def add_scaled(self, other: "LinComb", c):
        """``self + c * other``, summed into a copy of ``self``'s terms; the
        constructor checks c through the coefficients it makes and prunes."""
        p, out = self._modulus(other), dict(self.terms)
        for k, a in other.terms.items():
            out[k] = out.get(k, 0) + c * a
        return type(self)(out, p)

    def __add__(self, other):
        return self.add_scaled(other, 1)

    def __sub__(self, other):
        return self.add_scaled(other, -1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c):
        return type(self)({k: c * a for k, a in self.terms.items()}, self.p)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.p == other.p and self.terms == other.terms

    def __repr__(self) -> str:
        p = f", p={self.p}" if self.p else ""
        return f"{type(self).__name__}({self.terms!r}{p})"


class Polynomial(LinComb):
    # ``_lead`` memoises the leading word; ``terms`` is never mutated after
    # construction, so the cache stays valid for the object's lifetime.
    __slots__ = ("_lead",)

    def __init__(self, terms: Mapping[Word, object], p: int = 0):
        super().__init__(terms, p)
        self._lead = None

    @classmethod
    def zero(cls, p: int = 0) -> "Polynomial":
        return cls({}, p)

    @classmethod
    def monomial(cls, word: Word, coeff, p: int = 0) -> "Polynomial":
        return cls({word: coeff}, p)

    def lead_word(self) -> Word:
        """The deglex-maximal word."""
        lead = self._lead
        if lead is None:
            if not self.terms:
                raise AlgebraError("zero polynomial has no leading term")
            lead = self._lead = min(self.terms, key=deglex_desc)
        return lead

    def lead_coeff(self):
        return self.terms[self.lead_word()]

    def degree(self) -> int:
        """Maximal word length in the support, the leading word's length."""
        return len(self.lead_word())

    @property
    def is_homogeneous(self) -> bool:
        return len({len(w) for w in self.terms}) <= 1

    def sorted_terms(self) -> list[tuple[Word, object]]:
        """Terms in descending order, leading term first."""
        return sorted(self.terms.items(), key=lambda t: deglex_desc(t[0]))

    def word_mul(self, left: Word, right: Word) -> "Polynomial":
        """The product ``left * self * right`` with monomial cofactors."""
        return Polynomial({left + w + right: c for w, c in self.terms.items()}, self.p)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.from_pairs(
            ((u + w, a * b) for u, a in self.terms.items() for w, b in other.terms.items()),
            self._modulus(other),
        )

    def monic(self) -> "Polynomial":
        c, p = self.lead_coeff(), self.p
        if c == 1:
            return self
        return self.scaled(pow(c, -1, p) if p else Rationals().of(c.denominator, c.numerator))

    # LinComb's __eq__ would otherwise leave polynomials unhashable.
    def __hash__(self):
        return hash(frozenset(self.terms.items()))


def render_poly(alphabet: Alphabet, p: Polynomial) -> str:
    """Human- and parser-readable form, terms in descending order."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for w, c in p.sorted_terms():
        text = str(c)
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        body = alphabet.str_word(w)
        if w == EMPTY:
            term = text
        elif text == "1":
            term = body
        else:
            term = f"{text}*{body}"
        if not pieces:
            pieces.append(f"-{term}" if negative else term)
        else:
            pieces.append(f"- {term}" if negative else f"+ {term}")
    return " ".join(pieces)
