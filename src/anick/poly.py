"""Exact sparse linear combinations, and polynomials in the free algebra.

``LinComb`` is a finitely supported map from keys to nonzero scalars with
its arithmetic.  A polynomial is one keyed by words, together with the
deglex order used for leading-term queries.  All operations are pure and
return new values; zero coefficients are pruned on construction and by
every operation, so the support invariant always holds.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import AlgebraError
from .fields import inverse, is_one
from .words import EMPTY, Alphabet, DegLex, Word


class LinComb:
    """A finitely supported map from keys to nonzero scalars.

    Polynomials (keyed by words) and free-module elements (keyed by chain
    and normal word) share this arithmetic.  Results are new values of the
    caller's kind; zero coefficients never survive an operation.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping):
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, object]], *space):
        """The sum of ``(key, coeff)`` pairs; ``space`` is the rest of the
        constructor's arguments (a polynomial's order)."""
        out: dict = {}
        for k, c in pairs:
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return cls(out, *space)

    def _like(self, terms: dict):
        """An element of the same kind and space over already pruned terms."""
        out = object.__new__(type(self))
        out.terms = terms
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def add_scaled(self, other: "LinComb", c):
        """``self + c * other`` in one pass over ``other``."""
        if not c:
            return self
        out = dict(self.terms)
        for k, a in other.terms.items():
            prev = out.get(k)
            s = c * a if prev is None else prev + c * a
            if s:
                out[k] = s
            else:
                del out[k]
        return self._like(out)

    def __add__(self, other):
        return self.add_scaled(other, 1)

    def __sub__(self, other):
        return self.add_scaled(other, -1)

    def __neg__(self):
        return self._like({k: -a for k, a in self.terms.items()})

    def scaled(self, c):
        return self._like({k: p for k, a in self.terms.items() if (p := c * a)})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"


class Polynomial(LinComb):
    # ``_lead`` memoises the leading word; ``terms`` is never mutated after
    # construction, so the cache stays valid for the object's lifetime.
    __slots__ = ("order", "_lead")

    def __init__(self, terms: Mapping[Word, object], order: DegLex):
        super().__init__(terms)
        self.order = order
        self._lead = None

    def _like(self, terms: dict) -> "Polynomial":
        out = super()._like(terms)
        out.order = self.order
        out._lead = None
        return out

    @classmethod
    def zero(cls, order: DegLex) -> "Polynomial":
        return cls({}, order)

    @classmethod
    def monomial(cls, word: Word, coeff, order: DegLex) -> "Polynomial":
        return cls({word: coeff}, order)

    def lead_word(self) -> Word:
        """The deglex-maximal word: the longest, and among those the
        smallest tuple, since index 0 is the greatest letter."""
        lead = self._lead
        if lead is None:
            if not self.terms:
                raise AlgebraError("zero polynomial has no leading term")
            n = max(map(len, self.terms))
            lead = self._lead = min(w for w in self.terms if len(w) == n)
        return lead

    def lead_coeff(self):
        return self.terms[self.lead_word()]

    def degree(self) -> int:
        """Maximal word length in the support (undefined for zero)."""
        if not self.terms:
            raise AlgebraError("zero polynomial has no degree")
        return max(len(w) for w in self.terms)

    @property
    def is_homogeneous(self) -> bool:
        lengths = {len(w) for w in self.terms}
        return len(lengths) <= 1

    def sorted_terms(self) -> list[tuple[Word, object]]:
        """Terms in descending order, leading term first."""
        return sorted(self.terms.items(), key=lambda t: self.order.key(t[0]), reverse=True)

    def word_mul(self, left: Word, right: Word) -> "Polynomial":
        """The product ``left * self * right`` with monomial cofactors."""
        return self._like({left + w + right: c for w, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.from_pairs(
            ((u + w, a * b) for u, a in self.terms.items() for w, b in other.terms.items()),
            self.order,
        )

    def monic(self) -> "Polynomial":
        c = self.lead_coeff()
        return self if is_one(c) else self.scaled(inverse(c))

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.order == other.order

    def __hash__(self):
        return hash((self.order, frozenset(self.terms.items())))


def poly_combine(p: Polynomial, c, left: Word, q: Polynomial, right: Word) -> Polynomial:
    """The elementary rewriting step ``p + c * left * q * right``."""
    return p.add_scaled(q.word_mul(left, right), c)


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
