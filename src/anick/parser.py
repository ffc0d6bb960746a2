"""Presentation-file parsing and printing.

Grammar, one directive per line, ``#`` starts a comment:

    vars: x > y > z          letters in descending precedence ('<' for ascending)
    field: Q                 optional; also "field: Fp 5"
    relations:               one homogeneous polynomial per following line
      x^2 + y*x
      x*z
      z*y

Terms are signed products of letters with ``^`` powers; concatenation is
written with ``*`` or by juxtaposition (``yx`` splits greedily against
the declared letter names).  Integer or rational coefficients such as
``2`` and ``1/2`` are accepted.  Parsing is strict: duplicate letters,
unknown names, a term above the degree bound, and a zero, inhomogeneous
or degree-0 relation are errors that carry a line and column.
"""

from __future__ import annotations

import re

from .errors import AlgebraError, ParseError
from .fields import Field, Rationals, field_from_name
from .groebner import Presentation
from .poly import Polynomial, render_poly
from .words import _NAME, Alphabet

# One token: a name, a number, an operator, or any other non-blank
# character, which is an error; blanks between tokens are skipped.
_TOKEN = re.compile(rf"(?P<name>{_NAME.pattern})|(?P<num>[0-9]+)|(?P<op>[-+*/^])|(?P<bad>\S)")

# A term degree far above any that completion can reach; it bounds the
# word a power builds when the caller gives no tighter bound.
MAX_TERM_DEGREE = 10**6


def _tokenize(text: str, line_no: int) -> list[tuple[str, str, int]]:
    """(kind, text, position) tokens, an operator its own kind, then ``end``."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", line_no, m.start() + 1)
        tokens.append((tok if kind == "op" else kind, tok, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _parse_polynomial(
    text: str, line_no: int, alphabet: Alphabet, field: Field, max_degree: int
) -> Polynomial:
    tokens = _tokenize(text, line_no)
    i = 0

    def error(msg: str, at: int) -> ParseError:
        return ParseError(msg, line_no, tokens[at][2] + 1)

    def take(kind: str) -> str | None:
        """The next token's text if it is of this kind, moving past it."""
        nonlocal i
        if tokens[i][0] == kind:
            i += 1
            return tokens[i - 1][1]

    def number(what: str) -> int:
        if (digits := take("num")) is None:
            raise error(f"expected {what}", i)
        try:
            return int(digits)
        except ValueError:  # beyond the interpreter's digit limit
            raise error(f"number too long ({len(digits)} digits)", i - 1) from None

    terms: list[tuple[tuple[int, ...], object]] = []
    while tokens[i][0] != "end":
        op = take("-") or take("+")
        if not op and terms:
            raise error("expected '+' or '-' between terms", i)
        sign = -1 if op == "-" else 1
        coeff_at, numerator, denominator = i, 1, 1
        if tokens[i][0] == "num":
            numerator = number("coefficient")
            if take("/"):
                denominator = number("denominator")
            take("*")
        if tokens[i][0] != "name":
            raise error("a term needs at least one letter", i)
        word: list[int] = []
        while name := take("name"):
            at = i - 1
            try:
                letters = alphabet.word(name)
            except AlgebraError:
                raise error(f"unknown letter {name!r}", at) from None
            power = number("exponent") if take("^") else 1
            # The degree is checked before the power is expanded, so a huge
            # exponent costs no memory.
            degree = len(word) + len(letters) - 1 + power
            if degree > max_degree:
                raise error(f"term degree {degree} is above the bound {max_degree}", at)
            word.extend(letters[:-1] + letters[-1:] * power)
            take("*")
        try:
            terms.append((tuple(word), field.of(sign * numerator, denominator)))
        except ZeroDivisionError:
            raise error(f"zero denominator in {field.name}", coeff_at) from None
    poly = Polynomial.from_pairs(terms, field.p)
    try:  # the checks every relation gets, made here to name the line
        Presentation(alphabet, field, (poly,))
    except AlgebraError as exc:
        raise ParseError(str(exc), line_no, 1) from None
    return poly


def parse_presentation(
    text: str, field_override: Field | None = None, max_degree: int = MAX_TERM_DEGREE
) -> Presentation:
    """Parse a presentation file into a validated Presentation.

    A term of degree above ``max_degree`` is a ParseError, raised before
    the term's word is built.
    """
    lines = text.splitlines()
    alphabet: Alphabet | None = None
    field: Field = field_override or Rationals()
    relation_lines: list[tuple[int, str]] = []
    in_relations = False

    for line_no, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].rstrip()
        stripped = body.lstrip()
        if not stripped:
            continue
        low = stripped.lower()
        if low.startswith("vars:"):
            if alphabet is not None:
                raise ParseError("duplicate vars line", line_no, 1)
            body = stripped[5:].strip()
            if ">" in body and "<" in body:
                raise ParseError("cannot mix '>' and '<' in vars", line_no, 1)
            sep = "<" if "<" in body else ">"
            try:  # checked as written, so an error names the first bad name
                alphabet = Alphabet(tuple(n.strip() for n in body.split(sep)))
            except AlgebraError as exc:
                raise ParseError(str(exc), line_no, 1) from None
            if sep == "<":
                alphabet = Alphabet(alphabet.letters[::-1])
            in_relations = False
        elif low.startswith("field:"):
            if field_override is None:
                try:
                    field = field_from_name(stripped[6:])
                except Exception as exc:
                    raise ParseError(str(exc), line_no, 1) from None
            in_relations = False
        elif low.startswith("relations:"):
            # Relations keep their place in the line, so error columns
            # count from its first character.
            cut = len(body) - len(stripped) + 10
            if body[cut:].strip():
                relation_lines.append((line_no, " " * cut + body[cut:]))
            in_relations = True
        elif in_relations:
            relation_lines.append((line_no, body))
        else:
            raise ParseError(f"unexpected line {stripped!r}", line_no, 1)

    if alphabet is None:
        raise ParseError("missing vars line", len(lines) or 1, 1)
    relations = tuple(
        _parse_polynomial(body, line_no, alphabet, field, max_degree)
        for line_no, body in relation_lines
    )
    return Presentation(alphabet, field, relations)


def format_presentation(presentation: Presentation) -> str:
    """Canonical text form; parsing it back yields an equal Presentation."""
    alphabet = presentation.alphabet
    lines = ["vars: " + " > ".join(alphabet.letters), f"field: {presentation.field.name}"]
    lines += ["relations:", *("  " + render_poly(alphabet, r) for r in presentation.relations)]
    return "\n".join(lines) + "\n"
