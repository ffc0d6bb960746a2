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
unknown names, zero relations and inhomogeneous relations are errors
that carry a line and column.
"""

from __future__ import annotations

import re

from .errors import AlgebraError, ParseError
from .fields import Field, Rationals, field_from_name
from .groebner import Presentation
from .poly import Polynomial, render_poly
from .words import Alphabet

# letters may be any unicode word (dual generators carry trailing '!')
_NAME = re.compile(r"[^\W\d]\w*!*")
_NUM = re.compile(r"[0-9]+")


def _tokenize(text: str, line_no: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "#":
            break
        m = _NAME.match(text, pos)
        if m:
            tokens.append(("name", m.group(), pos))
            pos = m.end()
            continue
        m = _NUM.match(text, pos)
        if m:
            tokens.append(("num", m.group(), pos))
            pos = m.end()
            continue
        if ch in "+-*/^":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line_no, pos + 1)
    return tokens


def _parse_polynomial(
    text: str, line_no: int, alphabet: Alphabet, field: Field, max_degree: int | None = None
) -> Polynomial:
    tokens = _tokenize(text, line_no)
    if not tokens:
        raise ParseError("empty relation", line_no, 1)
    terms: list[tuple[tuple[int, ...], object]] = []
    i = 0

    def error(msg: str, tok_index: int) -> ParseError:
        col = tokens[tok_index][2] + 1 if tok_index < len(tokens) else len(text) + 1
        return ParseError(msg, line_no, col)

    def number(tok_index: int) -> int:
        digits = tokens[tok_index][1]
        try:
            return int(digits)
        except ValueError:  # beyond the interpreter's digit limit
            raise error(f"number too long ({len(digits)} digits)", tok_index) from None

    while i < len(tokens):
        sign = 1
        if tokens[i][0] in "+-":
            sign = 1 if tokens[i][0] == "+" else -1
            i += 1
        elif terms:
            raise error("expected '+' or '-' between terms", i)
        numerator, denominator = 1, 1
        coeff_at = i
        if i < len(tokens) and tokens[i][0] == "num":
            numerator = number(i)
            i += 1
            if i < len(tokens) and tokens[i][0] == "/":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "num":
                    raise error("expected denominator", i)
                denominator = number(i)
                i += 1
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
        word: list[int] = []
        saw_factor = False
        while i < len(tokens) and tokens[i][0] == "name":
            chunk_pos = i
            try:
                letters = alphabet.word(tokens[i][1])
            except AlgebraError:
                raise error(f"unknown letter {tokens[i][1]!r}", chunk_pos) from None
            i += 1
            power = 1
            if i < len(tokens) and tokens[i][0] == "^":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "num":
                    raise error("expected exponent", i)
                power = number(i)
                i += 1
            # The degree is checked before the power is expanded, so a huge
            # exponent costs no memory.
            degree = len(word) + len(letters) - 1 + power
            if max_degree is not None and degree > max_degree:
                raise error(f"term degree {degree} is above the bound {max_degree}", chunk_pos)
            word.extend(letters[:-1] + letters[-1:] * power)
            saw_factor = True
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
        if not saw_factor:
            raise error("a term needs at least one letter", i)
        try:
            terms.append((tuple(word), field.of(sign * numerator, denominator)))
        except ZeroDivisionError:
            raise error(f"zero denominator in {field.name}", coeff_at) from None
    poly = Polynomial.from_pairs(terms, field.p)
    if poly.is_zero:
        raise ParseError("relation is zero", line_no, 1)
    if not poly.is_homogeneous:
        raise ParseError("relation is not homogeneous", line_no, 1)
    return poly


def parse_presentation(
    text: str, field_override: Field | None = None, max_degree: int | None = None
) -> Presentation:
    """Parse a presentation file into a validated Presentation.

    With ``max_degree``, a term of higher degree is a ParseError, raised
    before the term's word is built.
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
            names = [n.strip() for n in body.split(sep)]
            if any(not n for n in names):
                raise ParseError("empty letter name in vars", line_no, 1)
            for n in names:
                if not _NAME.fullmatch(n):
                    raise ParseError(f"bad letter name {n!r}", line_no, 1)
            if len(set(names)) != len(names):
                dup = next(n for i, n in enumerate(names) if n in names[:i])
                raise ParseError(f"duplicate letter {dup!r}", line_no, 1)
            if sep == "<":
                names = list(reversed(names))
            alphabet = Alphabet(tuple(names))
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
    try:
        return Presentation(alphabet, field, relations)
    except Exception as exc:
        raise ParseError(str(exc)) from None


def format_presentation(presentation: Presentation) -> str:
    """Canonical text form; parsing it back yields an equal Presentation."""
    alphabet = presentation.alphabet
    lines = ["vars: " + " > ".join(alphabet.letters)]
    lines.append(f"field: {presentation.field.name}")
    lines.append("relations:")
    for rel in presentation.relations:
        lines.append("  " + render_poly(alphabet, rel))
    return "\n".join(lines) + "\n"
