import pickle

import pytest
from hypothesis import given, settings, strategies as st

from anick import Alphabet, Polynomial, Presentation, format_presentation, parse_presentation, render_poly
from anick.errors import ParseError
from anick.fields import PrimeField, Rationals
from anick.words import _NAME


def test_parses_main_fixture():
    pres = parse_presentation(
        "vars: x > y > z\nrelations:\n x^2 + y*x\n x*z\n z*y"
    )
    assert pres.alphabet.letters == ("x", "y", "z")
    assert len(pres.relations) == 3
    rendered = {render_poly(pres.alphabet, r) for r in pres.relations}
    assert rendered == {"x^2 + y*x", "x*z", "z*y"}


def test_ascending_separator_reverses_precedence():
    pres = parse_presentation("vars: x < y\nrelations:\n x^2 - y*x")
    assert pres.alphabet.letters == ("y", "x")
    # with y greatest, the leading term of the relation is y*x
    rel = pres.relations[0]
    assert pres.alphabet.str_word(rel.lead_word()) == "y*x"


def test_duplicate_letter_is_an_error():
    with pytest.raises(ParseError) as info:
        parse_presentation("vars: x > x\nrelations:\n")
    assert "duplicate letter" in str(info.value)


def test_mixed_separators_rejected():
    with pytest.raises(ParseError):
        parse_presentation("vars: x > y < z\nrelations:\n")


def test_unknown_letter_has_position():
    with pytest.raises(ParseError) as info:
        parse_presentation("vars: x > y\nrelations:\n x*q")
    assert info.value.line == 3
    assert info.value.col >= 2


def test_zero_relation_rejected():
    with pytest.raises(ParseError) as info:
        parse_presentation("vars: x > y\nrelations:\n x*y - x*y")
    assert "zero" in str(info.value)


def test_inhomogeneous_relation_rejected():
    with pytest.raises(ParseError) as info:
        parse_presentation("vars: x > y\nrelations:\n x*y + x")
    assert "homogeneous" in str(info.value)


def test_juxtaposition_and_powers():
    pres = parse_presentation("vars: x > y\nrelations:\n xy^2x - 2yx^3")
    rel = pres.relations[0]
    a = pres.alphabet
    assert rel.terms[a.word("xyyx")] == 1
    assert rel.terms[a.word("yxxx")] == -2


def test_rational_coefficients():
    pres = parse_presentation("vars: x > y\nrelations:\n 1/2*x*y + y*x")
    rel = pres.relations[0]
    assert str(rel.terms[pres.alphabet.word("xy")]) == "1/2"


@pytest.mark.parametrize(
    "field, relation",
    [("Q", "  x*x + 1/0*x*y"), ("Fp 5", "  x*x + 1/5*x*y"), ("Fp 5", "  x*x - 2/10*x*y")],
)
def test_zero_denominator_is_a_parse_error_at_the_coefficient(field, relation):
    with pytest.raises(ParseError, match="zero denominator") as info:
        parse_presentation(f"vars: x > y\nfield: {field}\nrelations:\n{relation}\n")
    assert (info.value.line, info.value.col) == (4, 9)


def test_error_columns_count_from_the_start_of_the_line():
    for text, at in (("relations:\n    x*q", (3, 7)), (" relations: x*y + x*q", (2, 21))):
        with pytest.raises(ParseError, match="unknown letter") as info:
            parse_presentation("vars: x > y\n" + text)
        assert (info.value.line, info.value.col) == at


def test_field_line_and_override():
    pres = parse_presentation("vars: x > y\nfield: Fp 7\nrelations:\n x*y")
    assert pres.field == PrimeField(7)
    pres2 = parse_presentation(
        "vars: x > y\nfield: Fp 7\nrelations:\n x*y", field_override=Rationals()
    )
    assert pres2.field == Rationals()


def test_bad_field_is_an_error():
    with pytest.raises(ParseError):
        parse_presentation("vars: x > y\nfield: F8\nrelations:\n")
    with pytest.raises(ParseError):
        parse_presentation("vars: x > y\nfield: Fp 8\nrelations:\n")


def test_comments_and_blank_lines():
    pres = parse_presentation(
        "# an example\nvars: x > y  # two letters\n\nrelations:\n  x*y  # monomial\n"
    )
    assert len(pres.relations) == 1


def test_missing_vars_is_an_error():
    with pytest.raises(ParseError) as info:
        parse_presentation("relations:\n x*y\n")
    assert "vars" in str(info.value) or "unexpected" in str(info.value)


def test_round_trip_is_identity():
    for text in (
        "vars: x > y > z\nrelations:\n x^2 + y*x\n x*z\n z*y",
        "vars: x < y\nrelations:\n x^2 - y*x",
        "vars: x > y\nfield: Fp 5\nrelations:\n x*y + 4*y*x",
        "vars: x > y > z\nrelations:\n",
    ):
        first = parse_presentation(text)
        printed = format_presentation(first)
        second = parse_presentation(printed)
        assert first == second
        assert format_presentation(second) == printed


def test_dual_presentation_round_trips(xyz):
    from anick import quadratic_dual

    dual = quadratic_dual(xyz)
    assert parse_presentation(format_presentation(dual)) == dual


def test_unicode_letter_names():
    pres = parse_presentation("vars: α > β\nrelations:\n α*β - β*α\n")
    assert pres.alphabet.letters == ("α", "β")
    assert len(pres.relations) == 1


def test_long_juxtaposed_word_is_split():
    pres = parse_presentation("vars: x > y\nrelations:\n  " + "xy" * 600 + "\n")
    (rel,) = pres.relations
    assert rel.terms == {(0, 1) * 600: 1}


def test_long_word_with_unknown_letter_is_an_error():
    with pytest.raises(ParseError, match="unknown letter"):
        parse_presentation("vars: x > y\nrelations:\n  " + "xy" * 600 + "q\n")


@pytest.mark.parametrize(
    "relation, degree, col",
    [("x^1000000", 1000000, 3), ("y*x^3", 4, 5), ("x^2*y^2", 4, 7), ("xy^1000000", 1000001, 3)],
)
def test_term_above_the_degree_bound_is_an_error_at_its_factor(relation, degree, col):
    with pytest.raises(ParseError, match=f"term degree {degree} is above the bound 3") as info:
        parse_presentation(f"vars: x > y\nrelations:\n  {relation}\n", max_degree=3)
    assert (info.value.line, info.value.col) == (3, col)
    # Terms up to the bound still parse.
    assert parse_presentation("vars: x > y\nrelations:\n  x^2*y\n", max_degree=3).relations


@pytest.mark.parametrize(
    "relation",
    ["x^" + "7" * 5000, "7" * 5000 + "*x^2", "1/" + "7" * 5000 + "*x^2"],
    ids=["exponent", "numerator", "denominator"],
)
def test_number_beyond_the_digit_limit_is_a_parse_error(relation):
    with pytest.raises(ParseError, match="number too long \\(5000 digits\\)"):
        parse_presentation(f"vars: x\nrelations:\n  {relation}\n", max_degree=3)


@pytest.mark.parametrize(
    "text, message, at",
    [
        ("relations:\n  x*y @ y*x", "unexpected character '@'", (3, 7)),
        ("relations:\n  x*y 2*y*x", "expected '+' or '-' between terms", (3, 7)),
        ("relations:\n  x*y + 1/*y*x", "expected denominator", (3, 11)),
        ("relations:\n  x^*y", "expected exponent", (3, 5)),
        ("relations:\n  x*y - y*x^", "expected exponent", (3, 13)),
        ("relations:\n  x*y + 3", "a term needs at least one letter", (3, 10)),
        ("relations:\n  x*y +", "a term needs at least one letter", (3, 8)),
        ("relations:\n  x*y - \t ", "a term needs at least one letter", (3, 8)),
        ("relations:\n  x^0 + x", "relation is not homogeneous", (3, 1)),
        (" relations:  x*y - y*x $", "unexpected character '$'", (2, 24)),
        ("x*y", "unexpected line 'x*y'", (2, 1)),
        ("vars: x > y\nvars: y > x", "duplicate vars line", (2, 1)),
        ("vars: x > > y", "bad letter name ''", (1, 1)),
        ("vars: x > 1y", "bad letter name '1y'", (1, 1)),
        ("vars: 1 < x*", "bad letter name '1'", (1, 1)),
        ("vars: a < b < a < b", "duplicate letter 'a'", (1, 1)),
    ],
    ids=[
        "character",
        "between-terms",
        "denominator",
        "exponent",
        "exponent-at-end",
        "no-letter",
        "trailing-operator",
        "trailing-operator-and-blanks",
        "zeroth-power",
        "on-the-relations-line",
        "unexpected-line",
        "duplicate-vars-line",
        "empty-letter-name",
        "bad-letter-name",
        "bad-letter-name-as-written",
        "duplicate-letter-as-written",
    ],
)
def test_parse_error_names_its_message_line_and_column(text, message, at):
    # A case without its own vars line reads over x > y.
    header = "" if text.startswith("vars:") else "vars: x > y\n"
    with pytest.raises(ParseError) as info:
        parse_presentation(f"{header}{text}\n", max_degree=8)
    assert (info.value.message, info.value.line, info.value.col) == (message, *at)


def test_parse_error_keeps_its_position_through_pickle():
    error = pickle.loads(pickle.dumps(ParseError("bad", 3, 7)))
    assert (error.message, error.line, error.col, str(error)) == ("bad", 3, 7, "line 3, col 7: bad")


def test_degree_zero_relation_is_an_error_at_its_line():
    # The relation is checked when it is read, before the bad line after it.
    with pytest.raises(ParseError, match="degree at least 1") as info:
        parse_presentation("vars: x > y\nrelations:\n  x*y\n  x^0\n  x @\n")
    assert (info.value.line, info.value.col) == (4, 1)


def test_huge_exponent_is_bounded_by_default():
    # Without max_degree the word of x^(10^10) would be built, gigabytes
    # before anything could reject it.
    with pytest.raises(ParseError, match="term degree 10000000000 is above the bound") as info:
        parse_presentation("vars: x\nrelations:\n  x^10000000000\n")
    assert (info.value.line, info.value.col) == (3, 3)


# Letters, digits, operators, blanks (one of them not ASCII) and one stray
# character.
FUZZ_CHARACTERS = "xy0123456789+-*/^ \t\u3000@"


@settings(max_examples=300, deadline=None)
@given(st.text(FUZZ_CHARACTERS, max_size=16))
def test_a_fuzzed_relation_round_trips_or_is_a_parse_error(line):
    try:
        pres = parse_presentation(f"vars: x > y\nrelations:\n  {line}\n", max_degree=8)
    except ParseError:
        return
    assert parse_presentation(format_presentation(pres), max_degree=8) == pres


# Multi-letter names, names ending in '!', non-ASCII names, and names
# drawn from the name rule itself.
LETTER_NAMES = st.one_of(
    st.sampled_from(["x", "y", "xy", "x!", "x!!", "y1", "_a", "α", "αβ", "Ω2"]),
    st.from_regex(_NAME, fullmatch=True).filter(lambda n: len(n) <= 4),
)


@st.composite
def presentations(draw):
    names = draw(st.lists(LETTER_NAMES, min_size=1, max_size=4, unique=True))
    # A name and the same name extended, so one is a prefix of the other.
    longer = [names[0] + s for s in ("!", "9", "x") if _NAME.fullmatch(names[0] + s)]
    names = list(dict.fromkeys(names + draw(st.lists(st.sampled_from(longer), max_size=2))))
    field = draw(st.sampled_from([Rationals(), PrimeField(5)]))
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.integers(1, 3))
        word = st.lists(st.integers(0, len(names) - 1), min_size=degree, max_size=degree)
        coeff = st.builds(field.of, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
        rel = Polynomial.from_pairs(draw(st.lists(st.tuples(word.map(tuple), coeff), max_size=4)), field.p)
        if not rel.is_zero:
            relations.append(rel)
    return Presentation(Alphabet(tuple(names)), field, tuple(relations))


@settings(max_examples=300, deadline=None)
@given(presentations())
def test_every_presentation_reads_back(pres):
    assert parse_presentation(format_presentation(pres)) == pres
