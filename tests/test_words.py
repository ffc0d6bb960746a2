from itertools import product

import pytest
from helpers import bf_has_factor, check_antichain_reference
from hypothesis import given, settings, strategies as st

from anick import AlgebraError, Alphabet, DegLex, Polynomial, overlaps, render_poly
from anick.words import check_antichain, deglex_desc
from anick.errors import AntichainError


@pytest.fixture
def xyz_alpha():
    return Alphabet(("x", "y", "z"))


def test_compare_equal_degree_first_letter_wins(xyz_alpha):
    order = DegLex(xyz_alpha.size)
    xz = xyz_alpha.word("xz")
    zy = xyz_alpha.word("zy")
    assert order.compare(xz, zy) == 1


def test_compare_degree_dominates(xyz_alpha):
    order = DegLex(xyz_alpha.size)
    assert order.compare(xyz_alpha.word("y"), xyz_alpha.word("xz")) == -1


def test_compare_ascending_declaration():
    alpha = Alphabet(("y", "x"))  # as parsed from "vars: x < y"
    order = DegLex(alpha.size)
    yx = alpha.word("yx")
    xx = alpha.word("xx")
    assert order.compare(yx, xx) == 1


def test_compare_rejects_foreign_indices(xyz_alpha):
    order = DegLex(xyz_alpha.size)
    with pytest.raises(AlgebraError):
        order.compare((0, 5), (0,))


def test_compare_is_a_total_order_on_small_words():
    alpha = Alphabet(("a", "b"))
    order = DegLex(alpha.size)
    words = [tuple(w) for d in range(4) for w in product(range(2), repeat=d)]
    for u in words:
        for w in words:
            cu, cw = order.compare(u, w), order.compare(w, u)
            assert cu == -cw
            assert (cu == 0) == (u == w)
    # transitivity over every triple
    for u in words:
        for v in words:
            for w in words:
                if order.compare(u, v) <= 0 and order.compare(v, w) <= 0:
                    assert order.compare(u, w) <= 0


def test_compare_is_multiplicative_in_equal_degree():
    alpha = Alphabet(("a", "b"))
    order = DegLex(alpha.size)
    degree_two = [tuple(w) for w in product(range(2), repeat=2)]
    contexts = [tuple(w) for d in range(3) for w in product(range(2), repeat=d)]
    for u in degree_two:
        for w in degree_two:
            if order.compare(u, w) != -1:
                continue
            for a in contexts:
                for b in contexts:
                    assert order.compare(a + u + b, a + w + b) == -1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), max_size=5).map(tuple), max_size=8))
def test_native_key_orders_words_as_deglex_does(words):
    order = DegLex(3)
    assert sorted(words, key=deglex_desc) == sorted(words, key=order.key, reverse=True)
    for u in words:
        for w in words:
            assert (deglex_desc(u) < deglex_desc(w)) == (order.compare(u, w) == 1)


def test_overlaps_examples(xyz_alpha):
    xz, zy, xx = (xyz_alpha.word(t) for t in ("xz", "zy", "xx"))
    assert overlaps(xz, zy) == [1]
    assert overlaps(zy, xz) == []
    assert overlaps(xx, xx) == [1]
    for u, w in [((), xx), (xx, ())]:
        with pytest.raises(AlgebraError, match="empty words"):
            overlaps(u, w)


def test_overlaps_long_words():
    alpha = Alphabet(("a", "b"))
    u = alpha.word("abab")
    assert overlaps(u, u) == [2]
    assert overlaps(alpha.word("aab"), alpha.word("abb")) == [2]


def test_word_split_and_render(xyz_alpha):
    w = xyz_alpha.word("xyyx")
    assert w == (0, 1, 1, 0)
    assert xyz_alpha.str_word(w) == "x*y^2*x"
    assert xyz_alpha.str_word(()) == "1"
    with pytest.raises(AlgebraError):
        xyz_alpha.word("xq")


@pytest.mark.parametrize("w, bad", [((-1,), -1), ((-1, 0), -1), ((3,), 3), ((0, 2, 7), 7)])
def test_str_word_renders_only_letters_of_its_alphabet(xyz_alpha, w, bad):
    # (-1,) rendered as 'z', the last letter, and (3,) raised a raw IndexError.
    with pytest.raises(AlgebraError, match=f"letter {bad} is outside the alphabet"):
        xyz_alpha.str_word(w)
    with pytest.raises(AlgebraError, match=f"letter {bad} is outside"):
        render_poly(xyz_alpha, Polynomial({w: 1}))


def test_word_split_multicharacter_names():
    alpha = Alphabet(("ab", "a", "b"))
    # greedy longest match with backtracking
    assert alpha.word("aba") == (0, 1)
    assert alpha.word("aab") == (1, 0)


def test_alphabet_holds_its_letters_as_a_tuple():
    # A list of letters used to stay a list: the alphabet was unhashable and
    # unequal to the one its presentation's text reads back as.
    assert Alphabet(["x", "y"]) == Alphabet(("x", "y"))
    assert hash(Alphabet(["x", "y"])) == hash(Alphabet(("x", "y")))


def test_alphabet_validation():
    for letters in ((), None, iter(())):
        with pytest.raises(AlgebraError, match="alphabet must be nonempty"):
            Alphabet(letters)
    with pytest.raises(AlgebraError, match="duplicate letter 'x'"):
        Alphabet(("x", "y", "x"))


@pytest.mark.parametrize("letters", [5, 2.5, object()])
def test_alphabet_rejects_letters_that_cannot_be_iterated(letters):
    # tuple() of these raised a raw TypeError.
    with pytest.raises(AlgebraError, match="letters must be a sequence of names"):
        Alphabet(letters)


@pytest.mark.parametrize(
    "letters",
    [("x#", "y"), ("1", "x"), ("x*", "y"), ("x>y",), ("x", ""), ("x y",), ("x!y",), ("x", 1), (b"x",)],
)
def test_alphabet_rejects_names_the_parser_cannot_read(letters):
    # format_presentation would write these, and the parser would read the
    # text back as something else ('#' starts a comment) or not at all.  A
    # name that is not a str is an AlgebraError too, not a raw TypeError.
    bad = next(n for n in letters if n not in ("x", "y"))
    with pytest.raises(AlgebraError) as info:
        Alphabet(letters)
    assert str(info.value) == f"bad letter name {bad!r}"


def test_antichain_check(xyz_alpha):
    good = [xyz_alpha.word("xx"), xyz_alpha.word("xz"), xyz_alpha.word("zy")]
    check_antichain(good)
    with pytest.raises(AntichainError):
        check_antichain([xyz_alpha.word("xz"), xyz_alpha.word("xzy")])


def test_antichain_check_of_g4_obstructions_matches_pairwise_scan(g4_d8_obstructions):
    _, obs = g4_d8_obstructions
    assert check_antichain(obs) == check_antichain_reference(obs)
    with pytest.raises(AntichainError):
        check_antichain(obs + [obs[-1][1:]])


@st.composite
def word_lists(draw):
    """Lists of words of length 0-4 over one to three letters, repeats
    allowed; half of them are first thinned out to an antichain."""
    size = draw(st.integers(1, 3))
    word = st.lists(st.integers(0, size - 1), max_size=4).map(tuple)
    words = draw(st.lists(word, max_size=8))
    if draw(st.booleans()):
        kept: list = []
        for w in words:
            if not any(bf_has_factor(w, u) or bf_has_factor(u, w) for u in kept):
                kept.append(w)
        words = kept
    return words


@settings(max_examples=300, deadline=None)
@given(word_lists())
def test_antichain_check_matches_pairwise_scan(words):
    try:
        expected = check_antichain_reference(words)
    except AntichainError:
        with pytest.raises(AntichainError):
            check_antichain(words)
    else:
        assert check_antichain(words) == expected


def test_word_split_prefers_longer_names_and_backtracks():
    alpha = Alphabet(("a", "ab", "bc", "b"))
    assert alpha.word("abab") == (1, 1)
    # "ab" first would leave "c", which no letter starts.
    assert alpha.word("abc") == (0, 2)
    assert alpha.word("abbc") == (1, 2)
    with pytest.raises(AlgebraError):
        alpha.word("abd")
