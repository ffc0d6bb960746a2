from dataclasses import replace

import pytest
from helpers import (
    accepts,
    bf_has_factor,
    bf_normal_count,
    finite_dimensional_reference,
    series_inverse_coefficients,
)
from hypothesis import given, settings, strategies as st

from anick import (
    Alphabet,
    complete,
    is_finite_dimensional,
    normal_word_automaton,
)
from anick.errors import AntichainError, CoverageError


@pytest.fixture
def xyz_alpha():
    return Alphabet(("x", "y", "z"))


def test_quadratic_obstructions_language(xyz_alpha):
    # x^2, xz, zy are already a complete monomial basis, valid at all degrees
    obs = [xyz_alpha.word(t) for t in ("xx", "xz", "zy")]
    aut = normal_word_automaton(xyz_alpha, obs, None)
    accepted = {xyz_alpha.str_word(w) for w in aut.accepted_words(2)}
    assert accepted == {"x*y", "y*x", "y^2", "y*z", "z*x", "z^2"}
    # letter-successor structure: x -> y; y -> x, y, z; z -> x, z
    for first, allowed in (("x", {"y"}), ("y", {"x", "y", "z"}), ("z", {"x", "z"})):
        seen = {
            xyz_alpha.letters[w[1]]
            for w in aut.accepted_words(2)
            if xyz_alpha.letters[w[0]] == first
        }
        assert seen == allowed


def test_no_obstructions_accepts_everything(xyz_alpha):
    aut = normal_word_automaton(xyz_alpha, [], None)
    assert aut.hilbert_coefficients(4) == [1, 3, 9, 27, 81]


def test_counts_match_brute_force_enumeration(xyz, xyz_gb8):
    aut = normal_word_automaton(
        xyz.alphabet, xyz_gb8.obstructions, xyz_gb8.valid_degree
    )
    counts = aut.hilbert_coefficients(6)
    for degree in range(7):
        assert counts[degree] == bf_normal_count(3, degree, xyz_gb8.obstructions)


def test_xyz_fixture_counts(xyz, xyz_gb8):
    aut = normal_word_automaton(
        xyz.alphabet, xyz_gb8.obstructions, xyz_gb8.valid_degree
    )
    assert aut.hilbert_coefficients(5) == [1, 3, 6, 11, 20, 36]
    expected = series_inverse_coefficients([1, -3, 3, -2, 1], 8)
    assert aut.hilbert_coefficients(8) == expected


def test_quadratic_ordering_counts(yxsq_low):
    gb = complete(yxsq_low, 6)
    aut = normal_word_automaton(yxsq_low.alphabet, gb.obstructions, gb.valid_degree)
    assert aut.hilbert_coefficients(4) == [1, 2, 3, 4, 5]


def test_dual_language_is_finite(xyz):
    from anick import quadratic_dual

    dual = quadratic_dual(xyz)
    gb = complete(dual, 6)
    aut = normal_word_automaton(dual.alphabet, gb.obstructions, gb.valid_degree)
    assert aut.hilbert_coefficients(6) == [1, 3, 3, 2, 1, 0, 0]
    verdict = is_finite_dimensional(aut)
    assert verdict.finite and verdict.top_degree == 4
    assert not verdict.conditional
    longest = aut.accepted_words(4)
    assert [dual.alphabet.str_word(w) for w in longest] == ["y!*x!*z!*y!"]


def test_infinite_language_detected(xyz, xyz_gb8):
    aut = normal_word_automaton(
        xyz.alphabet, xyz_gb8.obstructions, xyz_gb8.valid_degree
    )
    verdict = is_finite_dimensional(aut)
    assert not verdict.finite
    assert verdict.conditional  # obstruction family is truncated


def test_all_two_letter_words_blocked():
    alpha = Alphabet(("x", "y"))
    obs = [alpha.word(t) for t in ("xx", "xy", "yx", "yy")]
    aut = normal_word_automaton(alpha, obs, None)
    verdict = is_finite_dimensional(aut)
    assert verdict.finite and verdict.top_degree == 1
    assert aut.hilbert_coefficients(3) == [1, 2, 0, 0]


@pytest.mark.parametrize("valid", [None, 3])
def test_no_word_has_a_negative_degree(xyz_alpha, valid):
    aut = normal_word_automaton(xyz_alpha, [xyz_alpha.word("xx")], valid)
    for degree in (-1, -5):
        assert aut.accepted_words(degree) == []
        assert aut.hilbert_coefficients(degree) == []
    assert aut.accepted_words(0) == [()]
    assert aut.hilbert_coefficients(0) == [1]


def test_validity_degree_is_enforced(xyz_alpha):
    obs = [xyz_alpha.word("xx")]
    aut = normal_word_automaton(xyz_alpha, obs, 3)
    aut.hilbert_coefficients(3)
    with pytest.raises(CoverageError):
        aut.hilbert_coefficients(4)


def test_rejects_non_antichain(xyz_alpha):
    with pytest.raises(AntichainError):
        normal_word_automaton(
            xyz_alpha, [xyz_alpha.word("xz"), xyz_alpha.word("xzy")], None
        )


def test_accepts_only_factor_avoiding_words(xyz, xyz_gb8):
    from itertools import product

    aut = normal_word_automaton(
        xyz.alphabet, xyz_gb8.obstructions, xyz_gb8.valid_degree
    )
    for degree in range(5):
        for w in product(range(3), repeat=degree):
            expected = not any(
                bf_has_factor(tuple(w), o) for o in xyz_gb8.obstructions
            )
            assert accepts(aut, tuple(w)) == expected


def test_deep_finite_automaton_needs_no_recursion():
    # One obstruction a^1501: the automaton is a path of 1501 states, deeper
    # than the interpreter's default recursion limit.
    aut = normal_word_automaton(Alphabet(("a",)), [(0,) * 1501], None)
    verdict = is_finite_dimensional(aut)
    assert verdict.finite and verdict.top_degree == 1500
    assert not verdict.conditional


@st.composite
def antichain_automata(draw):
    """A normal-word automaton over one to three letters for a random
    antichain of words of length 1-4, valid at every degree or only
    below its number of states."""
    alpha = Alphabet(("x", "y", "z")[:draw(st.integers(1, 3))])
    word = st.lists(st.integers(0, alpha.size - 1), min_size=1, max_size=4).map(tuple)
    obs: list = []
    for w in draw(st.lists(word, max_size=6)):
        if not any(bf_has_factor(w, o) or bf_has_factor(o, w) for o in obs):
            obs.append(w)
    aut = normal_word_automaton(alpha, obs, None)
    return replace(aut, valid_degree=draw(st.one_of(st.none(), st.integers(0, aut.size - 1))))


@settings(max_examples=300, deadline=None)
@given(antichain_automata())
def test_finiteness_from_reached_states_matches_cycle_search(aut):
    verdict = is_finite_dimensional(aut)
    assert (verdict.finite, verdict.top_degree) == finite_dimensional_reference(aut)
    assert verdict.conditional == (aut.valid_degree is not None)
    if aut.valid_degree is not None:
        with pytest.raises(CoverageError):
            aut.hilbert_coefficients(aut.size)


def test_finiteness_matches_cycle_search_on_fixtures(xyz, g4_d8_obstructions):
    from anick import quadratic_dual

    alpha, obs = g4_d8_obstructions
    g4 = normal_word_automaton(alpha, obs, 8)
    # The pinned words are those of the g4 basis: its Hilbert series holds.
    assert g4.hilbert_coefficients(8) == [(n + 1) * 2**n for n in range(9)]
    dual_gb = complete(quadratic_dual(xyz), 6)
    dual = normal_word_automaton(
        dual_gb.presentation.alphabet, dual_gb.obstructions, dual_gb.valid_degree
    )
    two = Alphabet(("x", "y"))
    blocked = normal_word_automaton(two, [two.word(t) for t in ("xx", "xy", "yx", "yy")], None)
    cases = [
        (g4, (False, None)),
        (dual, (True, 4)),
        (blocked, (True, 1)),
        (normal_word_automaton(Alphabet(("a",)), [(0,) * 1501], None), (True, 1500)),
    ]
    for aut, expected in cases:
        verdict = is_finite_dimensional(aut)
        assert (verdict.finite, verdict.top_degree) == finite_dimensional_reference(aut) == expected
