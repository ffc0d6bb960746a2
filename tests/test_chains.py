import hashlib
import json
from dataclasses import FrozenInstanceError

import pytest
from helpers import bf_chains, bf_has_factor, path_counts, shape_chains
from hypothesis import given, settings, strategies as st

from anick import (
    Alphabet,
    ResolutionContext,
    chain_graph,
    chain_graph_dot,
    complete,
    enumerate_chains,
    parse_presentation,
)
from anick.chains import Chain
from anick.errors import AntichainError, ChainError
from anick.reports import graph_payload


def chain_words(chain_set, level, deg_max=None):
    top = chain_set.deg_max if deg_max is None else deg_max
    return {
        c.word
        for d in range(top + 1)
        for c in chain_set.at(level, d)
    }


def test_level_zero_is_letters_level_one_is_obstructions(xyz, xyz_ctx):
    chains = xyz_ctx.chains
    assert chain_words(chains, 0) == {(0,), (1,), (2,)}
    assert chain_words(chains, 1) == set(xyz_ctx.gb.obstructions)


def test_level_one_through_degree_four(xyz, xyz_ctx):
    got = {
        xyz.alphabet.str_word(w) for w in chain_words(xyz_ctx.chains, 1, deg_max=4)
    }
    assert got == {"x^2", "x*y*x", "x*y^2*x", "x*z", "z*y"}


def test_level_two_small_degrees(xyz, xyz_ctx):
    deg3 = {xyz.alphabet.str_word(c.word) for c in xyz_ctx.chains.at(2, 3)}
    assert deg3 == {"x^3", "x^2*z", "x*z*y"}
    deg5 = {xyz.alphabet.str_word(c.word) for c in xyz_ctx.chains.at(2, 5)}
    assert deg5 == {"x^2*y^2*x", "x*y*x*y*x", "x*y^2*x^2", "x*y^2*x*z"}


def test_three_shape_classification_matches(xyz_ctx):
    for level in range(2, 6):
        assert chain_words(xyz_ctx.chains, level) == shape_chains(level, 8)


def test_brute_force_chain_condition_agrees(xyz_ctx):
    obstructions = [o for o in xyz_ctx.gb.obstructions if len(o) <= 7]
    for level in range(0, 5):
        expected = set(bf_chains(3, obstructions, level, 7))
        assert chain_words(xyz_ctx.chains, level, deg_max=7) == expected


def test_chain_decompositions_are_unique_exhaustively(xyz_ctx):
    # bf_chains raises on any word with two valid decompositions
    obstructions = [o for o in xyz_ctx.gb.obstructions if len(o) <= 7]
    for level in range(0, 5):
        bf_chains(3, obstructions, level, 7)


def test_chain_split_examples(xyz, xyz_ctx):
    chains = xyz_ctx.chains
    a = xyz.alphabet

    x3 = chains.find(2, a.word("xxx"))
    prefix, tail = x3.prefix, x3.tail
    assert (prefix.level, prefix.word) == (1, a.word("xx"))
    assert tail == a.word("x")

    xzy = chains.find(2, a.word("xzy"))
    prefix, tail = xzy.prefix, xzy.tail
    assert prefix.word == a.word("xz")
    assert tail == a.word("y")

    xz = chains.find(1, a.word("xz"))
    prefix, tail = xz.prefix, xz.tail
    assert (prefix.level, prefix.word) == (0, a.word("x"))
    assert tail == a.word("z")

    assert chains.find(0, a.word("x")).prefix is chains.unit


@pytest.mark.parametrize("name, d", [("xyz", 8), ("g4", 5)])
def test_the_unit_chain_is_every_letters_prefix(name, d, request):
    # Anick's (-1)-chain is the empty word with id 0: the chain set holds it
    # in neither table, and its context keys the same object by id 0.
    presentation = request.getfixturevalue(name)
    ctx = ResolutionContext(complete(presentation, d), d, d)
    chain_set = ctx.chains
    unit = chain_set.unit
    assert (unit.word, unit.level, unit.id, unit.prefix) == ((), -1, 0, None)
    assert ctx.unit is chain_set.unit and ctx._chains[0] is unit
    letters = chain_set.level(0)
    assert sorted(c.word for c in letters) == [(x,) for x in range(presentation.alphabet.size)]
    for c in letters:
        assert c.prefix is chain_set.unit and c.decomposition == ()
    assert all(level >= 0 for level, _ in chain_set.index)
    assert all(level >= 0 for level, _ in chain_set.by_level_degree)
    # An equal chain built by hand names the unit too.
    assert ctx._id_of(Chain((), -1, 0, 0, None)) == 0
    # With no room for a letter, the chain set still holds its unit.
    empty = enumerate_chains(presentation.alphabet, [], d, 0)
    assert empty.index == {} and empty.unit == unit


def test_split_recombines(xyz_ctx):
    for level in range(1, 5):
        for c in xyz_ctx.chains.level(level):
            prefix, tail = c.prefix, c.tail
            assert prefix.word + tail == c.word
            assert prefix.level == c.level - 1


def test_decomposition_spans(xyz, xyz_ctx):
    c = xyz_ctx.chains.find(2, xyz.alphabet.word("xxx"))
    assert c.decomposition == ((0, 2), (1, 3))
    w = xyz_ctx.chains.find(2, xyz.alphabet.word("xzy"))
    assert w.decomposition == ((0, 2), (1, 3))


@pytest.mark.parametrize("name, d", [("xyz", 8), ("g4", 5)])
def test_extension_table_links_every_chain_to_its_prefix(name, d, request):
    presentation = request.getfixturevalue(name)
    gb = complete(presentation, d)
    chains = enumerate_chains(presentation.alphabet, list(gb.obstructions), d, d)
    ext = chains.extensions
    # Enumeration looks up the tail of every chain below the top level.
    assert set(ext) == {c.tail for c in chains.index.values() if c.level < d}
    for c in chains.index.values():
        if c.level >= 1:
            o = c.word[len(c.word) - c.tail_len - c.overlap_len:]
            assert (o, c.overlap_len) in ext[c.prefix.tail]
        if c.level < d:
            # Every extension that fits is a chain over c, so the children
            # the resolution reads off the prefix ids are exactly these.
            for o, ov in ext[c.tail]:
                if len(c.word) + len(o) - ov <= d:
                    assert chains.find(c.level + 1, c.word + o[ov:]).prefix is c


def test_extensions_are_worked_out_once_per_tail(g4, monkeypatch):
    import anick.chains as chains_module

    tails = []
    real = chains_module._extensions

    def counted(tail, obstructions):
        tails.append(tail)
        return real(tail, obstructions)

    monkeypatch.setattr(chains_module, "_extensions", counted)
    obstructions = list(complete(g4, 6).obstructions)
    chains = enumerate_chains(g4.alphabet, obstructions, 6, 6)
    looked_up = {c.tail for c in chains.index.values() if c.level < 6}
    assert sorted(tails) == sorted(chains.extensions) == sorted(looked_up)
    tails.clear()
    graph = chain_graph(g4.alphabet, obstructions)
    assert sorted(tails) == sorted({node.tail for node in graph.nodes})
    # Several class nodes share a tail, and share its table entry.
    assert len(tails) < len(graph.nodes)


def test_rejects_non_antichain_obstructions():
    alpha = Alphabet(("x", "y"))
    with pytest.raises(AntichainError):
        enumerate_chains(alpha, [alpha.word("xy"), alpha.word("xyx")], 2, 4)


def test_rejects_single_letter_obstructions():
    alpha = Alphabet(("x", "y"))
    with pytest.raises(ChainError):
        enumerate_chains(alpha, [alpha.word("x")], 2, 4)


def test_monomial_relation_without_self_overlap_stops_at_level_one():
    alpha = Alphabet(("x", "y"))
    chains = enumerate_chains(alpha, [alpha.word("xy")], 4, 6)
    assert chain_words(chains, 1) == {alpha.word("xy")}
    for level in range(2, 5):
        assert chain_words(chains, level) == set()


def assert_path_counts_match_enumeration(alphabet, obstructions, level_max, deg_max):
    graph = chain_graph(alphabet, obstructions)
    chains = enumerate_chains(alphabet, obstructions, level_max, deg_max)
    want = {level: len(chains.level(level)) for level in range(level_max + 1)}
    assert path_counts(graph, level_max, deg_max) == want


@st.composite
def antichains(draw):
    """An alphabet of two or three letters and a random antichain over it
    of words of length 2-4."""
    alphabet = Alphabet(("x", "y", "z")[: draw(st.integers(2, 3))])
    word = st.lists(st.integers(0, alphabet.size - 1), min_size=2, max_size=4).map(tuple)
    obstructions: list = []
    for w in draw(st.lists(word, max_size=6)):
        if not any(bf_has_factor(w, o) or bf_has_factor(o, w) for o in obstructions):
            obstructions.append(w)
    return alphabet, obstructions


@settings(deadline=None)
@given(antichains(), st.integers(0, 6), st.integers(1, 9))
def test_graph_path_counts_match_enumeration(case, level_max, deg_max):
    assert_path_counts_match_enumeration(*case, level_max, deg_max)


def test_graph_path_counts_match_enumeration_on_fixtures(xyz, xyz_gb8, g4_d8_obstructions):
    assert_path_counts_match_enumeration(xyz.alphabet, list(xyz_gb8.obstructions), 8, 8)
    assert_path_counts_match_enumeration(*g4_d8_obstructions, 8, 8)


def test_graph_dot_rendering(xyz, xyz_gb8):
    graph = chain_graph(xyz.alphabet, list(xyz_gb8.obstructions))
    dot = chain_graph_dot(graph)
    assert dot.startswith("digraph chains {")
    assert '"x" [shape=doublecircle];' in dot
    assert '"x*z|1"' in dot
    assert '"x" -> "x^2|1";' in dot
    assert dot.endswith("}\n")


# sha256 of json.dumps(graph_payload(graph), indent=2) and of the DOT text,
# beside the pinned example.alg DOT in test_cli.py: both show the order in
# which the walk numbers the class nodes.
GRAPH_DIGESTS = {
    "g4-6": (
        "edaf44a17bba77a659c220b6b6780b5987540b87cde725d7b2e5078e1dab0490",
        "7c90de11034c580614b2e058607db87f784d1c6af9869f2da392ff9a20b57a8d",
    ),
    "xyz-yxz-8": (
        "6f977b3fe6ff3161dc677b8406fcd1993913eed222e8812b865df90131e6d94b",
        "4f5acbe93652817a32fbb91800efb6feda746dfee280673cdf41645930b1928a",
    ),
}


@pytest.mark.parametrize("name", sorted(GRAPH_DIGESTS))
def test_graph_renderings_match_pinned_digest(name, g4):
    xyz_yxz = "vars: y > x > z\nrelations:\n  x^2 + y*x\n  x*z\n  z*y\n"
    presentation, d = {"g4-6": (g4, 6), "xyz-yxz-8": (parse_presentation(xyz_yxz), 8)}[name]
    graph = chain_graph(presentation.alphabet, list(complete(presentation, d).obstructions))
    texts = json.dumps(graph_payload(graph), indent=2), chain_graph_dot(graph)
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == GRAPH_DIGESTS[name]


def bucket_spans(by_level_degree):
    return {k: [(c.word, c.decomposition) for c in v] for k, v in by_level_degree.items()}


@pytest.mark.parametrize("name, level_max, top", [("xyz", 8, 9), ("g4", 4, 6)])
def test_enumeration_at_a_bound_is_the_higher_one_cut_to_it(name, level_max, top, request):
    # Cutting the enumeration two degrees up must give the same chains,
    # decompositions and bucket order.
    if name == "xyz":
        gb = request.getfixturevalue("xyz_gb8")
        alphabet, obstructions = gb.presentation.alphabet, list(gb.obstructions)
    else:
        alphabet, obstructions = request.getfixturevalue("g4_d8_obstructions")
    for d in range(top + 1):
        low = enumerate_chains(alphabet, obstructions, level_max, d)
        high = enumerate_chains(alphabet, obstructions, level_max, d + 2)
        cut = {k: v for k, v in high.by_level_degree.items() if k[1] <= d}
        assert bucket_spans(low.by_level_degree) == bucket_spans(cut)
        assert sorted(low.index) == sorted(k for k in high.index if len(k[1]) <= d)


def test_chain_is_frozen_and_equal_by_word_and_level(xyz_ctx):
    c = xyz_ctx.chains.find(2, (0, 0, 0))
    with pytest.raises(FrozenInstanceError):
        c.word = (1, 1, 1)
    assert not hasattr(c, "__dict__")  # slotted
    twin = Chain(c.word, c.level, 2, 0, None)
    assert twin == c and hash(twin) == hash(c) and len({twin, c}) == 1
    assert Chain(c.word, c.level + 1, 1, 1, c) != c
