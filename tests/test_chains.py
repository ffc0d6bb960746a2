import pytest
from helpers import bf_chains, path_counts, shape_chains

from anick import Alphabet, chain_graph, chain_graph_dot, complete, enumerate_chains
from anick.errors import AntichainError, ChainError


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

    assert chains.find(0, a.word("x")).prefix is None


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
    assert ext[()] == tuple((i,) for i in range(presentation.alphabet.size))
    for tails in ext.values():
        assert [len(t) for t in tails] == sorted(len(t) for t in tails)
    for c in chains.index.values():
        if c.level >= 1:
            assert c.tail in ext[c.prefix.tail]
        if c.level < d:
            # Every extension that fits is a chain over c, so split's
            # lookup from the prefix finds each chain and nothing else.
            for t in ext[c.tail]:
                if len(c.word) + len(t) <= d:
                    assert chains.find(c.level + 1, c.word + t).prefix is c


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


def test_graph_path_counts_match_enumeration(xyz, xyz_ctx):
    obstructions = [o for o in xyz_ctx.gb.obstructions]
    graph = chain_graph(xyz.alphabet, obstructions)
    counts = path_counts(graph, 5, 8)
    for level in range(0, 6):
        assert counts[level] == len(
            [c for c in xyz_ctx.chains.level(level) if c.degree <= 8]
        )


def test_graph_dot_rendering(xyz, xyz_gb8):
    graph = chain_graph(xyz.alphabet, list(xyz_gb8.obstructions))
    dot = chain_graph_dot(graph)
    assert dot.startswith("digraph chains {")
    assert '"x" [shape=doublecircle];' in dot
    assert '"x*z|1"' in dot
    assert '"x" -> "x^2|1";' in dot
    assert dot.endswith("}\n")
