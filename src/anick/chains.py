"""Anick chains over an obstruction antichain, and the chain-generation graph.

A 0-chain is a single letter and is its own tail.  An n-chain is a word
``c = c' + t`` with nonempty tail ``t``, where ``c'`` is an (n-1)-chain
with tail ``t'``, some nonempty suffix ``m`` of ``t'`` makes ``m + t`` an
obstruction, and that occurrence is the only obstruction factor of the
window ``t' + t``.  Each chain word decomposes this way uniquely, which
lets chains index the free modules of the resolution.

Whether one obstruction occurrence can follow another depends only on the
current tail, so chain generation is driven by a finite graph whose
vertices are the letters and the (obstruction, overlap length) classes;
level-n chains correspond to length-n paths out of the letter vertices.
One ``ExtensionTable`` maps each tail to those continuations, worked out
the first time the tail is looked up; ``enumerate_chains`` and
``chain_graph`` both read their steps from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from operator import attrgetter

from .errors import ChainError
from .words import EMPTY, Alphabet, Word, check_antichain


@dataclass(frozen=True, slots=True)
class Chain:
    """An Anick chain: a word with its certified decomposition.  Two
    chains are equal, and hash equal, when their word and level are.
    ``id`` is a position, not a name: ``enumerate_chains`` numbers its
    chains 1..n in ``ChainSet.index`` order, and another enumeration may
    renumber them; one built by hand has -1, so it cannot pass for the unit."""

    word: Word
    level: int
    tail_len: int = field(compare=False)
    overlap_len: int = field(compare=False)
    prefix: "Chain | None" = field(compare=False)
    tail: Word = field(init=False, compare=False)
    id: int = field(default=-1, compare=False)

    def __post_init__(self):
        # Slice the tail once for the splitting loop.
        object.__setattr__(self, "tail", self.word[len(self.word) - self.tail_len:])

    @property
    def degree(self) -> int:
        return len(self.word)

    @property
    def decomposition(self) -> tuple[tuple[int, int], ...]:
        """Obstruction occurrences certifying the chain, left to right."""
        spans: list[tuple[int, int]] = []
        node = self
        while node.level >= 1:
            end = len(node.word)
            spans.append((end - node.tail_len - node.overlap_len, end))
            node = node.prefix
        return tuple(reversed(spans))

    def __repr__(self) -> str:
        return f"Chain(level={self.level}, word={self.word})"


def _extensions(tail: Word, obstructions: tuple[Word, ...]) -> list[tuple[Word, int]]:
    """All (obstruction, overlap length) continuations of a given tail.

    The overlap part must be a nonempty suffix of the tail, the leftover
    piece of the obstruction must be nonempty, and the combined window
    must contain no other obstruction factor.  The tail is a letter or a
    proper suffix of an obstruction, so it holds no obstruction, and in an
    antichain only the new one ends where the window does: only factors
    that end inside the new piece, before its last letter, are looked up.
    """
    found, lengths = set(obstructions), sorted({len(o) for o in obstructions})
    out, n = [], len(tail)
    for o in obstructions:
        for ov in range(1, min(n, len(o) - 1) + 1):
            if o[:ov] != tail[n - ov:]:
                continue
            window = tail + o[ov:]
            if not any(
                window[end - m:end] in found
                for end in range(n + 1, len(window))
                for m in lengths
                if m <= end
            ):
                out.append((o, ov))
    return out


class ExtensionTable(dict):
    """Chain tail -> its (obstruction, overlap length) continuations, in
    ``_extensions`` order; a tail's entry is worked out on its first lookup."""

    def __init__(self, obstructions: tuple[Word, ...]):
        super().__init__()
        self.obstructions = obstructions

    def __missing__(self, tail: Word) -> list[tuple[Word, int]]:
        ext = self[tail] = _extensions(tail, self.obstructions)
        return ext


@dataclass
class ChainSet:
    """Chains grouped by (level, degree), each group ascending in deglex,
    complete within the given bounds."""

    alphabet: Alphabet
    obstructions: tuple[Word, ...]
    level_max: int
    deg_max: int
    by_level_degree: dict[tuple[int, int], list[Chain]] = field(default_factory=dict)
    index: dict[tuple[int, Word], Chain] = field(default_factory=dict)
    extensions: ExtensionTable = field(init=False)
    unit: Chain = field(init=False)  # the (-1)-chain, id 0: every letter's prefix, in no table

    def __post_init__(self):
        self.extensions = ExtensionTable(self.obstructions)
        self.unit = Chain(EMPTY, -1, 0, 0, None, 0)

    def at(self, level: int, degree: int) -> list[Chain]:
        return self.by_level_degree.get((level, degree), [])

    def level(self, level: int) -> list[Chain]:
        return [c for degree in range(self.deg_max + 1) for c in self.at(level, degree)]

    def find(self, level: int, word: Word) -> Chain | None:
        return self.index.get((level, word))


def enumerate_chains(
    alphabet: Alphabet,
    obstructions: list[Word],
    level_max: int,
    deg_max: int,
) -> ChainSet:
    """All chains with level <= level_max and degree <= deg_max.

    The obstruction list must be an antichain and complete through
    deg_max for the result to be complete there.  Level 0 is the letters
    and level 1 is exactly the obstructions.
    """
    obs = check_antichain(obstructions)
    for o in obs:
        if len(o) < 2:
            raise ChainError(
                "single-letter obstructions are not supported by the "
                "resolution machinery; eliminate the dead generator first"
            )
    chain_set = ChainSet(alphabet, obs, level_max, deg_max)
    index, table, ids, unit = chain_set.index, chain_set.extensions, count(1), chain_set.unit
    current = [Chain((x,), 0, 1, 0, unit, next(ids)) for x in range(alphabet.size) if deg_max > 0]
    for level in range(level_max + 1):
        if level:  # each chain's children are made together, in the table's order
            current = [
                Chain(c.word + o[ov:], level, len(o) - ov, ov, c, next(ids))
                for c in current
                for o, ov in table[c.tail]
                if len(o) - ov <= deg_max - len(c.word)
            ]
        for c in current:
            if index.setdefault((level, c.word), c) is not c:
                raise ChainError(f"word {c.word} has two distinct level-{level} decompositions")
            chain_set.by_level_degree.setdefault((level, c.degree), []).append(c)
    # A bucket's chains share a degree, so descending tuples ascend in deglex.
    for bucket in chain_set.by_level_degree.values():
        bucket.sort(key=attrgetter("word"), reverse=True)
    return chain_set


@dataclass(frozen=True)
class GraphNode:
    """Vertex of the chain-generation graph."""

    kind: str  # "letter" or "class"
    word: Word  # the letter, or the obstruction word
    overlap: int  # 0 for letters

    @property
    def tail(self) -> Word:
        return self.word[self.overlap:]

    def name(self, alphabet: Alphabet) -> str:
        """Node id in DOT and JSON output: the letter, or ``word|overlap``."""
        if self.kind == "letter":
            return alphabet.str_word(self.word)
        return f"{alphabet.str_word(self.word)}|{self.overlap}"


@dataclass
class ChainGraph:
    """Finite digraph whose length-n paths from letters generate n-chains."""

    alphabet: Alphabet
    nodes: list[GraphNode]
    edges: list[tuple[int, int]]


def chain_graph(alphabet: Alphabet, obstructions: list[Word]) -> ChainGraph:
    """Build the chain-generation graph over an obstruction antichain.

    Class nodes are numbered as the walk finds them: first from the
    letters in order, then depth first from the last node found.
    """
    obs = check_antichain(obstructions)
    table = ExtensionTable(obs)
    nodes: list[GraphNode] = [
        GraphNode("letter", (i,), 0) for i in range(alphabet.size)
    ]
    node_index: dict[tuple[Word, int], int] = {}
    edges: list[tuple[int, int]] = []
    frontier: list[int] = []

    def visit(i: int) -> None:
        for o, ov in table[nodes[i].tail]:
            j = node_index.setdefault((o, ov), len(nodes))
            if j == len(nodes):
                nodes.append(GraphNode("class", o, ov))
                frontier.append(j)
            edges.append((i, j))

    for i in range(alphabet.size):
        visit(i)
    while frontier:
        visit(frontier.pop())
    return ChainGraph(alphabet, nodes, sorted(edges))


def chain_graph_dot(graph: ChainGraph) -> str:
    """Render the chain-generation graph in DOT format."""
    alphabet = graph.alphabet
    names = [node.name(alphabet) for node in graph.nodes]
    lines = ["digraph chains {", "  rankdir=LR;"]
    for nid, node in zip(names, graph.nodes):
        if node.kind == "letter":
            lines.append(f'  "{nid}" [shape=doublecircle];')
        else:
            label = f"{alphabet.str_word(node.word)} (overlap {node.overlap})"
            lines.append(
                f'  "{nid}" [shape=box, label="{label}", tail_degree={len(node.tail)}];'
            )
    for a, b in graph.edges:
        lines.append(f'  "{names[a]}" -> "{names[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
