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
``ChainSet.extensions`` keeps the continuations per tail, so the level-n
chain prefix of a word is found from its level-(n-1) prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ChainError
from .words import EMPTY, Alphabet, Word, check_antichain, deglex_desc, occurrences


@dataclass(frozen=True, eq=False)
class Chain:
    """An Anick chain: a word with its certified decomposition."""

    word: Word
    level: int
    tail_len: int
    overlap_len: int
    prefix: "Chain | None"
    tail: Word = field(init=False)

    def __post_init__(self):
        # Chains key the resolution's dicts; hash the (level, word) pair
        # once, and slice the tail once for the splitting loop.
        object.__setattr__(self, "_hash", hash((self.level, self.word)))
        object.__setattr__(self, "tail", self.word[len(self.word) - self.tail_len:])

    @property
    def degree(self) -> int:
        return len(self.word)

    @property
    def last_occurrence(self) -> tuple[int, int] | None:
        """Position of the final obstruction occurrence, levels >= 1."""
        if self.level == 0:
            return None
        return (len(self.word) - self.tail_len - self.overlap_len, len(self.word))

    @property
    def decomposition(self) -> tuple[tuple[int, int], ...]:
        """Obstruction occurrences certifying the chain, left to right."""
        spans: list[tuple[int, int]] = []
        node: Chain | None = self
        while node is not None and node.level >= 1:
            spans.append(node.last_occurrence)
            node = node.prefix
        return tuple(reversed(spans))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chain)
            and self.level == other.level
            and self.word == other.word
        )

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        return f"Chain(level={self.level}, word={self.word})"


def _window_is_clean(window: Word, start: int, end: int, obstructions: tuple[Word, ...]) -> bool:
    """True when the only obstruction factor of window is [start, end)."""
    for o in obstructions:
        for pos in occurrences(window, o):
            if (pos, pos + len(o)) != (start, end):
                return False
    return True


def _extensions(tail: Word, obstructions: tuple[Word, ...]) -> list[tuple[Word, int]]:
    """All (obstruction, overlap length) continuations of a given tail.

    The overlap part must be a nonempty suffix of the tail, the leftover
    piece of the obstruction must be nonempty, and the combined window
    must contain no other obstruction factor.
    """
    out = []
    for o in obstructions:
        for ov in range(1, min(len(tail), len(o) - 1) + 1):
            if o[:ov] != tail[len(tail) - ov:]:
                continue
            new_tail = o[ov:]
            window = tail + new_tail
            if _window_is_clean(window, len(tail) - ov, len(window), obstructions):
                out.append((o, ov))
    return out


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
    # Chain tail -> the new tails that extend it, shortest first; the empty
    # tail of the (-1)-chain maps to the letters.
    extensions: dict[Word, tuple[Word, ...]] = field(default_factory=dict)

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

    def store(c: Chain) -> None:
        key = (c.level, c.word)
        existing = chain_set.index.get(key)
        if existing is not None:
            raise ChainError(
                f"word {c.word} has two distinct level-{c.level} decompositions"
            )
        chain_set.index[key] = c
        chain_set.by_level_degree.setdefault((c.level, c.degree), []).append(c)

    current: list[Chain] = []
    if level_max >= 0 and deg_max >= 1:
        for letter in range(alphabet.size):
            c = Chain((letter,), 0, 1, 0, None)
            store(c)
            current.append(c)

    # (new tail, overlap length) per tail, shortest first, so that the scan
    # stops at the first extension that no longer fits in deg_max.
    ext_cache: dict[Word, list[tuple[Word, int]]] = {}
    for level in range(1, level_max + 1):
        nxt: list[Chain] = []
        for c in current:
            tail = c.tail
            ext = ext_cache.get(tail)
            if ext is None:
                ext = ext_cache[tail] = sorted(
                    ((o[ov:], ov) for o, ov in _extensions(tail, obs)), key=lambda e: len(e[0])
                )
            room = deg_max - len(c.word)
            for new_tail, ov in ext:
                if len(new_tail) > room:
                    break
                nxt.append(Chain(c.word + new_tail, level, len(new_tail), ov, c))
        for c in nxt:
            store(c)
        current = nxt
    chain_set.extensions = {tail: tuple(t for t, _ in ext) for tail, ext in ext_cache.items()}
    chain_set.extensions[EMPTY] = tuple((letter,) for letter in range(alphabet.size))
    for bucket in chain_set.by_level_degree.values():
        bucket.sort(key=lambda c: deglex_desc(c.word), reverse=True)
    return chain_set


@dataclass(frozen=True)
class GraphNode:
    """Vertex of the chain-generation graph."""

    kind: str  # "letter" or "class"
    word: Word  # the letter, or the obstruction word
    overlap: int  # 0 for letters

    @property
    def tail(self) -> Word:
        if self.kind == "letter":
            return self.word
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
    obstructions: tuple[Word, ...]
    nodes: list[GraphNode]
    edges: list[tuple[int, int]]


def chain_graph(alphabet: Alphabet, obstructions: list[Word]) -> ChainGraph:
    """Build the chain-generation graph over an obstruction antichain."""
    obs = check_antichain(obstructions)
    nodes: list[GraphNode] = [
        GraphNode("letter", (i,), 0) for i in range(alphabet.size)
    ]
    node_index: dict[tuple[Word, int], int] = {}
    edges: list[tuple[int, int]] = []

    def class_node(o: Word, ov: int) -> int:
        key = (o, ov)
        if key not in node_index:
            node_index[key] = len(nodes)
            nodes.append(GraphNode("class", o, ov))
        return node_index[key]

    frontier: list[int] = []
    for i in range(alphabet.size):
        for o, ov in _extensions((i,), obs):
            j = class_node(o, ov)
            edges.append((i, j))
            frontier.append(j)

    seen = set(frontier)
    while frontier:
        i = frontier.pop()
        for o, ov in _extensions(nodes[i].tail, obs):
            j = class_node(o, ov)
            edges.append((i, j))
            if j not in seen:
                seen.add(j)
                frontier.append(j)

    edges = sorted(set(edges))
    return ChainGraph(alphabet, obs, nodes, edges)


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
