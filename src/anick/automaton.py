"""Deterministic automaton recognizing obstruction-free (normal) words.

States are the proper prefixes of the obstruction words, Aho-Corasick
style; reading a letter moves to the longest suffix of the extended word
that is again such a prefix, and dies as soon as a full obstruction
appears.  Path counting along the automaton gives exact dimension counts
for the quotient algebra, degree by degree, up to the validity degree of
the obstruction set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CoverageError
from .words import Alphabet, Word, check_antichain


@dataclass
class NormalWordAutomaton:
    alphabet: Alphabet
    state_words: list[Word]
    transitions: list[list[int | None]]
    valid_degree: int | None  # None means valid at every degree
    start: int = 0

    @property
    def size(self) -> int:
        return len(self.state_words)

    def _check_degree(self, degree: int) -> None:
        if self.valid_degree is not None and degree > self.valid_degree:
            raise CoverageError(
                f"automaton is only valid through degree {self.valid_degree}, "
                f"got {degree}"
            )

    def hilbert_coefficients(self, max_degree: int) -> list[int]:
        """Counts of accepted words for each degree 0..max_degree."""
        self._check_degree(max_degree)
        counts = [0] * self.size
        counts[self.start] = 1
        out = [1]
        for _ in range(max_degree):
            nxt = [0] * self.size
            for state, c in enumerate(counts):
                if not c:
                    continue
                for target in self.transitions[state]:
                    if target is not None:
                        nxt[target] += c
            counts = nxt
            out.append(sum(counts))
        return out

    def accepted_words(self, degree: int) -> list[Word]:
        """All accepted words of the given degree, ascending in deglex.

        The frontier grows letter by letter from index 0 up, so it ascends
        as tuples, which for words of one length is descending deglex.
        """
        self._check_degree(degree)
        frontier: list[tuple[Word, int]] = [((), self.start)]
        for _ in range(degree):
            nxt = []
            for w, state in frontier:
                for letter in range(self.alphabet.size):
                    target = self.transitions[state][letter]
                    if target is not None:
                        nxt.append((w + (letter,), target))
            frontier = nxt
        return [w for w, _ in reversed(frontier)]


def normal_word_automaton(
    alphabet: Alphabet, obstructions: list[Word], valid_degree: int | None
) -> NormalWordAutomaton:
    """Build the factor-avoidance automaton for an obstruction antichain."""
    check_antichain(list(obstructions))
    obs = sorted(set(obstructions), key=lambda w: (len(w), w))
    prefixes = {(): None}
    for o in obs:
        for i in range(1, len(o)):
            prefixes[o[:i]] = None
    state_words = sorted(prefixes, key=lambda w: (len(w), w))
    index = {w: i for i, w in enumerate(state_words)}
    obs_set = set(obs)

    transitions: list[list[int | None]] = []
    for s in state_words:
        row: list[int | None] = []
        for letter in range(alphabet.size):
            w = s + (letter,)
            # States are obstruction-free, so a new obstruction occurrence
            # can only appear as a suffix of the extended word.
            if any(w[len(w) - len(o):] == o for o in obs_set if len(o) <= len(w)):
                row.append(None)
                continue
            target = None
            for cut in range(max(0, len(w) - max((len(p) for p in index), default=0)), len(w) + 1):
                if w[cut:] in index:
                    target = index[w[cut:]]
                    break
            row.append(target)
        transitions.append(row)
    return NormalWordAutomaton(alphabet, state_words, transitions, valid_degree)


@dataclass(frozen=True)
class FiniteDimVerdict:
    """Whether the recognized language (hence the algebra) is finite."""

    finite: bool
    top_degree: int | None
    conditional: bool

    def __str__(self) -> str:
        tag = " (conditional)" if self.conditional else ""
        if self.finite:
            return f"finite, top degree {self.top_degree}{tag}"
        return f"infinite{tag}"


def is_finite_dimensional(aut: NormalWordAutomaton) -> FiniteDimVerdict:
    """Finite iff no cycle is reachable among live states.

    The verdict is marked conditional when the automaton was built from a
    truncated obstruction set, since later obstructions could change it.
    """
    conditional = aut.valid_degree is not None

    # Iterative depth-first search for the longest path from the start; a
    # state met again while still on the search path closes a cycle.
    longest: dict[int, int] = {}
    on_path = {aut.start}
    stack = [(aut.start, iter(aut.transitions[aut.start]))]
    while stack:
        s, edges = stack[-1]
        for t in edges:
            if t is None or t in longest:
                continue
            if t in on_path:
                return FiniteDimVerdict(False, None, conditional)
            on_path.add(t)
            stack.append((t, iter(aut.transitions[t])))
            break
        else:
            stack.pop()
            on_path.discard(s)
            longest[s] = max(
                (1 + longest[t] for t in aut.transitions[s] if t is not None), default=0
            )
    return FiniteDimVerdict(True, longest[aut.start], conditional)
