"""Deterministic automaton recognizing obstruction-free (normal) words.

States are the proper prefixes of the obstruction words, Aho-Corasick
style, and state 0, the start, is the empty word; reading a letter moves
to the longest suffix of the extended word that is again such a prefix,
and dies as soon as a full obstruction appears.  Path counting along the
automaton gives exact dimension counts for the quotient algebra, degree by
degree, up to the validity degree of the obstruction set.
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
        """Counts of accepted words for each degree 0..max_degree, none
        for a negative max_degree.

        Only states some path reaches are visited, so a finite language
        costs steps in proportion to its live states."""
        self._check_degree(max_degree)
        if max_degree < 0:
            return []
        counts = {0: 1}
        out = [1]
        for _ in range(max_degree):
            nxt: dict[int, int] = {}
            for state, c in counts.items():
                for target in self.transitions[state]:
                    if target is not None:
                        nxt[target] = nxt.get(target, 0) + c
            counts = nxt
            out.append(sum(counts.values()))
        return out

    def accepted_words(self, degree: int) -> list[Word]:
        """All accepted words of the given degree, ascending in deglex; no
        word has a negative degree.

        The frontier grows letter by letter from index 0 up, so it ascends
        as tuples, which for words of one length is descending deglex.
        """
        self._check_degree(degree)
        if degree < 0:
            return []
        frontier: list[tuple[Word, int]] = [((), 0)]
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
    obs = check_antichain(obstructions)
    prefixes = {(): None}
    for o in obs:
        for i in range(1, len(o)):
            prefixes[o[:i]] = None
    state_words = sorted(prefixes, key=lambda w: (len(w), w))
    index = {w: i for i, w in enumerate(state_words)}

    transitions: list[list[int | None]] = []
    for s in state_words:
        row: list[int | None] = []
        for letter in range(alphabet.size):
            w = s + (letter,)
            # States are obstruction-free, so a new obstruction occurrence
            # can only appear as a suffix of the extended word.
            if any(w[len(w) - len(o):] == o for o in obs if len(o) <= len(w)):
                row.append(None)
                continue
            # The longest suffix that is a state; () always is one.
            while w not in index:
                w = w[1:]
            row.append(index[w])
        transitions.append(row)
    return NormalWordAutomaton(alphabet, state_words, transitions, valid_degree)


@dataclass(frozen=True)
class FiniteDimVerdict:
    """Whether the recognized language (hence the algebra) is finite."""

    finite: bool
    top_degree: int | None
    conditional: bool


def is_finite_dimensional(aut: NormalWordAutomaton) -> FiniteDimVerdict:
    """Finite iff no word as long as the number of states is accepted.

    Such a word's path repeats a state, so the language holds a cycle;
    and accepted words are closed under prefixes, so an infinite language
    has words of every length (Ufnarovskij's criterion).  The verdict is
    marked conditional when the automaton was built from a truncated
    obstruction set, since later obstructions could change it.  Only the
    set of states each length reaches is stepped, not the path counts; a
    set that steps to itself stays nonempty forever, so the walk stops.
    """
    conditional = aut.valid_degree is not None
    reached = {0}
    top = 0
    while reached and top < aut.size:
        nxt = {t for s in reached for t in aut.transitions[s] if t is not None}
        if nxt == reached:
            break
        reached = nxt
        top += 1
    if reached:
        return FiniteDimVerdict(False, None, conditional)
    return FiniteDimVerdict(True, top - 1, conditional)
