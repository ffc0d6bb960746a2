"""Alphabets, words and the degree-lexicographic order.

Words are tuples of letter indices into an :class:`Alphabet`.  The alphabet
stores its letters in descending precedence order, so index 0 is the
greatest letter under deglex and no separate precedence table is needed.
The degree of a word is its length (every generator has weight one).
The engine orders words by ``deglex_desc`` alone; ``DegLex`` is the
reference definition of the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlgebraError, AntichainError

Word = tuple[int, ...]

EMPTY: Word = ()


@dataclass(frozen=True)
class Alphabet:
    """A finite ordered set of generator names, greatest first."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise AlgebraError("alphabet must be nonempty")
        if len(set(self.letters)) != len(self.letters):
            raise AlgebraError("alphabet letters must be distinct")
        for name in self.letters:
            if not name or any(ch.isspace() for ch in name):
                raise AlgebraError(f"bad letter name {name!r}")

    @property
    def size(self) -> int:
        return len(self.letters)

    def index(self, name: str) -> int:
        try:
            return self.letters.index(name)
        except ValueError:
            raise AlgebraError(f"unknown letter {name!r}") from None

    def word(self, text: str) -> Word:
        """Split a juxtaposed string like ``xyx`` into a word.

        Letter names are tried longest first.  ``splittable[pos]`` records
        whether ``text[pos:]`` splits into letters; the split then takes at
        each position the first name that leaves a splittable rest, which is
        the split a longest-first backtracking search finds.
        """
        by_length = sorted(range(self.size), key=lambda i: -len(self.letters[i]))
        n = len(text)
        splittable = [False] * n + [True]

        def fits(idx: int, pos: int) -> bool:
            name = self.letters[idx]
            return text.startswith(name, pos) and splittable[pos + len(name)]

        for pos in range(n - 1, -1, -1):
            splittable[pos] = any(fits(idx, pos) for idx in by_length)
        if not splittable[0]:
            raise AlgebraError(f"cannot read {text!r} over alphabet {self.letters}")
        out: list[int] = []
        pos = 0
        while pos < n:
            idx = next(idx for idx in by_length if fits(idx, pos))
            out.append(idx)
            pos += len(self.letters[idx])
        return tuple(out)

    def str_word(self, w: Word) -> str:
        """Render a word as ``x*y^2*x``; the empty word renders as ``1``."""
        if not w:
            return "1"
        parts: list[str] = []
        i = 0
        while i < len(w):
            j = i
            while j < len(w) and w[j] == w[i]:
                j += 1
            name = self.letters[w[i]]
            parts.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return "*".join(parts)


@dataclass(frozen=True)
class DegLex:
    """Degree-lexicographic order on words over an alphabet of given size.

    Shorter words are smaller; equal-length words compare letterwise, where
    a smaller index means a greater letter.
    """

    size: int

    def key(self, w: Word):
        return (len(w), tuple(-i for i in w))

    def compare(self, u: Word, w: Word) -> int:
        """Return -1, 0 or 1 as u is below, equal to or above w."""
        for word in (u, w):
            if any(i < 0 or i >= self.size for i in word):
                raise AlgebraError("word uses letters outside the alphabet")
        ku, kw = self.key(u), self.key(w)
        return (ku > kw) - (ku < kw)


def deglex_desc(w: Word) -> tuple[int, Word]:
    """Sort key for descending deglex: longer words first, then smaller
    tuples, since index 0 is the greatest letter."""
    return -len(w), w


def overlaps(u: Word, w: Word) -> list[int]:
    """All lengths l such that the length-l proper suffix of u equals the
    length-l proper prefix of w.  Self-overlaps (u is w) are included."""
    if not u or not w:
        raise AlgebraError("overlaps of empty words are undefined")
    found = []
    for l in range(1, min(len(u), len(w))):
        if u[len(u) - l:] == w[:l]:
            found.append(l)
    return found


def check_antichain(words: list[Word]) -> tuple[Word, ...]:
    """Raise unless no word in the list is a factor of another; return the
    words shortest first, equal lengths ascending.

    A word listed twice divides its other copy, so repeats raise too.  The
    check looks up in a set of the words every proper factor of every word
    whose length is that of some word.
    """
    found = set(words)
    if len(found) < len(words):
        u = next(u for u in found if words.count(u) > 1)
        raise AntichainError(f"obstruction {u} is listed twice; not an antichain")
    lengths = sorted({len(u) for u in found})
    for w in words:
        for m in lengths:
            if m >= len(w):
                break
            for i in range(len(w) - m + 1):
                if w[i:i + m] in found:
                    raise AntichainError(
                        f"obstruction {w[i:i + m]} divides obstruction {w}; not an antichain"
                    )
    return tuple(sorted(found, key=lambda w: (len(w), w)))
