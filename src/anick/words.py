"""Alphabets, words and the degree-lexicographic order.

Words are tuples of letter indices into an :class:`Alphabet`.  The alphabet
stores its letters in descending precedence order, so index 0 is the
greatest letter under deglex and no separate precedence table is needed.
The degree of a word is its length (every generator has weight one).
The engine orders words by ``deglex_desc`` alone; ``DegLex`` is the
reference definition of the same order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby

from .errors import AlgebraError, AntichainError

Word = tuple[int, ...]

EMPTY: Word = ()

# The one rule for a letter name: a unicode word that does not start with a
# digit, then any number of '!' (the quadratic dual's generators end in '!').
_NAME = re.compile(r"[^\W\d]\w*!*")


@dataclass(frozen=True)
class Alphabet:
    """A finite ordered set of generator names, greatest first."""

    letters: tuple[str, ...]

    def __post_init__(self):
        # A tuple hashes and equals the alphabet its text reads back as.
        try:
            letters = tuple(self.letters or ())
        except TypeError:
            bad = self.letters
            raise AlgebraError(f"letters must be a sequence of names, got {bad!r}") from None
        object.__setattr__(self, "letters", letters)
        if not self.letters:
            raise AlgebraError("alphabet must be nonempty")
        for name in self.letters:
            if not isinstance(name, str) or not _NAME.fullmatch(name):
                raise AlgebraError(f"bad letter name {name!r}")
        if len(set(self.letters)) != len(self.letters):
            dup = next(n for i, n in enumerate(self.letters) if n in self.letters[:i])
            raise AlgebraError(f"duplicate letter {dup!r}")
        # (name, index) pairs, longest name first, for splitting words.
        by_length = sorted(((n, i) for i, n in enumerate(self.letters)), key=lambda p: -len(p[0]))
        object.__setattr__(self, "_by_length", by_length)
        object.__setattr__(self, "_names", dict(enumerate(letters)))

    @property
    def size(self) -> int:
        return len(self.letters)

    def word(self, text: str) -> Word:
        """Split a juxtaposed string like ``xyx`` into a word.

        Letter names are tried longest first.  One backward pass records at
        each position the first name that leaves a splittable rest, or None;
        following those picks from the start gives the split a longest-first
        backtracking search finds.
        """
        n = len(text)
        pick: list = [None] * n + [-1]  # the empty rest splits
        for pos in range(n - 1, -1, -1):
            for name, idx in self._by_length:
                if text.startswith(name, pos) and pick[pos + len(name)] is not None:
                    pick[pos] = idx
                    break
        if pick[0] is None:
            raise AlgebraError(f"cannot read {text!r} over alphabet {self.letters}")
        out: list[int] = []
        pos = 0
        while pos < n:
            out.append(pick[pos])
            pos += len(self.letters[pick[pos]])
        return tuple(out)

    def str_word(self, w: Word) -> str:
        """Render a word as ``x*y^2*x``, the empty word as ``1``; a foreign letter raises."""
        name = self._names  # a dict: a negative letter misses, as one past the last does
        try:
            runs = [name[i] if (k := len([*g])) == 1 else f"{name[i]}^{k}" for i, g in groupby(w)]
        except KeyError as bad:
            raise AlgebraError(f"letter {bad} is outside the alphabet {self.letters}") from None
        return "*".join(runs) or "1"


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
