"""Exception types shared across the package."""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class FieldError(AlgebraError):
    """Invalid field descriptor, or arithmetic between incompatible scalars."""


class ParseError(AlgebraError):
    """Syntax or validation error in a presentation file, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(message, line, col)  # all three, so that it pickles
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"line {self.line}, col {self.col}: {self.message}"


class TruncationError(AlgebraError):
    """A degree bound is too small for the requested computation."""


class AntichainError(AlgebraError):
    """An obstruction set is not an antichain under factor divisibility."""


class ChainError(AlgebraError):
    """Chain enumeration failed (duplicate decomposition or bad input)."""


class SplittingError(AlgebraError):
    """The differential splitting recursion found no chain prefix.

    This signals that the Groebner data backing the resolution is invalid
    or incomplete for the requested degree.
    """


class CoverageError(AlgebraError):
    """A verdict was requested beyond the reliably computed range."""


class NotQuadraticError(AlgebraError):
    """An operation that needs a quadratic presentation got something else."""
