"""Exact homological computations for finitely presented graded algebras.

The pipeline: parse a presentation, complete a truncated noncommutative
Groebner basis, enumerate Anick chains from the obstruction set, compute
the resolution differentials by leading-term splitting, then read off
Betti tables, Hilbert series, quadratic duals and Koszulness or
global-dimension verdicts.  All arithmetic is exact.
"""

from .automaton import (
    FiniteDimVerdict,
    NormalWordAutomaton,
    is_finite_dimensional,
    normal_word_automaton,
)
from .chains import Chain, ChainSet, chain_graph, chain_graph_dot, enumerate_chains
from .dual import GldimReport, gldim_report, quadratic_dual
from .errors import (
    AlgebraError,
    AntichainError,
    ChainError,
    CoverageError,
    FieldError,
    NotQuadraticError,
    ParseError,
    SplittingError,
    TruncationError,
)
from .fields import Field, PrimeField, Rationals, field_from_name
from .groebner import (
    Certificate,
    GroebnerBasis,
    Presentation,
    Reducer,
    complete,
    normal_form,
    s_polynomial,
)
from .homology import (
    BettiTable,
    KoszulVerdict,
    betti_table,
    euler_check,
    koszul_verdict,
)
from .parser import format_presentation, parse_presentation
from .poly import Polynomial, render_poly
from .resolution import FreeElement, ResolutionContext, ResolutionSlice
from .words import Alphabet, DegLex, Word, overlaps

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "Alphabet",
    "AntichainError",
    "BettiTable",
    "Certificate",
    "Chain",
    "ChainError",
    "ChainSet",
    "CoverageError",
    "DegLex",
    "Field",
    "FieldError",
    "FiniteDimVerdict",
    "FreeElement",
    "GldimReport",
    "GroebnerBasis",
    "KoszulVerdict",
    "NormalWordAutomaton",
    "NotQuadraticError",
    "ParseError",
    "Polynomial",
    "Presentation",
    "PrimeField",
    "Rationals",
    "Reducer",
    "ResolutionContext",
    "ResolutionSlice",
    "SplittingError",
    "TruncationError",
    "Word",
    "betti_table",
    "chain_graph",
    "chain_graph_dot",
    "complete",
    "enumerate_chains",
    "euler_check",
    "field_from_name",
    "format_presentation",
    "gldim_report",
    "is_finite_dimensional",
    "koszul_verdict",
    "normal_form",
    "normal_word_automaton",
    "overlaps",
    "parse_presentation",
    "quadratic_dual",
    "render_poly",
    "s_polynomial",
]
