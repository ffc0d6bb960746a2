"""The public surface of ``anick``, pinned: a name is added to or removed
from the package only by editing this list."""

import anick

PUBLIC = """
    AlgebraError Alphabet AntichainError BettiTable Certificate Chain ChainError
    ChainSet CoverageError DegLex Field FieldError FiniteDimVerdict FreeElement
    GldimReport GroebnerBasis KoszulVerdict NormalWordAutomaton
    NotQuadraticError ParseError Polynomial Presentation PrimeField Rationals
    Reducer ResolutionContext ResolutionSlice SplittingError TruncationError Word
    betti_table chain_graph chain_graph_dot complete enumerate_chains euler_check
    field_from_name format_presentation gldim_report is_finite_dimensional
    koszul_verdict normal_form normal_word_automaton overlaps parse_presentation
    quadratic_dual render_poly s_polynomial
""".split()


def test_public_names_are_pinned_sorted_and_resolve():
    assert anick.__all__ == sorted(anick.__all__) == PUBLIC
    assert all(hasattr(anick, name) for name in PUBLIC)
    # Prime-field scalars are plain int residues; there is no wrapper type.
    assert not hasattr(anick, "ModP") and not hasattr(anick.fields, "ModP")
