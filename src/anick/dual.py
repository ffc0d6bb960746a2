"""Quadratic duals and the global-dimension report.

The dual algebra lives on dual generators (rendered with a trailing
``!``) and its relations span the annihilator of the original relation
span inside the degree-2 dual space, under the pairing that matches
tensor factors positionwise.  For a Koszul algebra whose dual is finite
dimensional, the top nonzero degree of the dual equals the global
dimension; the report combines those ingredients and compares the result
against the number of degree-1 generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .automaton import FiniteDimVerdict, is_finite_dimensional, normal_word_automaton
from .errors import NotQuadraticError
from .groebner import Certificate, Presentation, complete
from .homology import KoszulVerdict, betti_table, koszul_verdict
from .poly import Polynomial
from .words import Alphabet, deglex_desc


def quadratic_dual(presentation: Presentation) -> Presentation:
    """The quadratic dual presentation on dual generators.

    Requires every relation to be quadratic.  The number of dual
    relations is always n^2 minus the rank of the original relations.
    """
    for rel in presentation.relations:
        if rel.degree() != 2:
            raise NotQuadraticError("quadratic dual needs quadratic relations")
    alphabet = presentation.alphabet
    field = presentation.field
    n = alphabet.size
    rows = [{w[0] * n + w[1]: c for w, c in rel.terms.items()} for rel in presentation.relations]
    kernel = linalg.nullspace(rows, n * n, field)

    dual_alphabet = Alphabet(tuple(name + "!" for name in alphabet.letters))
    relations = [Polynomial({divmod(k, n): c for k, c in vec.items()}).monic() for vec in kernel]
    relations.sort(key=lambda p: deglex_desc(p.lead_word()), reverse=True)
    return Presentation(dual_alphabet, field, tuple(relations))


@dataclass(frozen=True)
class GldimReport:
    """Everything the global-dimension verdict rests on."""

    koszul: KoszulVerdict
    dual_presentation: Presentation
    dual_certificate: Certificate
    dual_verdict: FiniteDimVerdict
    dual_hilbert: list[int]
    dim_degree_one: int
    checked_degree: int

    @property
    def dual_top_degree(self) -> int | None:
        return self.dual_verdict.top_degree if self.dual_verdict.finite else None

    @property
    def gldim(self) -> int | None:
        """Concluded global dimension, conditional on Koszulness beyond
        the checked degree.  None when no conclusion is possible."""
        if not self.koszul.is_koszul or not self.dual_verdict.finite:
            return None
        return self.dual_verdict.top_degree

    @property
    def conjecture_counterexample(self) -> bool:
        """True when the concluded dimension exceeds the generator count."""
        return self.gldim is not None and self.dim_degree_one < self.gldim


def gldim_report(presentation: Presentation, max_degree: int) -> GldimReport:
    """Koszulness up to a bound plus the dual's top degree, combined.

    The conclusion follows the duality principle: a Koszul algebra whose
    dual is concentrated in degrees <= d and nonzero in degree d has
    global dimension d.  The Koszulness side is only verified up to the
    bound, so the conclusion is conditional and reported as such.
    """
    if not presentation.is_quadratic:
        raise NotQuadraticError("global-dimension report needs a quadratic presentation")
    table = betti_table(presentation, max_degree, max_degree)
    koszul = koszul_verdict(table, max_degree)

    dual = quadratic_dual(presentation)
    dual_gb = complete(dual, max_degree)
    automaton = normal_word_automaton(
        dual.alphabet, dual_gb.obstructions, dual_gb.valid_degree
    )
    verdict = is_finite_dimensional(automaton)
    hilbert_top = max_degree if automaton.valid_degree is None else automaton.valid_degree
    dual_hilbert = automaton.hilbert_coefficients(min(max_degree, hilbert_top))

    return GldimReport(
        koszul=koszul,
        dual_presentation=dual,
        dual_certificate=dual_gb.certificate,
        dual_verdict=verdict,
        dual_hilbert=dual_hilbert,
        dim_degree_one=presentation.alphabet.size,
        checked_degree=max_degree,
    )
