from fractions import Fraction

import pytest

from anick import (
    betti_table,
    complete,
    euler_check,
    gldim_report,
    induce,
    koszul_verdict,
    koszul_verdict_for,
    normal_word_automaton,
    parse_presentation,
    quadratic_dual,
    render_poly,
    resolution_slices,
)
from anick.errors import CoverageError, NotQuadraticError
from anick.fields import PrimeField
from anick.homology import induced_matrix_from_context
from anick.linalg import rref
from anick.resolution import ResolutionContext


def test_induced_level_two_degree_three(xyz, xyz_ctx):
    a = xyz.alphabet
    rows, cols, dense = induced_matrix_from_context(xyz_ctx, 2, 3)
    col_words = [a.str_word(c.word) for c in cols]
    row_words = [a.str_word(c.word) for c in rows]
    assert col_words == ["x*z*y", "x^2*z", "x^3"]
    assert row_words == ["x*y*x"]
    assert [[str(x) for x in row] for row in dense] == [["0", "0", "1"]]


def test_induced_first_differential_vanishes(xyz, xyz_ctx):
    for degree in range(2, 9):
        _, cols, dense = induced_matrix_from_context(xyz_ctx, 1, degree)
        assert all(not any(row) for row in dense) or not cols


def test_induced_level_three_degree_four(xyz, xyz_ctx):
    a = xyz.alphabet
    x4 = xyz_ctx.chains.find(3, a.word("xxxx"))
    image = xyz_ctx.induced_differential(x4)
    rendered = {a.str_word(c.word): int(v) for c, v in image.items()}
    assert rendered == {"x^2*y*x": 1, "x*y*x^2": -1}


def test_induce_from_slices_matches_context(xyz, xyz_ctx):
    slices = resolution_slices(xyz, 3, 5)
    induced = induce(slices)
    for level in range(1, 4):
        for degree in range(0, 6):
            rows, cols, dense = induced_matrix_from_context(xyz_ctx, level, degree)
            got = induced.matrix(level, degree)
            got_basis = induced.basis(level, degree)
            assert got_basis == [c.word for c in cols]
            assert [[Fraction(x) for x in row] for row in got] == [
                [Fraction(x) for x in row] for row in dense
            ]


def test_betti_table_of_main_fixture(xyz, xyz_ctx):
    table = betti_table(xyz, 5, 8, ctx=xyz_ctx)
    assert table.diagonal() == [1, 3, 3, 2, 1, 0]
    for i in range(6):
        for j in range(9):
            assert table.is_reliable(i, j)
            if i != j:
                assert table.entry(i, j) == 0


@pytest.mark.parametrize("i_max, j_max", [(-1, 4), (2, -1)])
def test_betti_table_rejects_negative_bounds(xyz, i_max, j_max):
    with pytest.raises(CoverageError):
        betti_table(xyz, i_max, j_max)


def test_betti_both_orderings_of_two_letter_fixture(yxsq_low, yxsq_high):
    low = betti_table(yxsq_low, 4, 6)
    high = betti_table(yxsq_high, 4, 6)
    assert low.diagonal() == [1, 2, 1, 0, 0]
    assert low.values == high.values
    assert all(all(row) for row in low.reliable)


def test_betti_ordering_symmetry_for_main_fixture(xyz):
    alt = parse_presentation(
        "vars: y > x > z\nrelations:\n  x^2 + y*x\n  x*z\n  z*y\n"
    )
    left = betti_table(xyz, 4, 6)
    right = betti_table(alt, 4, 6)
    assert left.values == right.values


def test_monomial_relation_betti(xyz):
    pres = parse_presentation("vars: x > y\nrelations:\n  x*y\n")
    table = betti_table(pres, 4, 6)
    assert table.diagonal() == [1, 2, 1, 0, 0]
    assert all(
        table.entry(3, j) == 0 for j in range(7)
    )


def test_betti_table_over_fp_matches_q_at_degree_ten(xyz):
    fp = parse_presentation(
        "vars: x > y > z\nrelations:\n  x^2 + y*x\n  x*z\n  z*y\n",
        field_override=PrimeField(32003),
    )
    assert betti_table(fp, 10, 10).values == betti_table(xyz, 10, 10).values


G4_TEXT = (
    "vars: a > b > c > d\nrelations:\n  a*b - b*a + c*d\n  a*c - 2*d*b\n"
    "  b*d + a^2 - c^2\n  d*a - b*c\n"
)


def test_betti_table_over_fp_matches_q_with_fraction_coefficients():
    # xyz keeps every coefficient an int; g4 (a*c - 2*d*b) also needs
    # non-integral rationals, so this is the cross-check of that path.
    g4 = parse_presentation(G4_TEXT)
    kinds = {type(c) for g in complete(g4, 6).elements for c in g.terms.values()}
    assert kinds == {int, Fraction}
    q = betti_table(g4, 5, 5).values
    fp = betti_table(parse_presentation(G4_TEXT, field_override=PrimeField(32003)), 5, 5)
    assert fp.values == q
    assert q == [[[1, 4, 4, 0, 0, 0][i] if i == j else 0 for j in range(6)] for i in range(6)]


def test_koszul_verdict_main_fixture(xyz, xyz_ctx):
    table = betti_table(xyz, 8, 8, ctx=xyz_ctx)
    verdict = koszul_verdict(table, 8)
    assert verdict.is_koszul and verdict.up_to == 8
    assert str(verdict) == "koszul-up-to(8)"


def test_koszul_verdict_commutative_plane(xyz):
    pres = parse_presentation("vars: x > y\nrelations:\n  x*y - y*x\n")
    assert koszul_verdict_for(pres, 6).is_koszul


def test_koszul_verdict_rejects_cubic_relations():
    pres = parse_presentation("vars: x > y\nrelations:\n  x*y*x\n")
    with pytest.raises(NotQuadraticError):
        koszul_verdict_for(pres, 6)


def test_koszul_failure_witness_mechanism():
    # a cubic relation is never diagonal; feed the table directly to see
    # the witness machinery fire
    pres = parse_presentation("vars: x > y\nrelations:\n  x*y*x\n")
    table = betti_table(pres, 6, 6)
    verdict = koszul_verdict(table, 6)
    assert not verdict.is_koszul
    assert verdict.fails_at == (2, 3)
    assert verdict.witness == 1


def test_koszul_verdict_needs_coverage(xyz, xyz_ctx):
    table = betti_table(xyz, 5, 8, ctx=xyz_ctx)
    with pytest.raises(CoverageError):
        koszul_verdict(table, 8)


def test_quadratic_dual_of_main_fixture(xyz):
    dual = quadratic_dual(xyz)
    assert dual.alphabet.letters == ("x!", "y!", "z!")
    rendered = {render_poly(dual.alphabet, r) for r in dual.relations}
    assert rendered == {
        "x!^2 - y!*x!",
        "x!*y!",
        "y!^2",
        "y!*z!",
        "z!*x!",
        "z!^2",
    }


def test_quadratic_dual_of_commutative_plane():
    pres = parse_presentation("vars: x > y\nrelations:\n  x*y - y*x\n")
    dual = quadratic_dual(pres)
    rendered = {render_poly(dual.alphabet, r) for r in dual.relations}
    assert rendered == {"x!^2", "y!^2", "x!*y! + y!*x!"}


def test_double_dual_has_the_same_relation_span(xyz):
    double = quadratic_dual(quadratic_dual(xyz))
    n = xyz.alphabet.size

    def span_matrix(pres):
        rows = []
        for rel in pres.relations:
            row = [Fraction(0)] * (n * n)
            for w, c in rel.terms.items():
                row[w[0] * n + w[1]] = Fraction(c)
            rows.append(row)
        reduced, pivots = rref(rows, pres.field)
        return [reduced[i] for i in range(len(pivots))]

    assert span_matrix(double) == span_matrix(xyz)


def test_dual_relation_count_identity(xyz, yxsq_low):
    for pres in (xyz, yxsq_low):
        n = pres.alphabet.size
        dual = quadratic_dual(pres)
        assert len(dual.relations) + len(pres.relations) == n * n


def test_dual_rejects_non_quadratic():
    pres = parse_presentation("vars: x > y\nrelations:\n  x*y*x\n")
    with pytest.raises(NotQuadraticError):
        quadratic_dual(pres)


def test_euler_residuals_vanish_for_main_fixture(xyz, xyz_gb8, xyz_ctx):
    table = betti_table(xyz, 8, 8, ctx=xyz_ctx)
    numerator = [table.column_alternating_sum(j) for j in range(5)]
    assert numerator == [1, -3, 3, -2, 1]
    automaton = normal_word_automaton(
        xyz.alphabet, xyz_gb8.obstructions, xyz_gb8.valid_degree
    )
    hilbert = automaton.hilbert_coefficients(8)
    assert euler_check(table, hilbert) == [0] * 9


def test_euler_residuals_vanish_for_two_letter_fixture(yxsq_low):
    table = betti_table(yxsq_low, 6, 6)
    gb = complete(yxsq_low, 6)
    automaton = normal_word_automaton(
        yxsq_low.alphabet, gb.obstructions, gb.valid_degree
    )
    hilbert = automaton.hilbert_coefficients(6)
    assert [table.column_alternating_sum(j) for j in range(3)] == [1, -2, 1]
    assert euler_check(table, hilbert) == [0] * 7


def test_koszul_diagonal_equals_dual_hilbert(xyz, xyz_ctx, yxsq_low):
    table = betti_table(xyz, 5, 8, ctx=xyz_ctx)
    report = gldim_report(xyz, 8)
    assert table.diagonal()[:5] == report.dual_hilbert[:5]
    table2 = betti_table(yxsq_low, 4, 6)
    report2 = gldim_report(yxsq_low, 6)
    assert table2.diagonal()[:3] == report2.dual_hilbert[:3]


def test_gldim_report_main_fixture(xyz):
    report = gldim_report(xyz, 8)
    assert report.gldim == 4
    assert report.dual_top_degree == 4
    assert report.dual_certificate.complete
    assert not report.dual_verdict.conditional
    assert report.dim_degree_one == 3
    assert report.conjecture_counterexample
    assert report.koszul.is_koszul


def test_gldim_report_two_letter_fixture(yxsq_low):
    report = gldim_report(yxsq_low, 8)
    assert report.gldim == 2
    assert report.dim_degree_one == 2
    assert not report.conjecture_counterexample


def test_gldim_free_algebra():
    free = parse_presentation("vars: x > y > z\nrelations:\n")
    report = gldim_report(free, 6)
    assert report.gldim == 1
    assert not report.conjecture_counterexample


def test_gldim_rejects_cubic():
    pres = parse_presentation("vars: x > y\nrelations:\n  x*y*x\n")
    with pytest.raises(NotQuadraticError):
        gldim_report(pres, 6)


def test_betti_over_prime_field_matches_rationals(xyz):
    over_f5 = parse_presentation(
        "vars: x > y > z\nfield: Fp 5\nrelations:\n  x^2 + y*x\n  x*z\n  z*y\n"
    )
    assert betti_table(over_f5, 4, 6).values == betti_table(xyz, 4, 6).values


def test_reliability_mask_marks_out_of_range_entries(xyz):
    # a context narrower than the requested table leaves honest gaps
    gb = complete(xyz, 5)
    ctx = ResolutionContext(gb, level_max=3, deg_max=5)
    table = betti_table(xyz, 5, 5, ctx=ctx)
    assert not table.is_reliable(4, 4)
    assert not table.is_reliable(4, 5)
    assert table.is_reliable(3, 3)
    assert table.entry(4, 3) == 0  # structural zero below the diagonal
    # the unreliable off-diagonal entry (4, 5) blocks a verdict at 5
    with pytest.raises(CoverageError):
        koszul_verdict(table, 5)


def test_dual_betti_diagonal_reproduces_primal_hilbert(xyz, xyz_gb8):
    # biduality: the dual algebra is Koszul as well, and its Betti diagonal
    # must equal the word counts of the original algebra
    dual = quadratic_dual(xyz)
    table = betti_table(dual, 6, 6)
    automaton = normal_word_automaton(
        xyz.alphabet, xyz_gb8.obstructions, xyz_gb8.valid_degree
    )
    assert table.diagonal() == automaton.hilbert_coefficients(6)
    assert koszul_verdict(table, 6).is_koszul
