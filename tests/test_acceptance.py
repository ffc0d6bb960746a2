"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line,
and asserts exact values; every expected number here was either computed
by an independent oracle in helpers.py or verified by hand before being
frozen.
"""

import json
import random
from contextlib import contextmanager
from itertools import product

from helpers import (
    bf_chains,
    interreduce,
    bf_normal_count,
    check_antichain_reference,
    classify_shape,
    formula_differential,
    series_inverse_coefficients,
    shape_chains,
)

from anick import (
    Polynomial,
    Presentation,
    Reducer,
    betti_table,
    complete,
    enumerate_chains,
    euler_check,
    gldim_report,
    koszul_verdict,
    normal_form,
    normal_word_automaton,
    quadratic_dual,
    s_polynomial,
)
from anick.fields import Rationals
from anick.homology import induced_matrix_from_context
from anick.resolution import resolution_slices
from anick.words import Alphabet, overlaps


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL  ({label})")
        raise
    print(f"criterion {number}: PASS  ({label})")


def test_criterion_1_groebner_basis(xyz, xyz_gb8):
    with criterion(1, "reduced basis of the xyz algebra at degree 8"):
        a = xyz.alphabet
        expected = set()
        for k in range(7):
            expected.add(
                Polynomial(
                    {
                        a.word("x" + "y" * k + "x"): xyz.field.one,
                        a.word("y" * (k + 1) + "x"): xyz.field.one,
                    }
                )
            )
        expected.add(Polynomial.monomial(a.word("xz"), xyz.field.one))
        expected.add(Polynomial.monomial(a.word("zy"), xyz.field.one))
        assert set(xyz_gb8.elements) == expected
        assert not xyz_gb8.certificate.complete
        assert xyz_gb8.certificate.degree == 8
        basis = list(xyz_gb8.elements)
        reducer = Reducer(xyz.field, basis)
        for g in basis:
            for h in basis:
                for l in overlaps(g.lead_word(), h.lead_word()):
                    if len(g.lead_word()) + len(h.lead_word()) - l > 8:
                        continue
                    assert normal_form(s_polynomial(g, h, l), reducer).is_zero


def test_criterion_2_chain_classification(xyz_ctx):
    with criterion(2, "chains match the three-shape classification"):
        for level in range(2, 6):
            got = {
                c.word
                for d in range(9)
                for c in xyz_ctx.chains.at(level, d)
            }
            assert got == shape_chains(level, 8)
            obstructions = [o for o in xyz_ctx.gb.obstructions]
            assert sorted(got) == bf_chains(3, obstructions, level, 8)


def test_criterion_3_resolution_validity(xyz, yxsq_low, yxsq_high):
    with criterion(3, "differentials compose to zero on every slice"):
        dual = quadratic_dual(xyz)
        for presentation in (xyz, yxsq_low, yxsq_high, dual):
            slices = resolution_slices(presentation, 5, 8)
            checked = [s for s in slices if s.level >= 1]
            assert checked
            assert all(s.composes_to_zero for s in checked)


def test_criterion_4_differential_fidelity(xyz, xyz_ctx):
    with criterion(4, "engine differentials match the closed-form formulas"):
        a = xyz.alphabet

        def plain(elem):
            return {(c.word, w): int(v) for (c, w), v in elem.terms.items()}

        # the standard low formulas, matched exactly
        for k in range(0, 6):
            chain = xyz_ctx.chains.find(1, a.word("x" + "y" * k + "x"))
            assert plain(xyz_ctx.differential(chain)) == {
                (a.word("x"), a.word("y" * k + "x")): 1,
                (a.word("y"), a.word("y" * k + "x")): 1,
            }
        assert plain(xyz_ctx.differential(xyz_ctx.chains.find(1, a.word("xz")))) == {
            (a.word("x"), a.word("z")): 1
        }
        assert plain(xyz_ctx.differential(xyz_ctx.chains.find(1, a.word("zy")))) == {
            (a.word("z"), a.word("y")): 1
        }
        s01 = xyz_ctx.slice(0, 1)
        for j, col in enumerate(s01.columns):
            chain, cof = s01.col_labels[j]
            assert cof == ()
            assert col == {s01.row_labels.index(chain.word): 1}

        # one sign per level and shape relates the correction terms to the
        # closed form; leading terms agree on the nose
        signs = {}
        for level in range(2, 7):
            for chain in xyz_ctx.chains.level(level):
                if chain.degree > 7:
                    continue
                shape, _ = classify_shape(chain.word)
                got = plain(xyz_ctx.differential(chain))
                (fc, fw), corrections = formula_differential(chain.word)
                assert got.get((fc, fw)) == 1
                residual = {k: v for k, v in got.items() if k != (fc, fw)}
                expected = {(w, ()): s for w, s in corrections.items()}
                assert set(residual) == set(expected)
                for key, value in residual.items():
                    ratio = value // expected[key]
                    assert abs(ratio) == 1 and value == ratio * expected[key]
                    assert signs.setdefault((level, shape), ratio) == ratio


def test_criterion_5_betti_table(xyz, xyz_ctx):
    with criterion(5, "Betti table is the expected diagonal"):
        a = xyz.alphabet
        table = betti_table(xyz, 5, 8, ctx=xyz_ctx)
        assert table.diagonal() == [1, 3, 3, 2, 1, 0]
        for i in range(6):
            for j in range(9):
                assert table.reliable[i][j]
                if i != j:
                    assert table.values[i][j] == 0
        full = betti_table(xyz, 8, 8, ctx=xyz_ctx)
        verdict = koszul_verdict(full, 8)
        assert verdict.is_koszul and verdict.up_to == 8

        # surviving bases: the zero-differential spots are exactly
        # {x,y,z}, {x^2, xz, zy}, {x^2 z, xzy}, {x^2 zy}
        assert {a.str_word(c.word) for c in xyz_ctx.chains.at(1, 2)} == {
            "x^2", "x*z", "z*y",
        }
        rows, cols, dense = induced_matrix_from_context(xyz_ctx, 2, 3)
        zero_cols = {
            a.str_word(cols[j].word)
            for j in range(len(cols))
            if not any(dense[i][j] for i in range(len(rows)))
        }
        assert zero_cols == {"x^2*z", "x*z*y"}
        rows, cols, dense = induced_matrix_from_context(xyz_ctx, 3, 4)
        zero_cols = {
            a.str_word(cols[j].word)
            for j in range(len(cols))
            if not any(dense[i][j] for i in range(len(rows)))
        }
        assert zero_cols == {"x^2*z*y"}


def test_criterion_6_global_dimension(xyz):
    with criterion(6, "global dimension four, conjecture comparison"):
        report = gldim_report(xyz, 8)
        assert report.dual_verdict.top_degree == 4
        assert report.dual_certificate.complete
        assert not report.dual_verdict.conditional
        assert report.gldim == 4
        assert report.dim_degree_one == 3
        assert report.conjecture_counterexample


def test_criterion_7_cross_ordering(yxsq_low, yxsq_high):
    with criterion(7, "two-letter fixture agrees across orderings"):
        gb_low = complete(yxsq_low, 8)
        gb_high = complete(yxsq_high, 8)
        assert len(gb_low.elements) == 1 and gb_low.certificate.complete
        assert len(gb_high.elements) == 7 and not gb_high.certificate.complete
        low = betti_table(yxsq_low, 6, 8)
        high = betti_table(yxsq_high, 6, 8)
        assert low.diagonal()[:3] == [1, 2, 1]
        assert low.values == high.values
        assert all(all(row) for row in low.reliable)
        assert all(all(row) for row in high.reliable)


def test_criterion_8_hilbert_euler(xyz, xyz_gb8, xyz_ctx, yxsq_low):
    with criterion(8, "Hilbert series and Euler residuals"):
        automaton = normal_word_automaton(
            xyz.alphabet, xyz_gb8.obstructions, xyz_gb8.valid_degree
        )
        counts = automaton.hilbert_coefficients(8)
        assert counts == series_inverse_coefficients([1, -3, 3, -2, 1], 8)
        assert counts[:6] == [1, 3, 6, 11, 20, 36]
        table = betti_table(xyz, 8, 8, ctx=xyz_ctx)
        assert euler_check(table, counts) == [0] * 9

        gb = complete(yxsq_low, 8)
        aut2 = normal_word_automaton(yxsq_low.alphabet, gb.obstructions, gb.valid_degree)
        counts2 = aut2.hilbert_coefficients(8)
        assert counts2 == list(range(1, 10))
        table2 = betti_table(yxsq_low, 8, 8)
        assert euler_check(table2, counts2) == [0] * 9


def test_criterion_9_property_suite(xyz):
    with criterion(9, "randomized properties and report stability"):
        rng = random.Random(20260808)
        field = Rationals()
        alpha = Alphabet(("a", "b"))

        def random_presentation():
            rels = []
            for _ in range(rng.randint(1, 2)):
                degree = rng.randint(2, 3)
                pool = [tuple(w) for w in product(range(2), repeat=degree)]
                support = rng.sample(pool, rng.randint(1, 3))
                rels.append(
                    Polynomial({w: field.of(rng.choice([-2, -1, 1, 2])) for w in support})
                )
            return Presentation(alpha, field, tuple(rels))

        for _ in range(12):
            pres = random_presentation()
            gb = complete(pres, 6)
            reducer = Reducer(field, gb.elements)
            # normal-form idempotence
            probe = Polynomial(
                {
                    tuple(rng.choice([0, 1]) for _ in range(rng.randint(1, 5))): field.of(
                        rng.choice([-2, 1, 3])
                    )
                }
            )
            once = normal_form(probe, reducer)
            assert normal_form(once, reducer) == once
            # leading-term antichain after interreduce
            leads = [g.lead_word() for g in interreduce(list(gb.elements), field)]
            check_antichain_reference(leads)
            # chain-decomposition uniqueness (raises on duplicates) and
            # agreement with the word-scan oracle
            obstructions = [o for o in gb.obstructions if len(o) <= 6]
            chains = enumerate_chains(alpha, obstructions, 3, 6)
            for level in range(0, 4):
                got = {c.word for d in range(7) for c in chains.at(level, d)}
                assert got == set(bf_chains(2, obstructions, level, 6))
            # hilbert counts against brute-force enumeration
            automaton = normal_word_automaton(alpha, gb.obstructions, gb.valid_degree)
            counts = automaton.hilbert_coefficients(5)
            for degree in range(6):
                assert counts[degree] == bf_normal_count(2, degree, gb.obstructions)

        # byte-identical reports across repeated runs
        from anick.reports import betti_payload, gb_payload

        first = json.dumps(
            {
                "gb": gb_payload(complete(xyz, 6)),
                "betti": betti_payload(betti_table(xyz, 4, 6)),
            },
            indent=2,
        )
        second = json.dumps(
            {
                "gb": gb_payload(complete(xyz, 6)),
                "betti": betti_payload(betti_table(xyz, 4, 6)),
            },
            indent=2,
        )
        assert first == second
