"""The sparse eliminator against independent oracles, over Q and F_5."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from helpers import SparseEchelon, rref

from anick.fields import PrimeField, Rationals
from anick.linalg import echelon, nullspace, rank

Q = Rationals()
F5 = PrimeField(5)
ENTRIES = {
    Q: [Fraction(0)] * 4 + [Fraction(v) for v in (1, -1, 2, "1/2", "-3/4", "5/3")],
    F5: [0, 0, 1, 2, 3, 4],
}


@st.composite
def matrices(draw, entries, max_rows=5, max_cols=6):
    """(rows, ncols): rows may be empty, all zero, or have no columns."""
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    row = st.lists(st.sampled_from(entries), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


def dot(row, vec, field):
    total = sum((a * b for a, b in zip(row, vec)), field.zero)
    return total % field.p if field.p else total


@settings(max_examples=200, deadline=None)
@given(matrices(ENTRIES[Q]))
def test_rational_rank_matches_sparse_echelon(matrix):
    rows, _ = matrix
    oracle = SparseEchelon()
    for row in rows:
        oracle.insert(dict(enumerate(row)))
    assert rank(rows, Q) == oracle.rank


@settings(max_examples=200, deadline=None)
@given(matrices(ENTRIES[F5], max_rows=4))
def test_f5_rank_matches_brute_force_span(matrix):
    rows, ncols = matrix
    span = {
        tuple(sum((c * x for c, x in zip(coeffs, column)), 0) % 5 for column in zip(*rows))
        for coeffs in product(range(5), repeat=len(rows))
    } if ncols else {()}
    assert 5 ** rank(rows, F5) == len(span)


@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
@given(data=st.data())
def test_nullspace_is_annihilated_and_has_full_dimension(field, data):
    rows, ncols = data.draw(matrices(ENTRIES[field]))
    basis = nullspace([dict(enumerate(row)) for row in rows], ncols, field)
    assert all(all(vec.values()) and set(vec) <= set(range(ncols)) for vec in basis)
    basis = [[vec.get(j, field.zero) for j in range(ncols)] for vec in basis]
    assert len(basis) == ncols - rank(rows, field)
    assert rank(basis, field) == len(basis)
    for vec in basis:
        assert all(not dot(row, vec, field) for row in rows)


@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
@given(data=st.data())
def test_rref_is_reduced_and_spans_the_rows(field, data):
    rows, ncols = data.draw(matrices(ENTRIES[field]))
    reduced, pivots = rref(rows, field)
    assert len(reduced) == len(rows)
    assert pivots == sorted(pivots) and len(pivots) == rank(rows, field)
    for r, c in enumerate(pivots):
        assert [reduced[i][c] for i in range(len(rows))] == [
            field.one if i == r else field.zero for i in range(len(rows))
        ]
    assert all(not x for row in reduced[len(pivots):] for x in row)
    assert rank(rows + reduced[: len(pivots)], field) == len(pivots)


@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
@given(data=st.data())
def test_rank_accepts_int_zeros_beside_field_elements(field, data):
    # helpers.dense pads resolution slices with the int 0, not the field's zero.
    rows, _ = data.draw(matrices(ENTRIES[field]))
    mixed = [[x if x else 0 for x in row] for row in rows]
    assert rank(mixed, field) == rank(rows, field)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_f5_rank_reads_unreduced_int_residues(data):
    # Resolution contexts hand over int residues beside int zero padding; an
    # int stands for its class mod 5 however large or negative, and a
    # nonzero multiple of 5 is a zero entry.
    rows, _ = data.draw(matrices(ENTRIES[F5]))
    shifts = st.sampled_from([-1, 0, 1, 2])
    ints = [[x + 5 * data.draw(shifts) for x in row] for row in rows]
    mixed = [
        [a if data.draw(st.booleans()) else x for a, x in zip(r, row)]
        for r, row in zip(ints, rows)
    ]
    assert rank(ints, F5) == rank(mixed, F5) == rank(rows, F5)


def test_f5_rank_of_fixed_unreduced_ints():
    # 6 = 1, -4 = 1 and 5 = 0 mod 5, so both rows are (1, 1, 0).
    rows = [[1, 1, 0], [6, -4, 5]]
    assert rank(rows, F5) == rank([[6, -4, 5], [1, 1, 0]], F5) == 1
    assert rank([[5, 10, -5]], F5) == 0


@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
@given(data=st.data())
def test_rank_ignores_column_order_and_transposition(field, data):
    # rank pivots on each row's last nonzero column, rref on its first.
    rows, ncols = data.draw(matrices(ENTRIES[field], max_rows=6, max_cols=7))
    order = data.draw(st.permutations(range(ncols)))
    permuted = [[row[j] for j in order] for row in rows]
    transposed = [list(col) for col in zip(*rows)]
    want = len(rref(rows, field)[1])
    assert rank(rows, field) == rank(permuted, field) == rank(transposed, field) == want


@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
@given(data=st.data())
def test_echelon_returns_monic_reduced_rows_spanning_the_input(field, data):
    rows, ncols = data.draw(matrices(ENTRIES[field]))
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    reduced = echelon(sparse, field)
    leads = [min(row) for row in reduced]
    assert leads == sorted(set(leads))
    for row, c in zip(reduced, leads):
        assert row[c] == field.one and all(row.values())
        assert not any(k in row for k in leads if k != c)
    dense = [[row.get(j, field.zero) for j in range(ncols)] for row in reduced]
    assert len(reduced) == rank(rows, field) == rank(rows + dense, field)
    if field == Q:
        assert all(type(x) is int for row in reduced for x in row.values() if x.denominator == 1)
