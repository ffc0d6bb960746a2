import pytest
from helpers import dense, formula_differential
from hypothesis import given, settings, strategies as st

from anick import (
    Certificate,
    DegLex,
    FreeElement,
    GroebnerBasis,
    ResolutionContext,
    complete,
    parse_presentation,
    resolution_slices,
)
from anick.chains import Chain
from anick.errors import SplittingError, TruncationError
from anick.resolution import verify_composition


def as_plain(elem):
    """FreeElement -> {(chain word, cofactor word): int coefficient}."""
    return {(c.word, w): int(v) for (c, w), v in elem.terms.items()}


def test_low_differentials_match_standard_formulas(xyz, xyz_ctx):
    a = xyz.alphabet
    for k in range(0, 6):
        chain = xyz_ctx.chains.find(1, a.word("x" + "y" * k + "x"))
        expected = {
            (a.word("x"), a.word("y" * k + "x")): 1,
            (a.word("y"), a.word("y" * k + "x")): 1,
        }
        assert as_plain(xyz_ctx.differential(chain)) == expected
    xz = xyz_ctx.chains.find(1, a.word("xz"))
    assert as_plain(xyz_ctx.differential(xz)) == {(a.word("x"), a.word("z")): 1}
    zy = xyz_ctx.chains.find(1, a.word("zy"))
    assert as_plain(xyz_ctx.differential(zy)) == {(a.word("z"), a.word("y")): 1}


def test_level_two_examples(xyz, xyz_ctx):
    a = xyz.alphabet
    x3 = xyz_ctx.chains.find(2, a.word("xxx"))
    assert as_plain(xyz_ctx.differential(x3)) == {
        (a.word("xx"), a.word("x")): 1,
        (a.word("xyx"), ()): 1,
    }
    xzy = xyz_ctx.chains.find(2, a.word("xzy"))
    assert as_plain(xyz_ctx.differential(xzy)) == {(a.word("xz"), a.word("y")): 1}


def test_engine_matches_shape_formulas_up_to_shape_sign(xyz_ctx):
    # For each level and each shape a single sign relates the engine's
    # correction terms to the closed form; the leading term matches on the
    # nose.  The recursion agrees with the final-merge-positive convention
    # for U and W shapes, while V corrections come out with the opposite
    # sign, which is forced by d(d(c)) = 0 (see the next test).
    from helpers import classify_shape

    signs = {}
    for level in range(2, 7):
        for chain in xyz_ctx.chains.level(level):
            if chain.degree > 7:
                continue
            shape, _ = classify_shape(chain.word)
            got = as_plain(xyz_ctx.differential(chain))
            (first_chain, first_cof), corrections = formula_differential(chain.word)
            assert got.get((first_chain, first_cof)) == 1
            residual = {
                key: v for key, v in got.items() if key != (first_chain, first_cof)
            }
            expected = {(w, ()): s for w, s in corrections.items()}
            assert set(residual) == set(expected)
            for key, value in residual.items():
                ratio = value // expected[key]
                assert value == ratio * expected[key] and abs(ratio) == 1
                sign = signs.setdefault((level, shape), ratio)
                assert ratio == sign, f"inconsistent sign at level {level} {shape}"
    assert all(sign == 1 for (_, shape), sign in signs.items() if shape in "UW")
    assert all(sign == -1 for (_, shape), sign in signs.items() if shape == "V")


def test_flipped_v_sign_is_not_a_complex(xyz, xyz_ctx):
    # Flipping the V-shape correction sign breaks d(d(c)) = 0, so the
    # engine's choice is the only one that yields a complex.
    a = xyz.alphabet
    x3z = xyz_ctx.chains.find(3, a.word("xxxz"))
    x3 = xyz_ctx.chains.find(2, a.word("xxx"))
    xyxz = xyz_ctx.chains.find(2, a.word("xyxz"))
    one = xyz.field.one
    from anick import FreeElement

    engine = xyz_ctx.differential(x3z)
    assert as_plain(engine) == {(x3.word, a.word("z")): 1, (xyxz.word, ()): -1}
    flipped = FreeElement({(x3, a.word("z")): one, (xyxz, ()): one})
    image_engine = sum(
        (
            xyz_ctx.act_right(xyz_ctx.differential(c), w).scaled(v)
            for (c, w), v in engine.terms.items()
        ),
        FreeElement({}),
    )
    image_flipped = sum(
        (
            xyz_ctx.act_right(xyz_ctx.differential(c), w).scaled(v)
            for (c, w), v in flipped.terms.items()
        ),
        FreeElement({}),
    )
    assert image_engine.is_zero
    assert not image_flipped.is_zero


def test_degree_two_matrix_of_first_differential(xyz, xyz_ctx):
    a = xyz.alphabet
    s = xyz_ctx.slice(1, 2)
    col_of = {label: i for i, label in enumerate(s.col_labels)}
    row_of = {label: i for i, label in enumerate(s.row_labels)}
    x2 = xyz_ctx.chains.find(1, a.word("xx"))
    xz = xyz_ctx.chains.find(1, a.word("xz"))
    zy = xyz_ctx.chains.find(1, a.word("zy"))
    x_ = xyz_ctx.chains.find(0, a.word("x"))
    y_ = xyz_ctx.chains.find(0, a.word("y"))
    z_ = xyz_ctx.chains.find(0, a.word("z"))
    col = s.columns[col_of[(x2, ())]]
    assert col == {
        row_of[(x_, a.word("x"))]: 1,
        row_of[(y_, a.word("x"))]: 1,
    }
    assert s.columns[col_of[(xz, ())]] == {row_of[(x_, a.word("z"))]: 1}
    assert s.columns[col_of[(zy, ())]] == {row_of[(z_, a.word("y"))]: 1}


def test_free_algebra_resolution_is_two_step():
    free = parse_presentation("vars: x > y > z\nrelations:\n")
    slices = resolution_slices(free, 3, 3)
    by_key = {(s.level, s.degree): s for s in slices}
    # d0 in degree 1 sends each letter to itself
    s01 = by_key[(0, 1)]
    assert s01.shape == (3, 3)
    for j, col in enumerate(s01.columns):
        chain, cof = s01.col_labels[j]
        assert cof == ()
        assert col == {s01.row_labels.index(chain.word): 1}
    for (level, _), s in by_key.items():
        if level >= 1:
            assert s.shape[1] == 0


def test_composition_vanishes_for_all_fixtures(xyz, yxsq_high):
    dual = None
    from anick import quadratic_dual

    dual = quadratic_dual(xyz)
    for presentation, levels, degrees in (
        (xyz, 3, 6),
        (yxsq_high, 3, 6),
        (dual, 4, 6),
    ):
        slices = resolution_slices(presentation, levels, degrees)
        assert all(s.composes_to_zero for s in slices if s.level >= 1)


def test_verify_composition_catches_nonzero(xyz, xyz_ctx):
    a = xyz.alphabet
    lower = xyz_ctx.slice(1, 3)
    upper = xyz_ctx.slice(2, 3)
    assert verify_composition(lower, upper)
    # flip the sign of the unit-cofactor entry in the x^3 column; the image
    # of x*y*x under the lower differential no longer cancels
    x3 = xyz_ctx.chains.find(2, a.word("xxx"))
    xyx = xyz_ctx.chains.find(1, a.word("xyx"))
    col = upper.col_labels.index((x3, ()))
    row = upper.row_labels.index((xyx, ()))
    upper.columns[col][row] = -upper.columns[col][row]
    assert not verify_composition(lower, upper)


def test_splitting_failure_signals_incomplete_basis(xyz):
    # claim the raw relations are a basis valid to degree 4: the level-2
    # chain x^3 then needs the missing element with leading term xyx
    fake = GroebnerBasis(
        xyz,
        tuple(r.monic() for r in xyz.relations),
        4,
        Certificate.up_to(4),
    )
    ctx = ResolutionContext(fake, level_max=2, deg_max=4)
    chain = ctx.chains.find(2, xyz.alphabet.word("xxx"))
    with pytest.raises(SplittingError):
        ctx.differential(chain)


def test_context_rejects_uncovered_degree(xyz):
    gb = complete(xyz, 4)
    with pytest.raises(TruncationError):
        ResolutionContext(gb, level_max=2, deg_max=6)


def test_differentials_preserve_internal_degree(xyz_ctx):
    for level in range(1, 5):
        for chain in xyz_ctx.chains.level(level):
            if chain.degree > 6:
                continue
            for (c, w), _ in xyz_ctx.differential(chain).terms.items():
                assert len(c.word) + len(w) == chain.degree


def test_resolution_is_exact_in_positive_degrees(xyz, xyz_ctx):
    # Rank bookkeeping certifies exactness, not just d(d(c)) = 0: in each
    # internal degree j >= 1 the augmented complex has no homology, so the
    # kernel of each matrix must equal the image of the next one up.
    from anick.linalg import rank

    field = xyz.field
    for degree in range(1, 7):
        dims = []
        ranks = []
        for level in range(0, 4):
            s = xyz_ctx.slice(level, degree)
            dims.append(len(s.col_labels))
            ranks.append(rank(dense(s), field))
        # surjectivity onto the algebra slice
        assert ranks[0] == xyz_ctx.automaton.hilbert_coefficients(degree)[degree]
        for level in range(0, 3):
            kernel = dims[level] - ranks[level]
            assert kernel == ranks[level + 1], (degree, level)


def apply_differential(ctx, elem):
    """d(elem) for an element at level >= 1, one level down."""
    from anick import FreeElement

    out = FreeElement({})
    for (c, w), v in elem.terms.items():
        out = out.add_scaled(ctx.act_right(ctx.differential(c), w), v)
    return out


def test_split_inverts_the_differential(xyz_ctx):
    # split(n - 1, xi) must return a preimage of xi, for every xi that the
    # differential of a level-n chain feeds it.
    checked = 0
    for level in range(2, 5):
        for chain in xyz_ctx.chains.level(level):
            if chain.degree > 6:
                continue
            xi = xyz_ctx.act_right(xyz_ctx.differential(chain.prefix), chain.tail)
            eta = xyz_ctx.split(level - 1, xi)
            assert apply_differential(xyz_ctx, eta) == xi
            checked += 1
    assert checked > 10



TERM_KEYS = st.tuples(
    st.integers(0, 2),
    st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
    st.lists(st.integers(0, 2), max_size=3).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(TERM_KEYS, st.integers(1, 3), min_size=1, max_size=8))
def test_max_term_is_deglex_maximal_product_then_longest_chain(raw):
    # Chains of different levels may share a word, so product words tie.
    order = DegLex(3)
    elem = FreeElement(
        {(Chain(cw, level, 1, 0, None), w): c for (level, cw, w), c in raw.items()}
    )
    want = max(elem.terms, key=lambda k: (order.key(k[0].word + k[1]), len(k[0].word)))
    assert elem.max_term() == (want, elem.terms[want])
    for chain, _ in elem.terms:
        twin = Chain(chain.word, chain.level, 2, 1, chain)
        assert twin == chain and hash(twin) == hash(chain)
