import hashlib
import json

import pytest
from conftest import G4_TEXT, XYZ_TEXT
from helpers import (
    all_words,
    assert_context_scalars,
    dense,
    differentials_reference,
    formula_differential,
)
from hypothesis import given, settings, strategies as st

from anick import (
    Certificate,
    DegLex,
    FreeElement,
    GroebnerBasis,
    Polynomial,
    Reducer,
    ResolutionContext,
    complete,
    normal_form,
    parse_presentation,
    quadratic_dual,
)
from anick.chains import Chain
from anick.errors import CoverageError, FieldError, SplittingError, TruncationError
from anick.fields import PrimeField, Rationals
from anick.reports import slices_payload
from anick.resolution import resolution_slices, verify_composition
from anick.words import deglex_desc


def max_term_key(k):
    """Sorts (chain, word) pairs descending: by product word under
    ``deglex_desc``, then longer chain first."""
    return deglex_desc(k[0].word + k[1]), -len(k[0].word)


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
    assert len(s01.row_labels) == len(s01.col_labels) == 3
    for j, col in enumerate(s01.columns):
        chain, cof = s01.col_labels[j]
        assert cof == ()
        assert col == {s01.row_labels.index(chain.word): 1}
    for (level, _), s in by_key.items():
        if level >= 1:
            assert s.col_labels == []


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
    assert verify_composition(lower, upper, 0)
    # flip the sign of the unit-cofactor entry in the x^3 column; the image
    # of x*y*x under the lower differential no longer cancels
    x3 = xyz_ctx.chains.find(2, a.word("xxx"))
    xyx = xyz_ctx.chains.find(1, a.word("xyx"))
    col = upper.col_labels.index((x3, ()))
    row = upper.row_labels.index((xyx, ()))
    upper.columns[col][row] = -upper.columns[col][row]
    assert not verify_composition(lower, upper, 0)


def test_context_elements_over_fp_add_mod_p():
    # Over F_2 the differential of a level-1 chain has coefficients 1, so
    # it is its own negative.
    ctx = ResolutionContext(complete(parse_presentation(XYZ_FP5.replace("Fp 5", "Fp 2")), 5), 4, 5)
    d = ctx.differential(ctx.chains.at(1, 2)[0])
    assert not d.is_zero and (d + d).is_zero and d.scaled(2).is_zero and -d == d
    assert d.p == 2 and ctx.act_right(d, (0,)).p == 2 and ctx.split(1, d + d).is_zero


def test_verify_composition_reads_residues_mod_p():
    # Over F_3 the entries are residues: -1 is 2, so a composite that
    # vanishes mod 3 need not vanish over the integers.
    ctx = ResolutionContext(complete(parse_presentation(XYZ_FP5.replace("Fp 5", "Fp 3")), 5), 5, 5)
    pairs = [(ctx.slice(level - 1, d), ctx.slice(level, d)) for level in (2, 3) for d in range(6)]
    assert all(verify_composition(lower, upper, 3) for lower, upper in pairs)
    assert not all(verify_composition(lower, upper, 0) for lower, upper in pairs)


def test_splitting_failure_signals_incomplete_basis(xyz):
    # claim the raw relations are a basis valid to degree 4: the level-2
    # chain x^3 then needs the missing element with leading term xyx
    fake = GroebnerBasis(
        xyz,
        tuple(r.monic() for r in xyz.relations),
        4,
        Certificate(False, 4),
    )
    ctx = ResolutionContext(fake, level_max=2, deg_max=4)
    chain = ctx.chains.find(2, xyz.alphabet.word("xxx"))
    with pytest.raises(SplittingError):
        ctx.differential(chain)


def test_split_of_a_degree_zero_term_raises_splitting_error(xyz_ctx):
    # No level-0 chain is a prefix of the empty product word, so the term
    # can only be left uncancelled.
    with pytest.raises(SplittingError):
        xyz_ctx.split(0, FreeElement({(xyz_ctx.unit, ()): xyz_ctx.field.one}))


@pytest.mark.parametrize("field", ["Q", "Fp 5"])
def test_split_raises_on_an_uncancelled_empty_cofactor_pair(field):
    # split keeps a pair with an empty cofactor off its heap, as no chain
    # extension fits it; it must still hold the pair and raise when the
    # pair does not cancel.  xi = d(c') t splits at level L = 2, and the
    # added pair (c2, 1) has a level-1 chain c2 of xi's degree.
    presentation = parse_presentation(XYZ_FP5.replace("Fp 5", field))
    ctx = ResolutionContext(complete(presentation, 6), 6, 6)
    checked = 0
    for chain in ctx.chains.level(3):
        xi = ctx.act_right(ctx.differential(chain.prefix), chain.tail)
        ctx.split(2, xi)
        for c2 in ctx.chains.at(1, chain.degree):
            terms = dict(xi.terms)
            terms[c2, ()] = terms.get((c2, ()), 0) + 1
            with pytest.raises(SplittingError, match="uncancelled"):
                ctx.split(2, FreeElement(terms, ctx.p))
            checked += 1
    assert checked >= 4


def test_split_rejects_a_term_of_another_level(xyz, xyz_ctx):
    # A level-2 twin of the chain xx ties with it on product word and chain
    # length, so an unchecked heap would compare the two chains.
    a, one = xyz.alphabet, xyz_ctx.field.one
    xx = xyz_ctx.chains.find(1, a.word("xx"))
    twin = Chain(xx.word, 2, 1, 1, None)
    for level, xi in (
        (2, FreeElement({(xx, a.word("z")): one, (twin, a.word("z")): one})),
        (1, FreeElement({(xyz_ctx.unit, a.word("xz")): one})),
        (0, FreeElement({(xx, ()): one})),
    ):
        with pytest.raises(SplittingError):
            xyz_ctx.split(level, xi)


@pytest.mark.parametrize(
    "xi", [FreeElement({(3, (0,)): 1}), [1], None], ids=["int-key", "list", "none"]
)
def test_split_of_neither_chain_keys_nor_a_dict_raises_type_error(xyz_ctx, xi):
    # Each raised a raw AttributeError: on the int key's level, or on items().
    with pytest.raises(TypeError, match="expected a"):
        xyz_ctx.split(1, xi)


@pytest.mark.parametrize("method", ["differential", "split"])
def test_a_chain_outside_the_context_raises_truncation_error(xyz, method):
    # A level-2 chain of degree 8 from a D=9 context lies past a D=5
    # context's bounds, where its basis certifies no answer.
    small = ResolutionContext(complete(xyz, 5), 5, 5)
    far = ResolutionContext(complete(xyz, 9), 9, 9).chains.at(2, 8)[0]
    call = {
        "differential": lambda: small.differential(far),
        "split": lambda: small.split(3, FreeElement({(far, xyz.alphabet.word("x")): 1})),
    }[method]
    with pytest.raises(TruncationError, match=r"word=\(.*degrees <= 5"):
        call()


def test_the_unit_chain_has_no_differential(xyz_ctx):
    for unit in (xyz_ctx.unit, 0):
        with pytest.raises(SplittingError, match="the \\(-1\\)-chain has no differential"):
            xyz_ctx.differential(unit)


@pytest.mark.parametrize("i", [-1, 60, 10**6])
def test_a_chain_id_outside_the_context_raises_truncation_error(xyz, i):
    # The ids of xyz at D=6 run from 0 to 59.  Id -1 was answered with id
    # 59's cached differential, and 60 and 10**6 raised a raw IndexError.
    ctx = ResolutionContext(complete(xyz, 6), 6, 6)
    assert ctx.differential(59)
    with pytest.raises(TruncationError, match=f"chain id {i} is outside"):
        ctx.differential(i)


@pytest.mark.parametrize(
    "level, i", [(1, -1), (1, 0), (1, 60), (1, 10**6), (0, -1), (0, 1), (0, 60), (2, 1)]
)
@pytest.mark.parametrize("w", [(0,), ()])
def test_split_rejects_an_id_that_names_no_chain_one_level_down(xyz, level, i, w):
    # The ids of xyz at D=6 run from 0 to 59: the unit 0, which keys the
    # terms of a level-0 split, then the letters 1 to 3.  With a cofactor,
    # 10**6 raised a raw IndexError and -1 read id 59's word into a
    # SplittingError about a product word xi does not hold; the unit at
    # level 1 was split as if at level 0.
    ctx = ResolutionContext(complete(xyz, 6), 6, 6)
    with pytest.raises(TruncationError, match=f"chain id {i} at level {level - 1} is outside"):
        ctx.split(level, {(i, w): 1})


@pytest.mark.parametrize("c", [True, 1.0, "a", None])
def test_differential_of_neither_a_chain_nor_an_id_raises_type_error(xyz_ctx, c):
    # Each raised a raw AttributeError from the chain lookup.
    with pytest.raises(TypeError, match="expected a Chain or an int chain id, got"):
        xyz_ctx.differential(c)


@pytest.mark.parametrize("elem", [{}, {(0, (0,)): 1}, None])
def test_act_right_on_anything_but_a_free_element_raises_type_error(xyz_ctx, elem):
    # Each raised a raw AttributeError reading the element's modulus.
    with pytest.raises(TypeError, match="expected a FreeElement"):
        xyz_ctx.act_right(elem, (0,))


@pytest.mark.parametrize(
    ("order", "d", "level_max", "deg_max", "level", "degree"),
    [
        # Level 3 past level_max 2: there are no level-3 chains, so the
        # slice had no columns.
        ("x > y > z", 6, 2, 5, 3, 5),
        # Degree 8 past deg_max 5 of a certified basis: the chains of
        # degrees 6 to 8 are missing, so the slice had 93 columns, not 99.
        ("y > x > z", 8, 4, 5, 3, 8),
    ],
)
def test_slice_and_pair_basis_outside_the_bounds_raise_truncation_error(
    order, d, level_max, deg_max, level, degree
):
    presentation = parse_presentation(f"vars: {order}\nrelations:\n  x^2 + y*x\n  x*z\n  z*y\n")
    ctx = ResolutionContext(complete(presentation, d), level_max, deg_max)
    with pytest.raises(TruncationError, match="outside this context's bounds"):
        ctx.slice(level, degree)
    with pytest.raises(TruncationError, match=f"level {level}, degree {degree}"):
        ctx.pair_basis(level, degree)
    assert ctx.slice(min(level, level_max), min(degree, deg_max)).columns


def test_pair_basis_lists_the_words_of_each_cofactor_degree_once(xyz_gb8, monkeypatch):
    # Every chain of one degree takes the same cofactor words; on xyz at
    # D=8 the level-2 basis in degree 8 has 21 chains over 6 chain degrees.
    ctx = ResolutionContext(xyz_gb8, 8, 8)
    calls, real = [], ctx.automaton.accepted_words

    def counted(degree):
        calls.append(degree)
        return real(degree)

    monkeypatch.setattr(ctx.automaton, "accepted_words", counted)
    basis = ctx.pair_basis(2, 8)
    n = sum(len(ctx.chains.at(2, d)) for d in range(9))
    assert sorted(calls) == sorted({8 - d for d in range(9) if ctx.chains.at(2, d)})
    assert len(calls) < n and len(basis) == len(set(basis))


@pytest.mark.parametrize("field", ["Q", "Fp 5"])
def test_chains_are_looked_up_by_value(field):
    # Context a, given context b's chains (equal, not the same objects),
    # answers with its own chains, term for term as for its own.
    presentation = parse_presentation(XYZ_FP5.replace("Fp 5", field))
    gb = complete(presentation, 6)
    a, b = ResolutionContext(gb, 6, 6), ResolutionContext(gb, 6, 6)

    def own(terms):
        """The terms in order, after checking that each chain is a's own."""
        for k in terms:
            c = k[0] if type(k) is tuple else k
            assert c is a.unit or c is a.chains.find(c.level, c.word), c
        return list(terms.items())

    checked = 0
    for level in range(1, 7):
        for cb in b.chains.level(level):
            ca = a.chains.find(level, cb.word)
            assert ca == cb and ca is not cb
            assert own(a.differential(cb).terms) == own(a.differential(ca).terms)
            xi_b = b.act_right(b.differential(cb.prefix), cb.tail)
            xi_a = a.act_right(a.differential(ca.prefix), ca.tail)
            assert own(a.split(level - 1, xi_b).terms) == own(a.split(level - 1, xi_a).terms)
            checked += 1
    assert checked > 10


def test_differentials_hash_no_chain_inside_the_context(xyz_gb8, monkeypatch):
    # Pairs are keyed by chain id inside a context, so building every
    # differential of xyz at D=8 hashes a Chain at most twice per chain;
    # keyed by (Chain, word), the recursion hashed one 37 times per chain.
    ctx = ResolutionContext(xyz_gb8, 8, 8)
    calls, real = [0], Chain.__hash__

    def counted(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(Chain, "__hash__", counted)
    n = len(ctx.chains.index)
    for i in range(1, n + 1):  # id 0 is the unit; the chain set's chains follow
        ctx.differential(i)
    assert calls[0] <= 2 * n


def test_split_of_a_reducible_cofactor_raises_splitting_error(xyz, xyz_ctx):
    # x (x) xz: the chain xx takes it to xx (x) z, whose differential times
    # z vanishes since xz = 0, so the term never cancels.
    a = xyz.alphabet
    x = xyz_ctx.chains.find(0, a.word("x"))
    with pytest.raises(SplittingError):
        xyz_ctx.split(1, FreeElement({(x, a.word("xz")): xyz_ctx.field.one}))


def test_split_beyond_the_degree_bound_raises_splitting_error(xyz_ctx):
    # The extension t matches the cofactor, but the chain c + t is longer
    # than the context's bound, so the chain index has no such chain.
    chains = xyz_ctx.chains
    top = [c for c in chains.at(1, chains.deg_max) if chains.extensions[c.tail]]
    assert top
    for c in top:
        o, ov = chains.extensions[c.tail][0]
        t = o[ov:]
        with pytest.raises(SplittingError):
            xyz_ctx.split(2, FreeElement({(c, t): xyz_ctx.field.one}))


def test_split_reads_modp_and_unreduced_coefficients_as_residues():
    # Over F_5 a caller may build the element from residues or unreduced
    # ints; split computes on residues either way and returns residues.
    presentation = parse_presentation(XYZ_FP5)
    ctx = ResolutionContext(complete(presentation, 6), 6, 6)
    checked = 0
    for level in (2, 3):
        for chain in ctx.chains.level(level):
            xi = ctx.act_right(ctx.differential(chain.prefix), chain.tail)
            want = ctx.split(level - 1, xi).terms
            for coeff in (ctx.field.of, lambda v: v + 5, lambda v: v - 10):
                elem = FreeElement({k: coeff(v) for k, v in xi.terms.items()}, ctx.p)
                got = ctx.split(level - 1, elem)
                assert got.terms == want, chain
                assert_context_scalars(ctx, got.terms.values())
            checked += 1
    assert ctx.chains.find(2, presentation.alphabet.word("xxx")) is not None and checked > 3


def test_split_and_act_right_reject_an_element_of_another_modulus():
    # Read mod 5, this F_7 element would split with no error to an F_5
    # element of coefficient 2.
    ctx = ResolutionContext(complete(parse_presentation(XYZ_FP5), 6), 6, 6)
    chain = ctx.chains.find(3, ctx.alphabet.word("xxxz"))
    xi = ctx.act_right(ctx.differential(chain.prefix), chain.tail)
    f7 = FreeElement({k: 2 for k in xi.terms}, 7)
    for call in (
        lambda: ctx.split(2, f7),
        lambda: ctx.act_right(f7, (0,)),
        lambda: ctx.act_right(f7, ()),
    ):
        with pytest.raises(FieldError, match="mod 7 in a context over Fp 5"):
            call()


@pytest.mark.parametrize("name, d", [("xyz", 9), ("g4", 5), ("xyz-f2", 8), ("xyz-f3", 8)])
def test_differentials_match_the_cut_scanning_split(name, d, request):
    # F_2 and F_3 are the smallest fields, where -1 is the residue 1 or 2.
    if name.startswith("xyz-f"):
        presentation = parse_presentation(XYZ_FP5.replace("Fp 5", f"Fp {name[5:]}"))
    else:
        presentation = request.getfixturevalue(name)
    ctx = ResolutionContext(complete(presentation, d), d, d)
    expected = differentials_reference(ctx)
    assert len(expected) == len(ctx.chains.index)
    for c, elem in expected.items():
        got = ctx.differential(c)
        assert got == elem, c
        assert_context_scalars(ctx, got.terms.values())


def test_context_rejects_uncovered_degree(xyz):
    gb = complete(xyz, 4)
    with pytest.raises(TruncationError):
        ResolutionContext(gb, level_max=2, deg_max=6)


@pytest.mark.parametrize("level_max, deg_max", [(-1, 4), (2, -1)])
def test_context_rejects_negative_bounds(xyz, level_max, deg_max):
    # Both built an empty context.
    with pytest.raises(CoverageError, match="must be >= 0"):
        ResolutionContext(complete(xyz, 4), level_max, deg_max)


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


def test_slice_rows_are_the_columns_one_level_down(xyz_ctx):
    for degree in range(0, 7):
        for level in range(1, 5):
            upper, lower = xyz_ctx.slice(level, degree), xyz_ctx.slice(level - 1, degree)
            assert upper.row_labels == lower.col_labels
            assert upper.row_labels is not lower.col_labels


def test_pair_basis_is_a_new_list_on_every_call(xyz_ctx):
    basis = xyz_ctx.pair_basis(2, 5)
    assert basis and basis == xyz_ctx.pair_basis(2, 5)
    basis.reverse()
    basis.append(basis[0])
    xyz_ctx.slice(2, 5).col_labels.clear()
    again = xyz_ctx.pair_basis(2, 5)
    assert again == sorted(again, key=max_term_key, reverse=True)
    assert len(again) == len(set(again)) == len(basis) - 1


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
    assert min(elem.terms, key=max_term_key) == want
    for chain, _ in elem.terms:
        twin = Chain(chain.word, chain.level, 2, 1, chain)
        assert twin == chain and hash(twin) == hash(chain)


# sha256 of json.dumps(slices_payload(...), indent=2) with level and degree
# bounds both D, beside the pinned example.alg payload in test_cli.py.
XYZ_FP5 = "vars: x > y > z\nfield: Fp 5\nrelations:\n  x^2 + y*x\n  x*z\n  z*y\n"
SLICE_PAYLOADS = {
    "yxsq-high-6": "d868ace9528a076d3dc7e210359bb7174b1fd981dafa38338b4d410e4cecb788",
    "xyz-dual-6": "ac6a3594fb821e4ba2415ab2accd7fe1a610688e478db5aba975cac9a60537be",
    "xyz-fp5-7": "175dc524ad9d57b94ccc2e8b1541d819baeb6a113459eac5f8330550b5d86474",
}


@pytest.mark.parametrize("name", sorted(SLICE_PAYLOADS))
def test_slice_payload_matches_pinned_digest(name, xyz, yxsq_high):
    presentation, d = {
        "yxsq-high-6": (yxsq_high, 6),
        "xyz-dual-6": (quadratic_dual(xyz), 6),
        "xyz-fp5-7": (parse_presentation(XYZ_FP5), 7),
    }[name]
    slices = ResolutionContext(complete(presentation, d), d, d).slices()
    text = json.dumps(slices_payload(presentation.alphabet, slices), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == SLICE_PAYLOADS[name]


@pytest.mark.parametrize("text, max_deg", [(XYZ_TEXT, 7), (G4_TEXT, 5)])
@pytest.mark.parametrize("field", [Rationals(), PrimeField(5)])
def test_nf_word_is_the_normal_form_of_every_word(text, max_deg, field):
    # nf_word answers a normal word itself and hands the rest to normal_form;
    # both must give normal_form's terms, with the same scalar types.
    pres = parse_presentation(text, field_override=field)
    gb = complete(pres, max_deg)
    ctx, reducer = ResolutionContext(gb, 1, max_deg), Reducer(field, gb.elements)
    words = [w for d in range(max_deg + 1) for w in all_words(pres.alphabet.size, d)]
    for w in words:
        want = normal_form(Polynomial.monomial(w, 1, field.p), reducer).terms
        got = ctx.nf_word(w)
        assert got == want, w
        assert [type(a) for a in got.values()] == [type(a) for a in want.values()]
    # Both kinds of word occur.
    assert 0 < sum(ctx.nf_word(w) == {w: 1} for w in words) < len(words)
