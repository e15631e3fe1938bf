import pytest
from conftest import (
    FIG8_PD,
    TREFOIL_PD,
    acyclic_pair,
    block_sum,
    rank_one_complex,
    tensor_reference,
    validate_reference,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gimel.complexes import (
    GradedFreeComplex,
    assign_once,
    dense_rows,
    dual,
    euler,
    evaluate,
    tensor,
    validate,
)
from gimel.cube import build_equivariant_sl2, mirror, parse_pd
from gimel.errors import ContextMismatchError, InternalError, MalformedInputError
from gimel.fixtures import (
    pretzel_2m37_fixture,
    s3_p754_fixture,
    s3_p976_fixture,
    unknot_fixture,
)
from gimel.ring import (
    Poly,
    equivariant_ctx,
    parse_poly,
    specialized_ctx,
    standard_potential,
    zero,
)


def test_validate_fixtures():
    for c in [
        unknot_fixture(2),
        unknot_fixture(5),
        pretzel_2m37_fixture(3),
        pretzel_2m37_fixture(8),
        s3_p754_fixture(),
        s3_p976_fixture(),
    ]:
        rep = validate(c)
        assert rep.ok, rep.failures


def test_validate_catches_d_squared():
    ctx = equivariant_ctx(2)
    one = parse_poly("1", ctx)
    c = GradedFreeComplex.from_rows(
        ctx, {0: [0], 1: [0], 2: [0]}, {0: [[one]], 1: [[one]]}
    )
    rep = validate(c)
    assert not rep.ok
    assert any("d^2" in f for f in rep.failures)


def test_validate_catches_inhomogeneous_entry():
    ctx = equivariant_ctx(2)
    c = GradedFreeComplex.from_rows(
        ctx, {0: [0], 1: [0]}, {0: [[parse_poly("x", ctx)]]}
    )
    rep = validate(c)
    assert not rep.ok


@st.composite
def _graded_complexes(draw):
    """Small complexes with random labels and entries, over either ring
    kind: most fail the grading check, d^2 = 0, or both."""
    ctx = draw(st.sampled_from([equivariant_ctx(2), specialized_ctx(2, standard_potential(2))]))
    pool = [zero(ctx)] * 2 + [
        parse_poly(t, ctx) for t in ("1", "-1", "x", "x - 1", "a1", "x^2 + a1*x")
    ]
    ranks = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4))
    start = draw(st.integers(-2, 1))
    labels = st.integers(-2, 2).map(lambda k: 2 * k)
    mods = {start + k: draw(st.lists(labels, min_size=r, max_size=r)) for k, r in enumerate(ranks)}
    diffs = {
        i: [
            [draw(st.sampled_from(pool)) for _ in range(len(mods[i]))]
            for _ in range(len(mods[i + 1]))
        ]
        for i in mods
        if mods[i] and mods.get(i + 1)
    }
    return GradedFreeComplex.from_rows(ctx, mods, diffs)


@settings(max_examples=80, deadline=None)
@given(_graded_complexes())
def test_validate_matches_dense_reference(c):
    assert validate(c) == validate_reference(c)


def test_validate_tensor_of_two_cubes():
    c = build_equivariant_sl2(parse_pd(FIG8_PD))
    assert validate(tensor(c, c)).ok


def test_build_shape_check():
    ctx = equivariant_ctx(2)
    one = parse_poly("1", ctx)
    with pytest.raises(MalformedInputError):
        GradedFreeComplex.from_rows(ctx, {0: [0, 0], 1: [0]}, {0: [[one]]})


def test_euler():
    assert euler(unknot_fixture(3)) == 1
    assert euler(pretzel_2m37_fixture(4)) == 1  # 2 - 1 at degrees 0, -1
    assert euler(s3_p976_fixture()) == 1
    assert euler(acyclic_pair(equivariant_ctx(2), 3, -2)) == 0


def test_tensor_matches_worked_example():
    ab = tensor(s3_p754_fixture(), s3_p976_fixture())
    assert [(i, ab.rank(i)) for i in ab.degrees()] == [(-1, 2), (0, 5), (1, 2)]
    assert sorted(ab.labels(-1)) == [2, 4]
    assert sorted(ab.labels(0)) == [-2, -2, -2, 0, 0]
    assert ab.labels(1) == (-6, -6)
    assert validate(ab).ok


def test_tensor_unit():
    u = unknot_fixture(3)
    c = s3_p754_fixture()
    assert tensor(u, c) == c
    assert tensor(c, u) == c


def test_tensor_koszul_d_squared():
    c = s3_p754_fixture()
    d = s3_p976_fixture()
    assert validate(tensor(c, d)).ok
    assert validate(tensor(d, d)).ok
    assert validate(tensor(tensor(c, d), c)).ok


def test_tensor_context_mismatch():
    with pytest.raises(ContextMismatchError):
        tensor(unknot_fixture(2), unknot_fixture(3))


def test_dual_involution_and_unknot():
    for c in [unknot_fixture(2), s3_p754_fixture(), pretzel_2m37_fixture(4)]:
        assert dual(dual(c)) == c
        assert validate(dual(c)).ok
    for n in (2, 3, 5):
        assert dual(unknot_fixture(n)) == unknot_fixture(n)


def test_dual_degrees_and_labels():
    c = s3_p976_fixture()  # degrees 0, 1 with labels (0, -2), (-6,)
    d = dual(c)
    assert d.degrees() == [-1, 0]
    assert d.labels(-1) == (6,)
    assert sorted(d.labels(0)) == [0, 2]


def test_evaluate_specializes():
    c = pretzel_2m37_fixture(3)
    s = evaluate(c, standard_potential(3))
    assert s.ctx.kind == "specialized"
    assert validate(s).ok
    # dw' at x^3 - x^2 is 3x^2 - 2x
    assert dense_rows(s, -1)[0][0] == parse_poly("3*x^2 - 2*x", s.ctx)


def test_block_sum():
    c = s3_p754_fixture()
    pair = acyclic_pair(c.ctx, 4, 0)
    b = block_sum(c, pair)
    assert euler(b) == 1
    assert b.rank(0) == 3
    assert validate(b).ok


def _cube(pd):
    return build_equivariant_sl2(parse_pd(pd))


def _entries(c):
    """Every stored slot with its coefficients' types, so that an int and
    an equal Fraction do not compare equal."""

    def typed(p):
        return [(e, v, type(v)) for e, v in p.terms]

    return [(i, [[typed(p) for p in row] for row in dense_rows(c, i)]) for i in c.cols]


TENSOR_INPUTS = {
    "3_1 x m3_1": lambda: (
        _cube(TREFOIL_PD),
        build_equivariant_sl2(mirror(parse_pd(TREFOIL_PD))),
    ),
    "3_1 x 4_1": lambda: (_cube(TREFOIL_PD), _cube(FIG8_PD)),
    "4_1 x 4_1": lambda: (_cube(FIG8_PD), _cube(FIG8_PD)),
    "P754 x P976": lambda: (s3_p754_fixture(), s3_p976_fixture()),
    # the first factor has odd degrees, so the Koszul sign path runs
    "(P754 x P976) x dual(p2m37_n3)": lambda: (
        tensor(s3_p754_fixture(), s3_p976_fixture()),
        dual(pretzel_2m37_fixture(3)),
    ),
    "odd rank one x 3_1": lambda: (
        rank_one_complex(equivariant_ctx(2), label=3, degree=1),
        _cube(TREFOIL_PD),
    ),
    "3_1 x odd rank one": lambda: (
        _cube(TREFOIL_PD),
        rank_one_complex(equivariant_ctx(2), label=3, degree=1),
    ),
}


@pytest.mark.parametrize("name", sorted(TENSOR_INPUTS))
def test_tensor_matches_accumulating_reference(name):
    a, b = TENSOR_INPUTS[name]()
    new, old = tensor(a, b), tensor_reference(a, b)
    assert new.modules == old.modules
    assert _entries(new) == _entries(old)


def _nonzeros(c):
    return sum(
        1 for i in c.cols for row in dense_rows(c, i) for e in row if not e.is_zero()
    )


def test_tensor_assembly_only_negates_second_factor(poly_builds):
    """Each entry of the product is a factor's entry or its negation, so
    assembly makes at most one new Poly per nonzero entry of b."""
    odd, even = _cube(TREFOIL_PD), unknot_fixture(2)  # degrees 0..3 and 0
    b = _cube(FIG8_PD)
    poly_builds[0] = 0
    tensor(odd, b)
    assert poly_builds[0] <= _nonzeros(b)
    poly_builds[0] = 0
    tensor(even, b)
    assert poly_builds[0] == 0


def test_assign_once_rejects_a_second_hit():
    ctx = equivariant_ctx(2)
    x = parse_poly("x", ctx)
    cols = {}
    assign_once(cols, 0, 1, x)
    assert cols == {1: {0: x}}
    with pytest.raises(InternalError):
        assign_once(cols, 0, 1, x)
    assert cols == {1: {0: x}}


def _dense_matrices(data, ctx):
    # two zeros that are not the same instance, so a reader that tests
    # identity with one of them would miss the other
    pool = [zero(ctx), Poly.from_dict(ctx, {(0, 0): 0})] + [
        parse_poly(t, ctx) for t in ("1", "-2", "x", "x + a1", "-a1")
    ]
    ranks = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    start = data.draw(st.integers(-2, 1))
    rank = {start + k: r for k, r in enumerate(ranks)}
    diffs = {
        i: [
            [data.draw(st.sampled_from(pool)) for _ in range(rank[i])]
            for _ in range(rank[i + 1])
        ]
        for i in rank
        if rank[i] and rank.get(i + 1)
    }
    return {i: [0] * r for i, r in rank.items()}, diffs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_columns_lists_exactly_the_nonzeros(data):
    ctx = equivariant_ctx(2)
    mods, diffs = _dense_matrices(data, ctx)
    got = GradedFreeComplex.from_rows(ctx, mods, diffs).cols
    assert sorted(got) == sorted(diffs)
    for i, mat in diffs.items():
        want = {
            (r, col): e
            for r, row in enumerate(mat)
            for col, e in enumerate(row)
            if not e.is_zero()
        }
        assert {(r, col): e for col, ent in got[i].items() for r, e in ent.items()} == want
        assert all(got[i].values())
        assert list(got[i]) == sorted(got[i])
        assert all(list(ent) == sorted(ent) for ent in got[i].values())


def test_evaluate_rejects_floats():
    c = pretzel_2m37_fixture(3)
    with pytest.raises(TypeError):
        evaluate(c, [0.0, 0.1, -1])
    assert evaluate(c, [0, 0, -1]) == evaluate(c, standard_potential(3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dense_rows_round_trip_through_the_stored_form(data):
    ctx = equivariant_ctx(2)
    mods, diffs = _dense_matrices(data, ctx)
    c = GradedFreeComplex.from_rows(ctx, mods, diffs)
    back = {i: dense_rows(c, i) for i in c.cols}
    z = zero(ctx)
    want = {
        i: [[e if e.terms else z for e in row] for row in mat]
        for i, mat in diffs.items()
    }
    assert back == want


def test_build_rejects_an_entry_out_of_range():
    ctx = equivariant_ctx(2)
    one = parse_poly("1", ctx)
    mods = {0: [0, 0], 1: [0]}
    outside = [{0: {2: {0: one}}}, {0: {0: {1: one}}}, {0: {-1: {0: one}}}, {0: {0: {-1: one}}}]
    for cols in outside:
        with pytest.raises(MalformedInputError):
            GradedFreeComplex.build(ctx, mods, cols)
    assert GradedFreeComplex.build(ctx, mods, {0: {1: {0: one}}}).cols == {0: {1: {0: one}}}


def test_build_rejects_an_entry_in_another_context():
    ctx = equivariant_ctx(2)
    other = parse_poly("1", equivariant_ctx(3))
    with pytest.raises(ContextMismatchError):
        GradedFreeComplex.build(ctx, {0: [0], 1: [0]}, {0: {0: {0: other}}})
    # a zero entry carries no coefficient, so its context is not checked
    c = GradedFreeComplex.build(ctx, {0: [0], 1: [0]}, {0: {0: {0: zero(equivariant_ctx(3))}}})
    assert c.cols == {0: {}}


def test_build_rejects_an_entry_with_no_home():
    ctx = equivariant_ctx(2)
    one = parse_poly("1", ctx)
    with pytest.raises(MalformedInputError, match="no home"):
        GradedFreeComplex.build(ctx, {0: [0]}, {0: {0: {0: one}}})
    with pytest.raises(MalformedInputError, match="no home"):
        GradedFreeComplex.from_rows(ctx, {1: [0]}, {0: [[one]]})
    # without a nonzero entry the degree is simply not kept
    c = GradedFreeComplex.build(ctx, {0: [0]}, {0: {0: {0: zero(ctx)}}, 5: {}})
    assert c.cols == {}


def test_build_drops_zeros_and_keeps_a_zero_differential():
    ctx = equivariant_ctx(2)
    x, z = parse_poly("x", ctx), zero(ctx)
    explicit = Poly.from_dict(ctx, {(0, 0): 0})
    c = GradedFreeComplex.build(
        ctx,
        {0: [0, 0], 1: [-2, -2], 2: [-4]},
        {0: {1: {0: z, 1: x}, 0: {1: explicit}}, 1: {0: {0: z}}},
    )
    assert c.cols == {0: {1: {1: x}}, 1: {}}
    assert list(c.cols) == [0, 1]
    mats = {i: dense_rows(c, i) for i in c.cols}
    assert [(i, len(mat), len(mat[0])) for i, mat in mats.items()] == [(0, 2, 2), (1, 1, 2)]


def test_build_sorts_columns_and_rows():
    ctx = equivariant_ctx(2)
    one = parse_poly("1", ctx)
    c = GradedFreeComplex.build(
        ctx, {0: [0, 0, 0], 1: [0, 0, 0]}, {0: {2: {2: one, 0: one}, 0: {1: one}}}
    )
    assert list(c.cols[0]) == [0, 2]
    assert list(c.cols[0][2]) == [0, 2]


def test_evaluate_drops_entries_that_specialize_to_zero():
    """At a potential with c1 = 0 the cube's a1 entries vanish: none is
    stored, and the specialized cube still validates."""
    c = build_equivariant_sl2(parse_pd(TREFOIL_PD))
    a1 = parse_poly("a1", c.ctx)
    a1_slots = [
        (i, col, r)
        for i, by_col in c.cols.items()
        for col, column in by_col.items()
        for r, e in column.items()
        if e in (a1, -a1)
    ]
    assert a1_slots
    s = evaluate(c, [0, 0])
    assert s.ctx.potential == (0, 0)
    assert all(r not in s.cols[i].get(col, {}) for i, col, r in a1_slots)
    stored = [e for by_col in s.cols.values() for column in by_col.values() for e in column.values()]
    assert stored and all(e.terms for e in stored)
    assert validate(s).ok
