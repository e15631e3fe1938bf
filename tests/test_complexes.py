import pytest

from gimel.complexes import (
    GradedFreeComplex,
    block_sum,
    dual,
    euler,
    evaluate,
    shift,
    tensor,
    validate,
)
from gimel.errors import ContextMismatchError, MalformedInputError
from gimel.fixtures import (
    acyclic_pair,
    pretzel_2m37_fixture,
    s3_p754_fixture,
    s3_p976_fixture,
    unknot_fixture,
)
from gimel.ring import equivariant_ctx, parse_poly, standard_potential


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
    c = GradedFreeComplex.build(
        ctx, {0: [0], 1: [0], 2: [0]}, {0: [[one]], 1: [[one]]}
    )
    rep = validate(c)
    assert not rep.ok
    assert any("d^2" in f for f in rep.failures)


def test_validate_catches_inhomogeneous_entry():
    ctx = equivariant_ctx(2)
    c = GradedFreeComplex.build(
        ctx, {0: [0], 1: [0]}, {0: [[parse_poly("x", ctx)]]}
    )
    rep = validate(c)
    assert not rep.ok


def test_build_shape_check():
    ctx = equivariant_ctx(2)
    one = parse_poly("1", ctx)
    with pytest.raises(MalformedInputError):
        GradedFreeComplex.build(ctx, {0: [0, 0], 1: [0]}, {0: [[one]]})


def test_euler():
    assert euler(unknot_fixture(3)) == 1
    assert euler(pretzel_2m37_fixture(4)) == 1  # 2 - 1 at degrees 0, -1
    assert euler(s3_p976_fixture()) == 1
    assert euler(acyclic_pair(equivariant_ctx(2), 3, -2)) == 0


def test_shift():
    c = s3_p754_fixture()
    s = shift(c, 2, 6)
    assert s.degrees() == [1, 2]
    assert s.labels(2) == (6, 6)
    assert s.diff(1) == c.diff(-1)


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
    assert s.diff(-1)[0][0] == parse_poly("3*x^2 - 2*x", s.ctx)


def test_block_sum():
    c = s3_p754_fixture()
    pair = acyclic_pair(c.ctx, 4, 0)
    b = block_sum(c, pair)
    assert euler(b) == 1
    assert b.rank(0) == 3
    assert validate(b).ok
