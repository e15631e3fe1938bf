from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gimel.errors import (
    ContextMismatchError,
    MalformedInputError,
    UndefinedDegreeError,
)
from gimel.complexes import GradedFreeComplex, dense_rows
from gimel.ring import (
    EQUIVARIANT,
    SPECIALIZED,
    Poly,
    RingCtx,
    constant,
    equivariant_ctx,
    evaluate_poly,
    exact,
    format_poly,
    parse_poly,
    potential_derivative,
    quantum_degree,
    require_exact,
    specialized_ctx,
    standard_potential,
    zero,
)


def test_standard_potential():
    assert standard_potential(2) == (F(0), F(-1))
    assert standard_potential(5) == (F(0),) * 4 + (F(-1),)


def test_parse_basic():
    ctx = equivariant_ctx(3)
    p = parse_poly("x^2 + 3*a1 - 1/2", ctx)
    assert quantum_degree(parse_poly("x^2", ctx)) == 4
    assert quantum_degree(parse_poly("a1", ctx)) == 4
    assert quantum_degree(parse_poly("a2", ctx)) == 2
    assert quantum_degree(p) is None  # inhomogeneous
    assert parse_poly("x*x", ctx) == parse_poly("x^2", ctx)
    assert parse_poly("(x + a1)^0", ctx) == constant(ctx, 1)


def test_parse_rejects():
    ctx = equivariant_ctx(3)
    for bad in ["x +", "2x", "a3", "a7 + 1", "x^-1", "x^(2)", "1/0", "(x"]:
        with pytest.raises(MalformedInputError):
            parse_poly(bad, ctx)


def test_a0_elimination():
    # a0 stands for -(x^n + a_{n-1} x^{n-1} + ... + a1 x)
    ctx = equivariant_ctx(2)
    p = parse_poly("a0", ctx)
    assert p == parse_poly("-x^2 - a1*x", ctx)
    q = parse_poly("x^2 + a1*x + a0", ctx)
    assert q.is_zero()
    assert quantum_degree(parse_poly("a0", equivariant_ctx(4))) == 8


def test_specialized_reduction():
    ctx = specialized_ctx(2, standard_potential(2))
    assert parse_poly("x^2", ctx) == parse_poly("x", ctx)
    assert parse_poly("x^5 - x", ctx).is_zero()
    # a_i substitute to potential coefficients
    assert parse_poly("a1", ctx) == constant(ctx, -1)
    ctx3 = specialized_ctx(3, standard_potential(3))
    assert parse_poly("x^3", ctx3) == parse_poly("x^2", ctx3)


def test_quantum_degree_specialized_is_filtration_level():
    ctx = specialized_ctx(4, standard_potential(4))
    assert quantum_degree(parse_poly("x^3 + x", ctx)) == 6
    assert quantum_degree(constant(ctx, 5)) == 0
    with pytest.raises(UndefinedDegreeError):
        quantum_degree(zero(ctx))


def test_potential_derivative():
    ctx = equivariant_ctx(3)
    dw1 = potential_derivative(ctx, 1)
    assert dw1 == parse_poly("3*x^2 + 2*a2*x + a1", ctx)
    dw2 = potential_derivative(ctx, 2)
    assert dw2 == parse_poly("6*x + 2*a2", ctx)
    assert quantum_degree(dw1) == 4
    assert quantum_degree(dw2) == 2


def test_three_strand_top_entry_specializes_to_one():
    # the degree-4 entry of the first three-strand fixture evaluates to 1
    # at the standard potential for n = 3 (coefficients a2 = -1, a1 = 0)
    ctx = equivariant_ctx(3)
    p = parse_poly("a2^2 - 3*a1", ctx)
    v = evaluate_poly(p, standard_potential(3))
    assert v == constant(v.ctx, 1)


def test_three_strand_cube_entry_specializes():
    ctx = equivariant_ctx(3)
    p = parse_poly("(3*x + a2)^3", ctx)
    v = evaluate_poly(p, standard_potential(3))
    assert v == parse_poly("9*x - 1", v.ctx)


def test_context_mismatch():
    p = parse_poly("x", equivariant_ctx(2))
    q = parse_poly("x", equivariant_ctx(3))
    with pytest.raises(ContextMismatchError):
        _ = p + q
    with pytest.raises(ContextMismatchError):
        evaluate_poly(parse_poly("x", specialized_ctx(2, standard_potential(2))), standard_potential(2))


def test_contexts_are_shared_and_compared_by_value():
    assert equivariant_ctx(3) is equivariant_ctx(3)
    pot = standard_potential(2)
    assert specialized_ctx(2, pot) is specialized_ctx(2, [0, -1])
    # a context built directly is a different object but the same ring
    other = RingCtx(3, EQUIVARIANT)
    assert other is not equivariant_ctx(3)
    p = parse_poly("x + a1", other)
    q = parse_poly("x", equivariant_ctx(3))
    assert p + q == q + p == parse_poly("2*x + a1", equivariant_ctx(3))
    c = GradedFreeComplex.from_rows(equivariant_ctx(3), {0: [0], 1: [-2]}, {0: [[p]]})
    assert dense_rows(c, 0) == [[p]]


def test_format_round_trip():
    ctx = equivariant_ctx(3)
    for text in ["0", "1", "-x", "x^2 - 1/3*a1*x + 2", "a2^2 - 3*a1"]:
        p = parse_poly(text, ctx)
        assert parse_poly(format_poly(p), ctx) == p


_coef = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _polys(ctx):
    exps = st.tuples(*[st.integers(0, 2)] * ctx.nvars)
    return st.dictionaries(exps, _coef, max_size=4).map(
        lambda d: Poly.from_dict(ctx, d)
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    ctx = data.draw(
        st.sampled_from(
            [equivariant_ctx(2), equivariant_ctx(3), specialized_ctx(3, standard_potential(3))]
        )
    )
    p = data.draw(_polys(ctx))
    q = data.draw(_polys(ctx))
    r = data.draw(_polys(ctx))
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero(ctx) == p
    assert p * constant(ctx, 1) == p
    assert (p - p).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_evaluation_is_a_ring_map(data):
    ctx = equivariant_ctx(3)
    pot = standard_potential(3)
    p = data.draw(_polys(ctx))
    q = data.draw(_polys(ctx))
    assert evaluate_poly(p * q, pot) == evaluate_poly(p, pot) * evaluate_poly(q, pot)
    assert evaluate_poly(p + q, pot) == evaluate_poly(p, pot) + evaluate_poly(q, pot)


# -- exactness oracle: int and non-integral Fraction coefficients mixed,
# against plain {exponents: Fraction} dicts that never go through Poly.

_mixed = st.integers(-3, 3) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
).filter(lambda f: f.denominator != 1)


def _mixed_dicts(ctx):
    exps = st.tuples(*[st.integers(0, 2)] * ctx.nvars)
    return st.dictionaries(exps, _mixed, max_size=4)


def _ref(d):
    return {e: F(c) for e, c in d.items() if c != 0}


def _ref_add(a, b):
    return _ref({e: a.get(e, 0) + b.get(e, 0) for e in set(a) | set(b)})


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + F(c1) * c2
    return _ref(out)


def _canonical(p):
    return all(
        type(c) is int or (type(c) is F and c.denominator != 1) for _, c in p.terms
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mixed_coefficients_match_fraction_reference(data):
    ctx = data.draw(st.sampled_from([equivariant_ctx(2), equivariant_ctx(3)]))
    a, b = data.draw(_mixed_dicts(ctx)), data.draw(_mixed_dicts(ctx))
    k = data.draw(_mixed)
    p, q = Poly.from_dict(ctx, a), Poly.from_dict(ctx, b)
    neg_b = {e: -c for e, c in b.items()}
    # a constant operand, on either side, of a product of two Polys
    const = {(0,) * ctx.nvars: data.draw(_mixed)}
    kp = Poly.from_dict(ctx, const)
    cases = [
        (p, _ref(a)),
        (p + q, _ref_add(a, b)),
        (p - q, _ref_add(a, neg_b)),
        (p * q, _ref_mul(a, b)),
        (p * k, _ref({e: F(c) * k for e, c in a.items()})),
        (k * p, _ref({e: F(c) * k for e, c in a.items()})),
        (p * kp, _ref_mul(a, const)),
        (kp * p, _ref_mul(const, a)),
        (kp * kp, _ref_mul(const, const)),
    ]
    for got, want in cases:
        assert dict(got.terms) == want
        assert list(got.terms) == sorted(got.terms)
        assert _canonical(got)
        back = parse_poly(format_poly(got), ctx)
        assert back == got and [type(c) for _, c in back.terms] == [
            type(c) for _, c in got.terms
        ]
    integral = {e: F(c.numerator) for e, c in _ref(a).items() if c.denominator == 1}
    as_fraction = Poly.from_dict(ctx, integral)
    as_int = Poly.from_dict(ctx, {e: int(c) for e, c in integral.items()})
    assert format_poly(as_fraction) == format_poly(as_int)
    assert as_fraction.terms == as_int.terms and _canonical(as_fraction)


def test_scalars_must_be_int_or_fraction():
    ctx = equivariant_ctx(2)
    p = parse_poly("x + 1/2", ctx)
    for bad in (0.5, 1.0, "2", None):
        with pytest.raises(TypeError):
            p * bad
        with pytest.raises(TypeError):
            bad * p
        with pytest.raises(TypeError):
            constant(ctx, bad)
    assert p * 2 == p * F(2) == parse_poly("2*x + 1", ctx)
    assert constant(ctx, F(3, 1)).terms == constant(ctx, 3).terms == (((0, 0), 3),)


def test_constant_factors_scale_without_a_product():
    """A factor of 1, as a scalar or as a constant Poly, returns the other
    factor itself; any other constant factor scales it term by term, with
    the normal-form coefficient types."""
    for ctx in (equivariant_ctx(2), specialized_ctx(3, standard_potential(3))):
        p = parse_poly("2*x^2 + 1/2*x - 3", ctx)
        one = constant(ctx, 1)
        assert p * 1 is p and p * F(1) is p
        assert p * one is p and one * p is p
        half = constant(ctx, F(1, 2))
        want = parse_poly("x^2 + 1/4*x - 3/2", ctx)
        for got in (p * half, half * p, p * F(1, 2)):
            assert got == want
            assert [type(c) for _, c in got.terms] == [type(c) for _, c in want.terms]
        assert (p * constant(ctx, 2)).terms == parse_poly("4*x^2 + x - 6", ctx).terms
        assert (p * zero(ctx)).is_zero() and (zero(ctx) * p).is_zero() and (p * 0).is_zero()


# -- parser oracle: the same expression tree, rendered to text and evaluated
# with plain Fraction arithmetic at a rational point.


def _trees(n):
    number = st.tuples(st.integers(0, 9), st.integers(1, 4))
    variable = st.sampled_from(["x"] + [f"a{i}" for i in range(n)])
    leaves = number | variable

    def extend(sub):
        return (
            st.tuples(st.sampled_from("+-*"), sub, sub)
            | st.tuples(st.just("^"), sub, st.integers(0, 2))
            | st.tuples(st.just("neg"), sub)
        )

    return st.recursive(leaves, extend, max_leaves=6)


def _render(tree) -> str:
    if isinstance(tree, str):
        return tree
    if isinstance(tree[0], int):
        p, q = tree
        return f"{p}/{q}" if q != 1 else str(p)
    if tree[0] == "neg":
        return f"(-{_render(tree[1])})"
    if tree[0] == "^":
        return f"({_render(tree[1])})^{tree[2]}"
    return f"({_render(tree[1])} {tree[0]} {_render(tree[2])})"


def _value(tree, point):
    if isinstance(tree, str):
        return point[tree]
    if isinstance(tree[0], int):
        return F(*tree)
    if tree[0] == "neg":
        return -_value(tree[1], point)
    if tree[0] == "^":
        return _value(tree[1], point) ** tree[2]
    a, b = _value(tree[1], point), _value(tree[2], point)
    return {"+": a + b, "-": a - b, "*": a * b}[tree[0]]


def _poly_value(p, point):
    names = p.ctx.var_names()
    total = F(0)
    for exps, c in p.terms:
        for name, e in zip(names, exps):
            c *= point[name] ** e
        total += c
    return total


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parse_matches_fraction_evaluation(data):
    n = data.draw(st.integers(2, 4))
    tree = data.draw(_trees(n))
    text = _render(tree)
    point = {"x": data.draw(_coef)}
    for i in range(1, n):
        point[f"a{i}"] = data.draw(_coef)
    x = point["x"]
    point["a0"] = -(x**n + sum(point[f"a{i}"] * x**i for i in range(1, n)))
    eq = equivariant_ctx(n)
    p = parse_poly(text, eq)
    assert _poly_value(p, point) == _value(tree, point)
    pot = data.draw(st.lists(_coef, min_size=n, max_size=n))
    assert parse_poly(text, specialized_ctx(n, pot)) == evaluate_poly(p, pot)


def test_contexts_reject_floats():
    for bad in (0.1, 1.0, "1", None):
        with pytest.raises(TypeError):
            exact(bad)
        with pytest.raises(TypeError):
            require_exact(bad)
        with pytest.raises(TypeError):
            specialized_ctx(2, [bad, -1])
        with pytest.raises(TypeError):
            RingCtx(2, SPECIALIZED, (0, bad))
    assert exact(3) == F(3) and type(exact(3)) is F
    assert type(require_exact(3)) is int and require_exact(F(1, 3)) == F(1, 3)
    assert exact(F(1, 3)) == F(1, 3)
    assert specialized_ctx(2, [0, -1]).potential == (F(0), F(-1))
