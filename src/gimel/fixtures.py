"""Builders for the cochain-complex fixtures shipped with the package:
the unknot, the rank-(1,2) pretzel summand family, and the two
three-strand pretzel summands whose tensor product is the main worked
example."""

from __future__ import annotations

from .complexes import GradedFreeComplex, rank_one_complex
from .ring import (
    RingCtx,
    equivariant_ctx,
    parse_poly,
    potential_derivative,
)


def unknot_fixture(n: int) -> GradedFreeComplex:
    """Rank-1 complex q^0 R in degree 0."""
    return rank_one_complex(equivariant_ctx(n), label=0, degree=0)


def pretzel_2m37_fixture(n: int) -> GradedFreeComplex:
    """The degree-0-supported summand of the equivariant complex of the
    (2,-3,7)-pretzel knot, for any n >= 3: one generator q^{-2} in degree
    -1 mapping by (dw', dw'') into q^{-2n} (+) q^{2-2n} in degree 0."""
    ctx = equivariant_ctx(n)
    dw1 = potential_derivative(ctx, 1)
    dw2 = potential_derivative(ctx, 2)
    return GradedFreeComplex.from_rows(
        ctx,
        {-1: [-2], 0: [-2 * n, 2 - 2 * n]},
        {-1: [[dw1], [dw2]]},
    )


def s3_p754_fixture() -> GradedFreeComplex:
    """Equivariant Rasmussen summand of the pretzel knot P(7,-5,4), n = 3."""
    ctx = equivariant_ctx(3)
    top = parse_poly("a2^2 - 3*a1", ctx)
    dw1 = potential_derivative(ctx, 1)
    return GradedFreeComplex.from_rows(
        ctx,
        {-1: [4], 0: [0, 0]},
        {-1: [[top], [dw1]]},
    )


def s3_p976_fixture() -> GradedFreeComplex:
    """Equivariant Rasmussen summand of the pretzel knot P(-9,7,-6), n = 3."""
    ctx = equivariant_ctx(3)
    cube = parse_poly("(3*x + a2)^3", ctx)
    dw1 = potential_derivative(ctx, 1)
    return GradedFreeComplex.from_rows(
        ctx,
        {0: [0, -2], 1: [-6]},
        {0: [[cube, dw1]]},
    )


def acyclic_pair(ctx: RingCtx, label: int, degree: int) -> GradedFreeComplex:
    """q^label (R --1--> R) concentrated in degrees (degree, degree+1)."""
    one = parse_poly("1", ctx)
    return GradedFreeComplex.from_rows(
        ctx,
        {degree: [label], degree + 1: [label]},
        {degree: [[one]]},
    )
