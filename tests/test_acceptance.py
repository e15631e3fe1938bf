"""Acceptance gate: ten criteria, each printing one PASS/FAIL line.

Expected values are hard-coded anchors; the independent oracles live in
conftest.py and share no code with the production sweep."""

import random
from fractions import Fraction as F

from conftest import (
    FIG8_PD,
    KINK_NEG_PD,
    KINK_POS_PD,
    PD_CORPUS,
    TREFOIL_PD,
    UNKNOT_PD,
    acyclic_pair,
    block_sum,
    gamma_oracle,
    gornik_cocycle_sl2,
    u_oracle,
)

from gimel.complexes import dual, evaluate, tensor, validate
from gimel.cube import (
    build_equivariant_sl2,
    format_pd,
    mirror,
    parse_pd,
)
from gimel.filtration import gamma_at, gornik_class_fixture
from gimel.fixtures import (
    pretzel_2m37_fixture,
    s3_p754_fixture,
    s3_p976_fixture,
    unknot_fixture,
)
from gimel.pipeline import (
    compute_report,
    compute_report_pd,
    decompose,
    specialize_for_sweep,
)
from gimel.pl import PiecewiseLinear
from gimel.ring import standard_potential
from gimel.simplify import extract_sn, gauss_simplify, split_components
from gimel.verify import check_cone, check_gap, check_linear, check_quasi


def _criterion(num, label):
    def deco(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} [{label}]: FAIL")
                raise
            print(f"criterion {num:2d} [{label}]: PASS")

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


def _family_gimel(n):
    # two linear pieces meeting at t = 1/2
    return PiecewiseLinear.from_points(
        [
            (F(0), F(0)),
            (F(1, 2), F(-n, 2 * (n - 1))),
            (F(1), F(-(n + 1), n - 1)),
        ]
    )


@_criterion(1, "unknot exact")
def test_unknot_n2_to_n6():
    for n in range(2, 7):
        rep = compute_report(unknot_fixture(n))
        assert rep.gimel == PiecewiseLinear.zero()
        assert rep.gamma == PiecewiseLinear.from_points([(0, -(n - 1)), (1, n - 1)])
        assert rep.r == rep.u == n - 1
        assert rep.s_invariant == 0 and rep.genus_bound == 0


@_criterion(2, "one-parameter family exact")
def test_family_n3_to_n8():
    for n in range(3, 9):
        rep = compute_report(pretzel_2m37_fixture(n))
        assert rep.gimel == _family_gimel(n)
        assert rep.gimel.breakpoints == (F(0), F(1, 2), F(1))
        assert rep.slope0 == F(-n, n - 1)
        assert rep.r == -(n + 1)
        assert rep.u == -(n + 3)
        assert rep.s_invariant == F(-(n + 1), n - 1)


@_criterion(3, "tensor worked example exact")
def test_tensor_example_and_dual():
    ab = tensor(s3_p754_fixture(), s3_p976_fixture())
    rep = compute_report(ab)
    assert rep.gamma == PiecewiseLinear.from_points(
        [(0, F(-2)), (F(1, 3), F(-2, 3)), (1, F(0))]
    )
    assert rep.gimel == PiecewiseLinear.from_points(
        [(0, F(0)), (F(1, 3), F(0)), (1, F(-1, 2))]
    )
    drep = compute_report(dual(ab))
    assert drep.gimel == PiecewiseLinear.zero()


@_criterion(4, "planar diagrams end to end")
def test_sl2_end_to_end():
    expected = {
        UNKNOT_PD: F(0),
        KINK_NEG_PD: F(0),
        KINK_POS_PD: F(0),
        TREFOIL_PD: F(-1),
        format_pd(mirror(parse_pd(TREFOIL_PD))): F(1),
        FIG8_PD: F(0),
    }
    for pd, slope in expected.items():
        rep = compute_report_pd(pd)
        assert check_linear(rep.gimel).holds, pd
        assert rep.gimel.value_at_one() == slope, pd
        # independent check on the full unsimplified cube: the quantum
        # grading of the class equals the pipeline's u invariant
        s, psi = gornik_cocycle_sl2(parse_pd(pd))
        assert u_oracle(s, psi) == rep.u, pd


@_criterion(5, "internal identities")
def test_internal_identities_on_every_report():
    reports = [compute_report(unknot_fixture(3))]
    reports.append(compute_report(pretzel_2m37_fixture(6)))
    reports.append(compute_report(tensor(s3_p754_fixture(), s3_p976_fixture())))
    reports.extend(compute_report_pd(pd) for pd in PD_CORPUS)
    for rep in reports:
        n = rep.n
        assert rep.gimel(0) == 0
        assert rep.gamma(0) == -(n - 1)
        assert rep.u == rep.gamma(1)
        assert rep.value1 == rep.s_invariant == F(rep.u - n + 1, 2 * (n - 1))
        assert rep.slope0 == F(rep.r - (n - 1), 2 * (n - 1))


@_criterion(6, "structural theorems")
def test_theorem_suite():
    pairs = [
        (s3_p754_fixture(), s3_p976_fixture()),
        (s3_p754_fixture(), s3_p754_fixture()),
        (unknot_fixture(4), pretzel_2m37_fixture(4)),
        (pretzel_2m37_fixture(3), s3_p754_fixture()),
        (pretzel_2m37_fixture(3), dual(pretzel_2m37_fixture(3))),
    ]
    tref = gauss_simplify(build_equivariant_sl2(parse_pd(TREFOIL_PD)))
    fig8 = gauss_simplify(build_equivariant_sl2(parse_pd(FIG8_PD)))
    pairs.append((tref, fig8))
    pairs.append((tref, tref))
    for a, b in pairs:
        ra = compute_report(a)
        rb = compute_report(b)
        rab = compute_report(tensor(a, b))
        for rep in (ra, rb, rab):
            assert check_cone(rep.gimel).holds
            assert check_gap(rep.gimel).holds
        v = check_quasi(ra.gimel, rb.gimel, rab.gimel)
        assert v.holds, (v.worst_t, v.slack)
        assert rab.value1 >= ra.value1 + rb.value1


@_criterion(7, "sweep against pointwise oracle")
def test_sweep_against_random_points():
    rng = random.Random(20240823)
    cases = [
        unknot_fixture(3),
        pretzel_2m37_fixture(4),
        tensor(s3_p754_fixture(), s3_p976_fixture()),
    ]
    for c in cases:
        s = specialize_for_sweep(c)
        psi = gornik_class_fixture(s)
        g = compute_report(c).gamma
        for _ in range(50):
            t = F(rng.randint(0, 64), 64)
            assert g(t) == gamma_at(s, psi, t) == gamma_oracle(s, psi, t)


@_criterion(8, "planted summand recovery")
def test_planted_summand_recovery():
    rng = random.Random(20240823)
    base = pretzel_2m37_fixture(3)
    clean = compute_report(base)
    padded = base
    for _ in range(5):
        padded = block_sum(
            padded,
            acyclic_pair(base.ctx, rng.randrange(-6, 7), rng.randrange(-2, 3)),
        )
    sn = extract_sn(split_components(gauss_simplify(padded)))
    assert compute_report(sn).gimel == clean.gimel
    assert compute_report(padded).gimel == clean.gimel


@_criterion(9, "structural validation")
def test_everything_validates():
    cs = [
        unknot_fixture(2),
        unknot_fixture(6),
        pretzel_2m37_fixture(8),
        s3_p754_fixture(),
        s3_p976_fixture(),
        tensor(s3_p754_fixture(), s3_p976_fixture()),
        dual(s3_p976_fixture()),
        evaluate(pretzel_2m37_fixture(3), standard_potential(3)),
    ]
    cs.extend(build_equivariant_sl2(parse_pd(pd)) for pd in PD_CORPUS)
    for pd in PD_CORPUS:
        cs.extend(decompose(build_equivariant_sl2(parse_pd(pd)))[0])
    for c in cs:
        rep = validate(c)
        assert rep.ok, rep.failures


@_criterion(10, "slice genus bounds")
def test_genus_bounds():
    rep5 = compute_report(pretzel_2m37_fixture(5))
    assert rep5.genus_bound == F(3, 2) and rep5.genus_bound_ceil == 2
    ab = compute_report(tensor(s3_p754_fixture(), s3_p976_fixture()))
    assert ab.genus_bound > 0
    assert compute_report_pd(TREFOIL_PD).genus_bound == 1
    assert compute_report_pd(UNKNOT_PD).genus_bound == 0
