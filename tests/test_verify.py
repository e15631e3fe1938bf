from fractions import Fraction as F

import pytest
from conftest import PD_CORPUS, TREFOIL_PD

from gimel.complexes import dual, tensor
from gimel.fixtures import (
    pretzel_2m37_fixture,
    s3_p754_fixture,
    s3_p976_fixture,
    unknot_fixture,
)
from gimel.pipeline import compute_report, compute_report_pd
from gimel.pl import PiecewiseLinear
from gimel.verify import check_cone, check_gap, check_linear, check_quasi, genus_bound


def _reports():
    out = [compute_report(unknot_fixture(3), name="unknot")]
    out.append(compute_report(pretzel_2m37_fixture(5), name="family5"))
    out.append(
        compute_report(tensor(s3_p754_fixture(), s3_p976_fixture()), name="ab")
    )
    out.extend(compute_report_pd(pd) for pd in PD_CORPUS)
    return out


def test_cone_and_gap_hold_on_computed_reports():
    for rep in _reports():
        assert check_cone(rep.gimel).holds, rep.name
        assert check_gap(rep.gimel).holds, rep.name


def test_cone_fails_on_corrupted_curve():
    rep = compute_report(tensor(s3_p754_fixture(), s3_p976_fixture()))
    pts = [(t, rep.gimel(t)) for t in rep.gimel.breakpoints]
    bad = PiecewiseLinear.from_points(
        [(t, v - 1 if t == F(1, 3) else v) for t, v in pts]
    )
    verdict = check_cone(bad)
    assert not verdict.holds
    assert verdict.slack < 0


def test_quasi_additivity_on_tensor_pair():
    a = compute_report(s3_p754_fixture())
    b = compute_report(s3_p976_fixture())
    ab = compute_report(tensor(s3_p754_fixture(), s3_p976_fixture()))
    verdict = check_quasi(a.gimel, b.gimel, ab.gimel)
    assert verdict.holds, (verdict.worst_t, verdict.slack)


def test_additivity_with_unknot_is_exact():
    b = compute_report(pretzel_2m37_fixture(4))
    u = compute_report(unknot_fixture(4))
    ab = compute_report(tensor(unknot_fixture(4), pretzel_2m37_fixture(4)))
    verdict = check_quasi(u.gimel, b.gimel, ab.gimel)
    assert verdict.holds
    assert (ab.gimel - u.gimel - b.gimel)(F(1, 2)) == 0


def test_superadditivity_at_one_against_dual():
    c = pretzel_2m37_fixture(3)
    a = compute_report(c)
    b = compute_report(dual(c))
    ab = compute_report(tensor(c, dual(c)))
    assert ab.value1 >= a.value1 + b.value1
    assert check_quasi(a.gimel, b.gimel, ab.gimel).holds


def test_linearity():
    for pd in PD_CORPUS:
        assert check_linear(compute_report_pd(pd).gimel).holds
    fam = compute_report(pretzel_2m37_fixture(5))
    verdict = check_linear(fam.gimel)
    assert not verdict.holds
    assert verdict.slack < 0


def test_genus_bound_values():
    assert genus_bound(compute_report(pretzel_2m37_fixture(5)).gimel) == F(3, 2)
    assert genus_bound(compute_report_pd(TREFOIL_PD).gimel) == 1
    assert genus_bound(compute_report(unknot_fixture(2)).gimel) == 0
    ab = compute_report(tensor(s3_p754_fixture(), s3_p976_fixture()))
    assert genus_bound(ab.gimel) == F(1, 2)


def test_piecewise_linear_rejects_floats():
    f = PiecewiseLinear.from_points([(0, 0), (1, F(1, 10))])
    with pytest.raises(TypeError):
        PiecewiseLinear.from_points([(0, 0), (1, 0.1)])
    with pytest.raises(TypeError):
        PiecewiseLinear.from_points([(0.0, 0), (1, 0)])
    with pytest.raises(TypeError):
        PiecewiseLinear.linear(0.5)
    with pytest.raises(TypeError):
        PiecewiseLinear.linear(1, 0.5)
    with pytest.raises(TypeError):
        f(0.5)
    with pytest.raises(TypeError):
        f * 0.5
    with pytest.raises(TypeError):
        0.5 * f
    assert f(F(1, 2)) == F(1, 20)
    assert (2 * f).values == (0, F(1, 5)) == PiecewiseLinear.linear(F(1, 5)).values
