import itertools
import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from conftest import (
    FIG8_PD,
    TREFOIL_PD,
    _nullspace,
    class_membership_oracle,
    cohomology_dimension,
    gamma_oracle,
    gornik_cocycle_sl2,
    r_oracle,
    s_general_reference,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import gimel.filtration
import gimel.linalg
from gimel.cli import fixture_from_dict
from gimel.complexes import GradedFreeComplex, dual, evaluate, tensor
from gimel.cube import build_equivariant_sl2, mirror, parse_pd
from gimel.errors import InternalError, MalformedInputError, NondegeneracyError
from gimel.filtration import (
    expand,
    gamma_at,
    gamma_sweep,
    gimel_from_gamma,
    gornik_class_fixture,
    invariants_report,
    s_general,
)
from gimel.fixtures import (
    pretzel_2m37_fixture,
    s3_p754_fixture,
    s3_p976_fixture,
    unknot_fixture,
)
from gimel.pipeline import compute_report, specialize_for_sweep
from gimel.pl import PiecewiseLinear
from gimel.ring import constant, specialized_ctx, standard_potential
from gimel.simplify import gauss_simplify


def _scalar(c, n=None):
    n = n or c.ctx.n
    return expand(evaluate(c, standard_potential(n)))


def _tensor_example():
    ab = tensor(s3_p754_fixture(), s3_p976_fixture())
    s = _scalar(ab)
    return s, gornik_class_fixture(s)


def _with_class(c):
    s = _scalar(c)
    return s, gornik_class_fixture(s)


# Scalar complexes with their classes: a fixture tensor, a fixture of the
# family, and full n = 2 cubes, whose d^-1 has many columns.
_ORACLE_CASES = [
    _tensor_example(),
    _with_class(pretzel_2m37_fixture(4)),
    gornik_cocycle_sl2(mirror(parse_pd(TREFOIL_PD))),
    gornik_cocycle_sl2(parse_pd(FIG8_PD)),
]


def _triple_tensor():
    ab = tensor(s3_p754_fixture(), s3_p976_fixture())
    return _with_class(tensor(ab, s3_p976_fixture()))


def _bundled():
    """The scalar complex and class of each fixture bundled in gimel/data,
    as ``gimel compute --fixture`` builds them."""
    for path in sorted((Path(gimel.__file__).parent / "data").glob("*.json")):
        with open(path, "r", encoding="utf-8") as fh:
            s = specialize_for_sweep(fixture_from_dict(json.load(fh)))
        yield s, gornik_class_fixture(s)


def _breakpoints_and_midpoints(s):
    tags = sorted({(m.j, m.k) for m in s.basis[0]})
    ts = {F(0), F(1)}
    for (j1, k1), (j2, k2) in itertools.combinations(tags, 2):
        if j1 + k1 != j2 + k2:
            t = F(k1 - k2, (j1 + k1) - (j2 + k2))
            if 0 < t < 1:
                ts.add(t)
    ts = sorted(ts)
    return ts + [(a + b) / 2 for a, b in zip(ts, ts[1:])]


def test_expand_tags_family_n5():
    s = _scalar(pretzel_2m37_fixture(5))
    assert s.dim(0) == 10  # two generators, five monomials each
    # generator at q-label -2n: top monomial sits at (j, k) = (-n-1, n-1)
    tags = {(m.gen, m.a): (m.j, m.k) for m in s.basis[0]}
    assert tags[(0, 4)] == (-6, 4)
    assert tags[(1, 0)] == (-12, 0)


def test_expand_tags_unknot():
    for n in (2, 3, 5):
        s = _scalar(unknot_fixture(n))
        assert s.dim(0) == n
        assert (s.basis[0][n - 1].j, s.basis[0][n - 1].k) == (n - 1, n - 1)


def test_expand_tensor_q0_monomial():
    s, _ = _tensor_example()
    # a q^0 generator carries x^2 at (j, k) = (2, 2), blended value 4t - 2
    m = next(m for m in s.basis[0] if m.j == 2 and m.a == 2)
    assert m.k == 2
    t = F(1, 3)
    assert t * (m.j + m.k) - m.k == 4 * t - 2


def test_cohomology_dimensions():
    s = _scalar(s3_p754_fixture())
    assert cohomology_dimension(s, 0) == 3  # rank 2n - dim of im(d^-1)


def test_gornik_class_family():
    for n in (3, 5):
        s = _scalar(pretzel_2m37_fixture(n))
        psi = gornik_class_fixture(s)
        nz = [(s.basis[0][i], v) for i, v in enumerate(psi) if v]
        assert len(nz) == 1
        m, v = nz[0]
        assert (m.gen, m.a, v) == (0, n - 1, 1)


def test_gornik_class_tensor():
    s, psi = _tensor_example()
    nz = [(s.basis[0][i], v) for i, v in enumerate(psi) if v]
    assert [(m.gen, m.a, v) for m, v in nz] == [(1, 2, F(1)), (2, 2, F(-8))]


def test_gornik_class_unknot():
    for n in (2, 4):
        s = _scalar(unknot_fixture(n))
        psi = gornik_class_fixture(s)
        assert [v for v in psi if v] == [1]


def test_distinguished_class_is_not_a_coboundary():
    """With no admissible coordinates the membership oracle's span is the
    coboundaries alone (``_nullspace`` of zero columns is empty), so it
    asks whether psi is a coboundary."""
    assert _nullspace([[], [], []], 0) == []
    cases = list(_bundled()) + _ORACLE_CASES + [_triple_tensor()]
    assert len(cases) == 13 + len(_ORACLE_CASES) + 1
    for s, psi in cases:
        assert class_membership_oracle(s, psi, []) is False


def test_gamma_at_matches_oracle_at_candidates():
    for s, psi in _ORACLE_CASES:
        assert s.dim(-1) or s.dim(1)
        for t in _breakpoints_and_midpoints(s):
            assert gamma_at(s, psi, t) == gamma_oracle(s, psi, t), t


def test_gamma_at_unknot():
    for n in (2, 3, 4):
        s = _scalar(unknot_fixture(n))
        psi = gornik_class_fixture(s)
        for t in (F(0), F(1, 3), F(1, 2), F(1)):
            assert gamma_at(s, psi, t) == (n - 1) * (2 * t - 1)


def test_gamma_at_tensor():
    s, psi = _tensor_example()
    assert gamma_at(s, psi, F(1, 2)) == F(-1, 2)
    assert gamma_at(s, psi, F(0)) == -2
    assert gamma_at(s, psi, F(1)) == 0


def test_gamma_at_family_endpoints():
    s = _scalar(pretzel_2m37_fixture(5))
    psi = gornik_class_fixture(s)
    assert gamma_at(s, psi, F(0)) == -4


def test_gamma_at_matches_oracle():
    s, psi = _tensor_example()
    for t in (F(0), F(1, 7), F(1, 3), F(2, 5), F(3, 4), F(1)):
        assert gamma_at(s, psi, t) == gamma_oracle(s, psi, t)


def test_gamma_scale_invariance():
    s, psi = _tensor_example()
    scaled = tuple(F(5, 3) * v for v in psi)
    for t in (F(0), F(1, 3), F(1, 2), F(1)):
        assert gamma_at(s, scaled, t) == gamma_at(s, psi, t)


def test_gamma_sweep_tensor():
    s, psi = _tensor_example()
    g = gamma_sweep(s, psi)
    assert g.breakpoints == (F(0), F(1, 3), F(1))
    assert (g(0), g(F(1, 3)), g(1)) == (F(-2), F(-2, 3), F(0))
    gm = gimel_from_gamma(g, 3)
    assert gm(F(1, 3)) == 0 and gm(F(2, 3)) == F(-1, 4) and gm(1) == F(-1, 2)


def test_gamma_sweep_matches_pointwise():
    for c in (unknot_fixture(3), pretzel_2m37_fixture(4)):
        s = _scalar(c)
        psi = gornik_class_fixture(s)
        g = gamma_sweep(s, psi)
        for t in (F(0), F(1, 5), F(1, 2), F(7, 9), F(1)):
            assert g(t) == gamma_at(s, psi, t)


def test_gamma_sweep_matches_oracle():
    for s, psi in _ORACLE_CASES + [_triple_tensor()]:
        g = gamma_sweep(s, psi)
        for t in _breakpoints_and_midpoints(s):
            assert g(t) == gamma_oracle(s, psi, t), t


@pytest.mark.parametrize("pd", [TREFOIL_PD, FIG8_PD])
def test_connected_sum_with_the_reverse_mirror_is_slice(pd):
    """K # -K is slice, so at n = 2 its gimel is 0.  The trefoil and the
    figure eight are invertible, so -K is the mirror that ``dual`` gives."""
    k = build_equivariant_sl2(parse_pd(pd))
    rep = compute_report(tensor(k, dual(k)))
    assert rep.gimel == PiecewiseLinear.zero()
    assert rep.value1 == 0


# Candidate lists that a faulty enumeration could give on the tensor
# example, whose only kink is at t = 1/3, each caught by one part of the
# sweep's certificate: the kink dropped (neighbouring lines disagree at
# 1/4), one interval from 0 across the kink (its line is off gamma(0)), and
# nothing past the kink (the last line is off gamma(1)).
_FAULTY_CANDIDATES = [
    [F(0), F(1, 5), F(1, 4), F(1, 2), F(1)],
    [F(0), F(3, 4), F(1)],
    [F(0), F(3, 5)],
]


@pytest.mark.parametrize("faulty", _FAULTY_CANDIDATES)
def test_gamma_sweep_certificate_catches_a_missed_kink(monkeypatch, faulty):
    s, psi = _tensor_example()
    tags = sorted({(m.j, m.k) for m in s.basis[0]})
    ts = [F(0), F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(1)]
    assert gimel.filtration._candidates(tags) == ts
    monkeypatch.setattr(gimel.filtration, "_candidates", lambda tags: list(faulty))
    with pytest.raises(InternalError):
        gamma_sweep(s, psi)


def test_gamma_sweep_reduces_once_per_interval(monkeypatch):
    """Five intervals and the two end pins: seven reductions, where a sweep
    that reduces at every candidate and midpoint makes eleven."""
    s, psi = _tensor_example()
    calls = [0]
    rref = gimel.linalg.rref

    def counting(*args, **kwargs):
        calls[0] += 1
        return rref(*args, **kwargs)

    monkeypatch.setattr(gimel.linalg, "rref", counting)
    gamma_sweep(s, psi)
    assert calls[0] == 5 + 2


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, len(_ORACLE_CASES) - 1),
    st.fractions(min_value=0, max_value=1, max_denominator=60),
)
def test_gamma_at_matches_oracle_at_random_t(case, t):
    s, psi = _ORACLE_CASES[case]
    assert gamma_at(s, psi, t) == gamma_oracle(s, psi, t)


def test_gimel_from_gamma_normalization():
    g = PiecewiseLinear.from_points([(0, -2), (1, 2)])
    assert gimel_from_gamma(g, 3).is_linear()
    assert gimel_from_gamma(g, 3)(F(1, 2)) == 0


def test_invariants_report_identities():
    s, psi = _tensor_example()
    g = gamma_sweep(s, psi)
    rep = invariants_report(s, psi, g, gimel_from_gamma(g, 3), name="ab")
    assert rep.u == 0 and rep.value1 == rep.s_invariant == F(-1, 2)
    assert rep.slope0 == 0
    # slope identity at 0: slope0 == (r - (n-1)) / (2(n-1))
    assert rep.r == 2
    assert rep.genus_bound == F(1, 2) and rep.genus_bound_ceil == 1


def test_invariants_report_r_matches_oracle():
    cases = _ORACLE_CASES + [
        gornik_cocycle_sl2(parse_pd(TREFOIL_PD)),
        _with_class(unknot_fixture(3)),
    ]
    for s, psi in cases:
        g = gamma_sweep(s, psi)
        rep = invariants_report(s, psi, g, gimel_from_gamma(g, s.n))
        assert rep.r == r_oracle(s, psi)


def test_invariants_report_rejects_class_off_x_top():
    # unknot n = 2: the class of g has no representative on x g alone
    s = _scalar(unknot_fixture(2))
    psi = (F(1), F(0))
    assert s.basis[0][0].a == 0
    g = gamma_sweep(s, psi)
    with pytest.raises(InternalError, match="infeasible even with full support"):
        invariants_report(s, psi, g, gimel_from_gamma(g, 2))


def test_rejects_nonstandard_potential():
    c = evaluate(unknot_fixture(2), (F(0), F(-4)))  # x^2 - 4
    s = expand(c)
    psi = (F(1), F(0))
    with pytest.raises(MalformedInputError):
        gamma_at(s, psi, F(1, 2))
    with pytest.raises(MalformedInputError):
        gamma_sweep(s, psi)
    c = evaluate(pretzel_2m37_fixture(3), (0, -1, 0))  # x^3 - x
    with pytest.raises(MalformedInputError, match=re.escape("the potential x^n - x^{n-1}")):
        compute_report(c)


def test_rejects_t_outside_unit_interval():
    s = _scalar(unknot_fixture(2))
    psi = gornik_class_fixture(s)
    for t in (F(-1, 2), F(3, 2)):
        with pytest.raises(MalformedInputError):
            gamma_at(s, psi, t)


def test_rejects_a_class_vector_of_the_wrong_length():
    s = _scalar(unknot_fixture(2))
    psi = gornik_class_fixture(s)
    assert len(psi) == s.dim(0) == 2
    g = gamma_sweep(s, psi)
    gimel = gimel_from_gamma(g, 2)
    for bad in (psi + (F(1),), psi[:1], ()):
        with pytest.raises(MalformedInputError):
            gamma_at(s, bad, F(1, 2))
        with pytest.raises(MalformedInputError):
            gamma_sweep(s, bad)
        with pytest.raises(MalformedInputError):
            invariants_report(s, bad, g, gimel)


def test_rejects_a_class_vector_that_is_not_a_nonzero_cocycle():
    """The zero vector, a chain with d^0 != 0 and a coboundary all have the
    right length; none is a class."""
    s, psi = _tensor_example()
    g = gamma_sweep(s, psi)
    gimel = gimel_from_gamma(g, 3)
    zero = (F(0),) * s.dim(0)
    first = (F(1),) + zero[1:]
    assert s.cols[0][0]  # d^0 of the first basis vector
    column = s.cols[-1][0]  # d^-1 of the first basis vector of C^-1
    assert column
    coboundary = tuple(column.get(r, F(0)) for r in range(s.dim(0)))
    for bad in (zero, first, coboundary):
        with pytest.raises(MalformedInputError):
            gamma_at(s, bad, F(1, 2))
        with pytest.raises(MalformedInputError):
            gamma_sweep(s, bad)
        with pytest.raises(MalformedInputError):
            invariants_report(s, bad, g, gimel)


# Specialized n = 2 complexes at x^2 - x whose eigenspaces of x on H^0 are
# not lines: two cycles (dimension 2 at both roots), and one acyclic pair.
def _degenerate_complexes():
    ctx = specialized_ctx(2, standard_potential(2))
    one = constant(ctx, 1)
    yield GradedFreeComplex.build(ctx, {0: [0, 0]}, {})
    yield GradedFreeComplex.build(ctx, {0: [0], 1: [0]}, {0: {0: {0: one}}})


def test_degenerate_eigenspaces_are_refused():
    for c in _degenerate_complexes():
        s = expand(c)
        with pytest.raises(NondegeneracyError):
            gornik_class_fixture(s)
        for alpha in (1, 0):
            with pytest.raises(NondegeneracyError):
                s_general(s, alpha)
            with pytest.raises(NondegeneracyError):
                s_general_reference(s, alpha)


def test_s_general_standard_matches_value1():
    s, psi = _tensor_example()
    assert s_general(s, 1) == F(-1, 2)
    s5 = _scalar(pretzel_2m37_fixture(5))
    assert s_general(s5, 1) == F(-6, 4)


def test_s_general_other_potentials():
    # x^2 - 1 on the unknot: both roots give 0
    for alpha in (1, -1):
        s = expand(evaluate(unknot_fixture(2), (F(-1), F(0))))
        assert s_general(s, alpha) == 0
    # x^3 - x on the unknot
    s = expand(evaluate(unknot_fixture(3), (F(0), F(-1), F(0))))
    assert s_general(s, 1) == 0


def _eliminated(d):
    return lambda: gauss_simplify(build_equivariant_sl2(d))


_KNOTS = (
    ("3_1", parse_pd(TREFOIL_PD)),
    ("m3_1", mirror(parse_pd(TREFOIL_PD))),
    ("4_1", parse_pd(FIG8_PD)),
)
# (complex, potential as the coefficients of x^0 .. x^{n-1}, roots)
S_GENERAL_CASES = {
    "P754 x P976, x^3 - x^2": (
        lambda: tensor(s3_p754_fixture(), s3_p976_fixture()), standard_potential(3), [1]
    ),
    "P754 x P976, x^3 - x": (
        lambda: tensor(s3_p754_fixture(), s3_p976_fixture()), (0, -1, 0), [1, -1]
    ),
    **{
        f"p2m37 n={n}": (lambda n=n: pretzel_2m37_fixture(n), standard_potential(n), [1])
        for n in range(3, 7)
    },
    "unknot, x^2 - 1": (lambda: unknot_fixture(2), (-1, 0), [1, -1]),
    **{
        f"{name}, x^2 - x": (_eliminated(d), (0, -1), [0, 1]) for name, d in _KNOTS
    },
    **{
        f"{name}, x^2 - 1": (_eliminated(d), (-1, 0), [1, -1]) for name, d in _KNOTS
    },
}


@pytest.mark.parametrize("name", sorted(S_GENERAL_CASES))
def test_s_general_matches_dense_reference(name):
    make, potential, roots = S_GENERAL_CASES[name]
    s = expand(evaluate(make(), potential))
    for alpha in roots:
        assert s_general(s, alpha) == s_general_reference(s, alpha), alpha


def test_s_general_rejects_bad_root():
    s = _scalar(unknot_fixture(2))
    from gimel.errors import InvalidRootError

    with pytest.raises(InvalidRootError, match="not a root"):
        s_general(s, 7)
    # 0 is a double root of x^2
    with pytest.raises(InvalidRootError, match="multiple root"):
        s_general(expand(evaluate(unknot_fixture(2), (0, 0))), 0)


def test_gamma_at_and_s_general_reject_floats():
    s, psi = _tensor_example()
    with pytest.raises(TypeError):
        gamma_at(s, psi, 0.5)
    with pytest.raises(TypeError):
        s_general(s, 1.0)
    with pytest.raises(TypeError):
        gamma_at(s, tuple(float(v) for v in psi), F(1, 2))
    assert gamma_at(s, psi, F(1, 2)) == F(-1, 2)
