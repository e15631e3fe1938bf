import json
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from conftest import (
    FIG8_PD,
    KINK_NEG_PD,
    KINK_POS_PD,
    PD_CORPUS,
    TREFOIL_PD,
    UNKNOT_PD,
    gauss_reference,
    isomorphic_up_to_scaling,
    split_reference,
)

import gimel
from gimel.cli import fixture_from_dict
from gimel.complexes import (
    GradedFreeComplex,
    block_sum,
    dense_rows,
    euler,
    tensor,
    validate,
)
from gimel.cube import build_equivariant_sl2, mirror, parse_pd
from gimel.errors import DecompositionError
from gimel.pipeline import compute_report, specialize_for_sweep
from gimel.fixtures import (
    acyclic_pair,
    s3_p754_fixture,
    s3_p976_fixture,
    unknot_fixture,
)
from gimel.ring import equivariant_ctx, parse_poly, specialized_ctx, standard_potential
from gimel.simplify import (
    extract_sn,
    gauss_simplify,
    split_components,
)


def _no_unit_entries(c):
    for i, _ in c.diffs:
        for row in dense_rows(c, i):
            for e in row:
                if len(e.terms) == 1 and not any(e.terms[0][0]) :
                    return False
    return True


def test_gauss_eliminates_acyclic_pair():
    c = acyclic_pair(s3_p754_fixture().ctx, 2, 0)
    s = gauss_simplify(c)
    assert s.degrees() == []


def test_gauss_preserves_euler_and_validity():
    base = s3_p754_fixture()
    padded = block_sum(base, acyclic_pair(base.ctx, 6, 1))
    s = gauss_simplify(padded)
    assert euler(s) == euler(padded) == 1
    assert validate(s).ok
    assert _no_unit_entries(s)
    assert s == base  # nothing to cancel inside the fixture itself


GAUSS_PD = {
    "unknot": UNKNOT_PD,
    "kink-": KINK_NEG_PD,
    "kink+": KINK_POS_PD,
    "3_1": TREFOIL_PD,
    "4_1": FIG8_PD,
    # Knot Atlas diagrams
    "5_1": "PD[X[1,6,2,7],X[3,8,4,9],X[5,10,6,1],X[7,2,8,3],X[9,4,10,5]]",
    "5_2": "PD[X[1,4,2,5],X[3,8,4,9],X[5,10,6,1],X[9,6,10,7],X[7,2,8,3]]",
}


def _cube(pd):
    return build_equivariant_sl2(parse_pd(pd))


def _padded_unknot():
    c = unknot_fixture(2)
    for label, degree in ((0, -1), (2, 0), (-2, 1), (4, -2)):
        c = block_sum(c, acyclic_pair(c.ctx, label, degree))
    return c


def _rescaled_fig8():
    """The figure-eight cube in the basis (k + 1) * g_k of each degree, so
    that its units are not all +-1."""
    c = _cube(FIG8_PD)
    diffs = {
        i: [
            [e * Fraction(col + 1, r + 1) for col, e in enumerate(row)]
            for r, row in enumerate(dense_rows(c, i))
        ]
        for i, _ in c.diffs
    }
    return GradedFreeComplex.from_rows(c.ctx, dict(c.modules), diffs)


def _trefoil_sum():
    d = parse_pd(TREFOIL_PD)
    return tensor(build_equivariant_sl2(d), build_equivariant_sl2(mirror(d)))


GAUSS_INPUTS = {
    **{k: partial(_cube, pd) for k, pd in GAUSS_PD.items()},
    "4_1_rescaled": _rescaled_fig8,
    "3_1#m3_1": _trefoil_sum,
    "padded_unknot": _padded_unknot,
}


@pytest.mark.parametrize("name", sorted(GAUSS_INPUTS))
def test_gauss_matches_cost_rule_reference(name):
    c = GAUSS_INPUTS[name]()
    new, old = gauss_simplify(c), gauss_reference(c)
    assert new.degrees() == old.degrees()
    for i in new.degrees():
        assert sorted(new.labels(i)) == sorted(old.labels(i))
    assert _no_unit_entries(new) and validate(new).ok
    assert isomorphic_up_to_scaling(
        extract_sn(split_components(new)), extract_sn(split_components(old))
    )


SWEEP_INPUTS = {
    **{k: partial(_cube, pd) for k, pd in GAUSS_PD.items() if pd in PD_CORPUS},
    "4_1_rescaled": _rescaled_fig8,
    "P754xP976": lambda: tensor(s3_p754_fixture(), s3_p976_fixture()),
}


def _exact(v) -> bool:
    return type(v) in (int, Fraction)


@pytest.mark.parametrize("name", sorted(SWEEP_INPUTS))
def test_coefficients_stay_exact_up_to_the_sweep(name):
    # Integral coefficients are ints and the rest Fractions; none is a float.
    c = SWEEP_INPUTS[name]()
    g = gauss_simplify(c)
    for _, mat in g.diffs:
        for e in (e for row in mat for e in row):
            assert all(
                type(v) is int or (type(v) is Fraction and v.denominator != 1)
                for _, v in e.terms
            )
    s = specialize_for_sweep(c)
    assert all(_exact(v) for mat in s.mats.values() for row in mat for v in row)
    rep = compute_report(c)
    scalars = [rep.r, rep.u, rep.slope0, rep.value1, rep.s_invariant,
               rep.genus_bound, rep.genus_bound_ceil]
    for f in (rep.gimel, rep.gamma):
        scalars += [*f.breakpoints, *f.values]
    assert all(_exact(v) for v in scalars)


def test_gauss_repeats_passes_for_fill_in_units():
    # Cancelling the unit at (0, 1) turns the entry at (1, 0) into
    # (x + 1) - x = 1, a unit in a column the pass has already left.
    ctx = equivariant_ctx(2)
    x, one, x1 = (parse_poly(t, ctx) for t in ("x", "1", "x + 1"))
    c = GradedFreeComplex.from_rows(ctx, {0: [0, 0], 1: [0, 0]}, {0: [[x, one], [x1, one]]})
    assert gauss_simplify(c).degrees() == [] == gauss_reference(c).degrees()


def test_split_components():
    base = s3_p976_fixture()
    pair = acyclic_pair(base.ctx, 0, 5)
    dec = split_components(block_sum(base, pair))
    assert len(dec.summands) == 2
    assert sorted(euler(s) for s in dec.summands) == [0, 1]


def test_extract_sn_unique_odd():
    base = s3_p754_fixture()
    dec = split_components(block_sum(base, acyclic_pair(base.ctx, 1, 3)))
    sn = extract_sn(dec)
    assert euler(sn) == 1
    assert isomorphic_up_to_scaling(sn, base)


def test_extract_sn_rejects_two_odd():
    base = unknot_fixture(3)
    dec = split_components(block_sum(base, base))
    with pytest.raises(DecompositionError):
        extract_sn(dec)


def test_planted_acyclic_recovery():
    rng = random.Random(20240817)
    for base in (s3_p754_fixture(), s3_p976_fixture()):
        padded = base
        for _ in range(5):
            padded = block_sum(
                padded,
                acyclic_pair(base.ctx, rng.randrange(-6, 7), rng.randrange(-2, 3)),
            )
        sn = extract_sn(split_components(gauss_simplify(padded)))
        assert isomorphic_up_to_scaling(sn, base)


def test_gauss_drops_a_fill_in_product_that_vanishes():
    """Over Q[x]/(x^2 - x), x * (x - 1) = 0: cancelling the unit at (0, 0)
    sends the empty slot (1, 1) to -x * (x - 1) = 0, which stays empty."""
    ctx = specialized_ctx(2, standard_potential(2))
    one, x, x1, z = (parse_poly(t, ctx) for t in ("1", "x", "x - 1", "0"))
    c = GradedFreeComplex.from_rows(ctx, {0: [0, 0], 1: [0, 0]}, {0: [[one, x1], [x, z]]})
    out = gauss_simplify(c)
    assert [(i, out.rank(i)) for i in out.degrees()] == [(0, 1), (1, 1)]
    assert dense_rows(out, 0) == [[z]]
    assert out == gauss_reference(c)


def _bundled(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fixture_from_dict(json.load(fh))


SPLIT_INPUTS = {
    **{
        p.stem: partial(_bundled, p)
        for p in (Path(gimel.__file__).parent / "data").glob("*.json")
    },
    "3_1 eliminated": lambda: gauss_simplify(_cube(TREFOIL_PD)),
    "5_2 eliminated": lambda: gauss_simplify(_cube(GAUSS_PD["5_2"])),
}


@pytest.mark.parametrize("name", sorted(SPLIT_INPUTS))
def test_split_components_matches_dense_reference(name):
    c = SPLIT_INPUTS[name]()
    new, old = split_components(c), split_reference(c)
    assert new.provenance == old.provenance
    assert new.summands == old.summands
