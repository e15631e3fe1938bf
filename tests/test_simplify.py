import random

import pytest
from conftest import isomorphic_up_to_scaling

from gimel.complexes import block_sum, euler, validate
from gimel.errors import DecompositionError, InvalidRootError
from gimel.filtration import cohomology_dimension
from gimel.fixtures import (
    acyclic_pair,
    s3_p754_fixture,
    s3_p976_fixture,
    unknot_fixture,
)
from gimel.ring import standard_potential
from gimel.simplify import (
    extract_sn,
    gauss_simplify,
    reduced_complex,
    split_components,
)


def _no_unit_entries(c):
    for i, _ in c.diffs:
        for row in c.diff(i):
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


def test_reduced_complex_dimensions_and_cohomology():
    ab = s3_p754_fixture()
    rc = reduced_complex(ab, standard_potential(3), 1)
    assert {i: rc.dim(i) for i in rc.basis} == {-1: 1, 0: 2}
    assert cohomology_dimension(rc, 0) == 1
    # quantum tags equal the generators' q-labels
    assert [m.j for m in rc.basis[0]] == [0, 0]
    assert [m.j for m in rc.basis[-1]] == [4]


def test_reduced_complex_unknot():
    for n in (2, 4):
        rc = reduced_complex(unknot_fixture(n), standard_potential(n), 1)
        assert rc.dim(0) == 1 and cohomology_dimension(rc, 0) == 1


def test_reduced_complex_rejects_bad_root():
    c = unknot_fixture(3)
    with pytest.raises(InvalidRootError):
        reduced_complex(c, standard_potential(3), 2)  # not a root
    with pytest.raises(InvalidRootError):
        reduced_complex(c, standard_potential(3), 0)  # multiple root
