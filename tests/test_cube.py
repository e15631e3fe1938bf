import pytest
from conftest import (
    FIG8_PD,
    KINK_NEG_PD,
    KINK_POS_PD,
    TREFOIL_PD,
    UNKNOT_PD,
    gornik_cocycle_sl2,
    oriented_vertex,
)

from gimel.complexes import validate
from gimel.cube import (
    build_equivariant_sl2,
    format_pd,
    mirror,
    parse_pd,
    resolve,
)
from gimel.errors import MalformedInputError


def test_parse_trefoil():
    d = parse_pd(TREFOIL_PD)
    assert len(d.crossings) == 3
    assert d.signs == (1, 1, 1)
    assert d.writhe == 3
    assert d.basepoint == 1


def test_parse_empty_and_basepoint():
    d = parse_pd(UNKNOT_PD)
    assert d.crossings == () and d.basepoint == 1
    d2 = parse_pd("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3],basepoint=4]")
    assert d2.basepoint == 4


def test_parse_kinks():
    # one-crossing kinks: the congruence rule degenerates and edge roles
    # decide; X[1,1,2,2] has the over-strand exiting at slot b
    assert parse_pd(KINK_NEG_PD).writhe == -1
    assert parse_pd(KINK_POS_PD).writhe == 1


def test_parse_fig8_signs():
    d = parse_pd(FIG8_PD)
    assert sorted(d.signs) == [-1, -1, 1, 1]
    assert d.writhe == 0


def test_parse_rejects():
    with pytest.raises(MalformedInputError):
        parse_pd("X[1,2,3,4]")
    with pytest.raises(MalformedInputError):
        parse_pd("PD[X[1,1,1,2]]")  # label multiplicity 3
    with pytest.raises(MalformedInputError):
        parse_pd("PD[X[1,3,2,4]]")  # out of range labels for 1 crossing
    with pytest.raises(MalformedInputError):
        parse_pd("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3],basepoint=9]")
    with pytest.raises(MalformedInputError):
        # two-component link: Hopf link
        parse_pd("PD[X[1,3,2,4],X[3,1,4,2]]")


def test_mirror():
    d = parse_pd(TREFOIL_PD)
    m = mirror(d)
    assert m.writhe == -3
    assert mirror(m).writhe == 3
    assert format_pd(mirror(parse_pd(UNKNOT_PD))) == "PD[]"
    assert mirror(mirror(d)) == d


def test_resolve_circle_counts():
    d = parse_pd(TREFOIL_PD)
    assert len(resolve(d, oriented_vertex(d)).circles) == 2
    assert len(resolve(d, (1, 1, 1)).circles) == 3
    u = parse_pd(UNKNOT_PD)
    assert len(resolve(u, ()).circles) == 1


def test_resolve_basepoint_circle():
    d = parse_pd(TREFOIL_PD)
    st = resolve(d, oriented_vertex(d))
    assert 1 in st.circles[st.basepoint_circle]


def test_build_unknot():
    c = build_equivariant_sl2(parse_pd(UNKNOT_PD))
    assert c.modules == ((0, (0,)),)
    assert validate(c).ok


def test_build_trefoil_ranks():
    c = build_equivariant_sl2(parse_pd(TREFOIL_PD))
    assert [(i, c.rank(i)) for i in c.degrees()] == [(0, 2), (1, 3), (2, 6), (3, 4)]
    assert validate(c).ok


def test_build_validates_on_corpus():
    for pd in (KINK_NEG_PD, KINK_POS_PD, FIG8_PD):
        c = build_equivariant_sl2(parse_pd(pd))
        rep = validate(c)
        assert rep.ok, rep.failures


def test_gornik_cocycle_unknot_tag():
    s, psi = gornik_cocycle_sl2(parse_pd(UNKNOT_PD))
    nz = [i for i, v in enumerate(psi) if v]
    assert len(nz) == 1
    m = s.basis[0][nz[0]]
    assert (m.j, m.k) == (1, 1)


def test_gornik_cocycle_corpus_checks():
    # construction already self-checks cocycle / non-coboundary / eigenvector
    for pd in (UNKNOT_PD, KINK_NEG_PD, KINK_POS_PD, TREFOIL_PD, FIG8_PD):
        s, psi = gornik_cocycle_sl2(parse_pd(pd))
        assert any(v != 0 for v in psi)
        # supported on x-exponent 1 monomials of the oriented vertex
        assert all(s.basis[0][i].a == 1 for i, v in enumerate(psi) if v)


SEVEN_1_PD = (
    "PD[X[1,8,2,9],X[3,10,4,11],X[5,12,6,13],X[7,14,8,1],X[9,2,10,3],"
    "X[11,4,12,5],X[13,6,14,7]]"
)


def test_cube_assembly_count_does_not_grow(poly_builds):
    """Every edge-map term is a shared coefficient, assigned: the Poly
    constructions of a build do not depend on the size of the cube."""
    small, large = parse_pd(TREFOIL_PD), parse_pd(SEVEN_1_PD)
    build_equivariant_sl2(small)  # warm-up
    counts = []
    for d in (small, large):
        poly_builds[0] = 0
        build_equivariant_sl2(d)
        counts.append(poly_builds[0])
    assert counts[0] == counts[1]
