"""Braid closures as a randomised diagram oracle.

The tests convert braid words to PD codes with their own code, which
shares nothing with the package's diagram handling, and check the n = 2
report against Rasmussen's value on one-sign braids ("Khovanov homology
and the slice genus") and against three moves that preserve the knot:
conjugation, a Reidemeister-I kink (a Markov stabilisation) and, with a
sign change, the mirror.  The same closures check two operations on
complexes against diagrams: the dual of a closure's cube is the cube of
its mirror, and the tensor product of two cubes is the cube of the
connected sum, which for two braids is their product on shared strands.

A word is a tuple of nonzero ints on ``strands`` strands: ``i`` is the
positive generator sigma_i, crossing the strands at positions i and i + 1,
and ``-i`` its inverse.
"""

from fractions import Fraction as F
from functools import reduce
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from gimel.complexes import dual, tensor
from gimel.cube import build_equivariant_sl2, parse_pd
from gimel.pipeline import compute_report, compute_report_pd
from gimel.pl import PiecewiseLinear
from gimel.simplify import extract_sn, gauss_simplify, split_components

Word = Tuple[int, ...]


def component(word: Word, strands: int, start: int) -> set:
    """The strand positions on the closure's component through position
    ``start``: its cycle in the permutation of the positions."""
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    cycle, p = {start}, perm[start]
    while p != start:
        cycle.add(p)
        p = perm[p]
    return cycle


def is_knot(word: Word, strands: int) -> bool:
    """Whether the closure has one component."""
    return len(component(word, strands, 0)) == strands


def braid_pd(word: Word, strands: int) -> str:
    """PD code of the closure of ``word``, edges labelled 1, 2, ... in the
    order the knot runs through them.

    The braid runs downward, positions numbered from the left.  At sigma_i
    the strand entering at top-left (position i) leaves at bottom-right;
    it is the over-strand for a positive letter.  Read counterclockwise
    from the incoming under-strand, the crossing is
    X[b_in, a_in, b_out, a_out] for a positive letter and
    X[a_in, b_out, a_out, b_in] for a negative one, with a the strand from
    position i and b the one from position i + 1."""
    assert word and is_knot(word, strands)
    top = list(range(strands))
    cur = list(top)
    fresh = strands
    quads: List[Tuple[int, int, int, int]] = []
    succ = {}
    for g in word:
        i = abs(g) - 1
        a_in, b_in = cur[i], cur[i + 1]
        b_out, a_out = fresh, fresh + 1
        fresh += 2
        cur[i], cur[i + 1] = b_out, a_out
        succ[a_in], succ[b_in] = a_out, b_out
        quads.append((b_in, a_in, b_out, a_out) if g > 0 else (a_in, b_out, a_out, b_in))
    # close the braid: the edge leaving position p at the bottom is the
    # edge entering position p at the top
    alias = dict(zip(cur, top))
    label = {}
    e = top[0]
    while e not in label:
        label[e] = len(label) + 1
        e = alias.get(succ[e], succ[e])
    assert len(label) == 2 * len(word)
    crossings = (tuple(label[alias.get(e, e)] for e in q) for q in quads)
    return "PD[" + ",".join("X[%d,%d,%d,%d]" % q for q in crossings) + "]"


def report(word: Word, strands: int):
    return compute_report_pd(braid_pd(word, strands), name="closure")


def cube(word: Word, strands: int):
    return build_equivariant_sl2(parse_pd(braid_pd(word, strands)))


def shift(word: Word, k: int) -> Word:
    """The word on strands k + 1, k + 2, ... instead of 1, 2, ..."""
    return tuple(g + k if g > 0 else g - k for g in word)


# Braid words of table knots as listed by KnotInfo, with |s|.
TABLE_KNOTS = {
    "3_1": ((1, 1, 1), 2, 2),
    "4_1": ((1, -2, 1, -2), 3, 0),
    "5_1": ((1,) * 5, 2, 4),
    "5_2": ((1, 1, 1, 2, -1, 2), 3, 2),
    "6_1": ((1, 1, 2, -1, -3, 2, -3), 4, 0),
    "7_1": ((1,) * 7, 2, 6),
}


def test_two_strand_closures_are_the_trefoils():
    assert braid_pd((1, 1, 1), 2) == "PD[X[4,1,5,2],X[2,5,3,6],X[6,3,1,4]]"
    assert report((1, 1, 1), 2).value1 == -1
    assert report((-1, -1, -1), 2).value1 == 1
    # sigma_1 sigma_2^-1 sigma_1 sigma_2^-1 closes to the figure eight
    assert report((1, -2, 1, -2), 3).value1 == 0


@st.composite
def knot_words(draw, max_crossings: int, one_sign: bool = False):
    """A free word followed by sigma_i for each i, from 1 up, whose
    positions i - 1 and i still lie on different components; appending
    sigma_i joins the two.  The closure is a knot without filtering."""
    strands = draw(st.sampled_from((3, 4)))
    letters = st.integers(1, strands - 1)
    word = draw(st.lists(letters, max_size=max_crossings - strands + 1))
    for i in range(1, strands):
        if i not in component(word, strands, i - 1):
            word.append(i)
    if one_sign:
        sign = draw(st.sampled_from((1, -1)))
        word = [sign * g for g in word]
    else:
        word = [g * draw(st.sampled_from((1, -1))) for g in word]
    return tuple(word), strands


@settings(max_examples=20, deadline=None)
@given(knot_words(max_crossings=7, one_sign=True))
def test_one_sign_closures_have_rasmussens_value(case):
    word, strands = case
    sign = 1 if word[0] > 0 else -1
    assert report(word, strands).value1 == F(-sign * (len(word) - strands + 1), 2)


@settings(max_examples=10, deadline=None)
@given(knot_words(max_crossings=5), st.data())
def test_conjugation_and_kinks_leave_the_report_unchanged(case, data):
    word, strands = case
    rep = report(word, strands)
    k = data.draw(st.integers(1, len(word) - 1))
    rotated = word[k:] + word[:k]
    g = data.draw(st.sampled_from([s * i for i in range(1, strands) for s in (1, -1)]))
    conjugated = (g,) + word + (-g,)
    kinked = word + (data.draw(st.sampled_from((1, -1))) * strands,)
    assert report(rotated, strands) == rep
    assert report(conjugated, strands) == rep
    assert report(kinked, strands + 1) == rep


@settings(max_examples=10, deadline=None)
@given(knot_words(max_crossings=6))
def test_the_mirror_negates_value1(case):
    word, strands = case
    mirrored = tuple(-g for g in word)
    assert report(mirrored, strands).value1 == -report(word, strands).value1


def test_the_report_path_does_not_split_summands(monkeypatch):
    """The distinguished class is read off H^0 of the whole eliminated
    complex; no summand is picked first."""

    def refuse(*args):
        raise AssertionError("the report path split the complex into summands")

    monkeypatch.setattr("gimel.pipeline.split_components", refuse)
    monkeypatch.setattr("gimel.pipeline.extract_sn", refuse)
    for word, strands, abs_s in TABLE_KNOTS.values():
        assert abs(compute_report_pd(braid_pd(word, strands)).value1) == F(abs_s, 2)
    fig8 = cube(*TABLE_KNOTS["4_1"][:2])
    assert compute_report(tensor(fig8, fig8)).value1 == 0


@settings(max_examples=25, deadline=None)
@given(st.one_of(
    knot_words(max_crossings=7).map(lambda case: [case]),
    st.lists(knot_words(max_crossings=4), min_size=2, max_size=2),
))
def test_the_odd_euler_summand_alone_gives_the_same_report(cases):
    c = reduce(tensor, (cube(*case) for case in cases))
    old = extract_sn(split_components(gauss_simplify(c)))
    assert compute_report(c) == compute_report(old)


@settings(max_examples=10, deadline=None)
@given(knot_words(max_crossings=6))
def test_the_dual_is_the_mirror(case):
    word, strands = case
    mirrored = tuple(-g for g in word)
    assert compute_report(dual(cube(word, strands)), name="closure") == report(mirrored, strands)


@settings(max_examples=10, deadline=None)
@given(knot_words(max_crossings=5), knot_words(max_crossings=4))
def test_the_tensor_product_is_the_connected_sum(a, b):
    (w1, m1), (w2, m2) = a, b
    rep = compute_report(tensor(cube(w1, m1), cube(w2, m2)), name="closure")
    assert rep == report(w1 + shift(w2, m1 - 1), m1 + m2 - 1)


@settings(max_examples=10, deadline=None)
@given(knot_words(max_crossings=4))
def test_a_knot_plus_its_inverse_has_gimel_zero(case):
    """The mirror of the reversed word closes to -K, so the product of
    the two words closes to K # -K, a slice knot."""
    word, strands = case
    inverse = tuple(-g for g in reversed(word))
    rep = compute_report(tensor(cube(word, strands), cube(inverse, strands)), name="closure")
    assert rep == report(word + shift(inverse, strands - 1), 2 * strands - 1)
    assert rep.gimel == PiecewiseLinear.from_points([(0, 0), (1, 0)])
