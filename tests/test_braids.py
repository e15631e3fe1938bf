"""Braid closures as a randomised diagram oracle.

The tests convert braid words to PD codes with their own code, which
shares nothing with the package's diagram handling, and check the n = 2
report against Rasmussen's value on one-sign braids ("Khovanov homology
and the slice genus") and against three moves that preserve the knot:
conjugation, a Reidemeister-I kink (a Markov stabilisation) and, with a
sign change, the mirror.

A word is a tuple of nonzero ints on ``strands`` strands: ``i`` is the
positive generator sigma_i, crossing the strands at positions i and i + 1,
and ``-i`` its inverse.
"""

from fractions import Fraction as F
from typing import List, Tuple

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gimel.pipeline import compute_report_pd

Word = Tuple[int, ...]


def is_knot(word: Word, strands: int) -> bool:
    """Whether the closure has one component: the permutation of the
    strand positions is a single cycle."""
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    p, length = perm[0], 1
    while p != 0:
        p, length = perm[p], length + 1
    return length == strands


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


def test_two_strand_closures_are_the_trefoils():
    assert braid_pd((1, 1, 1), 2) == "PD[X[4,1,5,2],X[2,5,3,6],X[6,3,1,4]]"
    assert report((1, 1, 1), 2).value1 == -1
    assert report((-1, -1, -1), 2).value1 == 1
    # sigma_1 sigma_2^-1 sigma_1 sigma_2^-1 closes to the figure eight
    assert report((1, -2, 1, -2), 3).value1 == 0


@st.composite
def knot_words(draw, max_crossings: int, one_sign: bool = False):
    strands = draw(st.sampled_from((3, 4)))
    letters = st.integers(1, strands - 1)
    word = draw(st.lists(letters, min_size=strands - 1, max_size=max_crossings))
    if one_sign:
        sign = draw(st.sampled_from((1, -1)))
        word = [sign * g for g in word]
    else:
        word = [g * draw(st.sampled_from((1, -1))) for g in word]
    assume(is_knot(tuple(word), strands))
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
