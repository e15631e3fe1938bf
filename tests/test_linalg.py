"""The one exact reduction against this suite's own dense elimination."""

from fractions import Fraction

import pytest
from conftest import _nullspace, _rank
from hypothesis import given, settings
from hypothesis import strategies as st

import gimel.linalg
from gimel.complexes import tensor
from gimel.fixtures import s3_p754_fixture, s3_p976_fixture
from gimel.linalg import kernel, rref
from gimel.pipeline import compute_report

# mostly zero, so that dependencies and empty rows are common
_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


@st.composite
def _vectors(draw):
    """0-7 vectors of a common length 0-7, plus one more vector of that
    length and a random order of its coordinates."""
    length = draw(st.integers(0, 7))
    vec = st.lists(_ENTRY, min_size=length, max_size=length)
    rows = draw(st.lists(vec, max_size=7))
    order = draw(st.permutations(range(length)))
    return rows, draw(vec), order


def _dense(v, length):
    return [v.get(c, Fraction(0)) for c in range(length)]


def _sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def _brute_top(rows, v, order):
    """The lowest position p such that v lies in the span of the rows and
    of the unit vectors at positions <= p; None if v is in the rows' span."""
    span = [list(r) for r in rows]
    if _rank(span + [v]) == _rank(span):
        return None
    units = sorted(range(len(v)), key=lambda c: order[c])
    for c in units:
        unit = [Fraction(k == c) for k in range(len(v))]
        span.append(unit)
        if _rank(span + [v]) == _rank(span):
            return order[c]
    raise AssertionError("a vector outside the full space")


@settings(max_examples=60, deadline=None)
@given(_vectors())
def test_reduction_matches_dense_elimination(case):
    rows, v, order = case
    length = len(v)
    vectors = [_sparse(row) for row in rows]
    assert len(rref(vectors).pivots) == _rank(rows)
    # the rows as columns of a matrix: its kernel, vector for vector
    matrix = [[row[r] for row in rows] for r in range(length)]
    assert [_dense(d, len(rows)) for d in kernel(vectors)] == _nullspace(matrix, len(rows))
    in_span = rref(vectors).reduce({c: x for c, x in enumerate(v) if x}) is None
    assert in_span == (_rank(rows + [v]) == _rank(rows))
    top = rref(vectors, order).reduce({order[c]: x for c, x in enumerate(v) if x})
    assert top == _brute_top(rows, v, order)


def test_compute_report_reduces_through_rref(monkeypatch):
    """The report's class and sweep run on the kernel's entry point, the
    function the benchmark's trace counts."""
    calls = [0]
    original = gimel.linalg.rref

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(gimel.linalg, "rref", counting)
    compute_report(tensor(s3_p754_fixture(), s3_p976_fixture()))
    assert calls[0] >= 1


def test_int_entries_reduce_exactly():
    deps = kernel([{0: 2}, {0: 3}])
    assert deps == [{0: Fraction(-3, 2), 1: 1}]
    assert all(type(x) is Fraction for v in deps for x in v.values())
    stored = rref([{0: 2, 1: 3}, {0: 4, 1: 7}]).pivots
    assert stored == {1: {0: 2, 1: 3}, 0: {0: Fraction(-2, 3)}}
    assert all(type(x) is Fraction for v in stored.values() for x in v.values())


def test_float_entries_are_refused():
    with pytest.raises(TypeError):
        kernel([{0: 0.5}, {0: 1}])
    with pytest.raises(TypeError):
        rref([{0: 1, 1: 2.5}])
    with pytest.raises(TypeError):
        rref([{0: 2.0}], [0, 1])
