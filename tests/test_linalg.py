"""The one exact reduction against this suite's own dense elimination."""

from fractions import Fraction

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
    assert len(rref(rows).pivots) == _rank(rows)
    # the rows as columns of a matrix: its kernel, vector for vector
    matrix = [[row[r] for row in rows] for r in range(length)]
    assert [_dense(d, len(rows)) for d in kernel(rows)] == _nullspace(matrix, len(rows))
    in_span = rref(rows).reduce({c: x for c, x in enumerate(v) if x}) is None
    assert in_span == (_rank(rows + [v]) == _rank(rows))
    top = rref(rows, order).reduce({order[c]: x for c, x in enumerate(v) if x})
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
