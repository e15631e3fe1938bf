"""What the benchmark reads from the package must stay there.  The tracer
skips a missing function, and the checks read attributes of package
objects, so a rename would otherwise show only as missing metrics or
failed benchmark runs, not as a failure here."""

import importlib
import importlib.util
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import pytest

import gimel.linalg
from gimel.complexes import tensor
from gimel.filtration import ScalarComplex
from gimel.fixtures import s3_p754_fixture, s3_p976_fixture
from gimel.pipeline import compute_report, specialize_for_sweep

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _triple():
    ab = tensor(s3_p754_fixture(), s3_p976_fixture())
    return tensor(ab, s3_p976_fixture())


@pytest.mark.skipif(not TRACING.exists(), reason="no bench/ in this checkout")
def test_bench_trace_targets_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"gimel.{mod}.{attr}"
        for mod, attr, _, _ in tracing.TARGETS
        if not hasattr(importlib.import_module(f"gimel.{mod}"), attr)
    ]
    assert not missing


def test_attributes_the_benchmark_reads_exist():
    """``bench/tracing.py`` sizes complexes from ``diffs`` and ``modules``;
    ``bench/checks.py`` reads ``basis``, ``dim`` and ``mats`` of the scalar
    complex."""
    c = _triple()
    assert sum(len(labels) for _, labels in c.modules) > 0
    assert any(not e.is_zero() for _, mat in c.diffs for row in mat for e in row)
    s = specialize_for_sweep(c)
    assert isinstance(s, ScalarComplex)
    assert s.dim(0) == len(s.basis[0]) > 0
    assert 0 in s.mats and -1 in s.mats


def test_mats_is_a_dense_view_of_cols():
    s = specialize_for_sweep(_triple())
    assert set(s.mats) == {i for i in s.cols if s.dim(i + 1)}
    for i, mat in s.mats.items():
        assert len(mat) == s.dim(i + 1)
        for r, row in enumerate(mat):
            assert len(row) == s.dim(i)
            for c, e in enumerate(row):
                assert type(e) is Fraction
                assert e == s.cols[i][c].get(r, 0)


def test_rref_takes_an_indexable_sequence(monkeypatch):
    """The trace counts ``len(a) * len(a[0])`` of rref's first argument."""
    firsts = []
    original = gimel.linalg.rref

    def recording(*args, **kwargs):
        firsts.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(gimel.linalg, "rref", recording)
    compute_report(_triple())
    assert firsts
    for a in firsts:
        assert isinstance(a, Sequence)
        assert not a or len(a[0]) >= 0
