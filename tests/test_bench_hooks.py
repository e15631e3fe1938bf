"""Every function the benchmark's traced run wraps must exist in the
package.  The tracer skips a missing one, so a rename would otherwise drop
that layer's metrics without failing anything here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
