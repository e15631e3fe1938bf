"""Per-layer spans and counters for the traced run, recorded from the
benchmark's own code by wrapping the public functions the pipeline looks
up.  Nothing inside the package changes.

A span's self time is its duration minus the time its child spans cover.
A span's counters are taken after it ends, so their cost is not charged
to the layer (it shows in ``trace.uncovered_s``).  A target whose function no longer exists is skipped, and its
metrics are absent from the result instead of failing the run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple


def _complex_size(c) -> Dict[str, int]:
    slots = nonzeros = 0
    for _, mat in c.diffs:
        for row in mat:
            slots += len(row)
            nonzeros += sum(1 for e in row if not e.is_zero())
    return {"generators": sum(len(labs) for _, labs in c.modules),
            "nonzeros": nonzeros, "dense_slots": slots}


def _cube_counts(args, result):
    s = _complex_size(result)
    return {"cube.generators": s["generators"], "cube.nonzeros": s["nonzeros"],
            "cube.dense_slots": s["dense_slots"]}


def _gauss_counts(args, result):
    before = _complex_size(args[0])["generators"]
    after = _complex_size(result)["generators"]
    return {"simplify.eliminations": (before - after) // 2,
            "simplify.generators_after": after}


def _expand_counts(args, result):
    return {"filtration.c0_dim": result.dim(0)}


def _sweep_counts(args, result):
    """Candidate breakpoints: 0, 1 and every t in (0, 1) where two
    distinct monomial tags of C^0 swap order."""
    tags = {(m.j, m.k) for m in args[0].basis.get(0, ())}
    ts = {Fraction(k1 - k2, (j1 + k1) - (j2 + k2))
          for j1, k1 in tags for j2, k2 in tags if (j1 + k1) != (j2 + k2)}
    return {"filtration.candidates": 2 + sum(1 for t in ts if 0 < t < 1)}


def _rref_counts(args, result):
    a = args[0]
    return {"linalg.rref_calls": 1, "linalg.rref_cells": len(a) * (len(a[0]) if a else 0)}


# (module, attribute, span name or None for counters only, counter function)
Target = Tuple[str, str, Optional[str], Optional[Callable]]
TARGETS: List[Target] = [
    ("pipeline", "build_equivariant_sl2", "cube.build", _cube_counts),
    ("cube", "build_equivariant_sl2", "cube.build", _cube_counts),
    ("complexes", "tensor", "complexes.tensor", None),
    ("pipeline", "gauss_simplify", "simplify.gauss", _gauss_counts),
    ("pipeline", "split_components", "simplify.split", None),
    ("pipeline", "extract_sn", "simplify.extract", None),
    ("pipeline", "evaluate", "complexes.evaluate", None),
    ("pipeline", "expand", "filtration.expand", _expand_counts),
    ("pipeline", "gornik_class_fixture", "filtration.class", None),
    ("pipeline", "gamma_sweep", "filtration.sweep", _sweep_counts),
    ("pipeline", "gimel_from_gamma", "filtration.gimel", None),
    ("pipeline", "invariants_report", "filtration.report", None),
    ("linalg", "rref", None, _rref_counts),
]
# Spans the benchmark opens itself around its own calls into the package.
OWN_SPANS = ["cli.load", "cli.serialize"]
COUNTERS = {
    _cube_counts: ["cube.generators", "cube.nonzeros", "cube.dense_slots"],
    _gauss_counts: ["simplify.eliminations", "simplify.generators_after"],
    _expand_counts: ["filtration.c0_dim"],
    _sweep_counts: ["filtration.candidates"],
    _rref_counts: ["linalg.rref_calls", "linalg.rref_cells"],
}


class Tracer:
    """Self times and counters, accumulated only while ``active``."""

    def __init__(self):
        self.active = False
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[str] = list(OWN_SPANS)
        self.counters: List[str] = []
        self._stack: List[float] = []
        self._restore: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def call(self, span: Optional[str], fn, args, kwargs):
        if not self.active or span is None:
            return fn(*args, **kwargs)
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.self_s[span] += dt - self._stack.pop()
            if self._stack:
                self._stack[-1] += dt

    def span(self, name: str, fn, *args):
        return self.call(name, fn, args, {})

    def wrap(self, fn, span: Optional[str], counter: Optional[Callable]):
        def wrapper(*args, **kwargs):
            result = self.call(span, fn, args, kwargs)
            if self.active and counter is not None:
                for k, v in counter(args, result).items():
                    self.counts[k] += v
            return result

        return wrapper

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap every target present in ``modules``; remember what to
        restore.  Targets naming a missing module or attribute are
        skipped."""
        for mod_name, attr, span, counter in TARGETS:
            mod = modules.get(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._restore.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, span, counter))
            if span and span not in self.spans:
                self.spans.append(span)
            for name in COUNTERS.get(counter, []):
                if name not in self.counters:
                    self.counters.append(name)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def snapshot(self) -> Dict[str, float]:
        """Current totals under metric names: spans as ``<name>_s``."""
        out = {f"{name}_s": self.self_s.get(name, 0.0) for name in self.spans}
        out.update((name, self.counts.get(name, 0)) for name in self.counters)
        return out
