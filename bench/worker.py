"""One workload in one fresh single-threaded process.

    python3 bench/worker.py --workload NAME --mode setup|run|trace --seconds S

``setup`` imports gimel, loads every input and exits.  ``run`` then goes
through the inputs in whole rounds, timing each report (computation plus
canonical JSON).  It runs at least ``K = timed_rounds(S)`` rounds and at
least ``S`` seconds, and the metrics are taken over the first ``K`` rounds
only; later rounds are checked but not timed into them.  ``run`` also
measures set-up: it starts one ``setup`` process to fill the bytecode
cache, then times two before the rounds and one after each of the first
``K`` rounds, so the samples span the whole run.  Only one process works
at a time; this one waits while a ``setup`` process runs.  ``trace`` goes
through the same rounds with the per-layer wrappers of tracing.py
installed and takes no set-up samples.  Every report is checked outside
the timed region.  The last stdout line is one JSON record for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import tracing  # noqa: E402

SETUP_BEFORE = 2  # set-up samples before the first round


def setup_sample(workload: str) -> float:
    """Seconds from starting a ``setup`` process until it has loaded every
    input.  ``time.monotonic()`` is system-wide, so the child's reading can
    be compared with ours."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--mode", "setup"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_done"] - start


def serialize(g, rep) -> str:
    """The text ``gimel compute`` would print for this report."""
    return json.dumps(g.cli.report_to_dict(rep), sort_keys=True, indent=2) + "\n"


class Checker:
    """Verdicts of the checks, cached per distinct report text."""

    def __init__(self):
        self.seen = {}
        self.problems = []
        self.wrong = 0  # reports that failed a check

    def ok(self, inp: corpus.Input, text: str) -> bool:
        key = (inp.name, text)
        if key not in self.seen:
            try:
                found = inp.problems(json.loads(text))
            except Exception as exc:  # a check that cannot run is a failure
                found = [f"check raised {type(exc).__name__}: {exc}"]
            self.seen[key] = not found
            self.problems += [f"{inp.name}: {p}" for p in found]
        if not self.seen[key]:
            self.wrong += 1
        return self.seen[key]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args(argv)

    import gimel
    import gimel.cli  # noqa: F401  (fixture loading and report schema)

    tracer = tracing.Tracer() if args.mode == "trace" else None
    if tracer:
        tracer.active = True
        load = lambda fn: tracer.span("cli.load", fn)  # noqa: E731
    else:
        load = lambda fn: fn()  # noqa: E731
    inputs = corpus.WORKLOADS[args.workload](gimel, load).inputs()
    setup_done = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"setup_done": setup_done}))
        return 0

    record = {"setup_done": setup_done}
    timed = corpus.WORKLOADS[args.workload].timed_rounds(args.seconds)
    setups = []
    if not tracer:
        setup_sample(args.workload)  # fills the bytecode cache
        setups += [setup_sample(args.workload) for _ in range(SETUP_BEFORE)]
    else:
        tracer.active = False
        load_s = tracer.self_s["cli.load"]
        tracer.reset()
        tracer.install({m: getattr(gimel, m) for m in ("pipeline", "cube", "complexes", "linalg")})

    checker = Checker()
    samples = {inp.name: [] for inp in inputs}
    rounds, round_traces = [], []
    attempted = failed = 0
    digest = hashlib.sha256()
    start = time.perf_counter()
    while len(rounds) < timed or time.perf_counter() - start < args.seconds:
        round_s, counted = 0.0, len(rounds) < timed
        if tracer:
            tracer.reset()
        for inp in inputs:
            attempted += 1
            text = None
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                rep = inp.run()
                text = tracer.span("cli.serialize", serialize, gimel, rep) if tracer else serialize(gimel, rep)
            except Exception as exc:  # the program failed on this input
                checker.problems.append(f"{inp.name}: raised {type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            if tracer:
                tracer.active = False
            if counted:
                samples[inp.name].append(dt)
            round_s += dt
            if not rounds:
                digest.update(f"{inp.name}\n{text}".encode())
            if text is None or not checker.ok(inp, text):
                failed += 1
        if counted:
            if tracer:
                round_traces.append(tracer.snapshot())
            else:
                setups.append(setup_sample(args.workload))
        rounds.append(round_s)

    if tracer:
        tracer.uninstall()
        trace = {k: statistics.median(r[k] for r in round_traces) for k in round_traces[0]}
        trace["cli.load_s"] = load_s
        trace["trace.pass_s"] = sum(max(v) for v in samples.values())
        trace["trace.uncovered_s"] = statistics.median(
            total - sum(v for k, v in r.items() if k.endswith("_s"))
            for total, r in zip(rounds, round_traces)  # the first ``timed`` rounds
        )
        record["trace"] = trace
    record.update(
        attempted=attempted,
        failed=failed,
        wrong=checker.wrong,
        problems=checker.problems[:20],
        samples=samples,
        setup_s=setups,
        rounds=len(rounds),
        timed_rounds=timed,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        digest=digest.hexdigest(),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
