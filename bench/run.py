"""gimel's benchmark: one workload per invocation, run from the root of a
source checkout.

    python3 bench/run.py --workload pd_corpus|fixture_corpus|connected_sum \\
        --seed N --seconds S --trace 0|1

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median
of the set-up samples the worker takes across the run: fresh processes that
start the interpreter, import gimel and load every input), ``pass_s`` (sum
over inputs of each input's slowest report time among the timed rounds),
``largest_input_s`` (slowest timed report of the heaviest input) and
``peak_rss_mb`` (peak resident set of the measuring process).  The timed
rounds are the first ``corpus.Workload.timed_rounds(S)`` of the run, a
count fixed by ``S`` alone.  The slowest round is used rather than the
median because host speed drifts by tens of percent over minutes; the slow
state recurs in nearly every run, so the slowest round is far steadier from
run to run than the median (README.md gives the figures).
With ``--trace 1`` a separate process runs the same rounds with
per-layer wrappers and reports per-layer self times and counters.

Each workload runs in fresh single-threaded child processes (worker.py),
one at a time.  Inputs are fixed tables, so ``--seed`` changes nothing;
it is accepted because the calling convention passes one.  ``--seconds``
defaults to ``run_seconds`` of BENCHMARK.json.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every report is checked (checks.py).  An exception or a failed check
counts as a failed operation; a failed check also makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402  (workload tables only; it does not import gimel)

WORKER = HERE / "worker.py"
DEADLINE_S = 170.0


def run_seconds() -> int:
    """The run length the bounds rest on."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def child(workload: str, mode: str, seconds: float, deadline: float) -> dict:
    """Run worker.py and return its JSON record."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--mode", mode,
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seconds: float, deadline: float):
    r = child(workload, "run", seconds, deadline)
    slowest = {k: max(v) for k, v in r["samples"].items()}
    metrics = {
        "setup_s": (statistics.median(r["setup_s"]), "s"),
        "pass_s": (sum(slowest.values()), "s"),
        "largest_input_s": (slowest[corpus.WORKLOADS[workload].heaviest], "s"),
        "peak_rss_mb": (r["peak_rss_kb"] / 1024, "MB"),
    }
    return r, metrics


def per_layer(workload: str, seconds: float, deadline: float):
    r = child(workload, "trace", seconds, deadline)
    metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in r["trace"].items()}
    return r, metrics


def result(r: dict, metrics: dict) -> dict:
    """The result line: ``correct`` is false when any report failed a
    check; an exception counts in ``failed`` only."""
    return {
        "correct": r["wrong"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (HERE.parent / "src" / "gimel" / "__init__.py").is_file():
        print("bench: no gimel sources under src/; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    seconds = run_seconds() if args.seconds is None else args.seconds
    try:
        r, metrics = measure(args.workload, seconds, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    for p in r["problems"]:
        print(f"bench: FAILED {p}", file=sys.stderr)
    inputs = len(r["samples"])
    print(f"# {args.workload}: {r['rounds']} rounds of {inputs} inputs, "
          f"{r['timed_rounds']} timed, reports sha256 {r['digest']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps(result(r, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
