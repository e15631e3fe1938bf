"""Run the benchmark several times on one workload and summarise each
metric: median, quartiles and spread (interquartile distance as a share
of the median), the figures the bounds in BENCHMARK.json rest on.

    python3 bench/spread.py --workload pd_corpus [--runs 10] [--sets 1] [--trace 0]

Each run's result line is appended to .bench_out/<workload>-trace<T>.jsonl
(ignored by git).  The summary covers the last ``--sets`` × ``--runs`` lines
there, one set per ``--runs`` consecutive lines, and with two or more sets
gives each set's median shift from the first set's.  So a second set made
later with ``--sets 2`` is compared with the first.  Every run has the
length of ``run_seconds`` in BENCHMARK.json.  Each run is passed the next
seed after the runs already recorded; the inputs do not depend on it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out"


def summarise(sets) -> str:
    lines = []
    first = {}
    for i, results in enumerate(sets, 1):
        lines.append(f"set {i}: {len(results)} runs; failed/attempted: "
                     + ", ".join(sorted({f"{r['failed']}/{r['attempted']}" for r in results}))
                     + "; correct: " + ", ".join(sorted({str(r["correct"]) for r in results})))
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            first.setdefault(name, med)
            shift = f"  shift {med / first[name] - 1:+.2%}" if i > 1 and first[name] else ""
            lines.append(f"  {name:28s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                         f"spread {spread:.2%}{shift}  ({results[0]['metrics'][name]['unit']})")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-trace{args.trace}.jsonl"
    done = len(path.read_text().splitlines()) if path.exists() else 0
    for seed in range(done + 1, done + 1 + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(proc.stdout.strip().splitlines()[-1] + "\n")
    with open(path, encoding="utf-8") as fh:
        results = [json.loads(line) for line in fh][-args.sets * args.runs:]
    sets = [results[i:i + args.runs] for i in range(0, len(results), args.runs)]
    print(summarise(sets))
    return 0


if __name__ == "__main__":
    sys.exit(main())
