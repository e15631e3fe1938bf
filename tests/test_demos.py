"""The scripts in demos/ run against the installed package and print the
values their docstrings promise, so that a change to a public name they
import, or to a value they print, does not go unnoticed."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    return res.stdout.splitlines()


def test_diagram_to_invariant():
    assert _run("diagram_to_invariant.py") == [
        "unknot          gimel(t) = 0 * t   (u = 1, s = 0)",
        "negative kink   gimel(t) = 0 * t   (u = 1, s = 0)",
        "right trefoil   gimel(t) = -1 * t   (u = -1, s = -1)",
        "figure eight    gimel(t) = 0 * t   (u = 1, s = 0)",
        "left trefoil    gimel(t) = 1 * t   (u = 3, s = 1)",
    ]


def test_family_walkthrough():
    lines = _run("family_walkthrough.py")
    assert lines[:5] == [
        "n = 3",
        "  gimel through (0, 0), (1/2, -3/4), (1, -2)",
        "  slope at 0 = -3/2, value at 1 = -2",
        "  r = -4, u = -6, s = -2",
        "  genus bound 2 (rounded up: 2)",
    ]
    assert len(lines) == 5 * 6
    for k, n in enumerate(range(3, 9)):
        block = lines[5 * k : 5 * k + 5]
        half, one = F(-n, 2 * (n - 1)), F(-(n + 1), n - 1)
        assert block[0] == f"n = {n}"
        assert block[1] == f"  gimel through (0, 0), (1/2, {half}), (1, {one})"
        assert block[2] == f"  slope at 0 = {F(-n, n - 1)}, value at 1 = {one}"
        assert block[4].endswith("(rounded up: 2)")
