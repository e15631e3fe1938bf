"""The benchmark's three workloads: their fixed inputs, how each input is
loaded (set-up), the operation timed on it, and what its report must say.

Inputs are fixed knot tables and bundled fixtures, so no seed enters
here.  Everything a check expects is derived in this directory, from the
tables below and the benchmark's own walk of each PD code.  The one thing
taken from the package is the scalar complex and class that the gamma
scan of a triple tensor starts from (see ``TripleContext``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List

import checks

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "gimel" / "data"

# Rolfsen-table diagrams, PD codes as listed by the Knot Atlas.  In the
# package's convention (X[a,b,c,d] positive iff d = b + 1 mod 2c) the
# diagrams of 3_1, 5_1, 5_2 and 7_1 are all-positive.
PD_CODES = {
    "3_1": "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]",
    "4_1": "PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]",
    "5_1": "PD[X[1,6,2,7],X[3,8,4,9],X[5,10,6,1],X[7,2,8,3],X[9,4,10,5]]",
    "5_2": "PD[X[1,4,2,5],X[3,8,4,9],X[5,10,6,1],X[9,6,10,7],X[7,2,8,3]]",
    "6_1": "PD[X[1,4,2,5],X[7,10,8,11],X[3,9,4,8],X[9,3,10,2],X[5,12,6,1],"
    "X[11,6,12,7]]",
    "7_1": "PD[X[1,8,2,9],X[3,10,4,11],X[5,12,6,13],X[7,14,8,1],X[9,2,10,3],"
    "X[11,4,12,5],X[13,6,14,7]]",
}

# |Rasmussen s| from KnotInfo.
ABS_S = {"3_1": 2, "4_1": 0, "5_1": 4, "5_2": 2, "6_1": 0, "7_1": 6}


def pd_text(name: str) -> str:
    """PD code of a table knot, or of its mirror for a name "m<knot>"."""
    if name.startswith("m"):
        return checks.format_pd(checks.mirror(checks.quads(PD_CODES[name[1:]])))
    return PD_CODES[name]


@dataclass
class Input:
    """One input of a workload: ``run`` is the timed operation and
    returns the report object; ``problems`` checks its parsed JSON."""

    name: str
    run: Callable[[], object]
    problems: Callable[[dict], List[str]]


class Workload:
    name = ""
    heaviest = ""
    # Seconds per round in the host's slow phase on the reference machine
    # (README.md).  It fixes how many rounds the metrics are taken over.
    round_s = 1.0

    def __init__(self, gimel, load: Callable[[Callable[[], object]], object]):
        """``gimel`` is the imported package; ``load`` calls its argument
        and returns the result (the traced run times input loading
        through it)."""
        self.g = gimel
        self.load = load

    def inputs(self) -> List[Input]:
        raise NotImplementedError

    @classmethod
    def timed_rounds(cls, seconds: float) -> int:
        """How many rounds of a ``seconds``-long run the metrics are taken
        over.  It depends on the run length alone, not on how fast the
        program is, so a slower program is not measured on fewer samples."""
        return max(1, int(seconds // cls.round_s))


class PdCorpus(Workload):
    """Reports straight from PD codes: cube and elimination dominate."""

    name = "pd_corpus"
    heaviest = "7_1"
    round_s = 2.1
    knots = ["3_1", "4_1", "5_1", "5_2", "6_1", "7_1", "m3_1", "m5_2"]

    def inputs(self) -> List[Input]:
        out = []
        for k in self.knots:
            d = self.load(lambda k=k: self.g.cube.parse_pd(pd_text(k)))
            out.append(
                Input(
                    k,
                    lambda d=d, k=k: self.g.pipeline.compute_report_pd(d, name=k),
                    lambda rep, k=k: checks.pd_problems(rep, expected_value1(k), k),
                )
            )
        return out


class ConnectedSum(Workload):
    """Tensor products of two unreduced cubes: elimination on complexes
    with more entries per row than a single cube."""

    name = "connected_sum"
    heaviest = "3_1#5_2"
    round_s = 4.0
    pairs = [("3_1", "m3_1"), ("3_1", "4_1"), ("4_1", "4_1"), ("3_1", "5_2")]

    def inputs(self) -> List[Input]:
        g = self.g
        parsed = {}
        for pair in self.pairs:
            for k in pair:
                if k not in parsed:
                    parsed[k] = self.load(lambda k=k: g.cube.parse_pd(pd_text(k)))
        out = []
        for a, b in self.pairs:
            name = f"{a}#{b}"

            def run(da=parsed[a], db=parsed[b], name=name):
                build = g.cube.build_equivariant_sl2
                c = g.complexes.tensor(build(da), build(db))
                return g.pipeline.compute_report(c, name=name)

            def problems(rep, a=a, b=b, name=name):
                want = expected_value1(a) + expected_value1(b)
                return checks.pd_problems(rep, want, name)

            out.append(Input(name, run, problems))
        return out


class TripleContext:
    """The scalar complex and distinguished class of a fixture input,
    computed once, outside any timed region, for the gamma scan."""

    def __init__(self, gimel, complex_):
        self.g = gimel
        self.c = complex_

    @cached_property
    def scalar(self):
        s = self.g.pipeline.specialize_for_sweep(self.c)
        return s, self.g.filtration.gornik_class_fixture(s)

    def problems(self, rep: dict) -> List[str]:
        s, psi = self.scalar
        return checks.gamma_scan_problems(rep, s, psi) + checks.cone_gap_problems(rep)


class FixtureCorpus(Workload):
    """Bundled JSON fixtures and tensors of them: the sweep and its exact
    linear algebra dominate; elimination removes nothing here."""

    name = "fixture_corpus"
    heaviest = "P754xP976xP976"
    round_s = 6.2

    def inputs(self) -> List[Input]:
        g = self.g

        def fixture(stem: str):
            def read():
                with open(DATA / f"{stem}.json", "r", encoding="utf-8") as fh:
                    return g.cli.fixture_from_dict(json.load(fh))

            return self.load(read)

        out = []

        def add(name, c, problems):
            out.append(
                Input(name, lambda: g.pipeline.compute_report(c, name=name), problems)
            )

        for n in range(2, 7):
            add(f"unknot_n{n}", fixture(f"unknot_n{n}"),
                lambda rep, n=n: checks.unknot_problems(rep, n))
        p2m37 = {}
        for n in range(3, 9):
            p2m37[n] = fixture(f"p2m37_n{n}")
            add(f"p2m37_n{n}", p2m37[n], lambda rep, n=n: checks.p2m37_problems(rep, n))
        p754, p976 = fixture("s3_p754"), fixture("s3_p976")
        tensor, dual = g.complexes.tensor, g.complexes.dual
        pair = tensor(p754, p976)
        add("P754xP976", pair, checks.tensor_example_problems)
        for name, c in [
            ("P754xP976xP976", tensor(pair, p976)),
            ("P754xP976xdual_p2m37_n3", tensor(pair, dual(p2m37[3]))),
        ]:
            add(name, c, TripleContext(g, c).problems)
        return out


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (PdCorpus, FixtureCorpus, ConnectedSum)
}


def expected_value1(name: str) -> Fraction:
    """value1 = gimel(1) of a table knot or its mirror, from |s| in the
    table and, for a diagram whose crossings all share one sign, from its
    crossing and Seifert-circle counts (value1 = -sign (c - O + 1) / 2)."""
    base = name[1:] if name.startswith("m") else name
    half = Fraction(ABS_S[base], 2)
    if half == 0:
        return half
    q = checks.quads(pd_text(name))
    sign = checks.diagram_sign(q)
    if sign == 0:
        raise ValueError(f"{name}: mixed-sign diagram gives no signed expectation")
    if Fraction(len(q) - checks.seifert_circles(q) + 1, 2) != half:
        raise ValueError(f"{name}: c - O + 1 disagrees with the tabulated |s|")
    value = -sign * half
    if name != base and value != -expected_value1(base):
        raise ValueError(f"{name}: mirror does not negate the expected value")
    return value
