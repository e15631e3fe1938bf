"""Correctness checks on gimel reports, written apart from the package.

Each ``*_problems`` function takes a report as parsed from its canonical
JSON and returns a list of human-readable problems; an empty list means
the report passed.  Nothing here imports ``gimel``: PD codes are walked,
rational ranks computed and piecewise-linear functions evaluated by this
module's own code.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Sequence, Tuple

Quad = Tuple[int, int, int, int]
Points = List[Tuple[Fraction, Fraction]]

# ---------------------------------------------------------------------------
# PD codes


def quads(pd: str) -> List[Quad]:
    return [
        tuple(int(v) for v in m.groups())
        for m in re.finditer(r"X\[(\d+),(\d+),(\d+),(\d+)\]", pd.replace(" ", ""))
    ]


def format_pd(qs: Sequence[Quad]) -> str:
    return "PD[" + ",".join("X[%d,%d,%d,%d]" % q for q in qs) + "]"


def _over_runs_b_to_d(q: Quad, crossings: int) -> bool:
    """Edges are numbered along the orientation, so the over-strand runs
    b -> d when d follows b, and d -> b when b follows d."""
    _, b, _, d = q
    m = 2 * crossings
    forward, backward = (d - b) % m == 1, (b - d) % m == 1
    if forward == backward:
        raise ValueError(f"X{list(q)}: over-strand direction is ambiguous")
    return forward


def crossing_signs(qs: Sequence[Quad]) -> List[int]:
    """+1 where the over-strand runs b -> d (the package's positive
    crossing), -1 otherwise."""
    return [1 if _over_runs_b_to_d(q, len(qs)) else -1 for q in qs]


def diagram_sign(qs: Sequence[Quad]) -> int:
    """+1 if every crossing is positive, -1 if every one is negative,
    0 for a mixed diagram."""
    signs = set(crossing_signs(qs))
    return signs.pop() if len(signs) == 1 else 0


def seifert_circles(qs: Sequence[Quad]) -> int:
    """Circles of the oriented smoothing: at each crossing the incoming
    under-edge a joins the outgoing over-edge and the incoming over-edge
    joins the outgoing under-edge c."""
    parent = {e: e for q in qs for e in q}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for q in qs:
        a, b, c, d = q
        pairs = ((a, d), (b, c)) if _over_runs_b_to_d(q, len(qs)) else ((a, b), (d, c))
        for x, y in pairs:
            parent[find(x)] = find(y)
    return len({find(e) for e in parent})


def mirror(qs: Sequence[Quad]) -> List[Quad]:
    """Swap over and under at every crossing: rotate each quadruple so it
    starts at the incoming edge of the old over-strand."""
    out = []
    for q in qs:
        a, b, c, d = q
        out.append((b, c, d, a) if _over_runs_b_to_d(q, len(qs)) else (d, a, b, c))
    return out


# ---------------------------------------------------------------------------
# reports


def points(pl: dict) -> Points:
    return [(Fraction(t), Fraction(v)) for t, v in zip(pl["breakpoints"], pl["values"])]


def evaluate(pts: Points, t: Fraction) -> Fraction:
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if t0 <= t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    raise ValueError(f"t = {t} outside the breakpoints")


def _line(slope: Fraction) -> Points:
    return [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(slope))]


def _expect(problems: List[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, expected {want}")


def cone_gap_problems(rep: dict) -> List[str]:
    """t g(1) <= g(t) <= t g'(0) at every breakpoint (enough, since g is
    linear between them), and g'(0) - 1 <= g(1) <= g'(0)."""
    g = points(rep["gimel"])
    v1 = g[-1][1]
    s0 = (g[1][1] - g[0][1]) / (g[1][0] - g[0][0])
    problems = []
    for t, v in g:
        if not t * v1 <= v <= t * s0:
            problems.append(f"cone fails at t = {t}")
    if not s0 - 1 <= v1 <= s0:
        problems.append("gap fails")
    return problems


def pd_problems(rep: dict, value1: Fraction, name: str) -> List[str]:
    """A knot with a linear gimel: value1 as expected and gimel the line
    t -> value1 t."""
    problems: List[str] = []
    _expect(problems, f"{name} value1", Fraction(rep["value1"]), value1)
    _expect(problems, f"{name} s", Fraction(rep["s"]), value1)
    _expect(problems, f"{name} gimel", points(rep["gimel"]), _line(value1))
    return problems + cone_gap_problems(rep)


def unknot_problems(rep: dict, n: int) -> List[str]:
    problems: List[str] = []
    _expect(problems, "gimel", points(rep["gimel"]), _line(0))
    _expect(problems, "gamma", points(rep["gamma"]),
            [(Fraction(0), Fraction(1 - n)), (Fraction(1), Fraction(n - 1))])
    for key in ("r", "u"):
        _expect(problems, key, Fraction(rep[key]), n - 1)
    _expect(problems, "s", Fraction(rep["s"]), 0)
    return problems


def p2m37_problems(rep: dict, n: int) -> List[str]:
    """The (2,-3,7)-pretzel summand: two pieces meeting at t = 1/2."""
    problems: List[str] = []
    _expect(problems, "gimel", points(rep["gimel"]), [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(-n, 2 * (n - 1))),
        (Fraction(1), Fraction(-(n + 1), n - 1)),
    ])
    _expect(problems, "slope0", Fraction(rep["slope0"]), Fraction(-n, n - 1))
    _expect(problems, "r", Fraction(rep["r"]), -(n + 1))
    _expect(problems, "u", Fraction(rep["u"]), -(n + 3))
    _expect(problems, "s", Fraction(rep["s"]), Fraction(-(n + 1), n - 1))
    return problems + cone_gap_problems(rep)


def tensor_example_problems(rep: dict) -> List[str]:
    """P(7,-5,4) (x) P(-9,7,-6), the paper's worked example."""
    problems: List[str] = []
    _expect(problems, "gamma", points(rep["gamma"]), [
        (Fraction(0), Fraction(-2)), (Fraction(1, 3), Fraction(-2, 3)), (Fraction(1), Fraction(0)),
    ])
    _expect(problems, "gimel", points(rep["gimel"]), [
        (Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(0)), (Fraction(1), Fraction(-1, 2)),
    ])
    return problems + cone_gap_problems(rep)


# ---------------------------------------------------------------------------
# gamma by a rank-based scan


def rank(rows: List[List[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination on a copy."""
    m = [list(r) for r in rows if any(r)]
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _member(psi, coboundaries, admissible) -> bool:
    """Is psi cohomologous to a cocycle supported on ``admissible``?
    psi - d(y) is a cocycle for every y, so this holds iff psi restricted
    to the other coordinates lies in the span of the coboundary columns
    restricted to them."""
    rest = [p for p in range(len(psi)) if p not in admissible]
    if not rest:
        return True
    cols = [[col[p] for p in rest] for col in coboundaries]
    return rank(cols + [[psi[p] for p in rest]]) == rank(cols)


def gamma_scan(tags: Sequence[Tuple[int, int]], psi, coboundaries, t: Fraction) -> Fraction:
    """Lowest score v such that the degree-0 monomials of score <= v
    carry a representative of [psi]; a linear scan from the bottom."""
    scores = [t * (j + k) - k for j, k in tags]
    for v in sorted(set(scores)):
        if _member(psi, coboundaries, {p for p, sc in enumerate(scores) if sc <= v}):
            return v
    raise ValueError("class not represented even with full support")


def sweep_points(tags: Sequence[Tuple[int, int]]) -> List[Fraction]:
    """Every t in [0, 1] where two monomial tags swap order, plus the
    midpoints between consecutive ones; gamma is linear between swaps."""
    cuts = {Fraction(0), Fraction(1)}
    for j1, k1 in set(tags):
        for j2, k2 in set(tags):
            den = (j1 + k1) - (j2 + k2)
            if den and 0 < Fraction(k1 - k2, den) < 1:
                cuts.add(Fraction(k1 - k2, den))
    cuts = sorted(cuts)
    return sorted(cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])])


def gamma_scan_problems(rep: dict, scalar, psi) -> List[str]:
    """gamma and gimel of a report against the scan, at every candidate
    breakpoint and midpoint.  ``scalar`` supplies the monomial tags of
    C^0 (``basis[0]``) and the differentials (``mats``)."""
    n = rep["n"]
    tags = [(m.j, m.k) for m in scalar.basis[0]]
    d0 = scalar.mats.get(0, ())
    dm1 = scalar.mats.get(-1, ())
    coboundaries = [list(col) for col in zip(*dm1)]
    problems: List[str] = []
    if any(sum(a * b for a, b in zip(row, psi)) for row in d0):
        problems.append("psi is not a cocycle")
    if any(sum(a * b for a, b in zip(row, col)) for row in d0 for col in coboundaries):
        problems.append("d^0 d^-1 != 0")
    gamma, gimel = points(rep["gamma"]), points(rep["gimel"])
    for t in sweep_points(tags):
        want = gamma_scan(tags, psi, coboundaries, t)
        _expect(problems, f"gamma({t})", evaluate(gamma, t), want)
        _expect(problems, f"gimel({t})", evaluate(gimel, t),
                (want - (n - 1) * (2 * t - 1)) / (2 * (n - 1)))
    _expect(problems, "u", Fraction(rep["u"]), evaluate(gamma, Fraction(1)))
    _expect(problems, "s", Fraction(rep["s"]), evaluate(gimel, Fraction(1)))
    return problems
