"""Planar-diagram input and the equivariant sl_2 cube over R_2.

A PD code lists crossings X[a,b,c,d] counterclockwise from the incoming
under-edge a; the under-strand runs a -> c.  The crossing is positive iff
d = b + 1 (mod 2c), negative iff b = d + 1 (mod 2c).  A one-crossing kink
satisfies both congruences, so there the sign is settled by edge roles:
slot a is a head and slot c a tail, which forces the role of the second
occurrence of each edge and hence the direction of the over-strand.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .complexes import Columns, GradedFreeComplex, assign_once
from .errors import InternalError, MalformedInputError
from .ring import Poly, constant, equivariant_ctx

Crossing = Tuple[int, int, int, int]

# The cube has 2^m vertices; its differentials are stored as their nonzero
# entries only.  T(2,9) has 9,843 generators and 68,902 nonzero entries (of
# about 17 million dense slots), and its `compute --pd` takes 1.1 s and
# peaks at 33 MB resident (CPython 3.11, x86-64 Linux).  The guard stays at
# 9 until a 10-crossing diagram has been measured end to end.
MAX_CUBE_CROSSINGS = 9


@dataclass(frozen=True)
class Diagram:
    """Oriented basepointed knot diagram.  ``signs`` holds +1/-1 per
    crossing."""

    crossings: Tuple[Crossing, ...]
    signs: Tuple[int, ...]
    basepoint: int

    @property
    def writhe(self) -> int:
        return sum(self.signs)

    @property
    def n_plus(self) -> int:
        return sum(1 for s in self.signs if s > 0)

    @property
    def n_minus(self) -> int:
        return sum(1 for s in self.signs if s < 0)

    def edge_count(self) -> int:
        return 2 * len(self.crossings)


_PD_RE = re.compile(r"^\s*PD\s*\[(.*)\]\s*$", re.DOTALL)
_X_RE = re.compile(r"X\s*\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")
_BP_RE = re.compile(r"basepoint\s*=\s*(\d+)")


def _crossing_sign(q: Crossing, m: int) -> int:
    a, b, c, d = q
    mod = 2 * m
    pos = (d - b) % mod == 1
    neg = (b - d) % mod == 1
    if pos and neg:
        # single-crossing kink: decide by the role of slot b.  Slot a of
        # this crossing is b's other occurrence iff b == a, making slot b a
        # tail (over-strand exits at b, i.e. runs d -> b: negative).
        return -1 if b == a else 1
    if pos:
        return 1
    if neg:
        return -1
    raise MalformedInputError(f"crossing X{list(q)} has undetermined sign")


def parse_pd(text: str) -> Diagram:
    """Parse ``PD[X[a,b,c,d], ...]`` with optional ``basepoint=e``
    (default: edge 1).  Rejects links with more than one component."""
    m = _PD_RE.match(text)
    if m is None:
        raise MalformedInputError("input does not match PD[...]")
    body = m.group(1)
    crossings = [
        tuple(int(g) for g in quad.groups()) for quad in _X_RE.finditer(body)
    ]
    bp_match = _BP_RE.search(body)
    leftover = _X_RE.sub("", _BP_RE.sub("", body))
    if leftover.strip(" ,\n\t"):
        raise MalformedInputError(f"unparsed PD content: {leftover.strip()!r}")

    cnum = len(crossings)
    counts: Dict[int, int] = {}
    for q in crossings:
        for e in q:
            counts[e] = counts.get(e, 0) + 1
    for e, k in sorted(counts.items()):
        if not 1 <= e <= 2 * cnum:
            raise MalformedInputError(f"edge label {e} out of range 1..{2 * cnum}")
        if k != 2:
            raise MalformedInputError(f"edge label {e} appears {k} times, expected 2")
    if cnum and len(counts) != 2 * cnum:
        missing = sorted(set(range(1, 2 * cnum + 1)) - set(counts))
        raise MalformedInputError(f"missing edge labels {missing}")

    basepoint = int(bp_match.group(1)) if bp_match else 1
    if cnum and not 1 <= basepoint <= 2 * cnum:
        raise MalformedInputError(f"basepoint {basepoint} is not an edge label")

    signs = tuple(_crossing_sign(q, cnum) for q in crossings)
    d = Diagram(tuple(crossings), signs, basepoint)
    _require_knot(d)
    return d


def _require_knot(d: Diagram) -> None:
    """One strand orbit must cover every edge."""
    if not d.crossings:
        return
    succ: Dict[int, int] = {}
    for q, s in zip(d.crossings, d.signs):
        a, b, c, cd = q
        succ[a] = c
        if s > 0:
            succ[b] = cd
        else:
            succ[cd] = b
    seen = set()
    e = 1
    while e not in seen:
        seen.add(e)
        nxt = succ.get(e)
        if nxt is None:
            raise MalformedInputError(f"edge {e} has no successor; bad PD data")
        e = nxt
    if len(seen) != d.edge_count():
        raise MalformedInputError(
            "diagram has more than one component; only knots are supported"
        )


def format_pd(d: Diagram) -> str:
    inner = ",".join("X[%d,%d,%d,%d]" % q for q in d.crossings)
    if d.basepoint != 1:
        sep = "," if inner else ""
        inner += f"{sep}basepoint={d.basepoint}"
    return f"PD[{inner}]"


def mirror(d: Diagram) -> Diagram:
    """Swap over- and under-strand at every crossing (rotate each quadruple
    one position); all signs flip."""
    crossings = []
    for q, s in zip(d.crossings, d.signs):
        a, b, c, cd = q
        crossings.append((b, c, cd, a) if s > 0 else ((cd, a, b, c)))
    return Diagram(tuple(crossings), tuple(-s for s in d.signs), d.basepoint)


@dataclass(frozen=True)
class ResolutionState:
    vertex: Tuple[int, ...]
    circles: Tuple[Tuple[int, ...], ...]
    basepoint_circle: int


def resolve(d: Diagram, vertex: Sequence[int]) -> ResolutionState:
    """Circles of the given smoothing: the 0-smoothing joins (a,d) and
    (b,c), the 1-smoothing joins (a,b) and (c,d), regardless of sign.
    Circles are indexed by smallest contained edge label."""
    vertex = tuple(int(v) for v in vertex)
    if len(vertex) != len(d.crossings) or any(v not in (0, 1) for v in vertex):
        raise MalformedInputError("vertex must assign 0/1 per crossing")
    edges = list(range(1, d.edge_count() + 1)) or [d.basepoint]
    parent = {e: e for e in edges}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def union(e1, e2):
        r1, r2 = find(e1), find(e2)
        if r1 != r2:
            parent[max(r1, r2)] = min(r1, r2)

    for q, v in zip(d.crossings, vertex):
        a, b, c, cd = q
        if v == 0:
            union(a, cd)
            union(b, c)
        else:
            union(a, b)
            union(c, cd)

    groups: Dict[int, List[int]] = {}
    for e in edges:
        groups.setdefault(find(e), []).append(e)
    circles = tuple(tuple(sorted(groups[r])) for r in sorted(groups))
    bp = next(i for i, circ in enumerate(circles) if d.basepoint in circ)
    return ResolutionState(vertex, circles, bp)


# ---------------------------------------------------------------------------
# cube construction


def _edge_coefficients(ctx) -> Dict[int, Dict[str, Poly]]:
    """Every coefficient an edge map emits, with both edge signs:
    ``table[sign][name]`` is sign * name, one shared instance each."""
    base = {
        "1": constant(ctx, 1),
        "x": Poly.from_dict(ctx, {(1, 0): 1}),
        "x+a1": Poly.from_dict(ctx, {(1, 0): 1, (0, 1): 1}),
        "x^2+x*a1": Poly.from_dict(ctx, {(2, 0): 1, (1, 1): 1}),
        "a1": Poly.from_dict(ctx, {(0, 1): 1}),
    }
    neg = {name: -p for name, p in base.items()}
    base["-a1"], neg["-a1"] = neg["a1"], base["a1"]
    return {1: base, -1: neg}


def _merge_outputs(k: Dict[str, Poly], e1: int, e2: int) -> List[Tuple[int, Poly]]:
    """m(y^{e1} (x) y^{e2}) as [(exponent, coefficient)], using
    y^2 = x^2 + a1 x - a1 y; coefficients come from the signed table k."""
    e = e1 + e2
    if e <= 1:
        return [(e, k["1"])]
    return [(0, k["x^2+x*a1"]), (1, k["-a1"])]


def _split_outputs(k: Dict[str, Poly], e: int) -> List[Tuple[int, int, Poly]]:
    """Delta(y^e) = y^e (y1 + y2 + a1) as [(e1, e2, coefficient)]."""
    if e == 0:
        return [(1, 0, k["1"]), (0, 1, k["1"]), (0, 0, k["a1"])]
    return [(1, 1, k["1"]), (0, 0, k["x^2+x*a1"])]


def _edge_outputs(
    k: Dict[str, Poly],
    eps_of: Dict[FrozenSet[int], int],
    merged_src: List[FrozenSet[int]],
    new_tgt: List[FrozenSet[int]],
    bp_src: FrozenSet[int],
    bp_tgt: FrozenSet[int],
) -> List[Tuple[Dict[FrozenSet[int], int], Poly]]:
    """The image of one generator under an edge map, as [(epsilons of the
    new non-basepoint target circles, coefficient)].  A merge joins the two
    circles ``merged_src`` into ``new_tgt``; a split does the reverse.  The
    basepoint circle carries the ring action, so merging into it multiplies
    by x^eps and splitting it off emits y (x) 1 + (x + a1)."""
    if len(merged_src) == 2:
        u, v = merged_src
        (w,) = new_tgt
        if bp_src in (u, v):
            other = v if u == bp_src else u
            return [({}, k["x"] if eps_of[other] else k["1"])]
        return [
            ({w: e}, coeff) for e, coeff in _merge_outputs(k, eps_of[u], eps_of[v])
        ]
    (w,) = merged_src
    u, v = new_tgt
    if w == bp_src:
        other = v if u == bp_tgt else u
        return [({other: 1}, k["1"]), ({other: 0}, k["x+a1"])]
    return [
        ({u: e1, v: e2}, coeff) for e1, e2, coeff in _split_outputs(k, eps_of[w])
    ]


def build_equivariant_sl2(d: Diagram) -> GradedFreeComplex:
    """The equivariant sl_2 complex over R_2 = Q[x, a1].

    Vertex r sits in homological degree |r| - n_minus; its module is the
    tensor power of A = R_2[y]/(y^2 + a1 y + a0) over the non-basepoint
    circles (the basepoint circle carries the ring action).  A generator
    with epsilon_c in {0, 1} per circle (exponent of y) is labeled
    q^s with s = sum(2 eps - 1) - |r| - n_plus + 2 n_minus.
    """
    ctx = equivariant_ctx(2)
    m = len(d.crossings)
    if m > MAX_CUBE_CROSSINGS:
        raise MalformedInputError(
            f"diagram has {m} crossings; the cube of resolutions is limited "
            f"to {MAX_CUBE_CROSSINGS}"
        )
    n_plus, n_minus = d.n_plus, d.n_minus

    states: Dict[Tuple[int, ...], ResolutionState] = {}
    nonbase: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for r in itertools.product((0, 1), repeat=m):
        st = resolve(d, r)
        states[r] = st
        nonbase[r] = [c for i, c in enumerate(st.circles) if i != st.basepoint_circle]

    generators: Dict[int, List[Tuple[Tuple[int, ...], Tuple[int, ...]]]] = {}
    for r in sorted(states):
        deg = sum(r) - n_minus
        bucket = generators.setdefault(deg, [])
        for eps in itertools.product((0, 1), repeat=len(nonbase[r])):
            bucket.append((r, eps))

    index = {
        deg: {g: k for k, g in enumerate(bucket)}
        for deg, bucket in generators.items()
    }
    mods = {
        deg: [
            sum(2 * e - 1 for e in eps) - sum(r) - n_plus + 2 * n_minus
            for (r, eps) in bucket
        ]
        for deg, bucket in generators.items()
    }

    diffs: Dict[int, Columns] = {
        deg: {} for deg in sorted(generators) if deg + 1 in generators
    }

    coefficients = _edge_coefficients(ctx)
    for r in sorted(states):
        deg = sum(r) - n_minus
        out = diffs.get(deg)
        src_circles = nonbase[r]
        src_sets = [frozenset(c) for c in src_circles]
        bp_src = frozenset(states[r].circles[states[r].basepoint_circle])
        for ci in range(m):
            if r[ci] == 1:
                continue
            r2 = r[:ci] + (1,) + r[ci + 1 :]
            k = coefficients[-1 if sum(r[:ci]) % 2 else 1]
            tgt_circles = nonbase[r2]
            tgt_sets = [frozenset(c) for c in tgt_circles]
            bp_tgt = frozenset(states[r2].circles[states[r2].basepoint_circle])
            tgt_index = index[deg + 1]

            src_all = set(src_sets) | {bp_src}
            tgt_all = set(tgt_sets) | {bp_tgt}
            merged_src = sorted(src_all - tgt_all, key=min)
            new_tgt = sorted(tgt_all - src_all, key=min)

            if {len(merged_src), len(new_tgt)} != {1, 2}:
                raise InternalError("smoothing change is neither a merge nor a split")

            for col_eps in itertools.product((0, 1), repeat=len(src_circles)):
                col = index[deg][(r, col_eps)]
                # epsilons of the source circles, then of each new target
                # circle as the edge map sets it; unchanged circles keep theirs
                eps_of = dict(zip(src_sets, col_eps))
                for new_eps, coeff in _edge_outputs(
                    k, eps_of, merged_src, new_tgt, bp_src, bp_tgt
                ):
                    eps_of.update(new_eps)
                    teps = tuple(eps_of[s] for s in tgt_sets)
                    assign_once(out, tgt_index[(r2, teps)], col, coeff)

    return GradedFreeComplex.build(ctx, mods, diffs)
