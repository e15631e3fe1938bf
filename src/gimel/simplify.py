"""Homotopy-equivalence simplification and direct-sum decomposition.

Gaussian elimination cancels differential entries that are nonzero rational
constants (a deliberately conservative notion of unit: it is grading-safe in
both ring kinds), in a fixed index order: by degree, then by column, then by
row (Bar-Natan, "Fast Khovanov homology computations").  Decomposition into
summands is the connected-component heuristic on the generator graph; the
odd-Euler-characteristic summand is the equivariant Rasmussen summand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .complexes import Columns, GradedFreeComplex, euler
from .errors import DecompositionError
from .ring import Poly


def _unit_value(p: Poly) -> Optional[Fraction]:
    """The value of p if it is a nonzero rational constant, else None."""
    if len(p.terms) != 1:
        return None
    exps, coeff = p.terms[0]
    if any(exps):
        return None
    return coeff


def gauss_simplify(c: GradedFreeComplex) -> GradedFreeComplex:
    """Cancel invertible-constant entries until none remain.

    The result is homotopy equivalent to the input (it differs only by
    acyclic summands).  Pivot order: passes over the degrees ascending and,
    within a degree, the columns ascending; in each column the unit entry
    of smallest row is cancelled.  Passes repeat until one cancels nothing,
    which makes the output deterministic.
    """
    alive: Dict[int, List[bool]] = {i: [True] * c.rank(i) for i in c.degrees()}
    # A copy of d^i held twice, by row and by column: rows[i][r][col] is
    # cols[i][col][r].
    cols = {
        i: {col: dict(column) for col, column in by_col.items()}
        for i, by_col in c.cols.items()
    }
    rows: Dict[int, Dict[int, Dict[int, Poly]]] = {}
    for i, by_col in cols.items():
        rows[i] = {}
        for col, entries in by_col.items():
            for r, e in entries.items():
                rows[i].setdefault(r, {})[col] = e

    def drop_row(i: int, r: int) -> None:
        for col in rows.get(i, {}).pop(r, {}):
            del cols[i][col][r]

    def drop_col(i: int, col: int) -> None:
        for r in cols.get(i, {}).pop(col, {}):
            del rows[i][r][col]

    cancelled = True
    while cancelled:
        cancelled = False
        for i in sorted(cols):
            for c0 in sorted(cols[i]):
                for r0 in sorted(cols[i][c0]):
                    u = _unit_value(cols[i][c0][r0])
                    if u is not None:
                        break
                else:
                    continue
                # exact: never 1 / u, which is a float when u is an int
                inv = u if u in (1, -1) else Fraction(1) / u
                # the pivot column scaled once by -u^-1: fill-in is then
                # one product and one sum
                gamma = {r: e * -inv for r, e in cols[i][c0].items() if r != r0}
                beta = {col: e for col, e in rows[i][r0].items() if col != c0}
                for r, ge in gamma.items():
                    row = rows[i][r]
                    for col, be in beta.items():
                        new = ge * be
                        if col in row:
                            new = row[col] + new
                        if new.terms:
                            row[col] = cols[i][col][r] = new
                        else:
                            # cancelled, or a zero product in Q[x]/(dw)
                            row.pop(col, None)
                            cols[i][col].pop(r, None)
                drop_row(i, r0)
                drop_col(i, c0)
                drop_row(i - 1, c0)
                drop_col(i + 1, r0)
                alive[i][c0] = False
                alive[i + 1][r0] = False
                cancelled = True

    keep = {i: [k for k, a in enumerate(alive[i]) if a] for i in alive}
    new_index = {
        i: {old: new for new, old in enumerate(keep[i])} for i in keep
    }
    mods = {i: [c.labels(i)[k] for k in keep[i]] for i in keep}
    out: Dict[int, Columns] = {}
    for i, by_col in cols.items():
        new_row, new_col = new_index[i + 1], new_index[i]
        out[i] = {
            new_col[col]: {new_row[r]: e for r, e in column.items()}
            for col, column in by_col.items()
        }
    return GradedFreeComplex.build(c.ctx, mods, out)


@dataclass(frozen=True)
class Decomposition:
    """Connected-component splitting of a complex.  ``provenance`` lists,
    per summand, the (degree, index) pairs of input generators it keeps."""

    summands: Tuple[GradedFreeComplex, ...]
    provenance: Tuple[Tuple[Tuple[int, int], ...], ...]


def split_components(c: GradedFreeComplex) -> Decomposition:
    """Partition generators into connected components of the graph whose
    edges are nonzero differential entries."""
    nodes = [(i, k) for i in c.degrees() for k in range(c.rank(i))]
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for i, by_col in c.cols.items():
        for col, entries in by_col.items():
            for r in entries:
                union((i, col), (i + 1, r))

    groups: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for v in nodes:
        groups.setdefault(find(v), []).append(v)

    summands = []
    provenance = []
    for root in sorted(groups):
        members = sorted(groups[root])
        idx = {
            i: [k for (d, k) in members if d == i] for i in c.degrees()
        }
        mods = {i: [c.labels(i)[k] for k in idx[i]] for i in idx if idx[i]}
        cols: Dict[int, Columns] = {}
        for i, by_col in c.cols.items():
            src, tgt = idx.get(i, []), idx.get(i + 1, [])
            if not src or not tgt:
                continue
            # a column's rows all lie in its own component
            new_row = {old: new for new, old in enumerate(tgt)}
            cols[i] = {
                new: {new_row[r]: e for r, e in by_col[col].items()}
                for new, col in enumerate(src)
                if col in by_col
            }
        summands.append(GradedFreeComplex.build(c.ctx, mods, cols))
        provenance.append(tuple(members))
    return Decomposition(tuple(summands), tuple(provenance))


def extract_sn(dec: Decomposition) -> GradedFreeComplex:
    """The unique summand of odd Euler characteristic; it must have
    characteristic 1 and all others 0, as for a knot's complex."""
    odd = [s for s in dec.summands if euler(s) % 2 != 0]
    if len(odd) != 1:
        raise DecompositionError(
            f"expected exactly one odd-Euler-characteristic summand, found {len(odd)}"
        )
    if euler(odd[0]) != 1:
        raise DecompositionError(
            f"distinguished summand has Euler characteristic {euler(odd[0])}, expected 1"
        )
    if any(euler(s) != 0 for s in dec.summands if s is not odd[0]):
        raise DecompositionError("a non-distinguished summand has nonzero Euler characteristic")
    return odd[0]
