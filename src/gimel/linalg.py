"""The one exact reduction over Q: vectors reduced to distinct top positions.

A vector is a dict from position to nonzero ``Fraction``; its top is its
highest position.  Vectors are added one at a time, each reduced against
the stored ones until its top is a position no stored vector has.  Rank,
span membership, the lowest top a vector can be reduced to, and the
dependencies among a list of vectors all come from that one loop.

``rref`` and ``kernel`` take such vectors (zero entries are dropped) and
pass each entry through ``ring.exact``: an int becomes a Fraction, so
every division is exact, and a float is a TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .ring import exact

Vector = Dict[int, Fraction]


class Echelon:
    """Stored vectors with pairwise distinct tops: ``pivots[p]`` is the one
    whose top is p.  ``len(pivots)`` is the rank of what was added."""

    def __init__(self) -> None:
        self.pivots: Dict[int, Vector] = {}

    def reduce(self, v: Vector) -> Optional[int]:
        """Reduce v in place until its top is no stored vector's top, and
        return that top; None if v reduces to zero, that is, lies in the
        span.  The top returned is the lowest top of any vector that
        differs from v by an element of the span."""
        pivots = self.pivots
        while v:
            top = max(v)
            col = pivots.get(top)
            if col is None:
                return top
            f = v[top] / col[top]
            for p, c in col.items():
                x = v.get(p, 0) - f * c
                if x:
                    v[p] = x
                else:
                    del v[p]
        return None

    def add(self, v: Vector) -> Optional[int]:
        """Reduce v and store what is left under its top, which is
        returned; None if v was already in the span."""
        top = self.reduce(v)
        if top is not None:
            self.pivots[top] = v
        return top


def rref(vectors: Sequence[Vector], order: Optional[Sequence[int]] = None) -> Echelon:
    """The vectors, added in index order to a new Echelon.  Entry c of a
    vector sits at position ``order[c]`` (default c), so an order decides
    which coordinates a reduction clears first: the highest positions."""
    e = Echelon()
    for v in vectors:
        if order is None:
            e.add({c: exact(x) for c, x in v.items() if x})
        else:
            e.add({order[c]: exact(x) for c, x in v.items() if x})
    return e


def kernel(columns: Sequence[Vector]) -> List[Vector]:
    """The dependencies found when ``columns`` are added in index order:
    for each column f that is a combination of earlier ones, the vector v
    (keyed by column index) with v[f] = 1 and sum v[c] * column c = 0.

    These are the reduced-row-echelon free-column kernel vectors of the
    matrix with these columns.  Each column carries a tag, a coordinate
    below every entry position (-len + f for column f), which records the
    combination of columns a stored vector is; a column whose entries
    reduce to zero leaves only its dependency among the tags."""
    n = len(columns)
    e = Echelon()
    deps = []
    for f, column in enumerate(columns):
        v = {c: exact(x) for c, x in column.items() if x}
        v[f - n] = Fraction(1)
        if e.add(v) < 0:
            deps.append({p + n: x for p, x in v.items()})
    return deps
