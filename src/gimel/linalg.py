"""Dense exact linear algebra over Q, on lists of Fraction rows.

The complexes this package meets are small (a few hundred columns at most),
so plain row reduction with exact rationals is both fast enough and free of
any numerical questions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return zeros(len(a), len(b[0]) if b else 0)
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += c * bk[j]
    return out


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> Vector:
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), Fraction(0)) for row in a]


def rref(a: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form (copy) plus pivot column indices."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def solve(a: Matrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """One solution of a x = b, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0:
        return [Fraction(0)] * cols if all(v == 0 for v in b) else None
    aug = [a[i][:] + [Fraction(b[i])] for i in range(rows)]
    m, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = m[r][cols]
    return x


def nullspace(a: Matrix) -> List[Vector]:
    """Basis of the kernel of a."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[Fraction(i == j) for j in range(cols)] for i in range(cols)]
    m, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis


def in_column_span(a: Matrix, b: Sequence[Fraction]) -> bool:
    return solve(a, b) is not None
