"""Cochain complexes of graded free modules over an equivariant or
specialized ring context.

Grading convention (used everywhere downstream): a generator labeled q^s
sits at absolute quantum degree s + (1 - n); the monomial x^a on it at
s + (1 - n) + 2a.  Differential matrices are stored row-per-target,
column-per-source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import ContextMismatchError, InternalError, MalformedInputError
from .ring import (
    EQUIVARIANT,
    Poly,
    Rational,
    RingCtx,
    evaluate_poly,
    exact,
    quantum_degree,
    specialized_ctx,
    zero,
)

Matrix = Tuple[Tuple[Poly, ...], ...]


@dataclass(frozen=True)
class GradedFreeComplex:
    """Finite complex of graded free modules.

    ``modules`` maps homological degree to the tuple of generator q-labels;
    ``diffs`` maps degree i to the matrix of d^i : C^i -> C^{i+1}
    (shape rank(i+1) x rank(i)).  Degrees with no generators are absent.
    """

    ctx: RingCtx
    modules: Tuple[Tuple[int, Tuple[int, ...]], ...]
    diffs: Tuple[Tuple[int, Matrix], ...]

    @staticmethod
    def build(
        ctx: RingCtx,
        modules: Dict[int, Sequence[int]],
        diffs: Dict[int, Sequence[Sequence[Poly]]],
    ) -> "GradedFreeComplex":
        mods = tuple(
            (i, tuple(int(s) for s in labels))
            for i, labels in sorted(modules.items())
            if len(labels) > 0
        )
        mdict = dict(mods)
        cleaned = {}
        for i, mat in sorted(diffs.items()):
            src = len(mdict.get(i, ()))
            tgt = len(mdict.get(i + 1, ()))
            if src == 0 or tgt == 0:
                if any(not e.is_zero() for row in mat for e in row):
                    raise MalformedInputError(f"differential at degree {i} has no home")
                continue
            if len(mat) != tgt or any(len(row) != src for row in mat):
                raise MalformedInputError(
                    f"differential at degree {i}: row lengths "
                    f"{[len(row) for row in mat]}, expected {tgt} rows of {src}"
                )
            if any(e.ctx is not ctx and e.ctx != ctx for row in mat for e in row):
                raise ContextMismatchError("matrix entry in a different ring context")
            cleaned[i] = tuple(tuple(row) for row in mat)
        return GradedFreeComplex(ctx, mods, tuple(sorted(cleaned.items())))

    # -- accessors ---------------------------------------------------------

    def degrees(self) -> List[int]:
        return [i for i, _ in self.modules]

    def labels(self, i: int) -> Tuple[int, ...]:
        for d, labs in self.modules:
            if d == i:
                return labs
        return ()

    def rank(self, i: int) -> int:
        return len(self.labels(i))

    def diff(self, i: int) -> List[List[Poly]]:
        """d^i as list-of-rows; zero matrix if absent."""
        for d, mat in self.diffs:
            if d == i:
                return [list(row) for row in mat]
        z = zero(self.ctx)
        return [[z] * self.rank(i) for _ in range(self.rank(i + 1))]

    def absolute_degree(self, label: int) -> int:
        return label + 1 - self.ctx.n


@dataclass(frozen=True)
class ComplexReport:
    ranks: Tuple[Tuple[int, int], ...]
    euler: int
    ok: bool
    failures: Tuple[str, ...]


def validate(c: GradedFreeComplex) -> ComplexReport:
    """Check d^2 = 0 and the grading condition on every entry.

    Equivariant entries must be homogeneous of degree q_src - q_tgt;
    specialized entries must have filtration level <= q_src - q_tgt.
    Failures are reported, not raised.
    """
    failures: List[str] = []
    cols = sparse_columns(c)

    # the first bad entry of each degree, in column-major order
    for i, by_col in cols.items():
        src, tgt = c.labels(i), c.labels(i + 1)
        for col, entries in by_col.items():
            for row, e in entries.items():
                want = src[col] - tgt[row]
                got = quantum_degree(e)
                if c.ctx.kind == EQUIVARIANT:
                    if got != want:
                        failures.append(
                            f"degree {i} entry ({row},{col}): quantum degree "
                            f"{got}, expected {want}"
                        )
                        break
                elif got > want:
                    failures.append(
                        f"degree {i} entry ({row},{col}): filtration level "
                        f"{got} exceeds {want}"
                    )
                    break
            else:
                continue
            break

    # the first nonzero entry of each d^{i+1} d^i, in row-major order
    for i, by_col in cols.items():
        after = cols.get(i + 1, {})
        nonzero = []
        for col, entries in by_col.items():
            acc: Dict[int, Poly] = {}
            for k, e in entries.items():
                for row, e2 in after.get(k, {}).items():
                    acc[row] = acc[row] + e2 * e if row in acc else e2 * e
            nonzero += [(row, col) for row, p in acc.items() if p.terms]
        if nonzero:
            row, col = min(nonzero)
            failures.append(f"d^2 != 0 at degree {i}, entry ({row},{col})")

    ranks = tuple((i, c.rank(i)) for i in c.degrees())
    return ComplexReport(ranks, euler(c), not failures, tuple(failures))


def euler(c: GradedFreeComplex) -> int:
    return sum((-1 if i % 2 else 1) * c.rank(i) for i in c.degrees())


def shift(c: GradedFreeComplex, dt: int, dq: int) -> GradedFreeComplex:
    """Shift homological degrees by dt and all q-labels by dq."""
    mods = {i + dt: [s + dq for s in labs] for i, labs in c.modules}
    diffs = {i + dt: c.diff(i) for i, _ in c.diffs}
    return GradedFreeComplex.build(c.ctx, mods, diffs)


def sparse_columns(c: GradedFreeComplex) -> Dict[int, Dict[int, Dict[int, Poly]]]:
    """The nonzero entries of every d^i, by column: ``out[i][col][row]``.

    Reads each stored matrix once.  Columns and rows ascend; a column with
    no nonzero entry is absent, and so is a degree without a stored
    differential.
    """
    out: Dict[int, Dict[int, Dict[int, Poly]]] = {}
    for i, mat in c.diffs:
        cols = out[i] = {}
        for col, column in enumerate(zip(*mat)):
            entries = {r: e for r, e in enumerate(column) if e.terms}
            if entries:
                cols[col] = entries
    return out


def assign_once(mat: List[List[Poly]], row: int, col: int, e: Poly) -> None:
    """Put e into a slot of a matrix under assembly; a slot that is
    already nonzero is an InternalError, never overwritten or summed."""
    if mat[row][col].terms:
        raise InternalError(f"matrix slot ({row}, {col}) assigned twice")
    mat[row][col] = e


def tensor(c1: GradedFreeComplex, c2: GradedFreeComplex) -> GradedFreeComplex:
    """Tensor product complex with Koszul signs:
    d(g (x) h) = d(g) (x) h + (-1)^{|g|} g (x) d(h).
    Generator q-labels add (each label carries the q^{1-n} background once).

    Every product slot receives at most one factor entry, so the entries
    are assigned, never summed; c2's entries are negated once each, and
    only if c1 has an odd degree.
    """
    if c1.ctx != c2.ctx:
        raise ContextMismatchError("tensor operands live in different contexts")
    ctx = c1.ctx

    # generator list per total degree: (i1, a, i2, b), ordered
    gens: Dict[int, List[Tuple[int, int, int, int]]] = {}
    for i1, labs1 in c1.modules:
        for i2, labs2 in c2.modules:
            bucket = gens.setdefault(i1 + i2, [])
            for a in range(len(labs1)):
                for b in range(len(labs2)):
                    bucket.append((i1, a, i2, b))
    for bucket in gens.values():
        bucket.sort()

    index = {
        deg: {g: k for k, g in enumerate(bucket)} for deg, bucket in gens.items()
    }
    labs1, labs2 = dict(c1.modules), dict(c2.modules)
    mods = {
        deg: [labs1[i1][a] + labs2[i2][b] for (i1, a, i2, b) in bucket]
        for deg, bucket in gens.items()
    }

    d1 = sparse_columns(c1)
    d2 = {1: sparse_columns(c2)}
    if any(i1 % 2 for i1 in c1.degrees()):
        d2[-1] = {
            i: {b: {tb: -e for tb, e in col.items()} for b, col in cols.items()}
            for i, cols in d2[1].items()
        }
    z = zero(ctx)
    diffs: Dict[int, List[List[Poly]]] = {}
    for deg, bucket in sorted(gens.items()):
        if deg + 1 not in gens:
            continue
        tgt = index[deg + 1]
        mat = [[z] * len(bucket) for _ in range(len(tgt))]
        for col, (i1, a, i2, b) in enumerate(bucket):
            for ta, e in d1.get(i1, {}).get(a, {}).items():
                assign_once(mat, tgt[(i1 + 1, ta, i2, b)], col, e)
            for tb, e in d2[-1 if i1 % 2 else 1].get(i2, {}).get(b, {}).items():
                assign_once(mat, tgt[(i1, a, i2 + 1, tb)], col, e)
        diffs[deg] = mat
    return GradedFreeComplex.build(ctx, mods, diffs)


def dual(c: GradedFreeComplex) -> GradedFreeComplex:
    """Dual complex: homological degree i -> -i, differentials transposed,
    label s -> -s.  (The free module q^s R spans absolute degrees
    [s+1-n, s+n-1]; negating that range puts the dual generator at
    -s+1-n, which is the label -s.)"""
    mods = {-i: [-s for s in labs] for i, labs in c.modules}
    diffs: Dict[int, List[List[Poly]]] = {}
    for i, _ in c.diffs:
        mat = c.diff(i)  # rank(i+1) x rank(i)
        diffs[-i - 1] = [list(row) for row in zip(*mat)]
    return GradedFreeComplex.build(c.ctx, mods, diffs)


def evaluate(c: GradedFreeComplex, potential: Iterable[Rational]) -> GradedFreeComplex:
    """Entrywise specialization of an equivariant complex at a monic
    potential (a_i -> coefficient of x^i, then reduction mod dw)."""
    if c.ctx.kind != EQUIVARIANT:
        raise ContextMismatchError("evaluate needs an equivariant complex")
    pot = tuple(exact(v) for v in potential)
    mods = {i: list(labs) for i, labs in c.modules}
    diffs = {
        i: [[evaluate_poly(e, pot) for e in row] for row in c.diff(i)]
        for i, _ in c.diffs
    }
    return GradedFreeComplex.build(specialized_ctx(c.ctx.n, pot), mods, diffs)


def block_sum(c1: GradedFreeComplex, c2: GradedFreeComplex) -> GradedFreeComplex:
    """Direct sum, c1's generators listed first in every degree."""
    if c1.ctx != c2.ctx:
        raise ContextMismatchError("block_sum operands live in different contexts")
    z = zero(c1.ctx)
    mods: Dict[int, List[int]] = {}
    for i in set(c1.degrees()) | set(c2.degrees()):
        mods[i] = list(c1.labels(i)) + list(c2.labels(i))
    diffs: Dict[int, List[List[Poly]]] = {}
    for i in sorted(mods):
        src1, src2 = c1.rank(i), c2.rank(i)
        tgt1, tgt2 = c1.rank(i + 1), c2.rank(i + 1)
        if (tgt1 + tgt2) == 0 or (src1 + src2) == 0:
            continue
        d1 = c1.diff(i)
        d2 = c2.diff(i)
        mat = []
        for r in range(tgt1):
            mat.append(list(d1[r]) + [z] * src2)
        for r in range(tgt2):
            mat.append([z] * src1 + list(d2[r]))
        diffs[i] = mat
    return GradedFreeComplex.build(c1.ctx, mods, diffs)


def rank_one_complex(ctx: RingCtx, label: int = 0, degree: int = 0) -> GradedFreeComplex:
    return GradedFreeComplex.build(ctx, {degree: [label]}, {})
