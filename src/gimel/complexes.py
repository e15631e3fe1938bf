"""Cochain complexes of graded free modules over an equivariant or
specialized ring context.

Grading convention (used everywhere downstream): a generator labeled q^s
sits at absolute quantum degree s + (1 - n); the monomial x^a on it at
s + (1 - n) + 2a.  A differential is stored as its nonzero entries, column
(source generator) by column, each column keyed by row (target generator).
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
# The nonzero entries of one differential by column: ``cols[col][row]``.
Columns = Dict[int, Dict[int, Poly]]


@dataclass(frozen=True)
class GradedFreeComplex:
    """Finite complex of graded free modules.

    ``modules`` maps homological degree to the tuple of generator q-labels;
    degrees with no generators are absent.  ``cols[i]`` holds the nonzero
    entries of d^i : C^i -> C^{i+1} by column, ``cols[i][col][row]``, with
    columns and rows ascending; a column with no nonzero entry is absent.
    A degree given a differential keeps its key, even when d^i is zero, as
    long as C^i and C^{i+1} both have generators.  The dicts are
    read-only: code that edits a differential works on a copy.
    """

    ctx: RingCtx
    modules: Tuple[Tuple[int, Tuple[int, ...]], ...]
    cols: Dict[int, Columns]

    @staticmethod
    def build(
        ctx: RingCtx,
        modules: Dict[int, Sequence[int]],
        cols: Dict[int, Columns],
    ) -> "GradedFreeComplex":
        """The one validating constructor.  Zero entries are dropped; a
        nonzero entry must lie inside its d^i, in a degree whose source and
        target both have generators, and in ``ctx``."""
        mods = tuple(
            (i, tuple(int(s) for s in labels))
            for i, labels in sorted(modules.items())
            if len(labels) > 0
        )
        mdict = dict(mods)
        kept: Dict[int, Columns] = {}
        for i, by_col in sorted(cols.items()):
            src = len(mdict.get(i, ()))
            tgt = len(mdict.get(i + 1, ()))
            out: Columns = {}
            for col in sorted(by_col):
                column = {r: e for r, e in sorted(by_col[col].items()) if e.terms}
                if not column:
                    continue
                if src == 0 or tgt == 0:
                    raise MalformedInputError(f"differential at degree {i} has no home")
                rows = list(column)
                if not (0 <= col < src and 0 <= rows[0] and rows[-1] < tgt):
                    raise MalformedInputError(
                        f"differential at degree {i}: column {col} has entries in "
                        f"rows {rows}, expected {tgt} rows of {src}"
                    )
                if any(e.ctx is not ctx and e.ctx != ctx for e in column.values()):
                    raise ContextMismatchError("matrix entry in a different ring context")
                out[col] = column
            if src and tgt:
                kept[i] = out
        return GradedFreeComplex(ctx, mods, kept)

    @staticmethod
    def from_rows(
        ctx: RingCtx,
        modules: Dict[int, Sequence[int]],
        diffs: Dict[int, Sequence[Sequence[Poly]]],
    ) -> "GradedFreeComplex":
        """``build`` from dense differentials, d^i as rank(i+1) rows of
        rank(i) entries wherever both ranks are positive.  Degrees are
        checked in ascending order, each for a nonzero entry with no home
        and then for its row lengths."""
        rank = {i: len(labels) for i, labels in modules.items()}
        cols: Dict[int, Columns] = {}
        for i, mat in sorted(diffs.items()):
            src, tgt = rank.get(i, 0), rank.get(i + 1, 0)
            if not (src and tgt):
                if any(e.terms for row in mat for e in row):
                    raise MalformedInputError(f"differential at degree {i} has no home")
                continue
            if len(mat) != tgt or any(len(row) != src for row in mat):
                raise MalformedInputError(
                    f"differential at degree {i}: row lengths "
                    f"{[len(row) for row in mat]}, expected {tgt} rows of {src}"
                )
            by_col = cols[i] = {}
            for r, row in enumerate(mat):
                for col, e in enumerate(row):
                    if e.terms:
                        by_col.setdefault(col, {})[r] = e
        return GradedFreeComplex.build(ctx, modules, cols)

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

    @property
    def diffs(self) -> Tuple[Tuple[int, Matrix], ...]:
        """Every stored d^i as a dense matrix, row per target, column per
        source.  A derived view that the package never reads: it is kept
        only because the benchmark's size counter reads it, and goes when
        that counter reads ``cols``."""
        return tuple(
            (i, tuple(tuple(row) for row in dense_rows(self, i))) for i in self.cols
        )


def dense_rows(c: GradedFreeComplex, i: int) -> List[List[Poly]]:
    """d^i as rank(i+1) rows of rank(i) entries, zero in every empty slot
    (all of them when c stores no d^i).  For writers and readers of the
    dense form only; the package's own computations read ``cols``."""
    z = zero(c.ctx)
    rows = [[z] * c.rank(i) for _ in range(c.rank(i + 1))]
    for col, column in c.cols.get(i, {}).items():
        for r, e in column.items():
            rows[r][col] = e
    return rows


@dataclass(frozen=True)
class ComplexReport:
    ok: bool
    failures: Tuple[str, ...]


def validate(c: GradedFreeComplex) -> ComplexReport:
    """Check d^2 = 0 and the grading condition on every entry.

    Equivariant entries must be homogeneous of degree q_src - q_tgt;
    specialized entries must have filtration level <= q_src - q_tgt.
    Failures are reported, not raised.
    """
    failures: List[str] = []
    cols = c.cols

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

    return ComplexReport(not failures, tuple(failures))


def euler(c: GradedFreeComplex) -> int:
    return sum((-1 if i % 2 else 1) * c.rank(i) for i in c.degrees())


def assign_once(cols: Columns, row: int, col: int, e: Poly) -> None:
    """Put e into slot (row, col) of a differential under assembly; a slot
    that is already filled is an InternalError, never overwritten or
    summed."""
    column = cols.setdefault(col, {})
    if row in column:
        raise InternalError(f"matrix slot ({row}, {col}) assigned twice")
    column[row] = e


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

    d1 = c1.cols
    d2 = {1: c2.cols}
    if any(i1 % 2 for i1 in c1.degrees()):
        d2[-1] = {
            i: {b: {tb: -e for tb, e in col.items()} for b, col in cols.items()}
            for i, cols in d2[1].items()
        }
    cols: Dict[int, Columns] = {}
    for deg, bucket in sorted(gens.items()):
        if deg + 1 not in gens:
            continue
        tgt = index[deg + 1]
        out = cols[deg] = {}
        for col, (i1, a, i2, b) in enumerate(bucket):
            for ta, e in d1.get(i1, {}).get(a, {}).items():
                assign_once(out, tgt[(i1 + 1, ta, i2, b)], col, e)
            for tb, e in d2[-1 if i1 % 2 else 1].get(i2, {}).get(b, {}).items():
                assign_once(out, tgt[(i1, a, i2 + 1, tb)], col, e)
    return GradedFreeComplex.build(ctx, mods, cols)


def dual(c: GradedFreeComplex) -> GradedFreeComplex:
    """Dual complex: homological degree i -> -i, differentials transposed,
    label s -> -s.  (The free module q^s R spans absolute degrees
    [s+1-n, s+n-1]; negating that range puts the dual generator at
    -s+1-n, which is the label -s.)"""
    mods = {-i: [-s for s in labs] for i, labs in c.modules}
    cols: Dict[int, Columns] = {}
    for i, by_col in c.cols.items():
        out = cols[-i - 1] = {}
        for col, column in by_col.items():
            for r, e in column.items():
                out.setdefault(r, {})[col] = e
    return GradedFreeComplex.build(c.ctx, mods, cols)


def evaluate(c: GradedFreeComplex, potential: Iterable[Rational]) -> GradedFreeComplex:
    """Entrywise specialization of an equivariant complex at a monic
    potential (a_i -> coefficient of x^i, then reduction mod dw).  Only
    the nonzero entries are mapped; one that specializes to 0 is dropped."""
    if c.ctx.kind != EQUIVARIANT:
        raise ContextMismatchError("evaluate needs an equivariant complex")
    pot = tuple(exact(v) for v in potential)
    mods = {i: list(labs) for i, labs in c.modules}
    cols = {
        i: {
            col: {r: evaluate_poly(e, pot) for r, e in column.items()}
            for col, column in by_col.items()
        }
        for i, by_col in c.cols.items()
    }
    return GradedFreeComplex.build(specialized_ctx(c.ctx.n, pot), mods, cols)
