"""The sweep engine: scalar expansion of a specialized complex, the exact
filtration level of the distinguished class, and the piecewise-linear
invariants built from them.

Core reduction: in the monomial basis {x^a g}, both the quantum filtration
(span of monomials with degree <= j) and the x-filtration (span of
monomials with exponent >= k) are coordinate subspaces, and the blended
filtration level of a monomial at parameter t is t(j + k) - k.  The lowest
level at which the distinguished class has a representative is then one
ordered reduction of the class against the coboundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .complexes import GradedFreeComplex
from .errors import (
    InternalError,
    InvalidRootError,
    MalformedInputError,
    NondegeneracyError,
)
from .pl import PiecewiseLinear
from .ring import (
    SPECIALIZED,
    Rational,
    exact,
    specialized_ctx,
    standard_potential,
    x_power,
)
from .verify import genus_bound

Vector = Tuple[Fraction, ...]


class Monomial(NamedTuple):
    gen: int  # generator index within its homological degree
    a: int  # x-exponent
    j: int  # absolute quantum degree
    k: int  # x-filtration level


@dataclass(frozen=True)
class ScalarComplex:
    """Rational-coefficient expansion of a specialized complex over the
    monomial basis, restricted to the homological window that the class
    membership questions need (degrees -1, 0, 1 for everything here)."""

    n: int
    potential: Tuple[Fraction, ...]
    basis: Dict[int, Tuple[Monomial, ...]]
    mats: Dict[int, Tuple[Tuple[Fraction, ...], ...]]

    def dim(self, i: int) -> int:
        return len(self.basis.get(i, ()))

    def matrix(self, i: int) -> linalg.Matrix:
        mat = self.mats.get(i)
        if mat is None:
            return linalg.zeros(self.dim(i + 1), self.dim(i))
        return [list(row) for row in mat]

    def has_standard_potential(self) -> bool:
        return self.potential == standard_potential(self.n)

    def x_action(self) -> linalg.Matrix:
        """Matrix of multiplication by x on the degree-0 chains."""
        ctx = specialized_ctx(self.n, self.potential)
        basis = self.basis.get(0, ())
        index = {(m.gen, m.a): p for p, m in enumerate(basis)}
        out = linalg.zeros(len(basis), len(basis))
        for col, m in enumerate(basis):
            for exps, coeff in x_power(ctx, m.a + 1).terms:
                out[index[(m.gen, exps[0])]][col] += coeff
        return out


# The homological degrees the class membership questions read.
WINDOW = (-1, 0, 1)


def expand(c: GradedFreeComplex) -> ScalarComplex:
    """Monomial-basis expansion of a specialized complex over the degrees
    in ``WINDOW``.

    Each free generator of q-label s contributes monomials x^a (0 <= a < n)
    tagged (j, k) = (s + 1 - n + 2a, a).  Differential entries are expanded
    by exact multiplication mod the potential.
    """
    if c.ctx.kind != SPECIALIZED:
        raise MalformedInputError("expand needs a specialized complex")
    n = c.ctx.n
    degrees = [i for i in c.degrees() if i in WINDOW]

    basis: Dict[int, Tuple[Monomial, ...]] = {}
    for i in degrees:
        basis[i] = tuple(
            Monomial(g, a, s + 1 - n + 2 * a, a)
            for g, s in enumerate(c.labels(i))
            for a in range(n)
        )

    index: Dict[int, Dict[Tuple[int, int], int]] = {
        i: {(m.gen, m.a): p for p, m in enumerate(b)} for i, b in basis.items()
    }

    mats: Dict[int, Tuple[Tuple[Fraction, ...], ...]] = {}
    for i in degrees:
        if i + 1 not in basis or not basis[i]:
            continue
        mat = c.diff(i)
        rows, cols = len(basis[i + 1]), len(basis[i])
        if rows == 0:
            continue
        out = linalg.zeros(rows, cols)
        for col, m in enumerate(basis[i]):
            xa = x_power(c.ctx, m.a)
            for tg in range(c.rank(i + 1)):
                e = mat[tg][m.gen]
                if e.is_zero():
                    continue
                prod = e * xa
                for exps, coeff in prod.terms:
                    out[index[i + 1][(tg, exps[0])]][col] += coeff
        mats[i] = tuple(tuple(row) for row in out)
    return ScalarComplex(n=n, potential=c.ctx.potential, basis=basis, mats=mats)


def cohomology_dimension(s: ScalarComplex, i: int) -> int:
    dim = s.dim(i)
    rank_out = linalg.rank(s.matrix(i)) if s.dim(i + 1) else 0
    rank_in = linalg.rank(s.matrix(i - 1)) if s.dim(i - 1) else 0
    return dim - rank_out - rank_in


def gornik_class_fixture(s: ScalarComplex) -> Vector:
    """Distinguished degree-0 cocycle: the generator of the 1-dimensional
    H^0 of the x^{n-1} subcomplex, checked not to be a full coboundary.
    Scaled so its first nonzero coefficient is 1."""
    n = s.n
    sub = {
        i: [p for p, m in enumerate(s.basis.get(i, ())) if m.k == n - 1]
        for i in s.basis
    }
    d0 = s.matrix(0)
    dm1 = s.matrix(-1)

    # d0 restricted to the subcomplex; entries out of the subcomplex must die
    sub0 = sub.get(0, [])
    rows_out = [r for r in range(s.dim(1)) if r not in sub.get(1, [])]
    for col in sub0:
        for r in rows_out:
            if d0[r][col] != 0:
                raise InternalError("x-top subcomplex is not closed under d")
    d0_sub = [[d0[r][col] for col in sub0] for r in sub.get(1, [])]
    dm1_sub = [[dm1[r][col] for col in sub.get(-1, [])] for r in sub0]

    kernel = (
        linalg.nullspace(d0_sub)
        if d0_sub
        else [
            [Fraction(i == jj) for jj in range(len(sub0))]
            for i in range(len(sub0))
        ]
    )
    rank_b = linalg.rank(dm1_sub) if dm1_sub and sub.get(-1) else 0
    if len(kernel) - rank_b != 1:
        raise NondegeneracyError(
            "H^0 of the x-top subcomplex has dimension "
            f"{len(kernel) - rank_b}, expected 1"
        )
    # representative: kernel vector independent of the sub-coboundaries
    bmat = [list(col) for col in zip(*dm1_sub)] if rank_b else []
    rep = None
    for v in kernel:
        if linalg.rank(bmat + [v]) > rank_b:
            rep = v
            break
    if rep is None:
        raise NondegeneracyError("x-top cohomology class could not be represented")

    psi = [Fraction(0)] * s.dim(0)
    for p, val in zip(sub0, rep):
        psi[p] = val
    # must not be a coboundary in the full complex
    if s.dim(-1) and linalg.in_column_span(dm1, psi):
        raise NondegeneracyError("distinguished class is null-cohomologous")
    lead = next(v for v in psi if v != 0)
    return tuple(v / lead for v in psi)


def _minimal_feasible_value(
    s: ScalarComplex,
    psi: Sequence[Fraction],
    scored: Sequence[Tuple[Fraction, int]],
) -> Fraction:
    """Minimal v such that some cocycle cohomologous to psi is supported on
    the monomials of score <= v.

    Every such cocycle is psi + d^{-1} y, so this is the persistence
    reduction: order the degree-0 coordinates by (score, index), with
    unscored ones above all scored ones, reduce the d^{-1} columns to
    distinct top coordinates, then reduce psi against them.  The score of
    psi's remaining top coordinate is the answer."""
    if not scored:
        raise InternalError("no admissible monomials at all")
    score = {i: v for v, i in scored}
    order = sorted(score, key=lambda i: (score[i], i))
    order += [i for i in range(s.dim(0)) if i not in score]
    pos = {i: p for p, i in enumerate(order)}
    reduced: Dict[int, Dict[int, Fraction]] = {}  # top position -> column

    def reduce(v: Dict[int, Fraction]) -> Optional[int]:
        """Reduce v in place against the stored columns; a nonzero
        remainder is stored under its top position, which is returned."""
        while v:
            top = max(v)
            col = reduced.get(top)
            if col is None:
                reduced[top] = v
                return top
            f = v[top] / col[top]
            for p, c in col.items():
                v[p] = v.get(p, 0) - f * c
                if not v[p]:
                    del v[p]
        return None

    dm1 = s.mats.get(-1, ())
    for y in range(s.dim(-1)):
        reduce({pos[r]: row[y] for r, row in enumerate(dm1) if row[y]})
    top = reduce({pos[r]: Fraction(c) for r, c in enumerate(psi) if c})
    if top is None:
        return min(score.values())
    if order[top] not in score:
        raise InternalError("distinguished class infeasible even with full support")
    return score[order[top]]


def _require_standard(s: ScalarComplex) -> None:
    if not s.has_standard_potential():
        raise MalformedInputError(
            "gamma/gimel need the potential x^n - x^{n-1}; "
            "use s_general for other potentials"
        )


def gamma_at(s: ScalarComplex, psi: Sequence[Fraction], t: Rational) -> Fraction:
    """Pointwise blended-filtration level of the class at parameter t."""
    _require_standard(s)
    t = exact(t)
    if not 0 <= t <= 1:
        raise MalformedInputError(f"t = {t} outside [0,1]")
    scored = [
        (t * (m.j + m.k) - m.k, i) for i, m in enumerate(s.basis.get(0, ()))
    ]
    return _minimal_feasible_value(s, psi, scored)


def gamma_sweep(s: ScalarComplex, psi: Sequence[Fraction]) -> PiecewiseLinear:
    """Exact gamma on [0,1].

    Candidate breakpoints are the parameters where two distinct monomial
    tags (j, k) exchange order; between consecutive candidates the sort
    order is constant, so gamma is linear there and midpoint evaluations
    certify the reconstruction.
    """
    _require_standard(s)
    tags = sorted({(m.j, m.k) for m in s.basis.get(0, ())})
    candidates = {Fraction(0), Fraction(1)}
    for i1 in range(len(tags)):
        j1, k1 = tags[i1]
        for i2 in range(i1 + 1, len(tags)):
            j2, k2 = tags[i2]
            den = (j1 + k1) - (j2 + k2)
            if den != 0:
                t = Fraction(k1 - k2, den)
                if 0 < t < 1:
                    candidates.add(t)
    ts = sorted(candidates)
    vals = [gamma_at(s, psi, t) for t in ts]
    for a in range(len(ts) - 1):
        mid = (ts[a] + ts[a + 1]) / 2
        if gamma_at(s, psi, mid) * 2 != vals[a] + vals[a + 1]:
            raise InternalError(
                f"gamma is not linear on [{ts[a]}, {ts[a + 1]}]: "
                "breakpoint enumeration bug"
            )
    return PiecewiseLinear.from_points(zip(ts, vals))


def gimel_from_gamma(gamma: PiecewiseLinear, n: int) -> PiecewiseLinear:
    """Normalize gamma against the unknot: (gamma(t) - (n-1)(2t-1)) / (2(n-1))."""
    unknot = PiecewiseLinear.from_points([(0, -(n - 1)), (1, n - 1)])
    return (gamma - unknot) * Fraction(1, 2 * (n - 1))


@dataclass(frozen=True)
class GimelReport:
    n: int
    name: str
    gimel: PiecewiseLinear
    gamma: PiecewiseLinear
    r: Fraction
    u: Fraction
    slope0: Fraction
    value1: Fraction
    s_invariant: Fraction
    genus_bound: Fraction
    genus_bound_ceil: int


def invariants_report(
    s: ScalarComplex,
    psi: Sequence[Fraction],
    gamma: PiecewiseLinear,
    gimel: PiecewiseLinear,
    name: str = "",
) -> GimelReport:
    """Derived invariants plus internal-identity checks."""
    n = s.n
    scored_top = [
        (Fraction(m.j), i)
        for i, m in enumerate(s.basis.get(0, ()))
        if m.k == n - 1
    ]
    r = _minimal_feasible_value(s, psi, scored_top)
    u = gamma(1)
    slope0 = gimel.slope_at_zero()
    value1 = gimel.value_at_one()
    s_inv = Fraction(u - n + 1, 2 * (n - 1))
    bound = genus_bound(gimel)
    if gamma(0) != -(n - 1) or gimel(0) != 0:
        raise InternalError("gamma(0) or gimel(0) off their forced values")
    if value1 != s_inv:
        raise InternalError("gimel(1) disagrees with the filtration grading of the class")
    return GimelReport(
        n=n,
        name=name,
        gimel=gimel,
        gamma=gamma,
        r=r,
        u=u,
        slope0=slope0,
        value1=value1,
        s_invariant=s_inv,
        genus_bound=bound,
        genus_bound_ceil=math.ceil(bound),
    )


def _mat_pow_apply(a: linalg.Matrix, coeffs: Sequence[Fraction]) -> linalg.Matrix:
    """Evaluate the polynomial with the given coefficients (index = power)
    at the matrix a."""
    h = len(a)
    out = linalg.zeros(h, h)
    power = [[Fraction(i == jj) for jj in range(h)] for i in range(h)]
    for c in coeffs:
        if c:
            for i in range(h):
                for jj in range(h):
                    out[i][jj] += c * power[i][jj]
        power = linalg.mat_mul(power, a)
    return out


def _check_simple_root(potential: Tuple[Fraction, ...], alpha: Fraction) -> None:
    n = len(potential)
    value = alpha**n + sum(potential[i] * alpha**i for i in range(n))
    deriv = n * alpha ** (n - 1) + sum(
        i * potential[i] * alpha ** (i - 1) for i in range(1, n)
    )
    if value != 0:
        raise InvalidRootError(f"{alpha} is not a root of the potential")
    if deriv == 0:
        raise InvalidRootError(f"{alpha} is a multiple root of the potential")


def s_general(s: ScalarComplex, alpha: Rational) -> Fraction:
    """Concordance bound from a general monic potential with a simple
    rational root alpha: the renormalized quantum filtration grading of the
    class generating the alpha-eigenspace of degree-0 cohomology."""
    alpha = exact(alpha)
    n = s.n
    _check_simple_root(s.potential, alpha)

    n0 = s.dim(0)
    d0 = s.matrix(0)
    dm1 = s.matrix(-1)
    cocycles = (
        linalg.nullspace(d0)
        if s.dim(1)
        else [[Fraction(i == jj) for jj in range(n0)] for i in range(n0)]
    )
    bcols = (
        [[dm1[r][c] for r in range(n0)] for c in range(s.dim(-1))]
        if s.dim(-1)
        else []
    )
    reps: List[List[Fraction]] = []
    span = list(bcols)
    for z in cocycles:
        if linalg.rank(span + [z]) > linalg.rank(span):
            span.append(z)
            reps.append(z)
    h = len(reps)
    if h == 0:
        raise NondegeneracyError("degree-0 cohomology vanishes")

    xmat = s.x_action()

    # induced action on H^0: express x . rep in the basis (reps mod coboundaries)
    solve_cols = [list(col) for col in zip(*(reps + bcols))] if (reps or bcols) else []
    amat = linalg.zeros(h, h)
    for c, rep in enumerate(reps):
        w = linalg.mat_vec(xmat, rep)
        if s.dim(1) and any(v != 0 for v in linalg.mat_vec(d0, w)):
            raise InternalError("x-action does not preserve cocycles")
        coords = linalg.solve(solve_cols, w)
        if coords is None:
            raise InternalError("x-action does not descend to cohomology")
        for r in range(h):
            amat[r][c] = coords[r]

    # projector onto the alpha-eigenspace: dw(x)/(x - alpha) evaluated at
    # the induced action; synthetic division of the monic potential
    full = list(s.potential) + [Fraction(1)]
    quot = [Fraction(0)] * n
    carry = Fraction(0)
    for i in range(n, 0, -1):
        carry = full[i] + carry * alpha
        quot[i - 1] = carry
    proj = _mat_pow_apply(amat, quot)
    if linalg.rank(proj) != 1:
        raise NondegeneracyError(
            f"alpha-eigenspace has dimension {linalg.rank(proj)}, expected 1"
        )
    wcol = next(
        [proj[r][c] for r in range(h)]
        for c in range(h)
        if any(proj[r][c] != 0 for r in range(h))
    )
    psi = [Fraction(0)] * n0
    for coeff, rep in zip(wcol, reps):
        if coeff:
            for r in range(n0):
                psi[r] += coeff * rep[r]

    scored = [(Fraction(m.j), i) for i, m in enumerate(s.basis[0])]
    gr = _minimal_feasible_value(s, psi, scored)
    return Fraction(gr - n + 1, 2 * (n - 1))
