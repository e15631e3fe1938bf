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
from typing import Dict, NamedTuple, Sequence, Tuple

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
    Poly,
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
    membership questions need (degrees -1, 0, 1 for everything here).

    ``cols[i]`` holds d^i column by column, one column per basis vector
    of degree i, the form every reduction reads; a degree whose d^i has
    no rows is absent."""

    n: int
    potential: Tuple[Fraction, ...]
    basis: Dict[int, Tuple[Monomial, ...]]
    cols: Dict[int, Tuple[Tuple[Fraction, ...], ...]]

    def dim(self, i: int) -> int:
        return len(self.basis.get(i, ()))

    @property
    def mats(self) -> Dict[int, Tuple[Tuple[Fraction, ...], ...]]:
        """Every d^i row by row: ``mats[i][r][c] == cols[i][c][r]``."""
        return {i: tuple(zip(*cols)) for i, cols in self.cols.items()}

    def columns(self, i: int) -> Tuple[Tuple[Fraction, ...], ...]:
        """The columns of d^i; zero columns if it is absent."""
        if i in self.cols:
            return self.cols[i]
        return ((Fraction(0),) * self.dim(i + 1),) * self.dim(i)

    def has_standard_potential(self) -> bool:
        return self.potential == standard_potential(self.n)


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

    cols: Dict[int, Tuple[Tuple[Fraction, ...], ...]] = {}
    for i in degrees:
        if i + 1 not in basis:
            continue
        by_col = c.cols.get(i, {})
        out = []
        for m in basis[i]:
            col = [Fraction(0)] * len(basis[i + 1])
            xa = x_power(c.ctx, m.a)
            for tg, e in by_col.get(m.gen, {}).items():
                for exps, coeff in (e * xa).terms:
                    col[index[i + 1][(tg, exps[0])]] += coeff
            out.append(tuple(col))
        cols[i] = tuple(out)
    return ScalarComplex(n=n, potential=c.ctx.potential, basis=basis, cols=cols)


def gornik_class_fixture(s: ScalarComplex) -> Vector:
    """Distinguished degree-0 cocycle: the generator of the 1-dimensional
    H^0 of the x^{n-1} subcomplex, checked not to be a full coboundary.
    Scaled so its first nonzero coefficient is 1."""
    n = s.n
    sub = {
        i: [p for p, m in enumerate(s.basis.get(i, ())) if m.k == n - 1]
        for i in s.basis
    }
    sub0, sub1 = sub.get(0, []), sub.get(1, [])

    # d0 restricted to the subcomplex; entries out of the subcomplex must die
    rows_out = [r for r in range(s.dim(1)) if r not in sub1]
    d0 = s.columns(0)
    d0_sub = []
    for col in sub0:
        if any(d0[col][r] for r in rows_out):
            raise InternalError("x-top subcomplex is not closed under d")
        d0_sub.append([d0[col][r] for r in sub1])
    dm1 = s.columns(-1)
    boundaries = linalg.rref([[dm1[y][p] for p in sub0] for y in sub.get(-1, [])])

    kernel = linalg.kernel(d0_sub)
    rank_b = len(boundaries.pivots)
    if len(kernel) - rank_b != 1:
        raise NondegeneracyError(
            "H^0 of the x-top subcomplex has dimension "
            f"{len(kernel) - rank_b}, expected 1"
        )
    # representative: the first kernel vector off the sub-coboundaries
    rep = next((v for v in kernel if boundaries.reduce(dict(v)) is not None), None)
    if rep is None:
        raise NondegeneracyError("x-top cohomology class could not be represented")

    psi = [Fraction(0)] * s.dim(0)
    for k, val in rep.items():
        psi[sub0[k]] = val
    # must not be a coboundary in the full complex
    if dm1 and linalg.rref(dm1).reduce({p: v for p, v in enumerate(psi) if v}) is None:
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
    pos = [0] * len(order)
    for p, i in enumerate(order):
        pos[i] = p
    coboundaries = linalg.rref(s.columns(-1), pos)
    top = coboundaries.reduce({pos[r]: Fraction(c) for r, c in enumerate(psi) if c})
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
    class generating the alpha-eigenspace of degree-0 cohomology.

    That class is the image of H^0 under dw(x)/(x - alpha), which acts on
    it as a projector onto the alpha-eigenspace up to a nonzero scalar."""
    alpha = exact(alpha)
    n = s.n
    _check_simple_root(s.potential, alpha)

    # reps: cocycles independent modulo the coboundaries, which with them
    # span every cocycle
    coboundaries = s.columns(-1)
    cocycles = linalg.rref(coboundaries)
    reps = [z for z in linalg.kernel(s.columns(0)) if cocycles.add(dict(z)) is not None]
    if not reps:
        raise NondegeneracyError("degree-0 cohomology vanishes")

    # dw(x)/(x - alpha) by synthetic division of the monic potential
    full = list(s.potential) + [Fraction(1)]
    quot = [Fraction(0)] * n
    carry = Fraction(0)
    for i in range(n, 0, -1):
        carry = full[i] + carry * alpha
        quot[i - 1] = carry
    ctx = specialized_ctx(n, s.potential)
    q = Poly.from_dict(ctx, {(i,): c for i, c in enumerate(quot)})
    basis = s.basis[0]
    index = {(m.gen, m.a): p for p, m in enumerate(basis)}

    def project(v: linalg.Vector) -> linalg.Vector:
        """dw(x)/(x - alpha) times the degree-0 chain v."""
        out: linalg.Vector = {}
        for p, c in v.items():
            m = basis[p]
            for exps, coeff in (q * x_power(ctx, m.a)).terms:
                r = index[(m.gen, exps[0])]
                out[r] = out.get(r, 0) + c * coeff
        return {r: c for r, c in out.items() if c}

    # the image classes; their rank is the dimension of the eigenspace
    image = linalg.rref(coboundaries)
    psi = None
    dim = 0
    for rep in reps:
        w = project(rep)
        if cocycles.reduce(dict(w)) is not None:
            raise InternalError("dw(x)/(x - alpha) does not preserve cocycles")
        if image.add(dict(w)) is not None:
            dim += 1
            if psi is None:
                psi = w
    if dim != 1:
        raise NondegeneracyError(f"alpha-eigenspace has dimension {dim}, expected 1")

    scored = [(Fraction(m.j), i) for i, m in enumerate(basis)]
    gr = _minimal_feasible_value(s, [psi.get(p, 0) for p in range(len(basis))], scored)
    return Fraction(gr - n + 1, 2 * (n - 1))
