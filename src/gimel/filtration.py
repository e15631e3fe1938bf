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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from . import linalg
from .complexes import GradedFreeComplex
from .errors import (
    InternalError,
    InvalidRootError,
    MalformedInputError,
    NondegeneracyError,
)
from .pl import PiecewiseLinear
from .ring import SPECIALIZED, Rational, exact, standard_potential, x_power
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

    ``cols[i]`` holds d^i as one sparse column ``{row: value}`` (rows
    ascending) per basis vector of degree i, the form every reduction
    reads; a column is empty where d^i has no entries."""

    n: int
    potential: Tuple[Fraction, ...]
    basis: Dict[int, Tuple[Monomial, ...]]
    cols: Dict[int, Tuple[linalg.Vector, ...]]

    def dim(self, i: int) -> int:
        return len(self.basis.get(i, ()))

    @property
    def mats(self) -> Dict[int, Tuple[Tuple[Fraction, ...], ...]]:
        """A dense view of every d^i whose target has a basis, row by row:
        ``mats[i][r][c] == cols[i][c].get(r, 0)``."""
        zero = Fraction(0)
        return {
            i: tuple(
                tuple(col.get(r, zero) for col in cols) for r in range(self.dim(i + 1))
            )
            for i, cols in self.cols.items()
            if i + 1 in self.basis
        }


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

    zero = Fraction(0)
    cols: Dict[int, Tuple[linalg.Vector, ...]] = {}
    for i in degrees:
        by_col = c.cols.get(i, {}) if i + 1 in basis else {}
        out = []
        for m in basis[i]:
            col: linalg.Vector = {}
            xa = x_power(c.ctx, m.a)
            for tg, e in by_col.get(m.gen, {}).items():
                for exps, coeff in (e * xa).terms:
                    r = tg * n + exps[0]  # monomial x^a on g sits at g * n + a
                    col[r] = col.get(r, zero) + coeff
            out.append({r: col[r] for r in sorted(col) if col[r]})
        cols[i] = tuple(out)
    return ScalarComplex(n=n, potential=c.ctx.potential, basis=basis, cols=cols)


def _eigenclass(s: ScalarComplex, alpha: Fraction) -> Vector:
    """A degree-0 cocycle whose class spans the alpha-eigenspace of x on
    H^0, for a simple root alpha of the potential w.

    With q = w / (x - alpha), q (x - alpha) = 0 mod w, so e = q(x) / q(alpha)
    is an idempotent and the eigenspace is H^0(eC).  The complex eC has one
    basis vector q g per generator g, and its differential is d with x set
    to alpha: column (g, 0) of d^i with each row (r, b) weighted by
    alpha^b.  A cocycle c of eC is the chain with coordinate c_g q_a at
    monomial (g, a)."""
    # synthetic division of the monic potential by x - alpha: the carries
    # are q's coefficients from x^{n-1} down, then the remainder w(alpha)
    carry, q = Fraction(0), []
    for c in reversed(s.potential + (Fraction(1),)):
        carry = c + carry * alpha
        q.append(carry)
    if q.pop() != 0:
        raise InvalidRootError(f"{alpha} is not a root of the potential")
    q.reverse()  # q[a] multiplies x^a
    powers = [alpha**b for b in range(s.n)]
    # w = (x - alpha) q, so w'(alpha) = q(alpha)
    if sum(c * v for c, v in zip(q, powers)) == 0:
        raise InvalidRootError(f"{alpha} is a multiple root of the potential")

    def at_alpha(i: int) -> List[linalg.Vector]:
        """d^i with x set to alpha, one column per generator of degree i."""
        rows = s.basis.get(i + 1, ())
        out = []
        for m, col in zip(s.basis.get(i, ()), s.cols.get(i, ())):
            if m.a == 0:
                v: linalg.Vector = {}
                for r, e in col.items():
                    g = rows[r].gen
                    v[g] = v.get(g, 0) + e * powers[rows[r].a]
                out.append(v)
        return out

    cocycles = linalg.kernel(at_alpha(0))
    coboundaries = linalg.rref(at_alpha(-1))
    dim = len(cocycles) - len(coboundaries.pivots)
    if dim != 1:
        raise NondegeneracyError(
            f"x on H^0 has an eigenspace of dimension {dim} for {alpha}, expected 1"
        )
    # the first cocycle off the coboundaries; with dim 1 one always is
    rep = next(z for z in cocycles if coboundaries.reduce(dict(z)) is not None)
    return tuple(rep.get(m.gen, 0) * q[m.a] for m in s.basis[0])


def gornik_class_fixture(s: ScalarComplex) -> Vector:
    """Distinguished degree-0 cocycle: the generator of the 1-eigenspace of
    x on H^0, which for the potential x^n - x^{n-1} (q = x^{n-1}) sits on
    the x-top monomials.  ``_eigenclass`` returns a cocycle that is not a
    coboundary.  Scaled so its first nonzero coefficient is 1."""
    _require_standard(s)
    psi = _eigenclass(s, Fraction(1))
    lead = next(v for v in psi if v != 0)
    return tuple(v / lead for v in psi)


def _class_support(s: ScalarComplex, psi: Sequence[Fraction]) -> linalg.Vector:
    """The nonzero coordinates of psi, checked to be a nonzero cocycle of
    C^0; a vector of the wrong length, zero or with d^0 psi != 0 is
    MalformedInputError."""
    if len(psi) != s.dim(0):
        raise MalformedInputError(
            f"class vector has {len(psi)} coordinates, C^0 has dimension {s.dim(0)}"
        )
    support = {p: exact(c) for p, c in enumerate(psi) if c}
    if not support:
        raise MalformedInputError("class vector is zero")
    image: linalg.Vector = {}
    for p, c in support.items():
        for r, e in s.cols[0][p].items():
            image[r] = image.get(r, 0) + c * e
    if any(image.values()):
        raise MalformedInputError("class vector is not a cocycle: d^0 psi != 0")
    return support


def _top(
    s: ScalarComplex, support: linalg.Vector, key: Callable[[Monomial], Any]
) -> Monomial:
    """The top monomial of the class with this support once it is reduced
    against the coboundaries, with the C^0 monomials ranked lowest first by
    (key(monomial), index): the persistence reduction.  Its key is the
    lowest level under that order at which the class has a representative,
    so each invariant is read off it.  A coboundary is MalformedInputError."""
    basis = s.basis[0]
    order = sorted(range(len(basis)), key=lambda i: (key(basis[i]), i))
    pos = [0] * len(order)
    for p, i in enumerate(order):
        pos[i] = p
    coboundaries = linalg.rref(s.cols.get(-1, ()), pos)
    top = coboundaries.reduce({pos[r]: c for r, c in support.items()})
    if top is None:
        raise MalformedInputError("class vector is a coboundary")
    return basis[order[top]]


def _require_standard(s: ScalarComplex) -> None:
    if s.potential != standard_potential(s.n):
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
    support = _class_support(s, psi)

    def level(m: Monomial) -> Fraction:
        return t * (m.j + m.k) - m.k

    return level(_top(s, support, level))


def _candidates(tags: Sequence[Tuple[int, int]]) -> List[Fraction]:
    """0, 1 and every t in (0, 1) where two distinct monomial tags (j, k)
    exchange the order of their scores t(j + k) - k, ascending."""
    candidates = {Fraction(0), Fraction(1)}
    for (j1, k1), (j2, k2) in itertools.combinations(tags, 2):
        den = (j1 + k1) - (j2 + k2)
        if den != 0:
            t = Fraction(k1 - k2, den)
            if 0 < t < 1:
                candidates.add(t)
    return sorted(candidates)


def gamma_sweep(s: ScalarComplex, psi: Sequence[Fraction]) -> PiecewiseLinear:
    """Exact gamma on [0,1], one reduction per interval.

    Candidate breakpoints are the parameters where two distinct monomial
    tags (j, k) exchange order.  Inside an interval between consecutive
    candidates the order of the scores is fixed, and monomials with equal
    tags keep their index order, so one reduction at the midpoint finds
    the top monomial m for the whole interval.  gamma is continuous, so it
    is the line t(m.j + m.k) - m.k on the closed interval.

    Certificate: neighbouring lines must agree where their intervals meet,
    and the first and last lines must agree with a pointwise ``gamma_at``
    at t = 0 and t = 1.  So every line is checked at both ends by a
    separate reduction, and no midpoint is evaluated pointwise.
    """
    _require_standard(s)
    support = _class_support(s, psi)
    ts = _candidates(sorted({(m.j, m.k) for m in s.basis[0]}))
    ends = []  # gamma's line on each interval, at its two ends
    for lo, hi in zip(ts, ts[1:]):
        # q times the score at the midpoint p/q, an int: it ranks the monomials alike
        mid = (lo + hi) / 2
        p, q = mid.numerator, mid.denominator
        m = _top(s, support, lambda mono: p * (mono.j + mono.k) - q * mono.k)
        ends.append((lo * (m.j + m.k) - m.k, hi * (m.j + m.k) - m.k))
    for t, (_, left), (right, _) in zip(ts[1:], ends, ends[1:]):
        if left != right:
            raise InternalError(f"gamma jumps at {t}: breakpoint enumeration bug")
    if gamma_at(s, psi, 0) != ends[0][0] or gamma_at(s, psi, 1) != ends[-1][1]:
        raise InternalError("gamma at 0 or 1 is off its line: breakpoint enumeration bug")
    return PiecewiseLinear.from_points(zip(ts, [lo for lo, _ in ends] + [ends[-1][1]]))


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
    # r: the lowest quantum degree of a representative on the x-top
    # monomials, which rank below every other monomial
    top = _top(s, _class_support(s, psi), lambda m: (m.k != n - 1, m.j))
    if top.k != n - 1:
        raise InternalError("distinguished class infeasible even with full support")
    r = Fraction(top.j)
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


def s_general(s: ScalarComplex, alpha: Rational) -> Fraction:
    """Concordance bound from a general monic potential with a simple
    rational root alpha: the renormalized quantum filtration grading of the
    class generating the alpha-eigenspace of degree-0 cohomology.

    That class is the one ``_eigenclass`` finds."""
    alpha = exact(alpha)
    n = s.n
    psi = _eigenclass(s, alpha)
    gr = _top(s, _class_support(s, psi), lambda m: m.j).j
    return Fraction(gr - n + 1, 2 * (n - 1))
