"""Shared corpus definitions and independent oracles used across the
test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction

from gimel import linalg
from gimel.complexes import GradedFreeComplex
from gimel.filtration import ScalarComplex

TREFOIL_PD = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
FIG8_PD = "PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]"
KINK_NEG_PD = "PD[X[1,1,2,2]]"
KINK_POS_PD = "PD[X[2,1,1,2]]"
UNKNOT_PD = "PD[]"

PD_CORPUS = [UNKNOT_PD, KINK_NEG_PD, KINK_POS_PD, TREFOIL_PD, FIG8_PD]


def class_membership_oracle(s: ScalarComplex, psi, admissible) -> bool:
    """Rank-based membership test, independent of the filtration module:
    [psi] lies in the image of H^0(prefix) iff appending psi to the span of
    (cocycles supported on the prefix) + (coboundaries) does not raise the
    rank."""
    adm = sorted(set(admissible))
    n0 = s.dim(0)
    d0 = s.matrix(0)
    span = []
    if s.dim(-1):
        dm1 = s.matrix(-1)
        span.extend([dm1[r][c] for r in range(n0)] for c in range(s.dim(-1)))
    if s.dim(1):
        sub = [[d0[r][c] for c in adm] for r in range(s.dim(1))]
        for v in linalg.nullspace(sub):
            full = [Fraction(0)] * n0
            for c, val in zip(adm, v):
                full[c] = val
            span.append(full)
    else:
        for c in adm:
            full = [Fraction(0)] * n0
            full[c] = Fraction(1)
            span.append(full)
    return linalg.rank(span + [list(psi)]) == linalg.rank(span)


def gamma_oracle(s: ScalarComplex, psi, t: Fraction) -> Fraction:
    """Linear scan (no binary search) over sorted distinct monomial values
    using the rank-based membership test."""
    t = Fraction(t)
    scored = [(t * (m.j + m.k) - m.k, i) for i, m in enumerate(s.basis[0])]
    for v in sorted({v for v, _ in scored}):
        if class_membership_oracle(s, psi, [i for sc, i in scored if sc <= v]):
            return v
    raise AssertionError("class not found at full support")


def u_oracle(s: ScalarComplex, psi) -> Fraction:
    """Quantum filtration grading of [psi]: exhaustive scan over quantum
    levels."""
    return gamma_oracle(s, psi, Fraction(1))


def r_oracle(s: ScalarComplex, psi) -> Fraction:
    """Lowest quantum degree j at which [psi] has a representative on the
    x-top monomials of degree <= j: linear scan with the rank-based
    membership test."""
    top = [(m.j, i) for i, m in enumerate(s.basis[0]) if m.k == s.n - 1]
    for v in sorted({j for j, _ in top}):
        if class_membership_oracle(s, psi, [i for j, i in top if j <= v]):
            return Fraction(v)
    raise AssertionError("class not carried by the x-top monomials")


def isomorphic_up_to_scaling(c1: GradedFreeComplex, c2: GradedFreeComplex) -> bool:
    """Graded isomorphism test allowing generator permutation (within equal
    labels) and unit rescaling of generators.  Exponential in the rank per
    degree; intended for the small fixtures in this suite."""
    if c1.ctx != c2.ctx or sorted(dict(c1.modules)) != sorted(dict(c2.modules)):
        return False
    for i in c1.degrees():
        if sorted(c1.labels(i)) != sorted(c2.labels(i)):
            return False

    degrees = c1.degrees()
    perms_by_degree = []
    for i in degrees:
        labs1, labs2 = c1.labels(i), c2.labels(i)
        perms = [
            p
            for p in itertools.permutations(range(len(labs1)))
            if all(labs1[p[k]] == labs2[k] for k in range(len(labs1)))
        ]
        perms_by_degree.append(perms)

    for combo in itertools.product(*perms_by_degree):
        perm = dict(zip(degrees, combo))
        # quick filter: matrix supports must match under the permutation
        ok = True
        for i in degrees:
            if c2.rank(i + 1) == 0:
                continue
            m1 = c1.diff(i)
            p_src = perm[i]
            p_tgt = perm.get(i + 1)
            if p_tgt is None:
                continue
            pm1 = [[m1[p_tgt[r]][p_src[c]] for c in range(len(p_src))] for r in range(len(p_tgt))]
            m2 = c2.diff(i)
            # scaling freedom: compare supports and entry ratios only
            for r in range(len(p_tgt)):
                for c in range(len(p_src)):
                    if pm1[r][c].is_zero() != m2[r][c].is_zero():
                        ok = False
            if not ok:
                break
        if not ok:
            continue
        # with matching supports and a ratio-consistency pass, accept when
        # every nonzero entry pair differs by a single rational ratio that
        # is consistent along rows and columns (diagonal change of basis)
        if _consistent_rescaling(c1, c2, perm, degrees):
            return True
    return False


def _consistent_rescaling(c1, c2, perm, degrees) -> bool:
    """Is there a diagonal unit rescaling s with s_tgt * e1 = e2 * s_src for
    every nonzero entry (after applying perm to c1)?  Constraint
    propagation over the generator graph."""
    constraints = []  # (src key, tgt key, ratio) meaning s_tgt = ratio * s_src
    for i in degrees:
        if i + 1 not in perm or c2.rank(i + 1) == 0:
            continue
        m1, m2 = c1.diff(i), c2.diff(i)
        p_src, p_tgt = perm[i], perm[i + 1]
        for r in range(len(p_tgt)):
            for c in range(len(p_src)):
                e1 = m1[p_tgt[r]][p_src[c]]
                if e1.is_zero():
                    continue
                ratio = _entry_ratio(e1, m2[r][c])
                if ratio is None:
                    return False
                constraints.append(((i, c), (i + 1, r), ratio))

    keys = sorted({(i, k) for i in degrees for k in range(c1.rank(i))})
    scale = {}
    for seed in keys:
        if seed in scale:
            continue
        scale[seed] = Fraction(1)
        changed = True
        while changed:
            changed = False
            for src, tgt, ratio in constraints:
                if src in scale and tgt not in scale:
                    scale[tgt] = ratio * scale[src]
                    changed = True
                elif tgt in scale and src not in scale:
                    scale[src] = scale[tgt] / ratio
                    changed = True
                elif src in scale and tgt in scale:
                    if scale[tgt] != ratio * scale[src]:
                        return False
    return True


def _entry_ratio(e1, e2):
    """e2 / e1 when e2 is a rational multiple of e1, else None."""
    if e2.is_zero():
        return None
    d1, d2 = dict(e1.terms), dict(e2.terms)
    if set(d1) != set(d2):
        return None
    ratios = {d2[k] / d1[k] for k in d1}
    return ratios.pop() if len(ratios) == 1 else None
