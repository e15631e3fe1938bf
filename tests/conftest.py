"""Shared corpus definitions and independent oracles used across the
test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Tuple

import pytest

from gimel.complexes import ComplexReport, GradedFreeComplex, dense_rows, euler, evaluate
from gimel.cube import Diagram, build_cube, resolve
from gimel.errors import ContextMismatchError, InternalError, NondegeneracyError
from gimel.filtration import ScalarComplex, _check_simple_root, expand
from gimel.ring import (
    EQUIVARIANT,
    Poly,
    exact,
    quantum_degree,
    specialized_ctx,
    standard_potential,
    x_power,
    zero,
)
from gimel.simplify import Decomposition, _unit_value

TREFOIL_PD = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
FIG8_PD = "PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]"
KINK_NEG_PD = "PD[X[1,1,2,2]]"
KINK_POS_PD = "PD[X[2,1,1,2]]"
UNKNOT_PD = "PD[]"

PD_CORPUS = [UNKNOT_PD, KINK_NEG_PD, KINK_POS_PD, TREFOIL_PD, FIG8_PD]


@pytest.fixture
def poly_builds(monkeypatch):
    """A one-element list counting the Polys that arithmetic builds: every
    call to ``Poly.from_dict``, the normal-form constructor, and every new
    Poly of ``Poly._scaled``, the scalar product (negation included) that
    keeps term order and so builds its result without ``from_dict``."""
    calls = [0]
    from_dict, scaled = Poly.from_dict, Poly._scaled

    def counting_from_dict(ctx, d):
        calls[0] += 1
        return from_dict(ctx, d)

    def counting_scaled(self, k):
        out = scaled(self, k)
        calls[0] += out is not self
        return out

    monkeypatch.setattr(Poly, "from_dict", staticmethod(counting_from_dict))
    monkeypatch.setattr(Poly, "_scaled", counting_scaled)
    return calls


def _rref(m):
    """Reduced row echelon form of a copy of the rows ``m`` and its pivot
    columns.  The oracles' own exact elimination, so that none of them runs
    on the package's linear algebra."""
    m = [[Fraction(v) for v in row] for row in m]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((k for k in range(r, len(m)) if m[k][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        lead = m[r][c]
        m[r] = [v / lead for v in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c] != 0:
                f = m[k][c]
                m[k] = [a - f * b for a, b in zip(m[k], m[r])]
        pivots.append(c)
    return m, pivots


def _rank(m) -> int:
    return len(_rref(m)[1])


def _nullspace(m, cols: int):
    """Basis of the kernel of the rows ``m``, each of length ``cols``."""
    red, pivots = _rref(m)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


def _solve(a, b, cols: int):
    """One solution x of a x = b, where a is a list of rows of length
    ``cols``, or None if there is none."""
    if not a:
        return [Fraction(0)] * cols if all(v == 0 for v in b) else None
    red, pivots = _rref([list(row) + [Fraction(v)] for row, v in zip(a, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(red, pivots):
        x[c] = row[cols]
    return x


def _mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), Fraction(0)) for row in a]


def _mat_mul(a, b, cols: int):
    """a times b, where b has ``cols`` columns."""
    return [
        [sum((ai[k] * b[k][j] for k in range(len(b)) if ai[k]), Fraction(0)) for j in range(cols)]
        for ai in a
    ]


def dense_matrix(s: ScalarComplex, i: int):
    """d^i of s as a list of rows; the zero matrix if s stores none."""
    mat = s.mats.get(i)
    if mat is None:
        return [[Fraction(0)] * s.dim(i) for _ in range(s.dim(i + 1))]
    return [list(row) for row in mat]


def x_action(s: ScalarComplex):
    """Matrix of multiplication by x on the degree-0 chains."""
    ctx = specialized_ctx(s.n, s.potential)
    basis = s.basis.get(0, ())
    index = {(m.gen, m.a): p for p, m in enumerate(basis)}
    out = [[Fraction(0)] * len(basis) for _ in basis]
    for col, m in enumerate(basis):
        for exps, coeff in x_power(ctx, m.a + 1).terms:
            out[index[(m.gen, exps[0])]][col] += coeff
    return out


def cohomology_dimension(s: ScalarComplex, i: int) -> int:
    rank_out = _rank(dense_matrix(s, i)) if s.dim(i + 1) else 0
    rank_in = _rank(dense_matrix(s, i - 1)) if s.dim(i - 1) else 0
    return s.dim(i) - rank_out - rank_in


def class_membership_oracle(s: ScalarComplex, psi, admissible) -> bool:
    """Rank-based membership test, independent of the filtration module:
    [psi] lies in the image of H^0(prefix) iff appending psi to the span of
    (cocycles supported on the prefix) + (coboundaries) does not raise the
    rank."""
    adm = sorted(set(admissible))
    n0 = s.dim(0)
    d0 = dense_matrix(s, 0)
    span = []
    if s.dim(-1):
        dm1 = dense_matrix(s, -1)
        span.extend([dm1[r][c] for r in range(n0)] for c in range(s.dim(-1)))
    if s.dim(1):
        sub = [[d0[r][c] for c in adm] for r in range(s.dim(1))]
        for v in _nullspace(sub, len(adm)):
            full = [Fraction(0)] * n0
            for c, val in zip(adm, v):
                full[c] = val
            span.append(full)
    else:
        for c in adm:
            full = [Fraction(0)] * n0
            full[c] = Fraction(1)
            span.append(full)
    return _rank(span + [list(psi)]) == _rank(span)


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


def s_general_reference(s: ScalarComplex, alpha) -> Fraction:
    """The dense ``gimel.filtration.s_general`` that the sparse reduction
    replaced, on this module's own elimination and oracle, kept as the
    older path it is checked against.

    Concordance bound from a general monic potential with a simple
    rational root alpha: the renormalized quantum filtration grading of the
    class generating the alpha-eigenspace of degree-0 cohomology."""
    alpha = exact(alpha)
    n = s.n
    _check_simple_root(s.potential, alpha)

    n0 = s.dim(0)
    d0 = dense_matrix(s, 0)
    dm1 = dense_matrix(s, -1)
    cocycles = _nullspace(d0, n0)
    bcols = [[dm1[r][c] for r in range(n0)] for c in range(s.dim(-1))]
    reps = []
    span = list(bcols)
    for z in cocycles:
        if _rank(span + [z]) > _rank(span):
            span.append(z)
            reps.append(z)
    h = len(reps)
    if h == 0:
        raise NondegeneracyError("degree-0 cohomology vanishes")

    xmat = x_action(s)

    # induced action on H^0: express x . rep in the basis (reps mod coboundaries)
    solve_cols = [list(col) for col in zip(*(reps + bcols))]
    amat = [[Fraction(0)] * h for _ in range(h)]
    for c, rep in enumerate(reps):
        w = _mat_vec(xmat, rep)
        if s.dim(1) and any(v != 0 for v in _mat_vec(d0, w)):
            raise InternalError("x-action does not preserve cocycles")
        coords = _solve(solve_cols, w, len(reps + bcols))
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
    proj = [[Fraction(0)] * h for _ in range(h)]
    power = [[Fraction(i == j) for j in range(h)] for i in range(h)]
    for c in quot:
        proj = [[p + c * q for p, q in zip(prow, qrow)] for prow, qrow in zip(proj, power)]
        power = _mat_mul(power, amat, h)
    if _rank(proj) != 1:
        raise NondegeneracyError(
            f"alpha-eigenspace has dimension {_rank(proj)}, expected 1"
        )
    wcol = next(
        [proj[r][c] for r in range(h)]
        for c in range(h)
        if any(proj[r][c] != 0 for r in range(h))
    )
    psi = [Fraction(0)] * n0
    for coeff, rep in zip(wcol, reps):
        for r in range(n0):
            psi[r] += coeff * rep[r]
    return Fraction(u_oracle(s, psi) - n + 1, 2 * (n - 1))


def oriented_vertex(d: Diagram) -> Tuple[int, ...]:
    """The orientation-preserving smoothing: 0 at positive crossings, 1 at
    negative ones."""
    return tuple(0 if s > 0 else 1 for s in d.signs)


def gornik_cocycle_sl2(d: Diagram) -> Tuple[ScalarComplex, Tuple[Fraction, ...]]:
    """The distinguished degree-0 cocycle of the specialized (x^2 - x) cube:
    every circle of the oriented resolution labeled x.  An oracle for the
    pipeline's class: it reads the full cube, never its simplification.

    Returns the expanded scalar complex of the full cube together with the
    cocycle vector in its degree-0 basis.  Checks that the vector is a
    cocycle, not a coboundary, and a fixed point of the x-action; any
    failure is a convention bug, reported as InternalError.
    """
    cube = build_cube(d)
    s = expand(evaluate(cube.complex, standard_potential(2)))

    r0 = oriented_vertex(d)
    zero_gens = cube.generators.get(0, [])
    st = resolve(d, r0)
    k = len(st.circles) - 1
    pos_of = {}
    for g, (r, eps) in enumerate(zero_gens):
        if r == r0:
            pos_of[eps] = next(
                p
                for p, mono in enumerate(s.basis[0])
                if mono.gen == g and mono.a == 1
            )
    d0 = dense_matrix(s, 0)
    dm1 = dense_matrix(s, -1)
    bcols = [[row[c] for row in dm1] for c in range(s.dim(-1))]

    # Each circle carries a root idempotent of x^2 - x: the element y
    # (root 1) or y - 1 (root 0); the basepoint circle carries x.  The
    # cocycle condition forces adjacent circles at merge edges to carry
    # different roots; search the assignments for the cocycle.
    psi = None
    for labels in itertools.product((1, 0), repeat=k):
        cand = [Fraction(0)] * s.dim(0)
        for eps in itertools.product((0, 1), repeat=k):
            coeff = Fraction(1)
            for lab, e in zip(labels, eps):
                if lab == 1 and e == 0:
                    coeff = Fraction(0)
                    break
                if lab == 0 and e == 0:
                    coeff = -coeff
            if coeff:
                cand[pos_of[eps]] = coeff
        if s.dim(1) and any(v != 0 for v in _mat_vec(d0, cand)):
            continue
        if bcols and _rank(bcols + [cand]) == _rank(bcols):
            continue
        psi = cand
        break
    if psi is None:
        raise InternalError(
            "no oriented-resolution root labeling is a noncobounding cocycle"
        )
    if _mat_vec(x_action(s), psi) != psi:
        raise InternalError("oriented-resolution class is not an x-eigenvector")
    return s, tuple(psi)


def validate_reference(c: GradedFreeComplex) -> ComplexReport:
    """The dense ``gimel.complexes.validate`` that the sparse one replaced,
    kept as the older path it is checked against.

    Check d^2 = 0 and the grading condition on every entry.

    Equivariant entries must be homogeneous of degree q_src - q_tgt;
    specialized entries must have filtration level <= q_src - q_tgt.
    Failures are reported, not raised.
    """
    failures: List[str] = []
    n = c.ctx.n

    for i in c.degrees():
        src = c.labels(i)
        tgt = c.labels(i + 1)
        if not tgt:
            continue
        mat = dense_rows(c, i)
        for col, s in enumerate(src):
            for row, t in enumerate(tgt):
                e = mat[row][col]
                if e.is_zero():
                    continue
                want = (s + 1 - n) - (t + 1 - n)
                got = quantum_degree(e)
                if c.ctx.kind == EQUIVARIANT:
                    if got != want:
                        failures.append(
                            f"degree {i} entry ({row},{col}): quantum degree "
                            f"{got}, expected {want}"
                        )
                        break
                else:
                    if got > want:
                        failures.append(
                            f"degree {i} entry ({row},{col}): filtration level "
                            f"{got} exceeds {want}"
                        )
                        break
            else:
                continue
            break

    for i in c.degrees():
        if c.rank(i + 1) == 0 or c.rank(i + 2) == 0:
            continue
        d0 = dense_rows(c, i)
        d1 = dense_rows(c, i + 1)
        for row in range(c.rank(i + 2)):
            for col in range(c.rank(i)):
                acc = zero(c.ctx)
                for k in range(c.rank(i + 1)):
                    acc = acc + d1[row][k] * d0[k][col]
                if not acc.is_zero():
                    failures.append(f"d^2 != 0 at degree {i}, entry ({row},{col})")
                    break
            else:
                continue
            break

    ranks = tuple((i, c.rank(i)) for i in c.degrees())
    return ComplexReport(ranks, euler(c), not failures, tuple(failures))


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
            m1 = dense_rows(c1, i)
            p_src = perm[i]
            p_tgt = perm.get(i + 1)
            if p_tgt is None:
                continue
            pm1 = [[m1[p_tgt[r]][p_src[c]] for c in range(len(p_src))] for r in range(len(p_tgt))]
            m2 = dense_rows(c2, i)
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
        m1, m2 = dense_rows(c1, i), dense_rows(c2, i)
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
    ratios = {Fraction(d2[k]) / d1[k] for k in d1}
    return ratios.pop() if len(ratios) == 1 else None


def gauss_reference(c: GradedFreeComplex) -> GradedFreeComplex:
    """Cancel invertible-constant entries until none remain: the fill-in
    cost rule that ``gimel.simplify.gauss_simplify`` replaced, kept as the
    older path that the index-order elimination is checked against.

    The result is homotopy equivalent to the input (it differs only by
    acyclic summands).  Pivot choice: among unit entries, minimize
    (row nonzeros - 1) * (column nonzeros - 1), ties broken by smallest
    (degree, row, column), which makes the output deterministic.
    """
    alive: Dict[int, List[bool]] = {i: [True] * c.rank(i) for i in c.degrees()}
    mats: Dict[int, Dict[Tuple[int, int], Poly]] = {}
    for i, _ in c.diffs:
        d = dense_rows(c, i)
        mats[i] = {
            (r, col): e
            for r, row in enumerate(d)
            for col, e in enumerate(row)
            if not e.is_zero()
        }

    def entry(i: int, r: int, col: int) -> Poly:
        return mats.get(i, {}).get((r, col), zero(c.ctx))

    while True:
        best = None
        for i in sorted(mats):
            mat = mats[i]
            if not mat:
                continue
            row_nnz: Dict[int, int] = {}
            col_nnz: Dict[int, int] = {}
            for (r, col) in mat:
                row_nnz[r] = row_nnz.get(r, 0) + 1
                col_nnz[col] = col_nnz.get(col, 0) + 1
            for (r, col) in sorted(mat):
                u = _unit_value(mat[(r, col)])
                if u is None:
                    continue
                cost = (row_nnz[r] - 1) * (col_nnz[col] - 1)
                key = (cost, i, r, col)
                if best is None or key < best[0]:
                    best = (key, i, r, col, u)
        if best is None:
            break
        _, i, r0, c0, u = best

        mat = mats[i]
        beta = {col: e for (r, col), e in mat.items() if r == r0 and col != c0}
        gamma = {r: e for (r, col), e in mat.items() if col == c0 and r != r0}
        for r, ge in gamma.items():
            for col, be in beta.items():
                new = entry(i, r, col) - ge * (Fraction(1, 1) / u) * be
                if new.is_zero():
                    mat.pop((r, col), None)
                else:
                    mat[(r, col)] = new
        for key in [k for k in mat if k[0] == r0 or k[1] == c0]:
            mat.pop(key)
        if i - 1 in mats:
            for key in [k for k in mats[i - 1] if k[0] == c0]:
                mats[i - 1].pop(key)
        if i + 1 in mats:
            for key in [k for k in mats[i + 1] if k[1] == r0]:
                mats[i + 1].pop(key)
        alive[i][c0] = False
        alive[i + 1][r0] = False

    keep = {i: [k for k, a in enumerate(alive[i]) if a] for i in alive}
    new_index = {
        i: {old: new for new, old in enumerate(keep[i])} for i in keep
    }
    mods = {i: [c.labels(i)[k] for k in keep[i]] for i in keep}
    z = zero(c.ctx)
    diffs: Dict[int, List[List[Poly]]] = {}
    for i, mat in mats.items():
        rows, cols = len(keep.get(i + 1, [])), len(keep.get(i, []))
        if rows == 0 or cols == 0:
            continue
        m = [[z] * cols for _ in range(rows)]
        for (r, col), e in mat.items():
            m[new_index[i + 1][r]][new_index[i][col]] = e
        diffs[i] = m
    return GradedFreeComplex.from_rows(c.ctx, mods, diffs)


def tensor_reference(c1: GradedFreeComplex, c2: GradedFreeComplex) -> GradedFreeComplex:
    """The accumulating dense tensor product that ``gimel.complexes.tensor``
    replaced, kept as the older path the assembling one is checked against.

    Tensor product complex with Koszul signs:
    d(g (x) h) = d(g) (x) h + (-1)^{|g|} g (x) d(h).
    Generator q-labels add (each label carries the q^{1-n} background once)."""
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
    mods = {
        deg: [c1.labels(i1)[a] + c2.labels(i2)[b] for (i1, a, i2, b) in bucket]
        for deg, bucket in gens.items()
    }

    d1 = {i: dense_rows(c1, i) for i in c1.degrees()}
    d2 = {i: dense_rows(c2, i) for i in c2.degrees()}
    z = zero(ctx)
    diffs: Dict[int, List[List[Poly]]] = {}
    for deg, bucket in sorted(gens.items()):
        if deg + 1 not in gens:
            continue
        tgt = gens[deg + 1]
        mat = [[z] * len(bucket) for _ in range(len(tgt))]
        for col, (i1, a, i2, b) in enumerate(bucket):
            for ta, row1 in enumerate(d1[i1]):
                e = row1[a]
                if not e.is_zero():
                    row = index[deg + 1][(i1 + 1, ta, i2, b)]
                    mat[row][col] = mat[row][col] + e
            sign = -1 if i1 % 2 else 1
            for tb, row2 in enumerate(d2[i2]):
                e = row2[b]
                if not e.is_zero():
                    row = index[deg + 1][(i1, a, i2 + 1, tb)]
                    mat[row][col] = mat[row][col] + sign * e
        diffs[deg] = mat
    return GradedFreeComplex.from_rows(ctx, mods, diffs)


def split_reference(c: GradedFreeComplex) -> Decomposition:
    """The dense-scan ``gimel.simplify.split_components`` that the sparse
    reader replaced, kept as the older path it is checked against.

    Partition generators into connected components of the graph whose
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

    for i, _ in c.diffs:
        mat = dense_rows(c, i)
        for r in range(c.rank(i + 1)):
            for col in range(c.rank(i)):
                if not mat[r][col].is_zero():
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
        diffs = {}
        for i, _ in c.diffs:
            src, tgt = idx.get(i, []), idx.get(i + 1, [])
            if not src or not tgt:
                continue
            full = dense_rows(c, i)
            diffs[i] = [[full[r][col] for col in src] for r in tgt]
        summands.append(GradedFreeComplex.from_rows(c.ctx, mods, diffs))
        provenance.append(tuple(members))
    return Decomposition(tuple(summands), tuple(provenance))
