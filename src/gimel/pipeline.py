"""End-to-end orchestration: from an equivariant or specialized complex
(or a planar diagram) to the full invariant report, or to its summands.

Equivariant inputs are simplified first: Gaussian elimination over the
equivariant ring only ever cancels degree-0 constant entries, so it is a
graded homotopy equivalence and specializes to a filtered one.  Specialized
inputs are expanded as-is (a constant entry there may sit in positive
filtration degree, where elimination would not be filtration-safe).
"""

from __future__ import annotations

from typing import Tuple, Union

from .complexes import GradedFreeComplex, evaluate
from .cube import Diagram, build_equivariant_sl2, parse_pd
from .filtration import (
    GimelReport,
    ScalarComplex,
    expand,
    gamma_sweep,
    gimel_from_gamma,
    gornik_class_fixture,
    invariants_report,
)
from .ring import EQUIVARIANT, standard_potential
from .simplify import extract_sn, gauss_simplify, split_components


def decompose(c: GradedFreeComplex) -> Tuple[Tuple[GradedFreeComplex, ...], int]:
    """The summands of the simplified complex and the index of the odd-Euler one."""
    summands = split_components(gauss_simplify(c))
    return summands, summands.index(extract_sn(summands))


def specialize_for_sweep(c: GradedFreeComplex) -> ScalarComplex:
    if c.ctx.kind == EQUIVARIANT:
        c = evaluate(gauss_simplify(c), standard_potential(c.ctx.n))
    return expand(c)


def compute_report(c: GradedFreeComplex, name: str = "") -> GimelReport:
    s = specialize_for_sweep(c)
    psi = gornik_class_fixture(s)
    gamma = gamma_sweep(s, psi)
    gimel = gimel_from_gamma(gamma, s.n)
    return invariants_report(s, psi, gamma, gimel, name=name)


def compute_report_pd(pd: Union[str, Diagram], name: str = "") -> GimelReport:
    d = parse_pd(pd) if isinstance(pd, str) else pd
    if not name:
        name = f"pd:{len(d.crossings)}x:w{d.writhe:+d}"
    return compute_report(build_equivariant_sl2(d), name=name)
