"""Exact checks of the structural inequalities satisfied by the computed
piecewise-linear invariants.  Every check evaluates only at breakpoints
(plus the endpoints already among them), which suffices by linearity."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .pl import PiecewiseLinear


@dataclass(frozen=True)
class PropertyVerdict:
    name: str
    holds: bool
    worst_t: Optional[Fraction]
    slack: Optional[Fraction]


def _worst(name: str, pairs) -> PropertyVerdict:
    """Verdict from (t, slack) pairs: holds iff min slack >= 0."""
    pairs = list(pairs)
    if not pairs:
        return PropertyVerdict(name, True, None, None)
    t, slack = min(pairs, key=lambda p: p[1])
    return PropertyVerdict(name, slack >= 0, t, slack)


def check_cone(gimel: PiecewiseLinear) -> PropertyVerdict:
    """t * gimel(1) <= gimel(t) <= t * gimel'(0) on [0,1]."""
    v1 = gimel.value_at_one()
    s0 = gimel.slope_at_zero()
    pairs = []
    for t in gimel.breakpoints:
        v = gimel(t)
        pairs.append((t, v - t * v1))
        pairs.append((t, t * s0 - v))
    return _worst("cone", pairs)


def check_gap(gimel: PiecewiseLinear) -> PropertyVerdict:
    """gimel'(0) - 1 <= gimel(1) <= gimel'(0)."""
    s0 = gimel.slope_at_zero()
    v1 = gimel.value_at_one()
    pairs = [(Fraction(1), v1 - (s0 - 1)), (Fraction(1), s0 - v1)]
    return _worst("gap", pairs)


def check_quasi(
    a: PiecewiseLinear, b: PiecewiseLinear, ab: PiecewiseLinear
) -> PropertyVerdict:
    """Connected-sum behavior: |ab(t) - a(t) - b(t)| <= 2t, slopes at 0
    add exactly, and ab(1) >= a(1) + b(1)."""
    diff = ab - a - b
    pairs = []
    for t in diff.breakpoints:
        v = diff(t)
        pairs.append((t, 2 * t - v))
        pairs.append((t, 2 * t + v))
    slope_gap = ab.slope_at_zero() - a.slope_at_zero() - b.slope_at_zero()
    pairs.append((Fraction(0), -abs(slope_gap)))
    pairs.append(
        (Fraction(1), ab.value_at_one() - a.value_at_one() - b.value_at_one())
    )
    return _worst("quasi-additivity", pairs)


def check_linear(gimel: PiecewiseLinear) -> PropertyVerdict:
    """gimel(t) = c*t for a single rational c."""
    if gimel.is_linear():
        return PropertyVerdict("linear", True, None, Fraction(0))
    c = gimel.value_at_one()
    worst = max(
        ((t, abs(gimel(t) - c * t)) for t in gimel.breakpoints),
        key=lambda p: p[1],
    )
    return PropertyVerdict("linear", False, worst[0], -worst[1])


def genus_bound(gimel: PiecewiseLinear) -> Fraction:
    """max over breakpoints t > 0 of |gimel(t) / t| (a slice-genus lower
    bound)."""
    return max(
        (abs(gimel(t) / t) for t in gimel.breakpoints if t > 0),
        default=Fraction(0),
    )
