"""Continuous piecewise-linear functions on [0,1] with exact rational
breakpoints and values."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple

from .errors import MalformedInputError
from .ring import Rational, exact


@dataclass(frozen=True)
class PiecewiseLinear:
    """Breakpoints 0 = t_0 < ... < t_m = 1 with values v_0 ... v_m and
    linear interpolation in between.  Canonical form: adjacent collinear
    pieces are merged, so equal functions compare equal."""

    breakpoints: Tuple[Fraction, ...]
    values: Tuple[Fraction, ...]

    @staticmethod
    def from_points(points: Iterable[Tuple[Rational, Rational]]) -> "PiecewiseLinear":
        pts = sorted((exact(t), exact(v)) for t, v in points)
        if not pts or pts[0][0] != 0 or pts[-1][0] != 1:
            raise MalformedInputError("breakpoints must start at 0 and end at 1")
        ts = [t for t, _ in pts]
        if len(set(ts)) != len(ts):
            raise MalformedInputError("duplicate breakpoints")
        merged: List[Tuple[Fraction, Fraction]] = [pts[0]]
        for t, v in pts[1:]:
            while len(merged) >= 2:
                (t0, v0), (t1, v1) = merged[-2], merged[-1]
                if (v1 - v0) * (t - t1) == (v - v1) * (t1 - t0):
                    merged.pop()
                else:
                    break
            merged.append((t, v))
        return PiecewiseLinear(
            tuple(t for t, _ in merged), tuple(v for _, v in merged)
        )

    @staticmethod
    def linear(slope: Rational, intercept: Rational = 0) -> "PiecewiseLinear":
        s, b = exact(slope), exact(intercept)
        return PiecewiseLinear.from_points([(0, b), (1, b + s)])

    @staticmethod
    def zero() -> "PiecewiseLinear":
        return PiecewiseLinear.linear(0)

    def __call__(self, t: Rational) -> Fraction:
        t = exact(t)
        if not 0 <= t <= 1:
            raise MalformedInputError(f"argument {t} outside [0,1]")
        bps = self.breakpoints
        for i in range(len(bps) - 1):
            if bps[i] <= t <= bps[i + 1]:
                t0, t1 = bps[i], bps[i + 1]
                v0, v1 = self.values[i], self.values[i + 1]
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        raise AssertionError("unreachable")

    def slope_at_zero(self) -> Fraction:
        """Right-hand derivative at 0."""
        return (self.values[1] - self.values[0]) / (
            self.breakpoints[1] - self.breakpoints[0]
        )

    def value_at_one(self) -> Fraction:
        return self.values[-1]

    def is_linear(self) -> bool:
        return len(self.breakpoints) == 2 and self.values[0] == 0

    def _zip(self, other: "PiecewiseLinear") -> List[Fraction]:
        return sorted(set(self.breakpoints) | set(other.breakpoints))

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        ts = self._zip(other)
        return PiecewiseLinear.from_points([(t, self(t) + other(t)) for t in ts])

    def __sub__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        ts = self._zip(other)
        return PiecewiseLinear.from_points([(t, self(t) - other(t)) for t in ts])

    def __mul__(self, c: Rational) -> "PiecewiseLinear":
        c = exact(c)
        return PiecewiseLinear.from_points(
            [(t, v * c) for t, v in zip(self.breakpoints, self.values)]
        )

    __rmul__ = __mul__

    def __neg__(self) -> "PiecewiseLinear":
        return self * -1

    def __str__(self) -> str:
        pts = ", ".join(
            f"({t}, {v})" for t, v in zip(self.breakpoints, self.values)
        )
        return f"PL[{pts}]"
