"""Exact arithmetic in the graded ring underlying equivariant sl_n data.

Two kinds of ring context are supported:

* ``equivariant``: the polynomial ring Q[x, a1, ..., a_{n-1}], graded by
  deg x = 2, deg a_i = 2(n - i).  The extra generator ``a0`` that appears
  in input data is eliminated through the defining relation
  a0 = -(x^n + a_{n-1} x^{n-1} + ... + a1 x), which gives every element a
  canonical normal form.
* ``specialized``: the quotient Q[x]/(dw) for a monic degree-n potential
  dw, with representatives of degree < n.

Coefficients are exact rationals: an integral coefficient is stored as an
``int`` and any other as a ``fractions.Fraction``, so a value has one
representation.  There is no floating point anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Tuple, Union

from .errors import (
    ContextMismatchError,
    DegreeMismatchError,
    MalformedInputError,
    UndefinedDegreeError,
)

Rational = Union[int, Fraction]

EQUIVARIANT = "equivariant"
SPECIALIZED = "specialized"


def require_exact(v: Rational) -> Rational:
    """v unchanged if it is an int or a Fraction; anything else is a
    TypeError, so no float ever enters exact data."""
    if not isinstance(v, (int, Fraction)):
        raise TypeError(f"expected an int or Fraction, got {type(v).__name__}")
    return v


def exact(v: Rational) -> Fraction:
    """v as a Fraction, under require_exact's check; a Fraction is
    returned as it is."""
    if type(v) is Fraction:
        return v
    return Fraction(require_exact(v))


@dataclass(frozen=True)
class RingCtx:
    """Ring context: n plus either the formal (equivariant) or the
    specialized ring with its monic potential.

    ``potential`` lists the n lower coefficients (c0, ..., c_{n-1}) of
    dw = x^n + c_{n-1} x^{n-1} + ... + c0; the leading 1 is implicit.
    """

    n: int
    kind: str
    potential: Optional[Tuple[Fraction, ...]] = None

    def __post_init__(self):
        if self.n < 2:
            raise MalformedInputError(f"n must be >= 2, got {self.n}")
        if self.kind not in (EQUIVARIANT, SPECIALIZED):
            raise MalformedInputError(f"unknown ring kind {self.kind!r}")
        if self.kind == SPECIALIZED:
            if self.potential is None:
                raise MalformedInputError("specialized context needs a potential")
            pot = tuple(exact(c) for c in self.potential)
            if len(pot) != self.n:
                raise DegreeMismatchError(
                    f"potential has {len(pot)} coefficients, expected {self.n}"
                )
            object.__setattr__(self, "potential", pot)
        elif self.potential is not None:
            raise MalformedInputError("equivariant context must not carry a potential")

    @property
    def nvars(self) -> int:
        # exponent-vector length: (x,) specialized, (x, a1..a_{n-1}) equivariant
        return 1 if self.kind == SPECIALIZED else self.n

    def var_names(self) -> Tuple[str, ...]:
        if self.kind == SPECIALIZED:
            return ("x",)
        return ("x",) + tuple(f"a{i}" for i in range(1, self.n))


# One shared instance per argument, so the context checks on every
# operation and matrix entry usually succeed on identity alone.
@functools.lru_cache(maxsize=None)
def equivariant_ctx(n: int) -> RingCtx:
    return RingCtx(n, EQUIVARIANT)


def specialized_ctx(n: int, potential: Iterable[Rational]) -> RingCtx:
    return _specialized_ctx(n, tuple(exact(c) for c in potential))


@functools.lru_cache(maxsize=64)
def _specialized_ctx(n: int, potential: Tuple[Fraction, ...]) -> RingCtx:
    return RingCtx(n, SPECIALIZED, potential)


def standard_potential(n: int) -> Tuple[Fraction, ...]:
    """Coefficients of x^n - x^{n-1}, the potential used by the gimel engine."""
    coeffs = [Fraction(0)] * n
    coeffs[n - 1] = Fraction(-1)
    return tuple(coeffs)


@dataclass(frozen=True)
class Poly:
    """Polynomial in normal form for its context.

    ``terms`` maps exponent vectors (tuples over the context's variables)
    to nonzero rational coefficients: an ``int`` when the coefficient is
    integral, a ``Fraction`` otherwise.  ``from_dict`` is the one
    normal-form constructor, so equal polynomials have equal ``terms``, in
    type as well as in value.  The zero polynomial has no terms.  Instances
    are immutable and hashable.
    """

    ctx: RingCtx
    terms: Tuple[Tuple[Tuple[int, ...], Rational], ...]

    @staticmethod
    def from_dict(ctx: RingCtx, d: Mapping[Tuple[int, ...], Rational]) -> "Poly":
        items = tuple(sorted(
            (e, c.numerator if type(c) is Fraction and c.denominator == 1 else c)
            for e, c in d.items()
            if c
        ))
        return Poly(ctx, items)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other) -> None:
        if not isinstance(other, Poly) or (
            other.ctx is not self.ctx and other.ctx != self.ctx
        ):
            raise ContextMismatchError("operand context differs from target context")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return Poly.from_dict(self.ctx, d)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def _scaled(self, k: Rational) -> "Poly":
        """self * k for a rational k.  Scaling by a nonzero k keeps every
        exponent, so the terms need no re-sort and no zero filter."""
        if k == 1:
            return self
        if not k:
            return Poly(self.ctx, ())
        terms = []
        for e, c in self.terms:
            v = c * k
            if type(v) is Fraction and v.denominator == 1:
                v = v.numerator
            terms.append((e, v))
        return Poly(self.ctx, tuple(terms))

    def __mul__(self, other) -> "Poly":
        """Product with a Poly of the same context, or with an int or
        Fraction scalar (any other operand is a TypeError).  A nonzero
        constant factor scales the other one."""
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if len(other.terms) == 1 and not any(other.terms[0][0]):
            return self._scaled(other.terms[0][1])
        if len(self.terms) == 1 and not any(self.terms[0][0]):
            return other._scaled(self.terms[0][1])
        d: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                d[e] = d.get(e, 0) + c1 * c2
        if self.ctx.kind == SPECIALIZED:
            return _reduce_mod_potential({e[0]: c for e, c in d.items()}, self.ctx)
        return Poly.from_dict(self.ctx, d)

    __rmul__ = __mul__

    def __neg__(self) -> "Poly":
        return self * -1

    def __str__(self) -> str:
        return format_poly(self)


def zero(ctx: RingCtx) -> Poly:
    return Poly(ctx, ())


def constant(ctx: RingCtx, c: Rational) -> Poly:
    return Poly.from_dict(ctx, {(0,) * ctx.nvars: require_exact(c)})


def _exps(ctx: RingCtx, k: int, i: int = 0) -> Tuple[int, ...]:
    """Equivariant exponent vector of x^k * a_i, or of x^k alone for i = 0."""
    e = [k] + [0] * (ctx.nvars - 1)
    if i:
        e[i] = 1
    return tuple(e)


def x_power(ctx: RingCtx, a: int) -> Poly:
    if ctx.kind == SPECIALIZED:
        return _reduce_mod_potential({a: 1}, ctx)
    return Poly.from_dict(ctx, {_exps(ctx, a): 1})


def _variable(name: str, ctx: RingCtx) -> Poly:
    """Normal form of the variable x or a_i in ctx.

    Over the equivariant ring a0 is eliminated through its defining
    relation; over the specialized ring every a_i is the potential
    coefficient c_i.  Raises MalformedInputError on an unknown variable or
    an index >= n.
    """
    if name == "x":
        return x_power(ctx, 1)
    index = name[1:]
    if not (name.startswith("a") and index.isascii() and index.isdigit()):
        raise MalformedInputError(f"unknown variable {name!r}")
    i = int(index)
    if i >= ctx.n:
        raise MalformedInputError(f"variable {name!r} out of range for n={ctx.n}")
    if ctx.kind == SPECIALIZED:
        return constant(ctx, ctx.potential[i])
    if i:
        return Poly.from_dict(ctx, {_exps(ctx, 0, i): 1})
    # a0 = -(x^n + a_{n-1} x^{n-1} + ... + a1 x)
    d = {_exps(ctx, j, j): -1 for j in range(1, ctx.n)}
    d[_exps(ctx, ctx.n)] = -1
    return Poly.from_dict(ctx, d)


def _reduce_mod_potential(coeffs: dict, ctx: RingCtx) -> Poly:
    """Reduce {x-exponent: coeff} mod the monic potential, in place."""
    n = ctx.n
    pot = ctx.potential
    while coeffs:
        m = max(coeffs)
        if m < n:
            break
        c = coeffs.pop(m)
        if c == 0:
            continue
        # x^m = x^{m-n} * (-(c0 + c1 x + ... + c_{n-1} x^{n-1}))
        for i in range(n):
            if pot[i] != 0:
                e = m - n + i
                coeffs[e] = coeffs.get(e, 0) - c * pot[i]
    return Poly.from_dict(ctx, {(e,): c for e, c in coeffs.items()})


def term_degree(ctx: RingCtx, exps: Tuple[int, ...]) -> int:
    """Quantum degree of a single equivariant monomial: deg x = 2,
    deg a_i = 2(n - i)."""
    deg = 2 * exps[0]
    for i in range(1, ctx.nvars):
        deg += 2 * (ctx.n - i) * exps[i]
    return deg


def quantum_degree(p: Poly) -> Optional[int]:
    """Quantum degree of a nonzero polynomial.

    Equivariant: the common degree of all terms, or None if inhomogeneous.
    Specialized: the quantum filtration level of the coset representative,
    i.e. 2 * (maximal x-exponent).
    """
    if p.is_zero():
        raise UndefinedDegreeError("the zero polynomial has no quantum degree")
    if p.ctx.kind == SPECIALIZED:
        return 2 * max(e[0] for e, _ in p.terms)
    degs = {term_degree(p.ctx, e) for e, _ in p.terms}
    if len(degs) == 1:
        return degs.pop()
    return None


def evaluate_poly(p: Poly, potential: Iterable[Rational]) -> Poly:
    """Specialize an equivariant polynomial: a_i -> coefficient of x^i in
    the monic potential, then reduce mod dw."""
    if p.ctx.kind != EQUIVARIANT:
        raise ContextMismatchError("evaluate_poly needs an equivariant polynomial")
    tgt = specialized_ctx(p.ctx.n, potential)
    pot = tgt.potential
    coeffs: dict = {}
    for e, c in p.terms:
        val = c
        for i in range(1, p.ctx.nvars):
            if e[i]:
                val *= pot[i] ** e[i]
        xe = e[0]
        coeffs[xe] = coeffs.get(xe, 0) + val
    return _reduce_mod_potential(coeffs, tgt)


def potential_derivative(ctx: RingCtx, order: int = 1) -> Poly:
    """Formal x-derivative of dw = x^n + a_{n-1} x^{n-1} + ... + a0 of the
    given order, as an equivariant polynomial (a0 drops out for order >= 1)."""
    if ctx.kind != EQUIVARIANT:
        raise ContextMismatchError("potential_derivative needs an equivariant context")
    if order < 1:
        raise MalformedInputError("order must be >= 1")
    n = ctx.n
    d = {
        _exps(ctx, i - order, i): math.perm(i, order) for i in range(order, n)
    }
    if n >= order:
        d[_exps(ctx, n - order)] = math.perm(n, order)
    return Poly.from_dict(ctx, d)


# ---------------------------------------------------------------------------
# text grammar: rational literals p/q, variables x and a0..a{n-1},
# operators + - * ^, parentheses; juxtaposition is not allowed.  Digits
# are ASCII 0-9 only: str.isdigit also accepts superscripts and other
# scripts' digits, which int() rejects or reads as 0-9.
_DIGITS = frozenset("0123456789")


def parse_poly(text: str, ctx: RingCtx) -> Poly:
    """Parse polynomial text, evaluating it directly in ctx's normal form."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def advance():
        pos[0] += 1

    def expr() -> Poly:
        t = peek()
        if t in ("+", "-"):
            advance()
        out = -term() if t == "-" else term()
        while peek() in ("+", "-"):
            op = peek()
            advance()
            out = out - term() if op == "-" else out + term()
        return out

    def term() -> Poly:
        out = factor()
        while peek() == "*":
            advance()
            out = out * factor()
        return out

    def factor() -> Poly:
        base = atom()
        if peek() == "^":
            advance()
            t = peek()
            if not isinstance(t, (int, Fraction)) or t.denominator != 1 or t < 0:
                raise MalformedInputError("exponent must be a non-negative integer")
            advance()
            out = constant(ctx, 1)
            for _ in range(int(t)):
                out = out * base
            return out
        return base

    def atom() -> Poly:
        t = peek()
        if t == "(":
            advance()
            inner = expr()
            if peek() != ")":
                raise MalformedInputError("unbalanced parentheses")
            advance()
            return inner
        if isinstance(t, (int, Fraction)):
            advance()
            return constant(ctx, t)
        if isinstance(t, str) and (t == "x" or t.startswith("a")):
            advance()
            return _variable(t, ctx)
        raise MalformedInputError(f"unexpected token {t!r} in polynomial")

    result = expr()
    if pos[0] != len(tokens):
        raise MalformedInputError(f"trailing input at token {peek()!r}")
    return result


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            tokens.append(ch)
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            num = int(text[i:j])
            if j < len(text) and text[j] == "/":
                k = j + 1
                while k < len(text) and text[k] in _DIGITS:
                    k += 1
                if k == j + 1:
                    raise MalformedInputError("expected denominator after '/'")
                den = int(text[j + 1:k])
                if den == 0:
                    raise MalformedInputError("zero denominator in polynomial")
                tokens.append(Fraction(num, den))
                i = k
            else:
                tokens.append(num)
                i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise MalformedInputError(f"bad character {ch!r} in polynomial")
    return tokens


def format_poly(p: Poly) -> str:
    """Deterministic rendering, parseable by parse_poly."""
    if p.is_zero():
        return "0"
    names = p.ctx.var_names()
    parts = []
    for exps, coeff in p.terms:
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        parts.append(("- " if coeff < 0 else "+ ") + body)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else ("-" + out[2:])
