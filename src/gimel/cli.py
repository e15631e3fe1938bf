"""Command-line front end and JSON/CSV serialization.

Serialization conventions: rationals are strings "p/q" (or "p"), degrees
are string integers used as JSON object keys, matrices are row-major with
row = target generator and column = source generator, and all JSON output
is canonical (sorted keys, two-space indent) so identical invocations are
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import click

from . import __version__, complexes, pipeline, verify
from .complexes import GradedFreeComplex, dense_rows, dual, tensor, validate
from .errors import (
    DecompositionError,
    DegreeMismatchError,
    GimelError,
    InternalError,
    InvalidRootError,
    MalformedInputError,
    NondegeneracyError,
)
from .filtration import GimelReport
from .pl import PiecewiseLinear
from .ring import (
    EQUIVARIANT,
    SPECIALIZED,
    equivariant_ctx,
    format_poly,
    parse_poly,
    specialized_ctx,
)
from .simplify import extract_sn, gauss_simplify, split_components

# ---------------------------------------------------------------------------
# rationals and piecewise-linear functions


def frac_to_str(v: Fraction) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def str_to_frac(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise MalformedInputError(f"expected a rational string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"bad rational {s!r}") from exc


def pl_to_dict(f: PiecewiseLinear) -> dict:
    return {
        "breakpoints": [frac_to_str(t) for t in f.breakpoints],
        "values": [frac_to_str(v) for v in f.values],
    }


def pl_from_dict(d: dict) -> PiecewiseLinear:
    if not isinstance(d, dict):
        raise MalformedInputError("a piecewise-linear function must be a JSON object")
    ts, vs = d.get("breakpoints"), d.get("values")
    if not (isinstance(ts, list) and isinstance(vs, list) and len(ts) == len(vs)):
        raise MalformedInputError(
            "'breakpoints' and 'values' must be lists of equal length"
        )
    return PiecewiseLinear.from_points(zip(map(str_to_frac, ts), map(str_to_frac, vs)))


# ---------------------------------------------------------------------------
# fixture schema


def fixture_to_dict(c: GradedFreeComplex, name: str = "") -> dict:
    out = {
        "name": name,
        "n": c.ctx.n,
        "kind": c.ctx.kind,
        "modules": {str(i): list(labs) for i, labs in c.modules},
        "differentials": {
            str(i): [[format_poly(e) for e in row] for row in dense_rows(c, i)]
            for i in c.cols
        },
    }
    if c.ctx.kind == SPECIALIZED:
        out["potential"] = [frac_to_str(v) for v in c.ctx.potential]
    return out


def fixture_from_dict(d: dict) -> GradedFreeComplex:
    if not isinstance(d, dict):
        raise MalformedInputError("fixture must be a JSON object")
    for field in ("n", "kind", "modules", "differentials"):
        if field not in d:
            raise MalformedInputError(f"fixture missing field {field!r}")
    n = d["n"]
    if not isinstance(n, int):
        raise MalformedInputError(f"field 'n' must be an integer, got {n!r}")
    kind = d["kind"]
    if kind == EQUIVARIANT:
        ctx = equivariant_ctx(n)
    elif kind == SPECIALIZED:
        if not isinstance(d.get("potential"), list):
            raise MalformedInputError("specialized fixture needs a 'potential' list")
        ctx = specialized_ctx(n, [str_to_frac(v) for v in d["potential"]])
    else:
        raise MalformedInputError(f"unknown ring kind {kind!r}")

    for field in ("modules", "differentials"):
        if not isinstance(d[field], dict):
            raise MalformedInputError(f"field {field!r} must be a JSON object")
    modules: Dict[int, List[int]] = {}
    for key, labs in d["modules"].items():
        try:
            deg = int(key)
        except ValueError:
            raise MalformedInputError(f"bad homological degree key {key!r}")
        if not isinstance(labs, list) or not all(isinstance(s, int) for s in labs):
            raise MalformedInputError(f"non-integer q-label in degree {key}")
        modules[deg] = list(labs)
    diffs = {}
    for key, mat in d["differentials"].items():
        try:
            deg = int(key)
        except ValueError:
            raise MalformedInputError(f"bad differential degree key {key!r}")
        if not isinstance(mat, list) or not all(
            isinstance(row, list) and all(isinstance(e, str) for e in row)
            for row in mat
        ):
            raise MalformedInputError(
                f"differential {key} must be a list of rows of strings"
            )
        diffs[deg] = [[parse_poly(e, ctx) for e in row] for row in mat]
    return GradedFreeComplex.from_rows(ctx, modules, diffs)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_fixture(path: str) -> GradedFreeComplex:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(f"{path}: invalid JSON: {exc}") from exc
    return fixture_from_dict(data)


def save_fixture(c: GradedFreeComplex, path: str, name: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump(fixture_to_dict(c, name=name)))


# ---------------------------------------------------------------------------
# report schema


REPORT_KEYS = frozenset({
    "n", "name", "gimel", "gamma", "r", "u", "slope0", "value1", "s",
    "genus_bound", "genus_bound_ceil",
})


def report_to_dict(rep: GimelReport) -> dict:
    return {
        "n": rep.n,
        "name": rep.name,
        "gimel": pl_to_dict(rep.gimel),
        "gamma": pl_to_dict(rep.gamma),
        "r": frac_to_str(rep.r),
        "u": frac_to_str(rep.u),
        "slope0": frac_to_str(rep.slope0),
        "value1": frac_to_str(rep.value1),
        "s": frac_to_str(rep.s_invariant),
        "genus_bound": frac_to_str(rep.genus_bound),
        "genus_bound_ceil": rep.genus_bound_ceil,
    }


def _load_report(path: str) -> Tuple[dict, PiecewiseLinear]:
    """A report file and its gimel profile."""
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    if not isinstance(d, dict) or "gimel" not in d:
        raise MalformedInputError(f"{path}: not a report with a 'gimel' field")
    return d, pl_from_dict(d["gimel"])


def verdict_to_dict(v: verify.PropertyVerdict) -> dict:
    return {
        "property": v.name,
        "holds": v.holds,
        "worst_t": None if v.worst_t is None else frac_to_str(v.worst_t),
        "slack": None if v.slack is None else frac_to_str(v.slack),
    }


# ---------------------------------------------------------------------------
# error handling and cache

_EXIT_CODES = [
    ((NondegeneracyError, DecompositionError, InvalidRootError), 3),
    ((DegreeMismatchError, InternalError), 2),
    ((GimelError,), 1),
]


def _fail(exc: Exception, code: int) -> "click.exceptions.Exit":
    sys.stderr.write(
        _dump({"error": type(exc).__name__, "message": str(exc)})
    )
    return SystemExit(code)


def _guarded(fn):
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except GimelError as exc:
            for classes, code in _EXIT_CODES:
                if isinstance(exc, classes):
                    raise _fail(exc, code)
            raise _fail(exc, 1)
        except (OSError, json.JSONDecodeError) as exc:
            raise _fail(exc, 1)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _cache_path(cache_dir: Optional[str], key_obj: dict) -> Optional[str]:
    """Where the result for key_obj under this package version is cached,
    or None without a cache directory."""
    if not cache_dir:
        return None
    key = hashlib.sha256(_dump(dict(key_obj, version=__version__)).encode())
    return os.path.join(cache_dir, key.hexdigest() + ".json")


def _cache_store(path: Optional[str], text: str) -> None:
    """Write through a temporary file and rename it into place, so a
    killed run never leaves a truncated entry."""
    if not path:
        return
    cache_dir = os.path.dirname(path)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cache_load(path: str) -> str:
    """A cache entry's text, served only if it is exactly the canonical
    dump of a report; anything else (a truncated or foreign entry) is
    malformed input, never a result."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        d = json.loads(text)
    except json.JSONDecodeError:
        d = None
    if not (isinstance(d, dict) and d.keys() == REPORT_KEYS and _dump(d) == text):
        raise MalformedInputError(f"{path}: corrupt cache entry, not a report")
    return text


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _validated(c: GradedFreeComplex, what: str) -> GradedFreeComplex:
    rep = validate(c)
    if not rep.ok:
        raise DegreeMismatchError(
            f"{what} failed validation: " + "; ".join(rep.failures[:5])
        )
    return c


# ---------------------------------------------------------------------------
# commands


@click.group()
def main():
    """Exact knot concordance invariants from sl_n complexes."""


_cache_option = click.option(
    "--cache-dir",
    default=None,
    envvar="GIMEL_CACHE_DIR",
    help="Content-addressed result cache directory.",
)


@main.command()
@click.option("--fixture", "fixture_path", type=click.Path(exists=True))
@click.option("--pd", "pd_text", type=str, default=None)
@click.option("-o", "--output", type=click.Path(), default=None)
@_cache_option
@_guarded
def compute(fixture_path, pd_text, output, cache_dir):
    """Full invariant report for a fixture or a PD diagram."""
    if (fixture_path is None) == (pd_text is None):
        raise MalformedInputError("provide exactly one of --fixture and --pd")

    if fixture_path is not None:
        with open(fixture_path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        key = {"cmd": "compute", "fixture": raw}
    else:
        key = {"cmd": "compute", "pd": pd_text}
    cache_path = _cache_path(cache_dir, key)
    if cache_path and os.path.exists(cache_path):
        _emit(_cache_load(cache_path), output)
        return

    if fixture_path is not None:
        data = json.loads(raw)
        c = _validated(fixture_from_dict(data), "fixture")
        rep = pipeline.compute_report(c, name=data.get("name", ""))
    else:
        rep = pipeline.compute_report_pd(pd_text)

    text = _dump(report_to_dict(rep))
    _cache_store(cache_path, text)
    _emit(text, output)


@main.command()
@click.option("--fixture", "fixture_path", type=click.Path(exists=True), required=True)
@click.option("-o", "--output", type=click.Path(), default=None)
@_guarded
def decompose(fixture_path, output):
    """Simplify, split into summands, and identify the distinguished one."""
    c = _validated(load_fixture(fixture_path), "fixture")
    dec = split_components(gauss_simplify(c))
    sn = extract_sn(dec)
    sn_index = next(i for i, s in enumerate(dec.summands) if s is sn)
    out = {
        "summands": [
            fixture_to_dict(s, name=f"summand{i}")
            for i, s in enumerate(dec.summands)
        ],
        "euler": [complexes.euler(s) for s in dec.summands],
        "distinguished": sn_index,
    }
    _emit(_dump(out), output)


@main.command(name="tensor")
@click.argument("fixture_a", type=click.Path(exists=True))
@click.argument("fixture_b", type=click.Path(exists=True))
@click.option("-o", "--output", type=click.Path(), required=True)
@_guarded
def tensor_cmd(fixture_a, fixture_b, output):
    """Tensor product of two fixtures (connected-sum model)."""
    a = _validated(load_fixture(fixture_a), "first fixture")
    b = _validated(load_fixture(fixture_b), "second fixture")
    save_fixture(_validated(tensor(a, b), "tensor product"), output, name="tensor")


@main.command(name="dual")
@click.argument("fixture_a", type=click.Path(exists=True))
@click.option("-o", "--output", type=click.Path(), required=True)
@_guarded
def dual_cmd(fixture_a, output):
    """Dual (mirror) of a fixture."""
    a = _validated(load_fixture(fixture_a), "fixture")
    save_fixture(_validated(dual(a), "dual"), output, name="dual")


@main.command(name="verify")
@click.option("--reports", nargs=3, type=click.Path(exists=True), required=True)
@click.option("-o", "--output", type=click.Path(), default=None)
@_guarded
def verify_cmd(reports, output):
    """Check the structural inequalities on reports (A, B, A#B)."""
    loaded = [_load_report(path) for path in reports]
    gimels = [g for _, g in loaded]
    verdicts = []
    for d, g in loaded:
        for v in (verify.check_cone(g), verify.check_gap(g)):
            entry = verdict_to_dict(v)
            entry["report"] = d.get("name", "")
            verdicts.append(entry)
    verdicts.append(verdict_to_dict(verify.check_quasi(*gimels)))
    text = _dump({"verdicts": verdicts})
    _emit(text, output)
    if not all(v["holds"] for v in verdicts):
        raise SystemExit(2)


@main.command(name="plot")
@click.option("--report", "report_path", type=click.Path(exists=True), required=True)
@click.option("-o", "--output", type=click.Path(), default=None)
@_guarded
def plot_cmd(report_path, output):
    """CSV of (t, gimel(t)) at breakpoints and a uniform grid."""
    _, g = _load_report(report_path)
    ts = sorted(set(g.breakpoints) | {Fraction(k, 100) for k in range(101)})
    lines = ["t,value"]
    for t in ts:
        lines.append(f"{float(t):.12f},{float(g(t)):.12f}")
    _emit("\n".join(lines) + "\n", output)


if __name__ == "__main__":
    main()
