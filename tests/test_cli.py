import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner
from conftest import TREFOIL_PD, acyclic_pair, block_sum

import gimel

from gimel.cli import (
    REPORT_KEYS,
    _dump,
    fixture_from_dict,
    fixture_to_dict,
    frac_to_str,
    load_fixture,
    main,
    pl_from_dict,
    pl_to_dict,
    save_fixture,
    str_to_frac,
)
from gimel.complexes import evaluate
from gimel.cube import MAX_CUBE_CROSSINGS, parse_pd
from gimel.errors import MalformedInputError
from gimel.fixtures import (
    pretzel_2m37_fixture,
    s3_p754_fixture,
    s3_p976_fixture,
    unknot_fixture,
)
from gimel.pl import PiecewiseLinear
from gimel.ring import standard_potential


@pytest.fixture
def runner():
    return CliRunner()


def _write_fixture(tmp_path, c, name):
    path = tmp_path / f"{name}.json"
    save_fixture(c, str(path), name=name)
    return str(path)


# The builder of each JSON fixture bundled in gimel/data.
BUNDLED = {
    **{f"unknot_n{n}": (lambda n=n: unknot_fixture(n)) for n in range(2, 7)},
    **{f"p2m37_n{n}": (lambda n=n: pretzel_2m37_fixture(n)) for n in range(3, 9)},
    "s3_p754": s3_p754_fixture,
    "s3_p976": s3_p976_fixture,
}


def test_bundled_fixtures_match_builders():
    data = Path(gimel.__file__).parent / "data"
    assert sorted(p.stem for p in data.glob("*.json")) == sorted(BUNDLED)
    for name, build in BUNDLED.items():
        with open(data / f"{name}.json", "r", encoding="utf-8") as fh:
            assert fixture_from_dict(json.load(fh)) == build(), name


def test_bundled_fixtures_round_trip_through_the_stored_form():
    """Reading a fixture into columns and writing it back, "0" in every
    empty slot, gives the same JSON object."""
    data = Path(gimel.__file__).parent / "data"
    for name in BUNDLED:
        with open(data / f"{name}.json", "r", encoding="utf-8") as fh:
            d = json.load(fh)
        assert fixture_to_dict(fixture_from_dict(d), name=d["name"]) == d, name


def _assert_malformed(res):
    assert res.exit_code == 1, res.output
    assert json.loads(res.stderr)["error"] == "MalformedInputError"


def test_frac_round_trip():
    for v in (F(0), F(3), F(-7, 2)):
        assert str_to_frac(frac_to_str(v)) == v
    with pytest.raises(MalformedInputError):
        str_to_frac("1/0")
    with pytest.raises(MalformedInputError):
        str_to_frac([1])


def test_pl_round_trip():
    f = PiecewiseLinear.from_points([(0, F(-2)), (F(1, 3), F(-2, 3)), (1, 0)])
    assert pl_from_dict(pl_to_dict(f)) == f


def test_fixture_round_trip(tmp_path):
    for c in (unknot_fixture(4), pretzel_2m37_fixture(3), s3_p754_fixture()):
        path = _write_fixture(tmp_path, c, "rt")
        assert load_fixture(path) == c


def test_fixture_schema_errors():
    with pytest.raises(MalformedInputError):
        fixture_from_dict([])
    with pytest.raises(MalformedInputError):
        fixture_from_dict({"n": 3, "kind": "equivariant", "modules": {}})
    with pytest.raises(MalformedInputError):
        fixture_from_dict(
            {"n": 3, "kind": "weird", "modules": {}, "differentials": {}}
        )
    d = fixture_to_dict(unknot_fixture(3))
    d["modules"]["zero"] = [0]
    with pytest.raises(MalformedInputError):
        fixture_from_dict(d)
    d = fixture_to_dict(pretzel_2m37_fixture(3))
    for field, key, bad in (
        ("modules", "0", 0),
        ("differentials", "-1", 5),
        ("differentials", "-1", [[5]]),
    ):
        broken = json.loads(json.dumps(d))
        broken[field][key] = bad
        with pytest.raises(MalformedInputError):
            fixture_from_dict(broken)
    d = fixture_to_dict(evaluate(unknot_fixture(2), standard_potential(2)))
    d["potential"] = 5
    with pytest.raises(MalformedInputError):
        fixture_from_dict(d)


def test_compute_fixture(runner, tmp_path):
    path = _write_fixture(tmp_path, pretzel_2m37_fixture(5), "family5")
    res = runner.invoke(main, ["compute", "--fixture", path])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["name"] == "family5"
    assert rep["u"] == "-8"
    assert rep["slope0"] == "-5/4"
    assert rep["s"] == "-3/2"
    assert rep["genus_bound"] == "3/2"
    assert rep["genus_bound_ceil"] == 2
    assert rep["gimel"]["breakpoints"] == ["0", "1/2", "1"]


def test_compute_pd(runner):
    res = runner.invoke(main, ["compute", "--pd", TREFOIL_PD])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["s"] == "-1" and rep["u"] == "-1"
    assert rep["gimel"]["values"] == ["0", "-1"]


def test_compute_deterministic_output(runner, tmp_path):
    path = _write_fixture(tmp_path, s3_p754_fixture(), "a")
    r1 = runner.invoke(main, ["compute", "--fixture", path])
    r2 = runner.invoke(main, ["compute", "--fixture", path])
    assert r1.output == r2.output and r1.exit_code == 0


def test_compute_input_errors(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["compute", "--fixture", str(bad)])
    _assert_malformed(res)
    assert json.loads(res.stderr)["message"].startswith(f"{bad}: invalid JSON: ")
    bad.write_bytes(b"\xff{}")  # not UTF-8
    _assert_malformed(runner.invoke(main, ["compute", "--fixture", str(bad)]))
    res = runner.invoke(main, ["compute", "--pd", "PD[X[1,1,1,2]]"])
    assert res.exit_code == 1
    path = _write_fixture(tmp_path, unknot_fixture(2), "u")
    res = runner.invoke(main, ["compute", "--fixture", path, "--pd", TREFOIL_PD])
    assert res.exit_code == 1
    path = _write_fixture(tmp_path, evaluate(pretzel_2m37_fixture(3), (0, -1, 0)), "x3mx")
    _assert_malformed(runner.invoke(main, ["compute", "--fixture", path]))


def test_compute_short_differential_row(runner, tmp_path):
    d = {
        "name": "short",
        "n": 2,
        "kind": "equivariant",
        "modules": {"0": [0, 0], "1": [0, 0]},
        "differentials": {"0": [["1", "0"], ["1"]]},
    }
    path = tmp_path / "short.json"
    path.write_text(json.dumps(d))
    _assert_malformed(runner.invoke(main, ["compute", "--fixture", str(path)]))


def test_compute_reports_the_lowest_faulty_degree_first(runner, tmp_path):
    """A nonzero entry with no home at degree 0 is reported before the
    ragged d^2 above it."""
    d = {
        "name": "two-faults",
        "n": 2,
        "kind": "equivariant",
        "modules": {"0": [0], "2": [0, 0], "3": [0]},
        "differentials": {"0": [["1"]], "2": [["1", "0"], ["1"]]},
    }
    path = tmp_path / "two-faults.json"
    path.write_text(json.dumps(d))
    res = runner.invoke(main, ["compute", "--fixture", str(path)])
    _assert_malformed(res)
    assert json.loads(res.stderr)["message"] == "differential at degree 0 has no home"


def test_compute_fixture_fields_not_objects(runner, tmp_path):
    for field in ("modules", "differentials"):
        d = fixture_to_dict(unknot_fixture(2))
        d[field] = [d[field]]
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(d))
        _assert_malformed(runner.invoke(main, ["compute", "--fixture", str(path)]))


def test_compute_rejects_a_name_that_is_not_a_string(runner, tmp_path):
    data = Path(gimel.__file__).parent / "data" / "unknot_n2.json"
    d = json.loads(data.read_text(encoding="utf-8"))
    cache = tmp_path / "cache"
    for name in (5, None, ["u"]):
        path = tmp_path / "named.json"
        path.write_text(json.dumps(dict(d, name=name)))
        res = runner.invoke(
            main, ["compute", "--fixture", str(path), "--cache-dir", str(cache)]
        )
        _assert_malformed(res)
        assert res.stdout == ""
        assert "'name'" in json.loads(res.stderr)["message"]
    assert not cache.exists()
    # a fixture without a name is still accepted
    path.write_text(json.dumps({k: v for k, v in d.items() if k != "name"}))
    res = runner.invoke(main, ["compute", "--fixture", str(path)])
    assert res.exit_code == 0 and json.loads(res.stdout)["name"] == ""


def test_compute_rejects_digits_outside_ascii(runner, tmp_path):
    d = fixture_to_dict(unknot_fixture(2), name="u")
    d["modules"] = {"0": [0], "1": [0]}
    cache = tmp_path / "cache"
    for entry in ("x^\u00b2", "a\u0661"):
        d["differentials"] = {"0": [[entry]]}
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(d))
        res = runner.invoke(
            main, ["compute", "--fixture", str(path), "--cache-dir", str(cache)]
        )
        _assert_malformed(res)
        assert res.stdout == ""
    assert not cache.exists()


def test_zero_denominator_in_entry(runner, tmp_path):
    d = {
        "name": "zero-denominator",
        "n": 2,
        "kind": "equivariant",
        "modules": {"0": [0], "1": [0]},
        "differentials": {"0": [["1/0"]]},
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(d))
    good = _write_fixture(tmp_path, unknot_fixture(2), "u")
    for args in (
        ["compute", "--fixture", str(path)],
        ["decompose", "--fixture", str(path)],
        ["tensor", str(path), good, "-o", str(tmp_path / "t.json")],
        ["dual", str(path), "-o", str(tmp_path / "d.json")],
    ):
        _assert_malformed(runner.invoke(main, args))


def test_compute_pd_over_crossing_limit(runner):
    # T(2,11): X[2k-1, 2k-1+m, 2k, 2k+m] with edge labels mod 2m, m = 11
    m = 11
    quads = [
        [(v - 1) % (2 * m) + 1 for v in (2 * k - 1, 2 * k - 1 + m, 2 * k, 2 * k + m)]
        for k in range(1, m + 1)
    ]
    pd = "PD[" + ",".join("X[%d,%d,%d,%d]" % tuple(q) for q in quads) + "]"
    assert len(parse_pd(pd).crossings) == m > MAX_CUBE_CROSSINGS
    res = runner.invoke(main, ["compute", "--pd", pd])
    _assert_malformed(res)
    assert "crossings" in json.loads(res.stderr)["message"]


def test_verify_malformed_report(runner, tmp_path):
    a = _write_fixture(tmp_path, s3_p754_fixture(), "a")
    rep = json.loads(runner.invoke(main, ["compute", "--fixture", a]).output)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(rep))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({k: v for k, v in rep.items() if k != "gimel"}))
    short = tmp_path / "short.json"
    bad_gimel = {"breakpoints": ["0", "1"], "values": ["0"]}
    short.write_text(json.dumps(dict(rep, gimel=bad_gimel)))
    named = tmp_path / "named.json"
    named.write_text(json.dumps(dict(rep, name=5)))
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{not json")
    latin1 = tmp_path / "latin1.json"
    text = json.dumps(dict(rep, name="caf\xe9"), ensure_ascii=False)
    latin1.write_bytes(text.encode("latin-1"))  # not UTF-8
    for bad in (missing, short, named, invalid, latin1):
        res = runner.invoke(
            main, ["verify", "--reports", str(bad), str(good), str(good)]
        )
        _assert_malformed(res)
        assert res.stdout == ""


def test_compute_validation_failure_exit_code(runner, tmp_path):
    # d^2 != 0 fixture trips structural validation: exit code 2
    d = {
        "name": "broken",
        "n": 2,
        "kind": "equivariant",
        "modules": {"0": [0], "1": [0], "2": [0]},
        "differentials": {"0": [["1"]], "1": [["1"]]},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(d))
    res = runner.invoke(main, ["compute", "--fixture", str(path)])
    assert res.exit_code == 2


def test_compute_degenerate_class_exit_code(runner, tmp_path):
    # two odd-Euler summands: the distinguished summand is ambiguous
    c = block_sum(unknot_fixture(3), unknot_fixture(3))
    path = _write_fixture(tmp_path, c, "double")
    res = runner.invoke(main, ["compute", "--fixture", path])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"] == "NondegeneracyError"
    # nothing to eliminate, and the 1-eigenspace of x on H^0 is not a
    # line: two cycles (dimension 2), one acyclic pair (dimension 0)
    base = {"name": "degenerate", "n": 2, "kind": "specialized", "potential": ["0", "-1"]}
    cache = tmp_path / "cache"
    for modules, differentials in (
        ({"0": [0, 0]}, {}),
        ({"0": [0], "1": [0]}, {"0": [["1"]]}),
    ):
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(dict(base, modules=modules, differentials=differentials)))
        res = runner.invoke(
            main, ["compute", "--fixture", str(path), "--cache-dir", str(cache)]
        )
        assert res.exit_code == 3, res.output
        assert json.loads(res.stderr)["error"] == "NondegeneracyError"
        assert res.stdout == ""
    assert not cache.exists()


def test_extra_summand_with_cohomology_in_the_eigenspace(runner, tmp_path):
    # unknot_n2 plus q^2 R --(x + a1)--> q^0 R: the extra summand has Euler
    # characteristic 0, but at x^2 - x its H^0 adds a second 1-eigenvector
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({
        "name": "extra", "n": 2, "kind": "equivariant",
        "modules": {"0": [0, 2], "1": [0]},
        "differentials": {"0": [["0", "x + a1"]]},
    }))
    res = runner.invoke(main, ["compute", "--fixture", str(path)])
    assert res.exit_code == 3 and res.stdout == ""
    assert json.loads(res.stderr)["error"] == "NondegeneracyError"
    res = runner.invoke(main, ["decompose", "--fixture", str(path)])
    assert res.exit_code == 0
    out = json.loads(res.stdout)
    assert out["euler"] == [1, 0] and out["distinguished"] == 0


def test_cache_round_trip(runner, tmp_path, monkeypatch):
    path = _write_fixture(tmp_path, s3_p754_fixture(), "a")
    cache = tmp_path / "cache"
    env = {"GIMEL_CACHE_DIR": str(cache)}
    r1 = runner.invoke(main, ["compute", "--fixture", path], env=env)
    assert r1.exit_code == 0
    (entry,) = cache.iterdir()
    assert entry.suffix == ".json" and entry.read_text() == r1.output
    # a second run is served from the entry, not recomputed
    served = _dump(dict(json.loads(r1.output), name="served from cache"))
    entry.write_text(served)
    r2 = runner.invoke(main, ["compute", "--fixture", path], env=env)
    assert r2.exit_code == 0 and r2.output == served
    # an entry written under another package version is not served
    monkeypatch.setattr("gimel.cli.__version__", "0.0.0-other")
    r3 = runner.invoke(main, ["compute", "--fixture", path], env=env)
    assert r3.exit_code == 0 and r3.output == r1.output
    assert sorted(p.suffix for p in cache.iterdir()) == [".json", ".json"]


def test_compute_rejects_corrupt_cache_entry(runner, tmp_path):
    path = _write_fixture(tmp_path, s3_p754_fixture(), "a")
    cache = tmp_path / "cache"
    env = {"GIMEL_CACHE_DIR": str(cache)}
    good = runner.invoke(main, ["compute", "--fixture", path], env=env).output
    assert set(json.loads(good)) == REPORT_KEYS
    (entry,) = cache.iterdir()
    corrupt = [
        good[:40],  # truncated
        good[:-1],  # truncated by its final newline only
        _dump({"n": 2}),  # canonical JSON, but not a report
        json.dumps(json.loads(good)) + "\n",  # a report, but not canonical
        b"\xff",  # not UTF-8
    ]
    for text in corrupt:
        entry.write_bytes(text if isinstance(text, bytes) else text.encode())
        res = runner.invoke(main, ["compute", "--fixture", path], env=env)
        assert res.exit_code == 1 and res.stdout == ""
        err = json.loads(res.stderr)
        assert err["error"] == "MalformedInputError"
        assert str(entry) in err["message"]


def test_tensor_and_dual_commands(runner, tmp_path):
    a = _write_fixture(tmp_path, s3_p754_fixture(), "a")
    out = str(tmp_path / "ab.json")
    res = runner.invoke(main, ["tensor", a, a, "-o", out])
    assert res.exit_code == 0
    ab = load_fixture(out)
    assert ab.rank(0) == 4 and ab.rank(-1) == 4 and ab.rank(-2) == 1

    dout = str(tmp_path / "da.json")
    res = runner.invoke(main, ["dual", a, "-o", dout])
    assert res.exit_code == 0
    da = load_fixture(dout)
    assert da.degrees() == [0, 1]


def test_decompose_command(runner, tmp_path):
    base = s3_p754_fixture()
    c = block_sum(base, acyclic_pair(base.ctx, 3, 1))
    path = _write_fixture(tmp_path, c, "padded")
    res = runner.invoke(main, ["decompose", "--fixture", path])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["euler"] == [1]
    assert out["distinguished"] == 0
    assert fixture_from_dict(out["summands"][0]) == base


def test_verify_command(runner, tmp_path):
    a = _write_fixture(tmp_path, s3_p754_fixture(), "a")
    paths = {}
    for tag, args in {
        "a": ["compute", "--fixture", a],
        "b": ["compute", "--fixture", a],
    }.items():
        res = runner.invoke(main, args)
        p = tmp_path / f"rep_{tag}.json"
        p.write_text(res.output)
        paths[tag] = str(p)
    out2 = str(tmp_path / "aa.json")
    runner.invoke(main, ["tensor", a, a, "-o", out2])
    res = runner.invoke(main, ["compute", "--fixture", out2])
    pab = tmp_path / "rep_ab.json"
    pab.write_text(res.output)

    res = runner.invoke(
        main, ["verify", "--reports", paths["a"], paths["b"], str(pab)]
    )
    assert res.exit_code == 0, res.output
    verdicts = json.loads(res.output)["verdicts"]
    assert len(verdicts) == 7
    assert all(v["holds"] for v in verdicts)


def test_verify_command_failure_exit(runner, tmp_path):
    a = _write_fixture(tmp_path, s3_p754_fixture(), "a")
    res = runner.invoke(main, ["compute", "--fixture", a])
    rep = json.loads(res.output)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(rep))
    bad_rep = json.loads(json.dumps(rep))
    bad_rep["gimel"]["values"] = ["0", "5", "5"]  # breaks quasi-additivity
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_rep))
    res = runner.invoke(
        main, ["verify", "--reports", str(bad), str(good), str(good)]
    )
    assert res.exit_code == 2


def test_plot_command(runner, tmp_path):
    a = _write_fixture(tmp_path, pretzel_2m37_fixture(5), "family5")
    res = runner.invoke(main, ["compute", "--fixture", a])
    rep = tmp_path / "rep.json"
    rep.write_text(res.output)
    res = runner.invoke(main, ["plot", "--report", str(rep)])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 102  # 101 grid points, breakpoints already on grid
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
