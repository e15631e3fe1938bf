"""Tests of the benchmark itself: its checks must catch wrong reports,
and its tracing must survive a missing function.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

import gimel  # noqa: E402
import gimel.cli  # noqa: E402


def report(c, name=""):
    return json.loads(worker.serialize(gimel, gimel.pipeline.compute_report(c, name=name)))


def pd_report(knot):
    d = gimel.cube.parse_pd(corpus.pd_text(knot))
    return json.loads(worker.serialize(gimel, gimel.pipeline.compute_report_pd(d)))


def fixture(stem):
    with open(corpus.DATA / f"{stem}.json", encoding="utf-8") as fh:
        return gimel.cli.fixture_from_dict(json.load(fh))


def negate_gimel(rep):
    bad = copy.deepcopy(rep)
    bad["gimel"]["values"] = [str(-Fraction(v)) for v in bad["gimel"]["values"]]
    for key in ("value1", "s"):
        bad[key] = str(-Fraction(bad[key]))
    return bad


def test_pd_walk_matches_known_diagrams():
    q31, q52 = checks.quads(corpus.PD_CODES["3_1"]), checks.quads(corpus.PD_CODES["5_2"])
    assert checks.seifert_circles(q31) == 2 and checks.seifert_circles(q52) == 4
    assert checks.diagram_sign(q31) == 1
    assert checks.diagram_sign(checks.mirror(q31)) == -1
    assert checks.diagram_sign(checks.quads(corpus.PD_CODES["4_1"])) == 0
    assert checks.mirror(checks.mirror(q52)) == q52
    for k in corpus.PdCorpus.knots:
        assert abs(corpus.expected_value1(k)) * 2 == corpus.ABS_S[k.lstrip("m")]
    assert corpus.expected_value1("m5_2") == -corpus.expected_value1("5_2") == 1


def test_flipped_sign_fails():
    rep = pd_report("3_1")
    want = corpus.expected_value1("3_1")
    assert checks.pd_problems(rep, want, "3_1") == []
    assert checks.pd_problems(negate_gimel(rep), want, "3_1")
    # the mirror's report is the flipped one, and passes as the mirror
    assert checks.pd_problems(negate_gimel(rep), corpus.expected_value1("m3_1"), "m3_1") == []


def test_gamma_off_by_one_at_one_breakpoint_fails():
    c = gimel.complexes.tensor(fixture("s3_p754"), fixture("s3_p976"))
    rep = report(c)
    ctx = corpus.TripleContext(gimel, c)
    assert ctx.problems(rep) == []
    bad = copy.deepcopy(rep)
    k = bad["gamma"]["breakpoints"].index("1/3")
    bad["gamma"]["values"][k] = str(Fraction(bad["gamma"]["values"][k]) + 1)
    assert any("gamma(1/3)" in p for p in ctx.problems(bad))


@pytest.mark.parametrize("key", ["r", "u", "s"])
def test_wrong_closed_form_fails(key):
    rep = report(fixture("unknot_n3"))
    assert checks.unknot_problems(rep, 3) == []
    bad = dict(rep, **{key: str(Fraction(rep[key]) + 1)})
    assert checks.unknot_problems(bad, 3)
    rep = report(fixture("p2m37_n4"))
    assert checks.p2m37_problems(rep, 4) == []
    assert checks.p2m37_problems(dict(rep, **{key: str(Fraction(rep[key]) - 1)}), 4)


def test_tensor_example_closed_form_fails_when_wrong():
    rep = report(gimel.complexes.tensor(fixture("s3_p754"), fixture("s3_p976")))
    assert checks.tensor_example_problems(rep) == []
    assert checks.tensor_example_problems(negate_gimel(rep))


def test_missing_wrapped_function_is_absent_metric():
    calls = []
    fake = SimpleNamespace(gauss_simplify=lambda c: calls.append(c) or c)
    tracer = tracing.Tracer()
    tracer.install({"pipeline": fake})  # every other target is missing
    tracer.active = True
    c = fixture("unknot_n2")
    assert fake.gauss_simplify(c) is c and calls == [c]
    snap = tracer.snapshot()
    assert "simplify.gauss_s" in snap and snap["simplify.eliminations"] == 0
    assert "filtration.expand_s" not in snap and "filtration.c0_dim" not in snap
    tracer.uninstall()
    assert fake.gauss_simplify(c) is c and len(calls) == 2


def run_worker(capsys, mode, workload="pd_corpus"):
    assert worker.main(["--workload", workload, "--mode", mode, "--seconds", "0"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def small_pd(monkeypatch):
    monkeypatch.setattr(corpus.PdCorpus, "knots", ["3_1", "4_1", "m3_1"])


def test_traced_reports_equal_untraced_and_cover_every_layer(capsys, small_pd):
    plain = run_worker(capsys, "run")
    traced = run_worker(capsys, "trace")
    assert plain["failed"] == traced["failed"] == 0
    assert plain["attempted"] == traced["attempted"] == 3
    assert plain["digest"] == traced["digest"]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(traced["trace"])


def test_traced_run_survives_a_vanished_function(capsys, small_pd, monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("pipeline", "renamed_away", "filtration.gone", None)])
    traced = run_worker(capsys, "trace")
    assert traced["failed"] == 0 and "filtration.gone_s" not in traced["trace"]


def test_wrong_report_and_exception_count_as_failed(capsys, small_pd, monkeypatch):
    real = gimel.pipeline.compute_report_pd

    def faulty(d, name=""):
        if name == "4_1":
            raise RuntimeError("boom")
        rep = real(d, name=name)
        return rep if name != "m3_1" else real(gimel.cube.parse_pd(corpus.pd_text("3_1")))

    monkeypatch.setattr(gimel.pipeline, "compute_report_pd", faulty)
    r = run_worker(capsys, "run")
    assert (r["attempted"], r["failed"], r["wrong"]) == (3, 2, 1)
    assert any("4_1: raised RuntimeError" in p for p in r["problems"])
    assert any(p.startswith("m3_1: m3_1 value1") for p in r["problems"])
    assert run.result(r, {})["correct"] is False


def test_exception_alone_keeps_correct_true(capsys, small_pd, monkeypatch):
    real = gimel.pipeline.compute_report_pd

    def faulty(d, name=""):
        if name == "4_1":
            raise RuntimeError("boom")
        return real(d, name=name)

    monkeypatch.setattr(gimel.pipeline, "compute_report_pd", faulty)
    r = run_worker(capsys, "run")
    assert (r["attempted"], r["failed"], r["wrong"]) == (3, 1, 0)
    assert run.result(r, {})["correct"] is True


def test_timed_rounds_do_not_depend_on_speed(capsys, small_pd):
    f = corpus.FixtureCorpus
    assert f.timed_rounds(3 * f.round_s + 0.1) == 3
    assert corpus.PdCorpus.timed_rounds(0) == 1
    r = run_worker(capsys, "run")
    assert r["timed_rounds"] == 1 and all(len(v) == 1 for v in r["samples"].values())
    assert len(r["setup_s"]) == worker.SETUP_BEFORE + 1
