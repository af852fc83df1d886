"""Tests of the benchmark's own code: its checks, its span arithmetic and
its end-to-end metrics.

Each check must accept qstar's real output and reject a corrupted copy.
Run with the package on the path, from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tables():
    return checks.load_tables(ROOT)


@pytest.fixture(scope="module")
def doc67():
    from qstar import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["pipeline", "67", "--height", "100"]) == 0
    return json.loads(buf.getvalue())


def _rejects(fn, *args):
    with pytest.raises(checks.CheckError):
        fn(*args)


def test_pipeline_check_accepts_qstar_output(doc67, tables):
    checks.check_pipeline(doc67, 67, *tables)


def test_pipeline_check_rejects_changed_factor(doc67, tables):
    bad = copy.deepcopy(doc67)
    factor = bad["reports"][1]["factors"][0]
    factor["coefficients"][0] = str(int(factor["coefficients"][0]) + 1)
    _rejects(checks.check_pipeline, bad, 67, *tables)


def test_pipeline_check_rejects_wrong_discriminant(doc67, tables):
    bad = copy.deepcopy(doc67)
    bad["reports"][0]["cm_entries"][0] = "-7"
    _rejects(checks.check_pipeline, bad, 67, *tables)


def test_pipeline_check_rejects_off_curve_point(doc67, tables):
    bad = copy.deepcopy(doc67)
    point = next(r["point"] for r in bad["reports"] if r["point"]["kind"] == "affine")
    point["y"] = str(Fraction(point["y"]) + 1)
    _rejects(checks.check_pipeline, bad, 67, *tables)


def test_pipeline_check_rejects_missing_point_and_changed_curve(doc67, tables):
    bad = copy.deepcopy(doc67)
    del bad["reports"][-1]
    _rejects(checks.check_pipeline, bad, 67, *tables)
    bad = copy.deepcopy(doc67)
    bad["curve"]["coefficients"][0] = "8"
    _rejects(checks.check_pipeline, bad, 67, *tables)


def test_surd_root_check():
    # x^2 - 2x - 1 has the roots 1 +- sqrt(2)
    factor = {
        "display": "x^2 - 2x - 1",
        "coefficients": ["-1", "-2", "1"],
        "field": {"kind": "quadratic", "generators": ["2"]},
        "roots": [{"a": "1", "b": "1", "d": "2"}, {"a": "1", "b": "-1", "d": "2"}],
    }
    checks.check_roots(factor, "test")
    factor["roots"][1]["a"] = "2"
    _rejects(checks.check_roots, factor, "test")


def test_multiquadratic_check():
    # sqrt(2) + sqrt(3) is a root of x^4 - 10x^2 + 1; coordinates follow
    # the bitmask order 1, sqrt(2), sqrt(3), sqrt(6)
    coeffs = [1, 0, -10, 0, 1]
    good = [Fraction(0), Fraction(1), Fraction(1), Fraction(0)]
    checks.check_multiquadratic(coeffs, [2, 3], good, "test")
    _rejects(checks.check_multiquadratic, coeffs, [2, 3], good[:3] + [Fraction(1)], "test")
    _rejects(checks.check_multiquadratic, coeffs, [2, 5], good, "test")


def test_kleinj_class_polynomials():
    assert checks.kleinj_class_polynomial(-3) == [0, 1]
    assert checks.kleinj_class_polynomial(-4) == [-1728, 1]
    assert checks.kleinj_class_polynomial(-7) == [3375, 1]
    assert checks.kleinj_class_polynomial(-15) == [-121287375, 191025, 1]
    assert [len(checks.reduced_forms(D)) for D in (-23, -56, -95)] == [3, 4, 8]


def test_class_polynomial_check():
    good = checks.kleinj_class_polynomial(-23)
    checks.check_class_polynomial(-23, good, True)
    _rejects(checks.check_class_polynomial, -23, good, False)
    _rejects(checks.check_class_polynomial, -23, good[1:], True)
    _rejects(checks.check_class_polynomial, -23, [good[0] + 1] + good[1:], True)
    _rejects(checks.check_class_polynomial, -23, good[:1] + [good[1] + 1] + good[2:], True)


def test_cube_and_square_tests():
    assert checks.is_cube(-(12345**3)) and not checks.is_cube(12345**3 + 1)
    assert checks.is_square(10**40) and not checks.is_square(-4)


def test_identify_check():
    hit = {"match": {"D": "-23", "certified": True}}
    checks.check_identify(hit, -23, True)
    _rejects(checks.check_identify, hit, -31, True)
    _rejects(checks.check_identify, {"match": {"D": "-23", "certified": False}}, -23, True)
    _rejects(checks.check_identify, hit, -23, False)
    checks.check_identify({"match": None}, -23, False)
    _rejects(checks.check_identify, {"match": None}, -23, True)


def _span(sid, name, start, end, parent=None, op=0, **extra):
    return dict(id=sid, name=name, op=op, parent=parent, start=start, end=end, **extra)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, "cli.point_report", 0, 10_000),
        _span(1, "algnum.factor_rational", 1_000, 4_000, parent=0),
        _span(2, "algnum.squarefree_kernel", 2_000, 3_000, parent=1),
        _span(3, "cm.identify_cm", 5_000, 8_000, parent=0),
        # same ids in another operation must not count as children above
        _span(0, "cli.point_report", 0, 6_000, op=1),
        _span(1, "cm.identify_cm", 1_000, 2_000, parent=0, op=1),
    ]
    assert tracing.self_times(spans) == [4e-6, 2e-6, 1e-6, 3e-6, 5e-6, 1e-6]
    m = tracing.layer_metrics(spans)
    assert m["cli.point_report.calls"] == 2
    assert m["cli.point_report.self_s"] == pytest.approx(9e-6)
    assert m["algnum.factor_rational.self_s"] == pytest.approx(2e-6)


def test_exhausted_calls_and_hit_ratio():
    spans = [
        _span(0, "algnum.squarefree_kernel", 0, 5_000, error="FactorizationError"),
        _span(1, "algnum.squarefree_kernel", 6_000, 7_000),
        _span(2, "cm.identify_cm", 10_000, 20_000, hits=1),
        _span(3, "cm.class_polynomial", 11_000, 12_000, parent=2),
        _span(4, "cm.class_polynomial", 13_000, 14_000, parent=2),
        _span(5, "cm.class_polynomial", 21_000, 22_000),
    ]
    m = tracing.layer_metrics(spans)
    assert m["algnum.squarefree_kernel.calls"] == 2
    assert m["algnum.squarefree_kernel.exhausted"] == 1
    assert m["algnum.squarefree_kernel.exhausted_s"] == pytest.approx(5e-6)
    assert m["cm.class_polynomial.calls"] == 3
    assert m["cm.identify_cm.hit_ratio"] == 0.5


def test_end_to_end_metrics_of_rounds():
    def rnd(wall, cpu, op_walls):
        child = run.Child(wall=wall, cpu=cpu, rss_mb=20.0, code=0, stdout=b"", stderr=b"")
        return run.Round(wall=wall, children=[child], op_walls=op_walls)

    rounds = [rnd(3.0, 2.0, {"a": 1.0, "b": 2.0, "c": 4.0}),
              rnd(6.0, 5.0, {"a": 3.0, "b": 2.0, "c": 8.0})]
    m = run.end_to_end([0.3, 0.1, 0.2], rounds)
    assert (m["setup_s"], m["wall_s"], m["cpu_s"], m["peak_rss_mb"]) == (0.2, 4.5, 3.5, 20.0)
    # the operations' means are 2, 2 and 6; the median of all six walls would be 2.5
    assert m["op_p50_s"] == 2.0


def test_recorder_nests_and_records_errors():
    rec = tracing.Recorder(op=7)

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return [x]

    inner_t = rec.wrap("hyperelliptic.search_points", inner)
    outer_t = rec.wrap("cli.point_report", lambda x: inner_t(x) + inner_t(x))
    assert outer_t(1) == [1, 1]
    with pytest.raises(ValueError):
        inner_t(-1)
    parents = [s["parent"] for s in rec.spans]
    assert parents == [None, 0, 0, None]
    assert [s.get("points") for s in rec.spans] == [None, 1, 1, None]
    assert rec.spans[3]["error"] == "ValueError" and rec.spans[0]["op"] == 7


def test_traced_child_prints_what_the_cli_prints(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = ["identify-cm", "--minpoly", "1", "-54000"]
    plain = subprocess.run(
        [sys.executable, "-m", "qstar.cli", *args],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    spans_file = tmp_path / "spans.json"
    child = ROOT / "perfbench" / "child.py"
    traced = subprocess.run(
        [sys.executable, str(child), "--spans", str(spans_file), "cli", *args],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    assert traced.stdout == plain.stdout
    m = tracing.layer_metrics(json.loads(spans_file.read_text()))
    assert m["cm.identify_cm.calls"] == 1 and m["cm.identify_cm.hits"] == 1
    # the CLI echoes the match with the uncached class_polynomial
    assert m["cm.class_polynomial.calls"] >= 2
