"""Command-line frontend: subcommands, exit codes, report schema, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import qstar.cli
import qstar.cm
import qstar.jpipeline
from qstar.algnum import (
    IntPolynomial,
    MultiQuadElement,
    identify_multiquadratic,
    quadratic_surd_roots,
)
from qstar.cm import class_polynomial
from qstar.errors import FactorizationError, PrecisionCapError, QstarError
from qstar.fixtures import load_table
from qstar.modular import dataset_to_json, load_dataset

ROOT = Path(__file__).resolve().parent.parent

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INPUT = 3
EXIT_PRECISION = 4


def run_cli(*args, env=None, timeout=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "qstar.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=timeout,
    )


def cli_json(*args):
    proc = run_cli(*args)
    assert proc.returncode == EXIT_OK, proc.stderr
    return json.loads(proc.stdout)


def write_dataset(tmp_path, name, **overrides):
    raw = dataset_to_json(load_dataset(67))
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


# --- derive-equation ----------------------------------------------------------


def test_derive_equation_matches_table():
    data = cli_json("derive-equation", "67", "--check-table")
    assert data["level"] == "67"
    assert data["curve"]["coefficients"] == ["9", "-14", "9", "-6", "6", "-4", "1"]
    assert data["table_check"]["matches"] is True
    assert int(data["table_check"]["extra_verified"]) >= 10


def test_derive_equation_corrupt_dataset(tmp_path):
    raw = dataset_to_json(load_dataset(67))
    raw["h1"] = list(raw["h1"])
    raw["h1"][5] = str(int(raw["h1"][5]) + 1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("derive-equation", str(path))
    assert proc.returncode == EXIT_MISMATCH
    assert "validation error" in proc.stderr


def test_derive_equation_rejects_non_integer_json(tmp_path):
    coeffs = dataset_to_json(load_dataset(67))["h1"]
    for name, overrides in (
        ("float_level.json", {"level": 67.4}),
        ("float_coefficient.json", {"h1": [1.5] + coeffs[1:]}),
        ("bool_level.json", {"level": True}),
        ("string_list.json", {"h1": "h1"}),
    ):
        proc = run_cli("derive-equation", write_dataset(tmp_path, name, **overrides))
        assert proc.returncode == EXIT_INPUT, name
        assert proc.stdout == "" and "malformed dataset JSON" in proc.stderr, name


def test_short_or_unparseable_dataset_files_exit_3_without_traceback(tmp_path):
    # precision 2 leaves h1 without its q^2 term and h2 empty; json.dumps
    # cannot write a bare integer past the int-to-str digit limit
    huge = b"1" + b"0" * 5000
    head = b'{"format":1,"level":'
    files = {
        "precision_2.json": (head + b'67,"precision":2,"h1":[1],"h2":[]}',
                             "precision must be at least 3"),
        "big_level.json": (head + huge + b',"precision":3,"h1":[1,0],"h2":[1]}',
                           "not valid JSON"),
        "big_h2.json": (head + b'67,"precision":3,"h1":[1,0],"h2":[' + huge + b"]}",
                        "not valid JSON"),
        "not_utf8.json": (b"\xff" + head + b"67}", "not valid JSON"),
    }
    for name, (content, message) in files.items():
        path = tmp_path / name
        path.write_bytes(content)
        for command in ("derive-equation", "pipeline", "express-j"):
            proc = run_cli(command, str(path))
            assert proc.returncode == EXIT_INPUT, (name, command, proc.stderr)
            assert proc.stdout == "" and "Traceback" not in proc.stderr
            assert proc.stderr.startswith("input error") and message in proc.stderr


def test_derive_equation_missing_file():
    proc = run_cli("derive-equation", "/nonexistent/ds.json")
    assert proc.returncode == EXIT_INPUT
    assert "input error" in proc.stderr


def test_derive_equation_malformed_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    proc = run_cli("derive-equation", str(path))
    assert proc.returncode == EXIT_INPUT


def test_derive_equation_table_mismatch(tmp_path):
    # a consistent dataset whose derived model belongs to a different level
    raw = dataset_to_json(load_dataset(73))
    raw["level"] = 67
    path = tmp_path / "mislabeled.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("derive-equation", str(path), "--check-table")
    assert proc.returncode == EXIT_MISMATCH
    data = json.loads(proc.stdout)
    assert data["table_check"]["matches"] is False


# --- pipeline -----------------------------------------------------------------


def test_pipeline_point_inf_minus():
    data = cli_json("pipeline", "67", "--point", "inf-")
    assert data["point_source"] == "given"
    assert "height" not in data
    (report,) = data["reports"]
    assert report["point"] == {"kind": "inf-"}
    assert report["j_polynomial"]["coefficients"] == ["1073741824", "65536", "1"]
    (factor,) = report["factors"]
    assert factor["coefficients"] == ["32768", "1"]
    assert factor["multiplicity"] == "2"
    assert factor["field"]["kind"] == "rational"
    assert factor["roots"] == [{"kind": "rational", "value": "-32768"}]
    assert report["cm_entries"] == ["-11"]


def test_pipeline_level_67_reproduces_cm_table():
    data = cli_json("pipeline", "67")
    got = {}
    for report in data["reports"]:
        point = report["point"]
        key = point["kind"] if point["kind"] != "affine" else (point["x"], point["y"])
        got[key] = report["cm_entries"]
    assert got == {
        "inf-": ["-11"],
        ("-1", "7"): ["-28"],
        ("-1", "-7"): ["-67"],
        ("0", "3"): ["-27"],
        ("0", "-3"): ["-3"],
        ("1", "1"): ["-8"],
        ("1", "-1"): ["-7"],
        ("2", "1"): ["-43"],
        ("2", "-1"): ["-12"],
    }


def test_pipeline_reports_exclude_cusp():
    data = cli_json("pipeline", "67")
    kinds = [r["point"]["kind"] for r in data["reports"]]
    assert "inf+" not in kinds
    assert kinds[0] == "inf-"
    assert len(kinds) == 9


def test_pipeline_rerun_bit_identical():
    first = run_cli("pipeline", "67")
    second = run_cli("pipeline", "67")
    assert first.returncode == EXIT_OK
    assert first.stdout == second.stdout


def test_pipeline_out_envelope(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("pipeline", "67", "--point", "inf-", "--out", str(out))
    assert proc.returncode == EXIT_OK
    envelope = json.loads(out.read_text())
    assert sorted(envelope) == ["data", "format", "meta"]
    assert envelope["data"] == json.loads(proc.stdout)
    assert envelope["meta"]["command"] == "pipeline"
    assert float(envelope["meta"]["elapsed_seconds"]) > 0
    assert len(envelope["meta"]["per_report_seconds"]) == 1


def test_pipeline_quartic_field_identification():
    data = cli_json("pipeline", "85", "--point", "3/2,-17/8")
    (report,) = data["reports"]
    (factor,) = report["factors"]
    assert factor["degree"] == "4"
    assert factor["field"]["kind"] == "multiquadratic"
    assert sorted(int(g) for g in factor["field"]["generators"]) == [-95, 17]
    assert report["cm_entries"] == [None]


def test_check_roots_substitutes_every_kind_of_root():
    check = qstar.jpipeline._check_roots
    linear = IntPolynomial((-54000, 1))
    quadratic = IntPolynomial((-134217728000, 117964800, 1))  # H_-35
    quartic = IntPolynomial((12544, 0, 156, 0, 1))  # sqrt(17) + sqrt(-95)
    surds = quadratic_surd_roots(quadratic)
    theta = identify_multiquadratic(quartic)
    check(linear, (Fraction(54000),))
    check(quadratic, surds)
    check(quartic, (theta,))
    with pytest.raises(QstarError):
        check(linear, (Fraction(54001),))
    for poly, good, root in ((quadratic, surds[1], surds[0]), (quartic, None, theta)):
        for i in range(len(root.coords)):
            coords = list(root.coords)
            coords[i] += Fraction(1, 3)
            changed = MultiQuadElement(root.generators, tuple(coords))
            with pytest.raises(QstarError):
                check(poly, (changed,) if good is None else (good, changed))


def test_surd_root_json():
    first, second = quadratic_surd_roots(IntPolynomial((-134217728000, 117964800, 1)))
    assert qstar.cli._root_json(first) == {
        "kind": "surd",
        "a": "-58982400",
        "b": "26378240",
        "d": "5",
        "display": "-58982400 + 26378240*sqrt(5)",
    }
    assert qstar.cli._root_json(second)["display"] == "-58982400 - 26378240*sqrt(5)"
    half, _ = quadratic_surd_roots(IntPolynomial((1, 0, 2)))  # sqrt(-1/2)
    assert qstar.cli._root_json(half)["display"] == "0 + 1/2*sqrt(-2)"


def test_pipeline_point_errors():
    assert run_cli("pipeline", "67", "--point", "inf+").returncode == EXIT_INPUT
    assert run_cli("pipeline", "67", "--point", "5,5").returncode == EXIT_INPUT
    assert run_cli("pipeline", "67", "--point", "1;1").returncode == EXIT_INPUT
    assert run_cli("pipeline", "67", "--height", "0").returncode == EXIT_INPUT


def test_pipeline_truncated_dataset_reports_requirement(tmp_path):
    raw = dataset_to_json(load_dataset(67))
    raw["precision"] = 40
    raw["h1"] = raw["h1"][:39]
    raw["h2"] = raw["h2"][:38]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("pipeline", str(path))
    assert proc.returncode == EXIT_PRECISION
    assert ">= 80" in proc.stderr


def test_pipeline_large_level_needs_flag(tmp_path):
    path = write_dataset(tmp_path, "fake390.json", level=390)
    proc = run_cli("pipeline", path)
    assert proc.returncode == EXIT_PRECISION
    assert "--allow-large" in proc.stderr


@pytest.mark.parametrize(
    "level, code",
    [
        (10**16 + 61, EXIT_PRECISION),
        (10**18 + 3, EXIT_PRECISION),
        (2**127 - 1, EXIT_PRECISION),
        ((2**61 - 1) ** 2, EXIT_INPUT),  # not square-free
    ],
)
def test_hostile_level_exits_promptly(tmp_path, level, code):
    # the divisor sum of a huge level comes from its budgeted factorization
    path = write_dataset(tmp_path, "hostile.json", level=level)
    for args in (["pipeline", path], ["pipeline", path, "--allow-large"],
                 ["express-j", path]):
        proc = run_cli(*args, timeout=30)
        assert proc.returncode == code, (args, proc.stderr)
        assert "Traceback" not in proc.stderr


def test_semiprime_level_is_refused_before_factoring(tmp_path):
    # Showing this 200-bit level square-free takes Pollard rho, which runs
    # its whole budget (about 8 s) and then fails. sigma(N) >= N + 1 refuses
    # it without --allow-large, and 84 coefficients are short of N + 13 with it.
    level = (2**99 + 255) * (2**100 + 277)
    path = write_dataset(tmp_path, "semiprime.json", level=level)
    for args, message in (
        (["pipeline", path], f"divisor sum > {level} >= 150"),
        (["express-j", path], f"divisor sum > {level} >= 150"),
        (["pipeline", path, "--allow-large"], f"precision > {level + 12}, got 84"),
        (["express-j", path, "--allow-large"], f"precision > {level + 12}, got 84"),
    ):
        proc = run_cli(*args, timeout=5)
        assert proc.returncode == EXIT_PRECISION, (args, proc.stderr)
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


def test_pipeline_corrupt_dataset(tmp_path):
    raw = dataset_to_json(load_dataset(67))
    raw["h2"] = list(raw["h2"])
    raw["h2"][7] = str(int(raw["h2"][7]) - 3)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("pipeline", str(path))
    assert proc.returncode == EXIT_MISMATCH


# --- express-j ----------------------------------------------------------------


def test_express_j_anchor_coefficients():
    data = cli_json("express-j", "67")
    assert (data["m"], data["sigma"]) == ("2", "68")
    by_index = {}
    for expr in data["expressions"]:
        terms = {(t["gen"], t["k"]): t["coeff"] for t in expr["terms"]}
        by_index[expr["i"]] = (expr["constant"], terms)
    const1, terms1 = by_index["1"]
    assert const1 == "-65536"
    assert terms1[("f3", 21)] == "-23"  # the f3^22 monomial
    assert terms1[("f4", 21)] == "1"
    const2, terms2 = by_index["2"]
    assert const2 == "1073741824"
    assert terms2[("f5", 21)] == "1"
    assert terms2[("f4", 21)] == "720"
    assert terms2[("f3", 21)] == "179980"


def test_express_j_single_index():
    data = cli_json("express-j", "67", "--index", "2")
    assert [e["i"] for e in data["expressions"]] == ["2"]


def test_express_j_single_index_matches_the_full_dump():
    # one J_i alone builds the shared basis lists in another order
    full = cli_json("express-j", "85")
    assert len(full["expressions"]) == 4
    for i, expr in enumerate(full["expressions"], start=1):
        single = cli_json("express-j", "85", "--index", str(i))
        assert single["expressions"] == [expr]


def test_express_j_index_out_of_range():
    proc = run_cli("express-j", "67", "--index", "5")
    assert proc.returncode == EXIT_INPUT
    assert "between 1 and 2" in proc.stderr


# --- search-points ------------------------------------------------------------


def test_search_points_complete_level_annotated():
    data = cli_json("search-points", "--level", "390", "--height", "100", "--json")
    assert data["complete"] is True
    assert data["annotation"].startswith("provably complete")
    pts = [
        (p["x"], p["y"]) if p["kind"] == "affine" else p["kind"]
        for p in data["points"]
    ]
    assert pts == ["inf+", "inf-", ("0", "1"), ("0", "-1"), ("1", "2"), ("1", "-2")]


def test_search_points_incomplete_level_not_annotated():
    level = min(n for n, fx in load_table().items() if not fx.points_complete)
    data = cli_json("search-points", "--level", str(level), "--json")
    assert data["complete"] is False
    assert "annotation" not in data


def test_search_points_unknown_level():
    proc = run_cli("search-points", "--level", "11")
    assert proc.returncode == EXIT_INPUT
    assert "unknown level" in proc.stderr


def test_search_points_text_output():
    proc = run_cli("search-points", "--level", "67", "--height", "100")
    assert proc.returncode == EXIT_OK
    lines = proc.stdout.splitlines()
    assert lines[0] == "inf+"
    assert lines[1] == "inf-"
    assert lines[-1].startswith("10 points (8 affine, 2 at infinity)")


def test_search_points_equation_matches_level():
    by_level = cli_json("search-points", "--level", "67", "--json")
    by_eq = cli_json(
        "search-points", "--equation", "1", "-4", "6", "-6", "9", "-14", "9", "--json"
    )
    assert by_eq["points"] == by_level["points"]
    assert by_eq["complete"] is False  # explicit equations are never annotated
    assert "annotation" not in by_eq


def test_search_points_equation_errors():
    base = ["search-points", "--height", "5"]
    nonmonic = ["--equation", "2", "0", "0", "0", "0", "0", "1"]
    singular = ["--equation", "1", "0", "0", "0", "0", "0", "0"]
    assert run_cli(*base, *nonmonic).returncode == EXIT_INPUT
    assert run_cli(*base, *singular).returncode == EXIT_INPUT
    assert run_cli("search-points").returncode == EXIT_INPUT
    both = ["--level", "67", "--equation", "1", "0", "0", "0", "0", "0", "1"]
    assert run_cli("search-points", *both).returncode == EXIT_INPUT


# --- identify-cm --------------------------------------------------------------


def test_identify_cm_degree_one_matches():
    data = cli_json("identify-cm", "--minpoly", "1", "-54000")
    assert data["match"]["D"] == "-12"
    assert data["match"]["class_polynomial"] == "x - 54000"
    data = cli_json("identify-cm", "--minpoly", "1", "147197952000")
    assert data["match"]["D"] == "-67"


def test_identify_cm_no_match():
    data = cli_json("identify-cm", "--minpoly", "1", "-1")
    assert data["match"] is None
    assert data["message"] == "no CM match"
    # taken literally, "1 0 -54000" is x^2 - 54000: irreducible, not CM
    data = cli_json("identify-cm", "--minpoly", "1", "0", "-54000")
    assert data["match"] is None


def test_identify_cm_huge_constant_answers_quickly():
    # x - 10**200: the trace pins |D| strictly between 21,487 and 21,488, so
    # the window holds no integer and nothing is built
    args = ["identify-cm", "--minpoly", "1", "-1" + 200 * "0"]
    proc = subprocess.run(
        [sys.executable, "-m", "qstar.cli", *args],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["match"] is None


def test_identify_cm_empty_window_answers_no_match():
    # x - 10**4000 pins |D| strictly between 8,595,113 and 8,595,114: the
    # window is empty, so the answer is exact and the budget never applies
    args = ["identify-cm", "--minpoly", "1", "-1" + 4000 * "0"]
    proc = run_cli(*args, timeout=30)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["message"] == "no CM match"


def test_identify_cm_window_over_budget_exits_quickly():
    # x - round(e^(pi sqrt 100003)) has the window |D| = 100,003, past the
    # cap of 100,000; counting reduced forms there would take seconds per
    # candidate, so the lookup refuses it up front
    with mpmath.workdps(500):
        t = int(mpmath.nint(mpmath.exp(mpmath.pi * mpmath.sqrt(100003))))
    proc = run_cli("identify-cm", "--minpoly", "1", str(-t), timeout=30)
    assert proc.returncode == EXIT_PRECISION
    assert proc.stdout == ""
    assert "window" in proc.stderr


@pytest.mark.parametrize(
    "minpoly",
    [
        ["1"] + ["0"] * 16 + ["1"],  # degree 17
        ["2", "1"],  # not monic
        ["1"] + [str(10**199 + i) for i in range(16)],  # 200-digit coefficients
        ["1", "-1" + 4000 * "0"],  # x - 10**4000
    ],
    ids=["degree-17", "non-monic", "degree-16-huge", "x-minus-10^4000"],
)
def test_hostile_cm_input_exits_promptly(minpoly):
    proc = run_cli("identify-cm", "--minpoly", *minpoly, timeout=10)
    assert proc.returncode in (EXIT_OK, EXIT_MISMATCH, EXIT_INPUT, EXIT_PRECISION)
    assert "Traceback" not in proc.stderr


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # each CLI run is a fresh process, and these two modules with the code
    # that dataclass decorators generate cost tens of milliseconds there
    probe = (
        "import sys, qstar.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_runs_without_mpmath():
    # the class polynomials of a pipeline's CM test and of identify-cm run
    # on integer balls, so no CLI process pays for importing mpmath
    probe = (
        "import contextlib, io, sys, qstar.cli\n"
        "seen = ['mpmath' in sys.modules]\n"
        "for argv in (['pipeline', '67', '--height', '100'],\n"
        "             ['identify-cm', '--minpoly', '1', '-54000']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert qstar.cli.main(argv) == 0\n"
        "    seen.append('mpmath' in sys.modules)\n"
        "print(seen)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False]"


def test_identify_cm_builds_matched_polynomial_once(monkeypatch, capsys):
    built = []
    build = qstar.cm._class_polynomial_at

    def counting(D, forms, scale):
        built.append(D)
        return build(D, forms, scale)

    monkeypatch.setattr(qstar.cm, "_class_polynomial_at", counting)
    qstar.cm.class_polynomial.cache_clear()
    assert qstar.cli.main(["identify-cm", "--minpoly", "1", "-54000"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["match"]["D"] == "-12"
    assert built.count(-12) == 1


# sha256 of identify-cm's stdout for H_-5460 and H_-5460 + 1
IDENTIFY_CM_DEGREE_16 = {
    0: "3f752742d8bb207d3963cf94f92cdffa783e3b1c7d2b16a9161b2e969c187bb9",
    1: "b711e52993bbc5aefb0d60246c8f526d962dcf519481eacd8ce5348b693021a2",
}


@pytest.mark.parametrize("shift", sorted(IDENTIFY_CM_DEGREE_16))
def test_identify_cm_degree_16_stdout(shift, capsys):
    coeffs = list(class_polynomial(-5460).poly.coeffs)
    coeffs[0] += shift
    argv = ["identify-cm", "--minpoly", *(str(c) for c in reversed(coeffs))]
    assert qstar.cli.main(argv) == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == IDENTIFY_CM_DEGREE_16[shift]
    assert (b'"D": "-5460"' in out) == (shift == 0)


def test_identify_cm_input_errors():
    assert run_cli("identify-cm", "--minpoly", "2", "-1").returncode == EXIT_INPUT
    assert run_cli("identify-cm", "--minpoly", "1", "1/2").returncode == EXIT_INPUT
    assert run_cli("identify-cm", "--minpoly", "x").returncode == EXIT_INPUT
    degree17 = ["1"] + ["0"] * 16 + ["-1"]
    assert run_cli("identify-cm", "--minpoly", *degree17).returncode == EXIT_INPUT


# --- validate-all -------------------------------------------------------------


def test_validate_all_bundled_levels():
    proc = run_cli("validate-all")
    assert proc.returncode == EXIT_OK
    data = json.loads(proc.stdout)
    assert sorted(data["levels"]) == ["107", "67", "73", "85"]
    assert data["all_match"] is True
    assert all(row["matches"] for row in data["levels"].values())


# --- shared plumbing ----------------------------------------------------------


def test_usage_error_exit_code():
    assert run_cli("bogus-command").returncode == EXIT_INPUT
    assert run_cli("pipeline").returncode == EXIT_INPUT  # missing dataset arg
    assert run_cli("pipeline", "67", "--jobs", "2").returncode == EXIT_INPUT
    assert run_cli("validate-all", "--jobs", "2").returncode == EXIT_INPUT


def test_help_exits_zero():
    assert run_cli("--help").returncode == EXIT_OK
    assert run_cli("pipeline", "--help").returncode == EXIT_OK


def test_factoring_budget_exit_code(monkeypatch, capsys):
    def exhausted(poly):
        raise FactorizationError("integer factoring budget exhausted")

    monkeypatch.setattr(qstar.jpipeline, "factor_rational", exhausted)
    assert qstar.cli.main(["pipeline", "67", "--point", "inf-"]) == EXIT_PRECISION
    out, err = capsys.readouterr()
    assert out == ""
    assert "precision error" in err and "budget" in err


def test_failed_root_check_is_an_internal_error_exit_code(monkeypatch, capsys):
    def off_by_a_third(f):
        root, conj = quadratic_surd_roots(f)
        a, b = root.coords
        return MultiQuadElement(root.generators, (a + Fraction(1, 3), b)), conj

    # level 73 has quadratic factors, whose surd roots are re-checked
    monkeypatch.setattr(qstar.jpipeline, "quadratic_surd_roots", off_by_a_third)
    assert qstar.cli.main(["pipeline", "73", "--height", "100"]) == EXIT_MISMATCH
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: claimed root")
    assert "Traceback" not in err


def test_failed_product_check_is_an_internal_error_exit_code(monkeypatch, capsys):
    factor_rational = qstar.jpipeline.factor_rational

    def drop_first_factor(poly):
        return list(factor_rational(poly))[1:]

    monkeypatch.setattr(qstar.jpipeline, "factor_rational", drop_first_factor)
    assert qstar.cli.main(["pipeline", "67", "--point", "inf-"]) == EXIT_MISMATCH
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: factors do not multiply back")
    assert "Traceback" not in err


def test_traced_pipeline_records_the_point_report(tmp_path, monkeypatch):
    # perfbench/tracing.py wraps ("qstar.cli", "point_report") wherever it is held
    assert qstar.cli.point_report is qstar.jpipeline.point_report
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = ["pipeline", "67", "--point", "inf-"]
    plain = subprocess.run(
        [sys.executable, "-m", "qstar.cli", *args],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    spans_file = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         "--spans", str(spans_file), "cli", *args],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    assert traced.stdout == plain.stdout
    m = tracing.layer_metrics(json.loads(spans_file.read_text()))
    assert m["cli.point_report.calls"] == 1


def test_precision_cap_raises(monkeypatch):
    class_polynomial(-71)
    monkeypatch.setattr(qstar.cm, "_PRECISION_CAP", 64)
    with pytest.raises(PrecisionCapError):
        class_polynomial(-71, scale_bits=8)
