"""The table tools in tools/ against the bundled files they write or check."""

import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from itertools import dropwhile, takewhile
from pathlib import Path

import pytest

from qstar.algnum import (
    MultiQuadElement,
    _iter_primes,
    _squarefree_mod_p,
    is_probable_prime,
)
from qstar.fixtures import CMTableRow, fixture_curve
from qstar.hyperelliptic import INF_MINUS
from qstar.modular import bundled_dataset_levels

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_datasets = _load_tool("make_datasets")
check_cm_tables = _load_tool("check_cm_tables")


def test_prime_walk_yields_exactly_the_primes_below_250():
    walked = list(takewhile(lambda p: p < 250, _iter_primes()))
    by_trial_division = [
        n for n in range(2, 250) if all(n % q for q in range(2, int(n**0.5) + 1))
    ]
    assert walked == by_trial_division
    assert 121 not in walked and 169 not in walked


def test_unbounded_prime_walk_continues_past_the_small_primes():
    walk = dropwhile(lambda p: p < 113, _iter_primes())
    assert [next(walk) for _ in range(5)] == [113, 127, 131, 137, 139]


def _norm_pair_by_exponentiation(fc, p):
    """(t_p, s_p) with the F_{p^2} character taken as z^((p^2-1)/2)."""
    t = make_datasets.trace_mod_p(fc, p)
    r = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)

    def mul(z1, z2):
        (u1, v1), (u2, v2) = z1, z2
        return ((u1 * u2 + v1 * v2 * r) % p, (u1 * v2 + u2 * v1) % p)

    def chi(z):
        acc, base, e = (1, 0), z, (p * p - 1) // 2
        while e:
            if e & 1:
                acc = mul(acc, base)
            base = mul(base, base)
            e >>= 1
        return {(1, 0): 1, (p - 1, 0): -1, (0, 0): 0}[acc]

    count = 2
    for u in range(p):
        for v in range(p):
            w = (0, 0)
            for c in reversed(fc):
                w = mul(w, (u, v))
                w = ((w[0] + c) % p, w[1])
            count += 1 + chi(w)
    return t, (t * t - 4 * p - (p * p + 1 - count)) // 2


@pytest.mark.parametrize("level", [67, 85])
def test_norm_character_matches_exponentiation(level):
    fc = [int(c) for c in fixture_curve(level).f_coeffs()]
    good = [
        p for p in range(3, 32)
        if is_probable_prime(p) and level % p and _squarefree_mod_p(fc, p)
    ]
    assert len(good) >= 8
    for p in good:
        expected = _norm_pair_by_exponentiation(fc, p)
        assert make_datasets.norm_pair_mod_p2(fc, p) == expected, p


def test_hasse_bound_is_exact_at_its_boundary():
    # at p = 2 the bound is |t| + |e| sqrt(2) <= 4 sqrt(2), met with equality
    # by 2 sqrt(2) = (0 + 4 sqrt(2)) / 2
    assert make_datasets.within_hasse(2, 0, 4, 2)
    assert not make_datasets.within_hasse(2, 2, 4, 2)  # 1 + 2 sqrt(2)
    assert not make_datasets.within_hasse(2, 0, 6, 2)  # 3 sqrt(2)
    candidates = make_datasets.hasse_candidates(2, 2)
    assert make_datasets.eigenvalue(2, 0, 4) in candidates
    assert make_datasets.eigenvalue(2, 0, -4) in candidates
    assert make_datasets.eigenvalue(2, 2, 4) not in candidates
    assert make_datasets.eigenvalue(2, 4, 0) in candidates  # |2| <= 2 sqrt(2)


@pytest.mark.parametrize("level", bundled_dataset_levels())
def test_make_dataset_reproduces_the_bundled_file(level):
    data = make_datasets.make_dataset(
        level, make_datasets.dataset_precision(level), verbose=False
    )
    bundled = ROOT / "src" / "qstar" / "data" / "datasets" / f"ds{level:03d}.json"
    assert make_datasets.dataset_text(data).encode() == bundled.read_bytes()


def test_make_datasets_main_writes_the_bundled_file(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "make_datasets.py"),
         "--levels", "67", "--out", str(tmp_path)],
        check=True, capture_output=True,
    )
    bundled = ROOT / "src" / "qstar" / "data" / "datasets" / "ds067.json"
    assert (tmp_path / "ds067.json").read_bytes() == bundled.read_bytes()


@pytest.mark.parametrize(
    "levels, code, message",
    [
        ("106", 1, "make_datasets: level 106: both eigenvalue sequences are rational (d = 1)"),
        ("68", 1, "make_datasets: no bundled curve for level 68"),
        ("x", 2, "argument --levels: invalid level_list value: 'x'"),
    ],
)
def test_make_datasets_main_fails_in_one_line(tmp_path, levels, code, message):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "make_datasets.py"),
         "--levels", levels, "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert run.returncode == code
    assert "Traceback" not in run.stderr
    assert message in run.stderr


def test_make_dataset_refuses_rational_eigenvalues():
    # at 106 both eigenforms have rational a_p (one is old, from 53a1)
    with pytest.raises(NotImplementedError, match="rational .* ROADMAP.md item 3"):
        make_datasets.make_dataset(106, make_datasets.dataset_precision(106))


def test_cm_tables_verify(capsys):
    assert check_cm_tables.verify() == []
    assert check_cm_tables.main() == 0
    out, _ = capsys.readouterr()
    assert out == "cm_tables.json: 36 levels, 273 rows, 33 flagged, all verified\n"


def test_cm_tables_json_is_canonical():
    # the file is edited by hand; keep it in the layout json.dumps gives it
    text = (ROOT / "src" / "qstar" / "data" / "cm_tables.json").read_text()
    doc = json.loads(text)
    assert json.dumps(doc, indent=1) + "\n" == text
    assert list(doc) == ["format", "levels"]
    levels = [int(key) for key in doc["levels"]]
    assert levels == sorted(levels)
    required = ["point", "cm", "D", "j", "display"]
    for rows in doc["levels"].values():
        for r in rows:
            keys = list(r)
            assert keys[:5] == required
            assert keys[5:] in ([], ["anomaly"], ["as_printed"], ["anomaly", "as_printed"])


# H_-35 has the roots -58982400 +- 26378240*sqrt(5)
H35_ROOT = MultiQuadElement((5,), (-58982400, 26378240))


def test_cm_table_surd_cell_check_substitutes_into_the_class_polynomial():
    assert check_cm_tables._check_cell(-35, H35_ROOT) is None
    a, b = H35_ROOT.coords
    for bad in ((a + 1, b), (a, b + 1)):
        problem = check_cm_tables._check_cell(-35, MultiQuadElement((5,), bad))
        assert problem == "surd is not a root of H(-35)"


def test_cm_table_rational_cell_check_substitutes_into_the_class_polynomial():
    assert check_cm_tables._check_cell(-7, Fraction(-3375)) is None
    problem = check_cm_tables._check_cell(-7, Fraction(-3374))
    assert problem == "-3374 is not the D=-7 invariant"


@pytest.mark.parametrize(
    "d, good, bad",
    # the genus field check runs before identification, so a wrong
    # generator is reported by it even where identification would also fail
    [(-1155, (5, 21, 33), (5, 21, 35)), (-5460, (3, 5, 7, 13), (3, 5, 7, 17))],
)
def test_cm_table_genus_field_check_rejects_a_wrong_generator(d, good, bad):
    assert check_cm_tables._check_cell(d, good) is None
    problem = check_cm_tables._check_cell(d, bad)
    assert problem == f"gens {bad} do not match the genus field of {d}"


@pytest.mark.parametrize(
    "d, good, bad",
    [(-1155, (5, 21, 33), (5, 21, 35)), (-5460, (3, 5, 7, 13), (3, 5, 7, 17))],
)
def test_cm_table_identification_check_rejects_a_wrong_generator(
    monkeypatch, d, good, bad
):
    # with the genus field check out of the way, identification of the
    # class polynomial alone rejects the cell, at degree 8 and 16 too
    monkeypatch.setattr(check_cm_tables, "_is_fundamental", lambda d: False)
    check = check_cm_tables._check_cell.__wrapped__  # bypass the cache
    assert check(d, good) is None
    assert check(d, bad) == f"field of H({d}) is not Q(sqrt {bad})"


@pytest.mark.parametrize(
    "fields, problem",
    [
        ({}, None),
        ({"discriminants": (-35, -5460)}, "D/j length mismatch"),
        ({"cm": False}, "non-CM row carries D"),
        (
            {"j_values": (MultiQuadElement((5,), (-58982400, -26378240)),)},
            "stored surd part -26378240 is not positive",
        ),
    ],
)
def test_cm_table_row_checks_reject_a_malformed_row(monkeypatch, fields, problem):
    row = dict(
        level=67, point=INF_MINUS, cm=True, discriminants=(-35,),
        j_values=(H35_ROOT,), display="", anomaly=None, as_printed=False,
    )
    row.update(fields)
    monkeypatch.setattr(check_cm_tables, "load_cm_table", lambda: {67: (CMTableRow(**row),)})
    expected = [] if problem is None else [f"67 inf-: {problem}"]
    assert check_cm_tables.verify() == expected
