"""The table tools in tools/ against the bundled files they write or check."""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from qstar.algnum import MultiQuadElement
from qstar.fixtures import CMTableRow
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
    walked = list(make_datasets.primes_from(2, 250))
    by_trial_division = [
        n for n in range(2, 250) if all(n % q for q in range(2, int(n**0.5) + 1))
    ]
    assert walked == by_trial_division
    assert 121 not in walked and 169 not in walked


def test_unbounded_prime_walk_continues_past_the_small_primes():
    walk = make_datasets.primes_from(113)
    assert [next(walk) for _ in range(5)] == [113, 127, 131, 137, 139]


@pytest.mark.parametrize("level", sorted(make_datasets.TARGETS))
def test_make_dataset_reproduces_the_bundled_file(level):
    assert level in bundled_dataset_levels()
    data = make_datasets.make_dataset(
        level, make_datasets.TARGETS[level], verbose=False
    )
    bundled = ROOT / "src" / "qstar" / "data" / "datasets" / f"ds{level:03d}.json"
    assert make_datasets.dataset_text(data).encode() == bundled.read_bytes()


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
    # h = 8 and h = 16 are above IDENT_DEGREE_MAX, so only the genus
    # field route checks these cells
    [(-1155, (5, 21, 33), (5, 21, 35)), (-5460, (3, 5, 7, 13), (3, 5, 7, 17))],
)
def test_cm_table_genus_field_check_rejects_a_wrong_generator(d, good, bad):
    assert check_cm_tables._check_cell(d, good) is None
    problem = check_cm_tables._check_cell(d, bad)
    assert problem == f"gens {bad} do not match the genus field of {d}"


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
