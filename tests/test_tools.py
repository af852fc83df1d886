"""The table tools in tools/ against the bundled files they write."""

import importlib.util
import json
from pathlib import Path

import pytest

from qstar.modular import bundled_dataset_levels

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_datasets = _load_tool("make_datasets")
make_cm_tables = _load_tool("make_cm_tables")


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


def test_cm_tables_verify_and_reproduce_the_bundled_file():
    assert make_cm_tables.verify() == []
    bundled = ROOT / "src" / "qstar" / "data" / "cm_tables.json"
    assert make_cm_tables.tables_text().encode() == bundled.read_bytes()


def test_cm_table_surd_cell_check_substitutes_into_the_class_polynomial():
    # H_-35 has the roots -58982400 +- 26378240*sqrt(5)
    good = {"kind": "surd", "u": "-58982400", "v": "26378240", "d": 5}
    assert make_cm_tables._check_cell(-35, json.dumps(good, sort_keys=True)) is None
    for key in ("u", "v"):
        bad = dict(good, **{key: str(int(good[key]) + 1)})
        problem = make_cm_tables._check_cell(-35, json.dumps(bad, sort_keys=True))
        assert problem == "surd is not a root of H(-35)"


@pytest.mark.parametrize(
    "d, good, bad",
    # h = 8 and h = 16 are above IDENT_DEGREE_MAX, so only the genus
    # field route checks these cells
    [(-1155, [5, 21, 33], [5, 21, 35]), (-5460, [3, 5, 7, 13], [3, 5, 7, 17])],
)
def test_cm_table_genus_field_check_rejects_a_wrong_generator(d, good, bad):
    def cell(gens):
        return json.dumps(make_cm_tables.Fld(*gens), sort_keys=True)

    assert make_cm_tables._check_cell(d, cell(good)) is None
    problem = make_cm_tables._check_cell(d, cell(bad))
    assert problem == f"gens {tuple(bad)} do not match the genus field of {d}"
