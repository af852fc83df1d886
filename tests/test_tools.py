"""The dataset builder in tools/make_datasets.py against the bundled files."""

import importlib.util
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
