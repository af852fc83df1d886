"""Golden stdout: the CLI's bytes for fixed commands must not drift.

Each digest is the sha256 and byte length of stdout for one command. The
pipeline and express-j entries were taken before the point-report
arithmetic moved to Newton-lifted roots, integer reduction and Horner
evaluation; the validate-all, derive-equation, identify-cm and
search-points entries before the value classes derived their constructors
and the reports read their fields from the exact roots. A change that
claims byte-identical output must leave every entry here as it is.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from qstar import cli

GOLDEN = {
    ("pipeline", "67", "--height", "1000"): (
        7075, "a23995fd2594236ba99f13a3bf57eaead62cff6167545f38970965deeb37930d"),
    ("pipeline", "73", "--height", "1000"): (
        8048, "b09f80d812b2c042369bf1d77a49174b6f42089d8a94fca80bc7727c69416de4"),
    ("pipeline", "107", "--height", "1000"): (
        4087, "e967803baecc99c25c49fe9e3adaf6d1570411994cbe65b2a3ea3c1f724c9ee8"),
    ("pipeline", "67", "--height", "100"): (
        7074, "80556ef78a5268bbe2063f921af5d20815e2e0984a4557e7eb32d60c9131d43f"),
    ("pipeline", "73", "--height", "100"): (
        8047, "4a87f81e68b6a7f8e054cd196dce74d03e70cdecef58fd76828531fbe5a3589d"),
    ("pipeline", "85", "--height", "100"): (
        15684, "6b1565b7f8867f7dc5bde9cb05669e85d2e2c6cf540e04fcf54eada49f18bf47"),
    ("pipeline", "107", "--height", "100"): (
        4086, "035436f83045d0819df2a50220eb7cd3997e6e97390fd13ce32a9a8066be95b9"),
    ("express-j", "67"): (
        12951, "4b3ed59da3cd843f9e81d85aa67eae9d03874a364ce0d14b4882d15e37885e08"),
    ("express-j", "73"): (
        14175, "060d2bb8e9695117674745937a1ea7336872ea57a0ba7f3ce4ff42b4932e937a"),
    ("express-j", "85"): (
        40877, "5b203ba5672f4df4adf36dc85b7506b15e3bb77f5bfe1d5a1cf6ba8b6005b9d9"),
    ("express-j", "107"): (
        20922, "a54461c3ea33f3f86ca8c8f7a84af8ca0f58be5f90c988a3e91bed7be513d53a"),
    ("pipeline", "85", "--point", "3/2,-17/8"): (
        2316, "e20716312fe546f562d0b07c386f9f4a68a1bca383804969d6f1548e8586a04b"),
    ("validate-all",): (
        964, "dab71a751bc3adb56513070e4ce8d1fcf2d66eed3e734a5240ad478d4544d13e"),
    ("derive-equation", "85", "--check-table"): (
        318, "d050bd490e48170ec2be380e4320576d65e30a47b5cd37077096a1d3e1a69d9e"),
    ("identify-cm", "--minpoly", "1", "-54000"): (
        120, "e06f33c0efb38e27495491fc9b26aa8e36ec3685bd7e6f801bea7ff82bd4d7d4"),
    ("search-points", "--level", "73"): (
        114, "f9629fc02dad63f1bec3c94c91343233cca896ce78c8997045cea3ee14c7b4eb"),
    ("search-points", "--level", "73", "--json"): (
        719, "1b1b18ef93711bd5ae09d2ccea13655e02dd2340ebaf04c75dc8f4d957d10c00"),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_stdout_matches_golden_digest(argv, capsys):
    assert cli.main(list(argv)) == 0
    data = capsys.readouterr().out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN[argv]


def _make_datasets():
    path = Path(__file__).resolve().parent.parent / "tools" / "make_datasets.py"
    spec = importlib.util.spec_from_file_location("make_datasets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Level 165 has eight divisors, so its eight J_i share the reduction's
# tables over several blocks; no bundled level has more than four.
# Digests taken before the reduction became a blocked Horner scheme.
GOLDEN_165 = {
    ("express-j", "--allow-large"): (
        258603, "f86fc3cf2c949e7f50e8a6cb6098aa47e2779bf02e7a71ad42db2433ad591f3b"),
    ("pipeline", "--height", "100", "--allow-large"): (
        41521, "2181c2c12714b10310c4a89b33f6497db21230ebb9174dc395e3fead68ab7382"),
}


def test_level_165_stdout_matches_golden_digest(tmp_path, capsys):
    tool = _make_datasets()
    data = tool.make_dataset(165, tool.dataset_precision(165), verbose=False)
    path = tmp_path / "ds165.json"
    path.write_text(tool.dataset_text(data))
    for (command, *flags), digest in GOLDEN_165.items():
        assert cli.main([command, str(path), *flags]) == 0
        out = capsys.readouterr().out.encode()
        assert (len(out), hashlib.sha256(out).hexdigest()) == digest, command
