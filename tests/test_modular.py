"""Dataset handling, echelon form, and sextic model derivation."""

import json
import random
import time
from fractions import Fraction
from importlib import resources

import pytest

from qstar.errors import (
    DatasetError,
    InconsistentDatasetError,
    InputError,
    InsufficientPrecisionError,
    NonIntegralCoefficientError,
    PrecisionError,
)
from qstar.fixtures import fixture_curve
from qstar.modular import (
    ModularDataset,
    bundled_dataset_levels,
    coordinate_series,
    coordinates,
    dataset_from_json,
    dataset_to_json,
    derive_equation,
    echelon_series,
    echelonize,
    load_dataset,
    relation_residual,
    validate_dataset,
)
from qstar.series import LaurentSeries

F = Fraction

BUNDLED = (67, 73, 85, 107)


# --- dataset construction ----------------------------------------------------


def test_dataset_validation():
    ModularDataset(67, 5, (1, 0, 2, -1), (1, 3, 3))
    with pytest.raises(DatasetError):
        ModularDataset(68, 5, (1, 0, 2, -1), (1, 3, 3))  # 68 = 4*17
    with pytest.raises(DatasetError):
        ModularDataset(67, 5, (1, 1, 2, -1), (1, 3, 3))  # h1 q^2 coefficient
    with pytest.raises(DatasetError):
        ModularDataset(67, 5, (2, 0, 2, -1), (1, 3, 3))  # h1 not monic
    with pytest.raises(DatasetError):
        ModularDataset(67, 5, (1, 0, 2, -1), (2, 3, 3))  # h2 not monic
    with pytest.raises(DatasetError):
        ModularDataset(67, 5, (1, 0, 2), (1, 3, 3))  # length/precision clash
    with pytest.raises(DatasetError):
        ModularDataset(67, 5, (1, 0, F(1, 2), 0), (1, 3, 3))  # non-integer


def test_dataset_series_and_truncate():
    data = load_dataset(67)
    h1, h2 = data.h1_series(), data.h2_series()
    assert (h1.val, h1.prec) == (1, data.precision)
    assert (h2.val, h2.prec) == (2, data.precision)
    assert h1.coeff(1) == 1 and h1.coeff(2) == 0 and h2.coeff(2) == 1
    cut = data.truncate(20)
    assert cut.precision == 20 and cut.h1 == data.h1[:19]
    with pytest.raises(DatasetError):
        cut.truncate(30)


def test_bundled_levels():
    assert bundled_dataset_levels() == list(BUNDLED)
    with pytest.raises(DatasetError):
        load_dataset(91)


def test_bundled_file_schema():
    raw = json.loads(
        resources.files("qstar.data").joinpath("datasets/ds067.json").read_text()
    )
    assert raw["format"] == 1 and raw["level"] == 67
    assert all(isinstance(c, str) for c in raw["h1"] + raw["h2"])
    assert len(raw["h1"]) == raw["precision"] - 1


def test_json_round_trip():
    data = load_dataset(73)
    again = dataset_from_json(dataset_to_json(data))
    assert again == data
    with pytest.raises(DatasetError):
        dataset_from_json({"format": 2})
    with pytest.raises(DatasetError):
        dataset_from_json({"format": 1, "level": 67, "precision": 5, "h1": ["x"], "h2": []})


def _raw_67(**overrides):
    raw = dataset_to_json(load_dataset(67))
    raw.update(overrides)
    return raw


def test_json_accepts_ints_and_decimal_strings():
    raw = _raw_67()
    data = dataset_from_json(raw)
    as_ints = _raw_67(level="67", precision=str(raw["precision"]))
    as_ints["h1"] = [int(c) for c in raw["h1"]]
    assert dataset_from_json(as_ints) == data


def test_json_rejects_float_level():
    for level in (67.4, 67.0, "67.0"):
        with pytest.raises(DatasetError, match="level"):
            dataset_from_json(_raw_67(level=level))


def test_json_rejects_float_coefficient():
    raw = _raw_67()
    for bad in (1.5, 1.0, "1.5", "1e3", " 1", "", None):
        h1 = list(raw["h1"])
        h1[3] = bad
        with pytest.raises(DatasetError, match="h1"):
            dataset_from_json(_raw_67(h1=h1))


def test_level_admission_never_runs_pollard_rho():
    # showing this 200-bit semiprime square-free would take Pollard rho's
    # whole budget, about 8 s, before it failed
    level = (2**99 + 255) * (2**100 + 277)
    t0 = time.perf_counter()
    with pytest.raises(PrecisionError, match=f"level {level} could be shown square-free only"):
        dataset_from_json(_raw_67(level=level))
    assert time.perf_counter() - t0 < 1
    with pytest.raises(DatasetError, match="square-free"):
        dataset_from_json(_raw_67(level=(2**61 - 1) ** 2))
    # a prime cofactor past trial division is settled by the primality test
    assert dataset_from_json(_raw_67(level=10**16 + 61)).level == 10**16 + 61


def test_json_rejects_bools():
    with pytest.raises(DatasetError, match="level"):
        dataset_from_json(_raw_67(level=True))
    with pytest.raises(DatasetError, match="precision"):
        dataset_from_json(_raw_67(precision=False))
    h2 = list(_raw_67()["h2"])
    h2[0] = True
    with pytest.raises(DatasetError, match="h2"):
        dataset_from_json(_raw_67(h2=h2))


def test_json_rejects_a_string_for_a_coefficient_list():
    raw = _raw_67()
    # a string of digits was read as a list of one-digit coefficients
    for bad in ("h1", "".join(c.lstrip("-") for c in raw["h1"]), {"0": "1"}, 1):
        with pytest.raises(DatasetError, match="h1"):
            dataset_from_json(_raw_67(h1=bad))


# --- coordinates and the model equation --------------------------------------


@pytest.mark.parametrize("level", BUNDLED)
def test_relation_holds_to_full_precision(level):
    # y^2 - f(x) must vanish in every known coefficient, not only the solved ones
    data = load_dataset(level)
    x, y = coordinate_series(data)
    total = y * y
    for i, c in enumerate(fixture_curve(level).f_coeffs()):
        total = total - (x**i).scale(c)
    assert total.is_zero()
    assert total.prec == data.precision - 8


@pytest.mark.parametrize("level", BUNDLED)
def test_coordinate_series_shape(level):
    x, y = coordinate_series(load_dataset(level))
    assert x.val == -1 and x.coeff(-1) == 1
    assert y.val == -3 and y.coeff(-3) == 1


def test_derived_equation_level_67():
    c = derive_equation(load_dataset(67))
    assert c.f_coeffs() == [9, -14, 9, -6, 6, -4, 1]


def test_derived_equation_level_85_factors():
    # x^6 - 4x^5 + 12x^4 - 22x^3 + 32x^2 - 40x + 25
    #   = (x^2 - 2x + 5)(x^4 - 2x^3 + 3x^2 - 6x + 5)
    left = [5, -2, 1]
    right = [5, -6, 3, -2, 1]
    prod = [0] * 7
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            prod[i + j] += a * b
    c = derive_equation(load_dataset(85))
    assert c.f_coeffs() == prod


@pytest.mark.parametrize("level", BUNDLED)
def test_derived_equation_matches_fixture(level):
    assert derive_equation(load_dataset(level)) == fixture_curve(level)


@pytest.mark.parametrize("precision", [16, 21, 40])
def test_derivation_is_truncation_invariant(precision):
    data = load_dataset(107)
    assert derive_equation(data.truncate(precision)) == derive_equation(data)


def test_precision_guards():
    data = load_dataset(67)
    with pytest.raises(InsufficientPrecisionError):
        coordinate_series(data.truncate(9))
    coordinate_series(data.truncate(10))
    with pytest.raises(InsufficientPrecisionError):
        derive_equation(data.truncate(15))
    derive_equation(data.truncate(16))


def test_corrupted_coefficient_is_inconsistent():
    rng = random.Random(67)
    data = load_dataset(67)
    for _ in range(6):
        which = rng.randrange(12, len(data.h1))
        h1 = list(data.h1)
        h1[which] += rng.choice([-2, -1, 1, 2])
        bad = ModularDataset(67, data.precision, tuple(h1), data.h2)
        with pytest.raises(InconsistentDatasetError):
            derive_equation(bad)


# --- echelon form -------------------------------------------------------------


def test_echelonize_recovers_dataset_from_random_mixes():
    rng = random.Random(85)
    data = load_dataset(85).truncate(40)
    g1, g2 = data.h1_series(), data.h2_series()
    for _ in range(8):
        while True:
            a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
            if a * d - b * c != 0:
                break
        m1 = g1.scale(a) + g2.scale(b)
        m2 = g1.scale(c) + g2.scale(d)
        if m1.coeff(1) == 0 and m2.coeff(1) == 0:
            continue  # the mix lost the valuation-1 vector (a = c = 0)
        assert echelonize(m1, m2, level=85) == data


def test_echelonize_accepts_rational_inputs():
    data = load_dataset(73).truncate(30)
    g1 = data.h1_series().scale(F(3, 7))
    g2 = (data.h1_series() + data.h2_series().scale(2)).scale(F(-1, 5))
    assert echelonize(g1, g2, level=73) == data


def test_echelonize_error_paths():
    data = load_dataset(67).truncate(25)
    g1, g2 = data.h1_series(), data.h2_series()
    with pytest.raises(InputError):
        echelonize(g1, g1.scale(3), level=67)  # dependent
    with pytest.raises(InputError):
        echelonize(g2, g2.scale(2) + g2.shift(1), level=67)  # nothing at q^1
    with pytest.raises(InputError):
        echelonize(g1.shift(-1), g2, level=67)  # valuation 0 is not cuspidal
    # a span whose echelon basis exists but is not integral
    s1 = LaurentSeries(1, [2, 1, 0, 0, 0, 0, 0, 0, 0, 0], 2)  # q + q^2/2
    s2 = LaurentSeries(2, [1, 1, 0, 0, 0, 0, 0, 0, 0])  # q^2 + q^3
    with pytest.raises(NonIntegralCoefficientError):
        echelonize(s1, s2, level=67)


def test_echelon_series_keeps_rational_coefficients():
    s1 = LaurentSeries(1, [2, 1, 0, 4], 2)  # q + q^2/2 + 2q^4
    s2 = LaurentSeries(2, [3, 3, 0])  # 3q^2 + 3q^3
    h1, h2 = echelon_series(s2, s1)
    assert [h1.coeff(k) for k in range(1, 5)] == [1, 0, F(-1, 2), 2]
    assert [h2.coeff(k) for k in range(1, 5)] == [0, 1, 1, 0]
    assert (h1.prec, h2.prec) == (5, 5)
    with pytest.raises(InputError):
        echelon_series(s1, s1.scale(F(2, 3)))


def test_relation_residual_of_the_dataset_coordinates():
    data = load_dataset(73).truncate(30)
    x, y = coordinates(data.h1_series(), data.h2_series())
    assert (x, y) == coordinate_series(data)
    f = fixture_curve(73).f_coeffs()
    assert relation_residual(x, y, f).is_zero()
    # y^2 - x^6 keeps exactly the lower terms of f(x)
    wrong = relation_residual(x, y, [0] * 6 + [1])
    assert wrong.val == -5 and wrong.coeff(-5) == f[5]


# --- validation reports --------------------------------------------------------


def test_validation_report_matches():
    rep = validate_dataset(load_dataset(85), fixture_curve(85))
    assert rep.matches and rep.coefficient_match == (True,) * 6
    assert rep.extra_verified == 105 and not rep.low_margin
    assert rep.error is None


def test_validation_report_minimal_precision():
    rep = validate_dataset(load_dataset(67).truncate(16), fixture_curve(67))
    assert rep.matches and rep.extra_verified == 0 and rep.low_margin


def test_validation_report_wrong_curve():
    rep = validate_dataset(load_dataset(67), fixture_curve(73))
    assert not rep.matches
    assert rep.coefficient_match is not None and False in rep.coefficient_match
    assert rep.derived == tuple(fixture_curve(67).f_coeffs()[:6])


def test_validation_report_inconsistent_data():
    data = load_dataset(73)
    h2 = list(data.h2)
    h2[30] -= 1
    rep = validate_dataset(
        ModularDataset(73, data.precision, data.h1, tuple(h2)), fixture_curve(73)
    )
    assert not rep.matches and rep.derived is None
    assert "q^" in rep.error
