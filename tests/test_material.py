"""Material validation, strong ellipticity, cubic coefficients, coupling."""

import json
import math

import numpy as np
import pytest

from rayleighmt import (
    COEFFICIENT_KEYS,
    CouplingCase,
    MissingFieldError,
    NonFiniteError,
    NotStronglyEllipticError,
    check_distinct_cubic_roots,
    check_strong_ellipticity,
    classify_coupling,
    derived_cubic,
    load_material,
    validate_coefficients,
)
from rayleighmt.material import CASE_ZEROED_COUPLINGS, SE_CONDITION_NAMES

from helpers import random_material

RAW_REF = {
    "rho": 1.0, "a": 1.0, "b": 1.0, "k": 1.0, "lambda": 1.0, "mu": 1.0,
    "d1": 1.0, "d2": 1.0, "d3": 2.0, "eps1": 0.5, "eps2": 0.5,
    "beta": 0.5, "m": 0.5,
}


def test_validate_happy_path():
    M = validate_coefficients(RAW_REF)
    assert M.lam == 1.0
    assert M.d == 4.0
    assert M.p_wave_modulus == 3.0
    assert M.eps_long == 1.5


def test_validate_accepts_numpy_scalars():
    raw = {key: np.float64(val) for key, val in RAW_REF.items()}
    M = validate_coefficients(raw)
    assert isinstance(M.rho, float)


def test_validate_missing_field():
    raw = dict(RAW_REF)
    del raw["d3"]
    with pytest.raises(MissingFieldError) as err:
        validate_coefficients(raw)
    assert "d3" in str(err.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1.0", True])
def test_validate_rejects_non_numeric(bad):
    raw = dict(RAW_REF)
    raw["mu"] = bad
    with pytest.raises(NonFiniteError):
        validate_coefficients(raw)


def test_load_material_rejects_a_null_coefficient(tmp_path):
    path = tmp_path / "null.json"
    path.write_text(json.dumps(dict(RAW_REF, rho=None)))
    with pytest.raises(NonFiniteError) as err:
        load_material(path)
    assert err.value.name == "rho"


def test_replace_and_to_dict_round_trip():
    M = validate_coefficients(RAW_REF)
    M2 = M.replace(d3=5.0)
    assert M2.d3 == 5.0 and M.d3 == 2.0
    out = M.to_dict()
    assert set(out) == set(COEFFICIENT_KEYS)
    assert validate_coefficients(out) == M


def test_load_material(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(RAW_REF))
    assert load_material(path) == validate_coefficients(RAW_REF)


def test_load_material_bad_json(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_material(path)


def test_reference_is_strongly_elliptic(reference):
    report = check_strong_ellipticity(reference)
    assert report.passed
    assert report.violations == ()
    assert set(report.margins) == set(SE_CONDITION_NAMES)
    assert all(margin > 0.0 for margin in report.margins.values())


def test_single_violation_reported():
    M = validate_coefficients(dict(RAW_REF, rho=-1.0))
    report = check_strong_ellipticity(M)
    assert not report.passed
    assert report.violations == ("rho>0",)


def test_margins_are_the_inequality_slacks(reference):
    report = check_strong_ellipticity(reference)
    # spot-check two: mu*d2 - eps2^2 and (lambda+2mu)*d - (eps1+2eps2)^2
    assert math.isclose(report.margins["eps2^2<mu*d2"], 1.0 - 0.25)
    assert math.isclose(report.margins["(eps1+2eps2)^2<(lambda+2mu)d"], 12.0 - 2.25)


def test_derived_cubic_reference_exact(reference):
    C = derived_cubic(reference)
    assert C.d == 4.0
    assert C.a2 == 2.0
    assert C.a0 == 0.75
    assert C.b4 == 8.5
    assert C.b2 == 17.75
    assert C.b0 == 9.75
    assert math.isclose(C.h1, 19.0 / 3.0, rel_tol=1e-15)
    assert math.isclose(C.h0, -1069.0 / 216.0, rel_tol=1e-15)


def test_derived_cubic_requires_ellipticity():
    M = validate_coefficients(dict(RAW_REF, mu=-1.0))
    with pytest.raises(NotStronglyEllipticError):
        derived_cubic(M)


def test_distinct_cubic_roots_reference(reference):
    assert check_distinct_cubic_roots(derived_cubic(reference))


def test_random_materials_have_positive_margins():
    rng = np.random.default_rng(3)
    for _ in range(50):
        M = random_material(rng)
        report = check_strong_ellipticity(M)
        assert report.passed, report.violations


def test_classify_coupling_all_cases(reference, case_i_material,
                                     case_ii_material, case_iii_material):
    assert classify_coupling(reference) is CouplingCase.GENERAL
    assert classify_coupling(case_i_material) is CouplingCase.CASE_I
    assert classify_coupling(case_ii_material) is CouplingCase.CASE_II
    assert classify_coupling(case_iii_material) is CouplingCase.CASE_III
    bare = validate_coefficients(dict(RAW_REF, beta=0.0, m=0.0,
                                      eps1=0.0, eps2=0.0))
    assert classify_coupling(bare) is CouplingCase.DEGENERATE


GENERAL, CASE_I, CASE_II, CASE_III, DEGENERATE = CouplingCase

#: The case of every zero pattern of (beta, m, eps1, eps2), 1 marking a zero.
COUPLING_TRUTH_TABLE = {
    (0, 0, 0, 0): GENERAL, (0, 0, 0, 1): GENERAL, (0, 0, 1, 0): GENERAL,
    (0, 0, 1, 1): DEGENERATE, (0, 1, 0, 0): DEGENERATE, (0, 1, 0, 1): DEGENERATE,
    (0, 1, 1, 0): DEGENERATE, (0, 1, 1, 1): CASE_II, (1, 0, 0, 0): DEGENERATE,
    (1, 0, 0, 1): DEGENERATE, (1, 0, 1, 0): DEGENERATE, (1, 0, 1, 1): CASE_I,
    (1, 1, 0, 0): CASE_III, (1, 1, 0, 1): DEGENERATE, (1, 1, 1, 0): DEGENERATE,
    (1, 1, 1, 1): DEGENERATE,
}


def test_classify_coupling_every_zero_pattern():
    M = random_material(np.random.default_rng(29))
    assert len(COUPLING_TRUTH_TABLE) == 16
    for pattern, case in COUPLING_TRUTH_TABLE.items():
        zeroed = {name: 0.0 for name, zero in zip(("beta", "m", "eps1", "eps2"), pattern)
                  if zero}
        assert classify_coupling(M.replace(**zeroed)) is case, pattern
    # zeroing a decoupled case's couplings gives that case
    assert set(CASE_ZEROED_COUPLINGS) == {CASE_I, CASE_II, CASE_III}
    for case, fields in CASE_ZEROED_COUPLINGS.items():
        assert classify_coupling(M.replace(**{name: 0.0 for name in fields})) is case


def test_coupling_case_descriptions():
    assert {case: case.description for case in CouplingCase} == {
        GENERAL: "all couplings active (m != 0, beta != 0, eps1 or eps2 != 0)",
        CASE_I: "beta = eps1 = eps2 = 0, m != 0",
        CASE_II: "m = eps1 = eps2 = 0, beta != 0",
        CASE_III: "beta = m = 0, eps1 != 0 and eps2 != 0",
        DEGENERATE: "coupling pattern outside the handled regimes",
    }


def test_classify_coupling_exact_zeros():
    # only exact zeros decouple; tiny couplings keep the material GENERAL
    M = validate_coefficients(dict(RAW_REF, beta=1e-12, eps1=1e-12, eps2=1e-12))
    assert classify_coupling(M) is CouplingCase.GENERAL
