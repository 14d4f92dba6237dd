"""Mode-speed polynomials: closed forms, ordering, failure modes."""

import math

import numpy as np
import pytest

from rayleighmt import (
    CommonRootError,
    CubicCoefficients,
    IndistinctRootsError,
    check_distinct_cubic_roots,
    derived_cubic,
    mode_speeds,
    polynomial_residual,
    roots_q2,
    roots_q3,
    validate_coefficients,
)
from rayleighmt.spectrum import GAP_RTOL

from helpers import random_material

# frozen from the closed forms at the reference material; the cubic roots
# were cross-checked against a companion-matrix eigenvalue solve
REF_Q2 = (1.5, 0.5)
REF_Q3 = (5.674979913874906, 1.9389289511629555, 0.8860911349621419)
REF_MIN_GAP = 0.38609113496214187


def test_reference_q2_exact(reference):
    assert roots_q2(reference) == REF_Q2


def test_reference_q3_frozen(reference):
    got = roots_q3(derived_cubic(reference))
    assert got == pytest.approx(REF_Q3, rel=1e-15, abs=0.0)


def test_mode_speeds_reference(reference):
    rs = mode_speeds(reference)
    assert [r.index for r in rs.roots] == [1, 2, 3, 4, 5]
    assert [r.source for r in rs.roots] == ["q2", "q2", "q3", "q3", "q3"]
    assert rs.t_values() == pytest.approx(REF_Q2 + REF_Q3, rel=1e-15, abs=0.0)
    assert math.isclose(rs.pairwise_min_gap, REF_MIN_GAP, rel_tol=1e-12)
    assert len(list(rs)) == 5
    assert rs.labels == ()


def test_roots_descending_within_factor():
    rng = np.random.default_rng(5)
    for _ in range(100):
        rs = mode_speeds(random_material(rng))
        ts = rs.t_values()
        assert ts[0] > ts[1]
        assert ts[2] > ts[3] > ts[4]


def test_random_roots_match_numpy_companion():
    rng = np.random.default_rng(17)
    for _ in range(100):
        M = random_material(rng)
        C = derived_cubic(M)
        got = roots_q3(C)
        ref = sorted(np.roots([1.0, -C.b4, C.b2, -C.b0]).real, reverse=True)
        assert got == pytest.approx(ref, rel=1e-10)
        got2 = roots_q2(M)
        ref2 = sorted(np.roots([1.0, -C.a2, C.a0]).real, reverse=True)
        assert got2 == pytest.approx(ref2, rel=1e-10)


def test_residuals_and_vieta():
    rng = np.random.default_rng(29)
    for _ in range(200):
        M = random_material(rng)
        C = derived_cubic(M)
        rs = mode_speeds(M)
        scale = max(1.0, C.b4 ** 3)
        for r in rs.roots:
            q2v, q3v = polynomial_residual(C, r.t)
            resid = q2v if r.source == "q2" else q3v
            assert abs(resid) <= 1e-10 * scale
        t1, t2, t3, t4, t5 = rs.t_values()
        assert math.isclose(t1 + t2, C.a2, rel_tol=1e-10)
        assert math.isclose(t1 * t2, C.a0, rel_tol=1e-10)
        assert math.isclose(t3 + t4 + t5, C.b4, rel_tol=1e-10)
        assert math.isclose(t3 * t4 + t3 * t5 + t4 * t5, C.b2, rel_tol=1e-10)
        assert math.isclose(t3 * t4 * t5, C.b0, rel_tol=1e-10)


def test_all_roots_positive():
    rng = np.random.default_rng(41)
    for _ in range(200):
        assert all(t > 0.0 for t in mode_speeds(random_material(rng)).t_values())


def test_cubic_double_root_refused():
    # (t-1)^2 (t-2): the distinctness criterion h0^2 < (4/27) h1^3 fails
    # with equality, which must count as indistinct
    C = CubicCoefficients(d=1.0, a2=2.0, a0=0.75,
                          b4=4.0, b2=5.0, b0=2.0,
                          h0=-2.0 / 27.0, h1=1.0 / 3.0)
    with pytest.raises(IndistinctRootsError):
        roots_q3(C)


def test_cubic_roots_within_the_gap_refused_past_the_criterion():
    # case I with the P wave (lambda+2mu)/rho = 2.5 also a root of the
    # quadratic factor (k = 45/56, here one ulp below): q3 has a double root
    # up to rounding.  The rounded h0^2 < (4/27) h1^3 still holds, but the
    # arccos argument rounds to 1, so two trigonometric roots fall within
    # GAP_RTOL * b4 of each other
    M = validate_coefficients({
        "rho": 1.0, "a": 0.25, "b": 1.0, "k": 0.8035714285714285, "lambda": 2.0, "mu": 0.25,
        "d1": 2.0, "d2": 1.0, "d3": 3.0, "eps1": 0.0, "eps2": 0.0,
        "beta": 0.0, "m": 0.5,
    })
    C = derived_cubic(M)
    assert check_distinct_cubic_roots(C)
    ts = roots_q3(C)
    assert abs(ts[1] - ts[2]) <= GAP_RTOL * C.b4
    with pytest.raises(IndistinctRootsError, match=r"^cubic factor roots \S+ and \S+ coincide$"):
        mode_speeds(M)


def test_transverse_double_root_refused():
    raw = {
        "rho": 1.0, "a": 1.0, "b": 1.0, "k": 2.0, "lambda": 1.0, "mu": 1.0,
        "d1": 1.0, "d2": 1.0, "d3": 2.0, "eps1": 0.0, "eps2": 0.0,
        "beta": 0.0, "m": 0.0,
    }
    # mu/rho == d2/b makes both transverse speeds collapse to 1; with k/a = 1
    # a cubic root joins them, and the transverse pair, checked first, is named
    for k in (2.0, 1.0):
        with pytest.raises(IndistinctRootsError) as info:
            mode_speeds(validate_coefficients(dict(raw, k=k)))
        assert str(info.value) == "transverse factor has a repeated root t = 1.0"


def test_shared_factor_root_refused():
    raw = {
        "rho": 1.0, "a": 1.0, "b": 1.0, "k": 1.0, "lambda": 1.0, "mu": 1.0,
        "d1": 1.0, "d2": 2.0, "d3": 2.0, "eps1": 0.0, "eps2": 0.0,
        "beta": 0.0, "m": 0.0,
    }
    # decoupled: q2 roots {2, 1}, q3 roots {3, 5, 1}; the shared 1 is the
    # q2/q3 collision path, not the within-factor one
    with pytest.raises(CommonRootError) as info:
        mode_speeds(validate_coefficients(raw))
    assert str(info.value) == "transverse and cubic factors share the root t = 1.0"
    # q2 roots {2, 1} and q3 roots {6, 2, 1} share both: the cross pairs are
    # checked t1 first, so 2 is named
    several = dict(raw, k=3.0, d3=1.0, m=1.0, **{"lambda": -1.0})
    with pytest.raises(CommonRootError) as info:
        mode_speeds(validate_coefficients(several))
    assert str(info.value) == "transverse and cubic factors share the root t = 2.0"


def test_pairwise_min_gap_matches_direct_recount():
    rng = np.random.default_rng(53)
    for _ in range(50):
        M = random_material(rng)
        rs = mode_speeds(M)
        ts = rs.t_values()
        direct = min(abs(x - y) for i, x in enumerate(ts) for y in ts[i + 1:])
        assert math.isclose(rs.pairwise_min_gap, direct, rel_tol=1e-15)
        assert rs.pairwise_min_gap > GAP_RTOL * derived_cubic(M).b4


def test_mode_speeds_are_kept_on_the_material(reference):
    # solved once per material; a replaced copy solves its own
    rs = mode_speeds(reference)
    assert mode_speeds(reference) is rs
    same = mode_speeds(reference.replace())
    assert same is not rs and same == rs
    changed = mode_speeds(reference.replace(mu=2.0 * reference.mu))
    assert changed.t_values() != rs.t_values()
    assert mode_speeds(reference) is rs
