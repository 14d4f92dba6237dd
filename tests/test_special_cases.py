"""Decoupled coupling regimes: roots, kernels, explicit secular cross-checks."""

import math
from itertools import combinations

import numpy as np
import pytest

from rayleighmt import (
    ComplexSpeed,
    CouplingCase,
    DegenerateKernelError,
    DegenerateRootsError,
    ModeFailureError,
    NonDecayingError,
    NotStronglyEllipticError,
    WrongCaseError,
    assemble_Dp,
    cross_check_case,
    derived_cubic,
    mode_speeds,
    mode_vector,
    numeric_nullspace,
    p_from_t,
    polarization_check,
    reduced_cubic_coefficients,
    roots_case,
    secular_case_explicit,
    validate_coefficients,
)
from rayleighmt import modes, secular, special_cases
from rayleighmt.material import CASE_ZEROED_COUPLINGS
from rayleighmt.secular import point_dets, secular_matrix

from helpers import mode_vector_matrix, nullspace_sine

VPROBE = ComplexSpeed(0.35, 0.07)


def _case_modes(M, case):
    """``mode_vector`` at VPROBE for each labelled root, in label order."""
    return [mode_vector(M, VPROBE, r) for r in roots_case(M, case).roots]

def test_case_i_roots_frozen(case_i_material):
    cr = roots_case(case_i_material, CouplingCase.CASE_I)
    assert cr.labels == ("mu/rho", "d2/b", "(lambda+2mu)/rho", "radical+", "radical-")
    assert cr.t_values() == pytest.approx(
        (1.0, 2.0, 3.0, 5.308031149571622, 0.9419688504283776), rel=1e-15)


def test_case_ii_roots_frozen(case_ii_material):
    cr = roots_case(case_ii_material, CouplingCase.CASE_II)
    assert cr.labels == ("mu/rho", "d2/b", "d/b", "radical+", "radical-")
    assert cr.t_values() == pytest.approx(
        (1.0, 2.0, 5.0, 3.356107225224513, 0.893892774775487), rel=1e-15)


def test_case_iii_roots_frozen(case_iii_material):
    cr = roots_case(case_iii_material, CouplingCase.CASE_III)
    assert cr.labels == ("transverse+", "transverse-", "k/a", "radical+", "radical-")
    assert cr.t_values() == pytest.approx(
        (1.5, 0.5, 1.0, 5.08113883008419, 1.9188611699158102), rel=1e-15)


def test_roots_case_rejects_wrong_case(case_i_material):
    with pytest.raises(WrongCaseError):
        roots_case(case_i_material, CouplingCase.CASE_II)


def test_roots_case_rejects_coincident_speeds():
    raw = {
        "rho": 1.0, "a": 1.0, "b": 1.0, "k": 1.0, "lambda": 1.0, "mu": 1.0,
        "d1": 1.0, "d2": 1.0, "d3": 2.0, "eps1": 0.0, "eps2": 0.0,
        "beta": 0.0, "m": 0.5,
    }
    # mu/rho == d2/b
    with pytest.raises(DegenerateRootsError) as info:
        roots_case(validate_coefficients(raw), CouplingCase.CASE_I)
    assert str(info.value) == "case_i speeds mu/rho and d2/b coincide at t = 1.0"
    # mu/rho = (lambda+2mu)/rho = 1 and d2/b = radical- = 2: the pairs are
    # checked in index order, so the first is named
    several = dict(raw, k=3.0, d2=2.0, d3=1.0, m=1.0, **{"lambda": -1.0})
    with pytest.raises(DegenerateRootsError) as info:
        roots_case(validate_coefficients(several), CouplingCase.CASE_I)
    assert str(info.value) == "case_i speeds mu/rho and (lambda+2mu)/rho coincide at t = 1.0"


def test_roots_case_rejects_an_inadmissible_material(case_i_material):
    with pytest.raises(NotStronglyEllipticError) as info:
        roots_case(case_i_material.replace(k=-1.0), CouplingCase.CASE_I)
    assert info.value.violations == ("k>0",)


@pytest.mark.parametrize("fixture,case", [
    ("case_i_material", CouplingCase.CASE_I),
    ("case_ii_material", CouplingCase.CASE_II),
    ("case_iii_material", CouplingCase.CASE_III),
])
def test_roots_case_min_gap_is_the_smallest_pairwise_gap(fixture, case, request):
    rs = roots_case(request.getfixturevalue(fixture), case)
    ts = rs.t_values()
    assert rs.pairwise_min_gap == min(abs(x - y) for x, y in combinations(ts, 2))


@pytest.fixture
def case_iii_p_wave_decoupled(case_iii_material):
    """Case III with eps1 + 2 eps2 = 0: the P wave at (lambda+2mu)/rho
    decouples from the microtemperatures."""
    return case_iii_material.replace(eps1=-2.0 * case_iii_material.eps2)


@pytest.mark.parametrize("fixture,case", [
    ("case_i_material", CouplingCase.CASE_I),
    ("case_ii_material", CouplingCase.CASE_II),
    ("case_iii_material", CouplingCase.CASE_III),
    ("case_iii_p_wave_decoupled", CouplingCase.CASE_III),
])
def test_case_kernels_in_nullspace(fixture, case, request):
    M = request.getfixturevalue(fixture)
    for mb in _case_modes(M, case):
        D = assemble_Dp(M, VPROBE, mb.p.p)
        res = np.linalg.norm(D @ mb.u)
        assert res <= 1e-10 * np.linalg.norm(D) * np.linalg.norm(mb.u)
        basis = numeric_nullspace(D)
        assert len(basis) == 1
        assert nullspace_sine(mb.u, basis[0]) <= 1e-8


def test_case_iii_thermal_mode_is_pure(case_iii_material):
    mvs = _case_modes(case_iii_material, CouplingCase.CASE_III)
    thermal = mvs[2]
    assert thermal.mode.t == 1.0  # k/a
    assert np.array_equal(thermal.u[:4], np.zeros(4, dtype=complex))
    assert thermal.u[4] != 0.0


def test_case_polarization_structure(case_i_material):
    mvs = _case_modes(case_i_material, CouplingCase.CASE_I)
    assert [polarization_check(mb) for mb in mvs[:2]] == ["orthogonal"] * 2
    assert [polarization_check(mb) for mb in mvs[2:]] == ["parallel"] * 3


def test_reduced_cubic_matches_general():
    for name in ("case_i", "case_ii", "case_iii"):
        raw = {
            "rho": 1.0, "a": 1.0, "b": 1.0, "k": 1.0, "lambda": 1.0, "mu": 1.0,
            "d1": 1.0, "d2": 2.0 if name != "case_iii" else 1.0, "d3": 2.0,
            "eps1": 0.5 if name == "case_iii" else 0.0,
            "eps2": 0.5 if name == "case_iii" else 0.0,
            "beta": 0.5 if name == "case_ii" else 0.0,
            "m": 0.5 if name == "case_i" else 0.0,
        }
        M = validate_coefficients(raw)
        case = CouplingCase(name)
        C = derived_cubic(M)
        red = reduced_cubic_coefficients(M, case)
        for got, ref in zip(red, (C.b4, C.b2, C.b0)):
            assert got == pytest.approx(ref, rel=1e-12)


def test_explicit_matches_det_zero_sets(case_i_material, case_ii_material):
    for M, case in ((case_i_material, CouplingCase.CASE_I),
                    (case_ii_material, CouplingCase.CASE_II)):
        cc = cross_check_case(M, case)
        assert cc.total == 200
        assert cc.agreements == cc.total, (cc.agreements, cc.total)


def test_explicit_array_pass_matches_one_speed_calls(case_i_material, case_ii_material):
    # secular_case_explicit is the array pass of cross_check_case at one
    # speed, so the two agree bit for bit
    rng = np.random.default_rng(5)
    v = rng.uniform(0.05, 0.9, 50) - 1j * rng.uniform(0.0, 0.4, 50)
    for M, case in ((case_i_material, CouplingCase.CASE_I),
                    (case_ii_material, CouplingCase.CASE_II)):
        t, explicit = special_cases._explicit(M, case)
        assert t == roots_case(M, case).t_values()
        one = [secular_case_explicit(M, ComplexSpeed.from_complex(z), case) for z in v]
        assert explicit(v).tobytes() == np.array(one).tobytes()


def test_explicit_raises_what_the_one_mode_route_raises(case_i_material, case_ii_material,
                                                       case_iii_material, monkeypatch):
    # past a bulk speed the expansion raises the NonDecayingError p_from_t
    # raises at the first non-decaying mode by label, with the same t, v,
    # mode index and message
    for M, case in ((case_i_material, CouplingCase.CASE_I),
                    (case_ii_material, CouplingCase.CASE_II)):
        roots = roots_case(M, case).roots
        top = math.sqrt(max(r.t for r in roots))
        named = set()
        for x in np.linspace(0.1, 1.5 * top, 40).tolist() + [math.sqrt(r.t) * 1.001
                                                             for r in roots]:
            v = ComplexSpeed(x, 0.0)
            expected = None
            for r in roots:
                try:
                    p_from_t(v, r.t, r.index)
                except NonDecayingError as exc:
                    expected = exc
                    break
            if expected is None:
                secular_case_explicit(M, v, case)
                continue
            with pytest.raises(NonDecayingError) as err:
                secular_case_explicit(M, v, case)
            got = err.value
            assert (got.t, got.v, got.mode_index) == (expected.t, expected.v,
                                                       expected.mode_index), x
            assert type(got.mode_index) is int and str(got) == str(expected), x
            named.add(got.mode_index)
        assert named == {1, 5}  # the slowest mode by label is the last one
    # the third regime is refused before its speeds are computed
    monkeypatch.setattr(special_cases, "roots_case", None)
    with pytest.raises(WrongCaseError, match="case_i or case_ii"):
        secular_case_explicit(case_iii_material, VPROBE, CouplingCase.CASE_III)


def test_cross_check_raises_where_det_is_undefined(case_i_material, monkeypatch):
    # every closed form zeroed at its source: the material has no kernel,
    # so no sample has a determinant, and the check raises kernel_row's
    # error rather than drop them.  The copy builds its own kernel.
    monkeypatch.setattr(modes, "_transverse", lambda x, y: (modes._ZERO,) * 3)
    monkeypatch.setattr(modes, "_longitudinal", lambda x, y, z: (modes._ZERO,) * 3)
    with pytest.raises(DegenerateKernelError,
                       match="closed-form kernel vector vanishes for mode 1"):
        cross_check_case(case_i_material.replace(), CouplingCase.CASE_I)


def test_cross_check_names_the_first_sample_without_a_determinant(case_i_material,
                                                                 monkeypatch):
    # mode 2 grows at the samples past 0.9 c: the check raises objective_F's
    # error at the first of them, not at a later one
    c = math.sqrt(min(roots_case(case_i_material, CouplingCase.CASE_I).t_values()))
    shapes, cut = secular.mode_shapes, 0.9 * c

    def grows_past_the_cut(v, *rest):
        p, u = shapes(v, *rest)
        p[v.real > cut, 1] = p[v.real > cut, 1].conj()
        return p, u

    monkeypatch.setattr(secular, "mode_shapes", grows_past_the_cut)
    with pytest.raises(ModeFailureError) as err:
        cross_check_case(case_i_material, CouplingCase.CASE_I)
    assert err.value.cause_name == "NonDecayingError"
    assert err.value.__cause__.mode_index == 2
    rng = np.random.default_rng(special_cases.CROSS_CHECK_SEED)
    re_v = rng.uniform(0.05 * c, 0.95 * c, special_cases.CROSS_CHECK_SAMPLES)
    assert err.value.v_r == re_v[np.argmax(re_v > cut)]


def test_case_i_explicit_is_a_multiple_of_det(case_i_material):
    # the expansion and the determinant differ by one constant factor
    rng = np.random.default_rng(20)
    ratios = []
    for _ in range(20):
        v = ComplexSpeed(rng.uniform(0.05, 0.95), rng.uniform(0.0, 0.4))
        ratios.append(point_dets(case_i_material, [complex(v)])[0][0]
                      / secular_case_explicit(case_i_material, v, CouplingCase.CASE_I))
    ratios = np.array(ratios)
    assert np.abs(ratios - ratios[0]).max() <= 1e-10 * abs(ratios[0])


@pytest.mark.parametrize("fixture", ["case_i_material", "case_ii_material",
                                     "case_iii_material"])
def test_case_kernel_matches_verification_route(fixture, request):
    # the batched kernel's matrix and the one built from mode_vector agree
    M = request.getfixturevalue(fixture)
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = ComplexSpeed(rng.uniform(0.05, 1.2), rng.uniform(0.0, 0.5))
        A, ref = secular_matrix(M, v).A, mode_vector_matrix(M, v)
        assert np.abs(A - ref).max() <= 1e-12 * np.abs(ref).max()


def test_explicit_unavailable_for_thermal_case(case_iii_material):
    with pytest.raises(WrongCaseError):
        secular_case_explicit(case_iii_material, VPROBE, CouplingCase.CASE_III)
    # the determinant route still works
    det = point_dets(case_iii_material, [complex(VPROBE)])[0][0]
    assert np.isfinite(det.real) and np.isfinite(det.imag)


def test_limit_consistency_quadratic(reference):
    # scaling a case's couplings by s takes the general mode speeds to the
    # case's closed forms as O(s^2)
    M_lim = validate_coefficients({
        "rho": 1.0, "a": 1.0, "b": 1.0, "k": 1.0, "lambda": 1.0, "mu": 1.0,
        "d1": 1.0, "d2": 2.0, "d3": 2.0, "eps1": 0.5, "eps2": 0.5,
        "beta": 0.5, "m": 0.5,
    })
    for base, case in ((M_lim, CouplingCase.CASE_I),
                       (M_lim, CouplingCase.CASE_II),
                       (reference, CouplingCase.CASE_III)):
        fields = CASE_ZEROED_COUPLINGS[case]
        target = sorted(roots_case(base.replace(**dict.fromkeys(fields, 0.0)), case).t_values())
        scales, gaps = (1e-2, 1e-4, 1e-6), []
        for s in scales:
            ts = sorted(mode_speeds(base.replace(
                **{name: getattr(base, name) * s for name in fields})).t_values())
            gaps.append(max(abs(x - y) for x, y in zip(ts, target)))
        assert gaps[-1] <= 1e-10
        for g0, g1, s0, s1 in zip(gaps, gaps[1:], scales, scales[1:]):
            assert math.log(g1 / g0) / math.log(s1 / s0) == pytest.approx(2.0, abs=0.1)
