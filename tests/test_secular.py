"""Secular matrix assembly, determinants, amplitudes, boundary fields."""

import cmath
import math

import numpy as np
import pytest

from rayleighmt import (
    ComplexSpeed,
    DegenerateKernelError,
    DomainError,
    ModeFailureError,
    NonDecayingError,
    NotARootError,
    amplitudes,
    assemble_Sp,
    boundary_residual,
    field_eval,
    mode_speeds,
    mode_vector,
    objective_F,
    secular_matrix,
    validate_coefficients,
)
from rayleighmt import secular
from rayleighmt.modes import NULLSPACE_RTOL, propagation_blocks
from rayleighmt.secular import (
    F_SENTINEL,
    KERNEL_DIMENSION,
    NON_DECAYING,
    NOT_FINITE,
    ZERO_KERNEL,
    det_elimination,
    nullspace_amplitude,
    objective_from_det,
    point_det,
    point_dets,
    point_matrix,
    secular_kernel,
    secular_objective,
)

from conftest import default_window
from helpers import det_cofactor, full_d_matrices, random_material, random_speed

V05 = ComplexSpeed(0.5, 0.0)

# frozen dual-route value: elimination and cofactor expansion agreed to
# 4e-15 relative when this was recorded
REF_DET_V05 = 0.21831089489360644j
REF_F_V05 = -1.5218351087760102


def test_traction_operator_entries(reference):
    vc = ComplexSpeed(0.3, 0.1)
    S = assemble_Sp(reference, vc, 2.0)
    v = complex(vc)
    expected = np.array([
        [2.0, 1.0, 1.0, 0.5, 0.0],
        [1.0, 6.0, 0.5, 3.0, 0.5 * v],
        [1.0, 0.5, 2.0, 2.0, 0.0],
        [0.5, 3.0, 1.0, 8.0, 0.5 * v],
        [0.0, 0.5 * v, 0.0, 0.5 * v, 2.0],
    ], dtype=complex)
    assert np.array_equal(S, expected)


def test_det_routes_agree_random():
    rng = np.random.default_rng(37)
    for _ in range(50):
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        d1 = det_elimination(A)
        d2 = det_cofactor(A)
        d3 = complex(np.linalg.det(A))
        assert d1 == pytest.approx(d2, rel=1e-12)
        assert d1 == pytest.approx(d3, rel=1e-12)


def test_det_elimination_singular_matrix():
    A = np.zeros((5, 5), dtype=complex)
    A[0, 0] = 1.0
    assert det_elimination(A) == 0.0


def test_secular_det_reference_frozen(reference):
    det = det_elimination(secular_matrix(reference, V05).A)
    assert det == pytest.approx(REF_DET_V05, rel=1e-12)
    assert det_cofactor(secular_matrix(reference, V05).A) == pytest.approx(
        REF_DET_V05, rel=1e-12)


def test_objective_reference_frozen(reference):
    assert objective_F(reference, 0.5, 0.0) == pytest.approx(REF_F_V05, rel=1e-12)


def test_objective_from_det_sentinel():
    assert objective_from_det(0.0) == F_SENTINEL
    assert objective_from_det(1.0) == 0.0


def test_objective_wraps_mode_failures(reference):
    # real speed above the slowest transition: no decaying branch
    with pytest.raises(ModeFailureError) as err:
        objective_F(reference, 0.9, 0.0)
    assert err.value.cause_name == "NonDecayingError"


def test_objective_matches_verification_route():
    rng = np.random.default_rng(41)
    for _ in range(40):
        M = random_material(rng)
        v = random_speed(rng, M)
        A = secular_matrix(M, v).A
        assert np.linalg.norm(point_matrix(M, v) - A) <= 1e-12 * np.linalg.norm(A)
        expected = objective_from_det(det_elimination(A))
        assert objective_F(M, v.v_r, v.v_i) == pytest.approx(expected, abs=1e-10)


def test_objective_failure_matches_mode_vector():
    # on the real axis past the slowest bulk speed some mode stops decaying;
    # both routes must blame the same mode (the cause is what point_matrix
    # raises)
    rng = np.random.default_rng(43)
    for _ in range(20):
        M = random_material(rng)
        c = math.sqrt(min(mode_speeds(M).t_values()))
        v = ComplexSpeed(rng.uniform(1.01, 1.6) * c, 0.0)
        with pytest.raises(ModeFailureError) as err:
            objective_F(M, v.v_r, v.v_i)
        with pytest.raises(NonDecayingError) as ref:
            secular_matrix(M, v)
        cause = err.value.__cause__
        assert type(cause) is NonDecayingError
        assert (cause.t, cause.v, cause.mode_index) == (
            ref.value.t, ref.value.v, ref.value.mode_index)


def test_objective_failure_causes(reference, case_i_material):
    unsupported = case_i_material.replace(eps1=0.5)
    for M, v_r, v_i, name in ((reference, -0.1, 0.1, "ValueError"),
                              (reference, 0.0, 0.0, "ValueError"),
                              (unsupported, 0.5, 0.1, "UnsupportedCouplingError")):
        with pytest.raises(ModeFailureError) as err:
            objective_F(M, v_r, v_i)
        assert err.value.cause_name == name


def test_kernel_failure_errors(reference):
    kernel = secular_kernel(reference)
    assert secular_kernel(reference) is kernel
    err = kernel.failure(0.9 + 0j, 2, NON_DECAYING)
    assert isinstance(err, NonDecayingError)
    assert (err.t, err.v, err.mode_index) == (mode_speeds(reference).roots[1].t, 0.9, 2)
    for kind in (ZERO_KERNEL, KERNEL_DIMENSION):
        assert isinstance(kernel.failure(0.9 + 0j, 3, kind), DegenerateKernelError)


def test_secular_objective_batch(reference, case_i_material):
    v = np.array([[0.5 - 0.1j, 0.9 + 0j], [-0.1 - 0.1j, 0.3 + 0.1j]])
    F = secular_objective(reference, v)
    assert F.shape == (2, 2)
    assert F[0, 0] == pytest.approx(objective_F(reference, 0.5, 0.1), abs=1e-12)
    assert np.isnan(F[0, 1]) and np.isnan(F[1]).all()
    assert np.isnan(secular_objective(case_i_material.replace(eps1=0.5), v)).all()


def test_secular_columns_are_traction_images(reference):
    sm = secular_matrix(reference, V05)
    for mb, col in zip(sm.modes, sm.A.T):
        S = assemble_Sp(reference, V05, mb.p.p)
        assert np.allclose(S @ mb.u, col, rtol=0.0, atol=1e-14)


def test_nullspace_amplitude_synthetic():
    A = np.diag([1.0, 1.0, 1.0, 1.0, 0.0]).astype(complex)
    out = nullspace_amplitude(A)
    assert out.gamma == pytest.approx([0.0, 0.0, 0.0, 0.0, 1.0], abs=1e-15)


def test_nullspace_amplitude_peak_is_exactly_one():
    # a complex z / z is not always exactly 1, so the peak is set, not divided
    rng = np.random.default_rng(53)
    for _ in range(200):
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        A[:, 4] = A[:, :4] @ (rng.normal(size=4) + 1j * rng.normal(size=4))
        gamma = nullspace_amplitude(A).gamma
        assert gamma[np.argmax(np.abs(gamma))] == 1.0


def test_nullspace_amplitude_rejects_regular():
    with pytest.raises(NotARootError):
        nullspace_amplitude(np.eye(5, dtype=complex))


def test_amplitudes_at_solved_root(reference, solved_reference):
    gamma = amplitudes(reference, solved_reference.v)
    peak = np.argmax(np.abs(gamma.gamma))
    assert gamma.gamma[peak] == 1.0 + 0.0j
    A = secular_matrix(reference, solved_reference.v).A
    assert np.linalg.norm(A @ gamma.gamma) <= 1e-8 * np.linalg.norm(A)
    # the kernel's matrix and the verification route's give the same weights
    assert np.max(np.abs(gamma.gamma - nullspace_amplitude(A).gamma)) <= 1e-12


def test_amplitudes_off_root_raises(reference):
    with pytest.raises(NotARootError):
        amplitudes(reference, V05)


# sweep material (seed 1, material 10) on which the simplex once reached
# v = -0.008i: the kernel evaluates there, while the verification route's
# SVD of D(p_4) gives sigma_4 / sigma_1 = 9.99999742e-11, just under
# NULLSPACE_RTOL.  Refinement and classification must agree on such a point.
ROUTE_SPLIT = {
    "rho": 1.1452292188138318, "a": 1.8570892338829705, "b": 2.923562934173338,
    "k": 2.3915931642940764, "mu": 2.4360616600665743, "lambda": -0.8928889492816328,
    "d1": 1.542610151025202, "d2": 1.9118668724141425, "d3": 1.8436152886247341,
    "beta": 1.0654822176259133, "m": 0.8004990030316192, "eps1": -0.8345031330830202,
    "eps2": 0.8984995992846102,
}
V_ROUTE_SPLIT = ComplexSpeed(0.0, 0.008006207323123089)


def test_amplitudes_follow_the_kernel_where_routes_split():
    M = validate_coefficients(ROUTE_SPLIT)
    assert math.isfinite(abs(point_det(M, V_ROUTE_SPLIT.v_r, V_ROUTE_SPLIT.v_i)))
    with pytest.raises(DegenerateKernelError):
        mode_vector(M, V_ROUTE_SPLIT, mode_speeds(M).roots[3])
    try:
        amplitudes(M, V_ROUTE_SPLIT)
    except NotARootError:
        pass


def test_field_eval_domain_checks(reference, solved_reference):
    gamma = solved_reference.gamma
    v = solved_reference.v
    with pytest.raises(DomainError):
        field_eval(reference, v, gamma, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        field_eval(reference, v, gamma, 1.0, 0.0, -0.5, 0.0)


def test_field_decays_with_depth(reference, solved_reference):
    # the slowest mode decays like exp(-0.05 kappa x2) here, so the probe
    # depths are generous
    gamma = solved_reference.gamma
    v = solved_reference.v
    mag = lambda st: abs(st.u1) + abs(st.u2) + abs(st.tau1) + abs(st.tau2) + abs(st.chi)
    depths = [mag(field_eval(reference, v, gamma, 1.0, 0.0, x2, 0.0))
              for x2 in (0.0, 20.0, 100.0, 200.0)]
    assert depths[0] > depths[1] > depths[2] > depths[3]
    assert depths[2] < 1e-2 * depths[0]


def test_boundary_residual_flat_in_kappa(reference, solved_reference):
    vals = [boundary_residual(reference, solved_reference.v, solved_reference.gamma,
                              kappa, x1=0.4, time=0.25)
            for kappa in (0.1, 1.0, 10.0)]
    assert all(val <= 1e-8 for val in vals)
    assert max(vals) - min(vals) <= 1e-10


def test_boundary_residual_large_off_root(reference):
    # a well-normalized but non-root combination leaves order-one traction
    rs = mode_speeds(reference)
    from rayleighmt import AmplitudeVector
    gamma = AmplitudeVector(gamma=np.ones(5, dtype=complex))
    res = boundary_residual(reference, V05, gamma, 1.0)
    assert res > 1e-3


def _screen_lattices():
    """Twelve seeded random materials with their 64x32 default lattices."""
    rng = np.random.default_rng(59)
    cases = []
    for _ in range(12):
        M = random_material(rng)
        w = default_window(M, nx=64, ny=32)
        cases.append((M, (w.re_values()[:, None] + 1j * w.im_values()).ravel()))
    return cases


def test_gap_screen_keeps_kernel_dimension_verdict(monkeypatch):
    # an infinite screen sends every mode to the SVD, as before the screen
    for M, v in _screen_lattices():
        kernel = secular_kernel(M)
        screened = kernel.matrices(v)
        monkeypatch.setattr(secular, "GAP_SCREEN", np.inf)
        unscreened = kernel.matrices(v)
        monkeypatch.undo()
        for got, want in zip(screened, unscreened):
            assert np.array_equal(got, want, equal_nan=True)


def test_gap_screen_margin():
    # every mode the screen passes over has a clearly one-dimensional kernel
    for M, v in _screen_lattices():
        t = secular_kernel(M).t
        root = np.sqrt(v[:, None] ** 2 / t - 1.0)
        p = np.where(root.imag > 0.0, root, -root)
        p2 = p ** 2
        rel = np.abs(p2[:, :, None] - p2[:, None, :]) / np.abs(p2)[:, :, None]
        rel[:, np.arange(5), np.arange(5)] = np.inf
        screened = rel.min(axis=2) >= secular.GAP_SCREEN
        q1, q2, r = (np.stack(b) for b in zip(*(propagation_blocks(M, x) for x in v)))
        pm = p[..., None, None]
        D = pm * (pm * q1[:, None] + q2[:, None]) + r[:, None]
        s = np.linalg.svd(D[screened], compute_uv=False)
        assert np.all(s[:, 3] >= 1e3 * NULLSPACE_RTOL * s[:, 0])


# sweep material with t1 = 1.50994 and t4 = 1.51066: at this real speed
# p_1 and p_4 nearly coincide and D(p_4) has two near-null directions
NEAR_DEGENERATE = {
    "rho": 1.294360954875519, "a": 1.8921907743038624, "b": 2.107739859082496,
    "k": 2.1066442395940266, "mu": 1.7122343939198124, "lambda": 1.2117060823123291,
    "d1": 1.1540011216836696, "d2": 0.835004226756539, "d3": 1.040856043917264,
    "beta": 0.2755732617033544, "m": 0.7730458026964901, "eps1": -0.214011584713653,
    "eps2": 0.7539892979917565,
}
V_NEAR_DEGENERATE = 0.03979195042821225


def test_near_degenerate_kernel_dimension():
    M = validate_coefficients(NEAR_DEGENERATE)
    _, mode, kind = secular_kernel(M).matrices(np.array([V_NEAR_DEGENERATE + 0j]))
    assert (mode[0], kind[0]) == (4, KERNEL_DIMENSION)
    with pytest.raises(ModeFailureError) as err:
        point_det(M, V_NEAR_DEGENERATE, 0.0)
    assert err.value.cause_name == "DegenerateKernelError"
    with pytest.raises(DegenerateKernelError):
        mode_vector(M, ComplexSpeed(V_NEAR_DEGENERATE), mode_speeds(M).roots[3])


def test_point_dets_matches_point_det(reference, case_i_material):
    # one batched call, mixing every way point_det can succeed or raise
    golden = 1.038454844666989 - 0.02631077604792278j
    zs = [golden, 0.9 + 0j, 0j, complex(math.nan, 0.0), complex(math.inf, -1.0),
          -0.5 - 0.1j, 0.5 + 0.1j, 1e160 + 0j, V_NEAR_DEGENERATE + 0j, complex(0.7, -0.0)]
    unsupported = case_i_material.replace(eps1=0.5)
    for M in (reference, validate_coefficients(NEAR_DEGENERATE), case_i_material, unsupported):
        entries = point_dets(M, zs)
        assert len(entries) == len(zs)
        for z, entry in zip(zs, entries):
            try:
                det = point_det(M, z.real, -z.imag)
            except ModeFailureError:
                assert entry is None, z
                continue
            assert repr(entry[0]) == repr(det), z
            assert entry[1].tobytes() == point_matrix(M, ComplexSpeed.from_complex(z)).tobytes()
    assert point_dets(reference, zs)[0] is not None
    assert point_dets(validate_coefficients(NEAR_DEGENERATE), zs)[8] is None
    assert point_dets(case_i_material, zs)[0] is not None
    assert point_dets(unsupported, zs) == [None] * len(zs)


#: Speeds in the quadrant from |v| = 1e100 to 1e170, dense where D(p_k)
#: starts to overflow (|v| near 1e153) and v^2 itself does (1.3e154).
HUGE_SPEEDS = (
    np.concatenate([np.logspace(100, 170, 141), np.logspace(151, 155, 161)])[:, None]
    * np.exp(-1j * np.array([0.0, 0.4, 1.0, 1.5]))
).ravel()


def test_lean_kernel_matches_full_d_kernel(reference):
    # D(p_k) built only for the screened SVD and the overflow guard gives
    # the same matrices and verdicts as building it for every mode
    rng = np.random.default_rng(83)
    cases = [(validate_coefficients(NEAR_DEGENERATE), np.array([V_NEAR_DEGENERATE + 0j]))]
    for M in [reference] + [random_material(rng) for _ in range(24)]:
        w = default_window(M, nx=64, ny=32)
        cases.append((M, (w.re_values()[:, None] + 1j * w.im_values()).ravel()))
        cases.append((M, HUGE_SPEEDS))
    kinds = set()
    for M, v in cases:
        kernel = secular_kernel(M)
        A, mode, kind = kernel.matrices(v)
        A_ref, mode_ref, kind_ref, _ = full_d_matrices(kernel, v)
        assert np.array_equal(A, A_ref, equal_nan=True)
        assert np.array_equal(mode, mode_ref)
        assert np.array_equal(kind, kind_ref)
        with np.errstate(all="ignore"):
            assert np.array_equal(np.linalg.det(A), np.linalg.det(A_ref), equal_nan=True)
        kinds.update(kind.tolist())
    assert {NON_DECAYING, KERNEL_DIMENSION, NOT_FINITE} <= kinds


def test_overflow_guard_margin(reference):
    # wherever the kernel skips building D(p_k) because no entry can
    # overflow, D(p_k) is finite with a factor of 4 to spare
    rng = np.random.default_rng(89)
    largest = np.finfo(float).max
    for M in [reference] + [random_material(rng) for _ in range(8)]:
        kernel = secular_kernel(M)
        _, _, _, D = full_d_matrices(kernel, HUGE_SPEEDS)
        with np.errstate(all="ignore"):
            v = HUGE_SPEEDS[:, None]
            root = np.sqrt(v * v / kernel.t - 1.0)
            abs_p = np.abs(np.where(root.imag > 0.0, root, -root))
            wide = np.abs(v) ** 2 * kernel.delta / abs_p ** 2 >= secular.GAP_SCREEN
            skipped = wide & (1.0 + abs_p + np.abs(v) < kernel.d_reach)
            peak = np.abs(D).max(axis=(-2, -1))
        assert np.all(peak[skipped] < largest / 4)
        # the sample straddles the edge: skipped pairs up to near it, and
        # pairs whose D(p_k) really overflows
        assert peak[skipped].max() > largest / 1e4
        assert not np.isfinite(peak).all()


def test_point_det_matches_row_evaluate():
    # refinement's one-point calls and the scan's row calls give the same
    # determinant to the last bit
    rng = np.random.default_rng(97)
    for _ in range(6):
        M = random_material(rng)
        kernel = secular_kernel(M)
        w = default_window(M, nx=24, ny=16)
        for re_v in w.re_values():
            A, mode, _ = kernel.matrices(re_v + 1j * w.im_values())
            with np.errstate(all="ignore"):
                det = np.linalg.det(A)
            for im_v, d, m in zip(w.im_values(), det, mode):
                if m:
                    with pytest.raises(ModeFailureError):
                        point_det(M, re_v, -im_v)
                else:
                    assert point_det(M, re_v, -im_v) == d


def test_mode_failure_message_plain_speed(reference):
    # the second pass of grid_scan hands numpy scalars to objective_F
    with pytest.raises(ModeFailureError) as err:
        objective_F(reference, np.float64(0.75), -np.float64(0.0))
    assert "np.float64" not in str(err.value)
    assert "v = (0.75+0j)" in str(err.value)
