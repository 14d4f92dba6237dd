"""Secular matrix assembly, determinants, amplitudes, boundary fields."""

import cmath
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from rayleighmt import (
    AllPointsFailedError,
    ComplexSpeed,
    DegenerateKernelError,
    DomainError,
    ModeFailureError,
    NonDecayingError,
    NotARootError,
    ScanWindow,
    amplitudes,
    assemble_Dp,
    boundary_residual,
    field_eval,
    grid_scan,
    mode_speeds,
    mode_vector,
    objective_F,
    p_from_t,
    secular_matrix,
    validate_coefficients,
)
from rayleighmt import modes, secular
from rayleighmt.modes import material_blocks, numeric_nullspace
from rayleighmt.secular import (
    DET_NOT_FINITE,
    F_SENTINEL,
    INADMISSIBLE,
    NON_DECAYING,
    NOT_FINITE,
    SecularKernel,
    det_elimination,
    nullspace_amplitude,
    objective_from_det,
    point_dets,
    secular_kernel,
    secular_objective,
)

from conftest import default_window
from helpers import (
    det_cofactor,
    full_matrices,
    mode_vector_matrix,
    random_material,
    random_speed,
    reference_blocks,
    reference_Dp,
    reference_Sp,
)

V05 = ComplexSpeed(0.5, 0.0)

# frozen dual-route value: elimination and cofactor expansion agreed to
# 4e-15 relative when this was recorded
REF_DET_V05 = 0.21831089489360644j
REF_F_V05 = -1.5218351087760102


def test_traction_operator_entries(reference):
    # S(p) = p Q1 + S0 + v V of the block table, at p = 2
    v = complex(ComplexSpeed(0.3, 0.1))
    q1, _, v_lin, _, _, _, s0 = material_blocks(reference)
    S = 2.0 * q1 + s0 + v * v_lin
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
        expected = objective_from_det(det_elimination(A))
        assert objective_F(M, v.v_r, v.v_i) == pytest.approx(expected, abs=1e-10)


def test_objective_failure_matches_mode_vector():
    # on the real axis past the slowest bulk speed some mode stops decaying;
    # the kernel must blame the first mode whose mode_vector raises
    rng = np.random.default_rng(43)
    for _ in range(20):
        M = random_material(rng)
        c = math.sqrt(min(mode_speeds(M).t_values()))
        v = ComplexSpeed(rng.uniform(1.01, 1.6) * c, 0.0)
        with pytest.raises(ModeFailureError) as err:
            objective_F(M, v.v_r, v.v_i)
        with pytest.raises(NonDecayingError) as ref:
            [mode_vector(M, v, r) for r in mode_speeds(M).roots]
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


def test_secular_objective_batch(reference, case_i_material):
    v = np.array([[0.5 - 0.1j, 0.9 + 0j], [-0.1 - 0.1j, 0.3 + 0.1j]])
    F = secular_objective(reference, v)
    assert F.shape == (2, 2)
    assert F[0, 0] == pytest.approx(objective_F(reference, 0.5, 0.1), abs=1e-12)
    assert np.isnan(F[0, 1]) and np.isnan(F[1]).all()
    assert np.isnan(secular_objective(case_i_material.replace(eps1=0.5), v)).all()


def _operator_samples(materials):
    """Seeded (material, speed, p) triples: random speeds off and on the real
    axis and the route-split speed, with random exponents and the modes'
    decaying ones."""
    rng = np.random.default_rng(61)
    for M in materials:
        roots = mode_speeds(M)
        c = math.sqrt(min(roots.t_values()))
        speeds = [random_speed(rng, M), ComplexSpeed(rng.uniform(0.05, 1.6) * c),
                  V_ROUTE_SPLIT]
        for v in speeds:
            yield M, v, complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        v = speeds[0]
        for r in roots.roots:
            yield M, v, complex(cmath.sqrt(complex(v) ** 2 / r.t - 1.0))


def test_operators_match_the_literal_reference(reference, case_i_material,
                                               case_ii_material, case_iii_material):
    # the block table reproduces the entry-by-entry D(p), Q1, S0 and V bit
    # for bit
    rng = np.random.default_rng(67)
    materials = ([reference, case_i_material, case_ii_material, case_iii_material,
                  validate_coefficients(ROUTE_SPLIT)]
                 + [random_material(rng) for _ in range(50)]
                 + [random_material(rng, general=False) for _ in range(12)])
    samples = list(_operator_samples(materials))
    assert len(samples) >= 500
    for M, v, p in samples:
        assert np.array_equal(assemble_Dp(M, v, p), reference_Dp(M, v, p))
    for M in materials:
        for got, want in zip(material_blocks(M), reference_blocks(M), strict=True):
            assert np.array_equal(got, want)


def test_secular_columns_are_traction_images(reference):
    sm = secular_matrix(reference, V05)
    for p, u, col in zip(sm.p, sm.u, sm.A.T):
        assert np.allclose(reference_Sp(reference, V05, p) @ u, col, rtol=0.0, atol=1e-14)


def test_nullspace_amplitude_synthetic():
    A = np.diag([1.0, 1.0, 1.0, 1.0, 0.0]).astype(complex)
    out = nullspace_amplitude(A)
    assert out == pytest.approx([0.0, 0.0, 0.0, 0.0, 1.0], abs=1e-15)


def test_nullspace_amplitude_peak_is_exactly_one():
    # a complex z / z is not always exactly 1, so the peak is set, not divided
    rng = np.random.default_rng(53)
    for _ in range(200):
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        A[:, 4] = A[:, :4] @ (rng.normal(size=4) + 1j * rng.normal(size=4))
        gamma = nullspace_amplitude(A)
        assert gamma[np.argmax(np.abs(gamma))] == 1.0


def test_nullspace_amplitude_rejects_regular():
    with pytest.raises(NotARootError):
        nullspace_amplitude(np.eye(5, dtype=complex))


def test_amplitudes_at_solved_root(reference, solved_reference):
    gamma = amplitudes(reference, solved_reference.v)
    peak = np.argmax(np.abs(gamma))
    assert gamma[peak] == 1.0 + 0.0j
    A = secular_matrix(reference, solved_reference.v).A
    assert np.linalg.norm(A @ gamma) <= 1e-8 * np.linalg.norm(A)


def test_amplitudes_off_root_raises(reference):
    with pytest.raises(NotARootError):
        amplitudes(reference, V05)


# sweep material (seed 1, material 10) on which the simplex once reached
# v = -0.008i: the SVD of D(p_4) gives sigma_4 / sigma_1 = 9.99999742e-11,
# just under NULLSPACE_RTOL, which once made the verification route fail
# where the kernel evaluates.  Refinement and classification must agree on
# such a point.
ROUTE_SPLIT = {
    "rho": 1.1452292188138318, "a": 1.8570892338829705, "b": 2.923562934173338,
    "k": 2.3915931642940764, "mu": 2.4360616600665743, "lambda": -0.8928889492816328,
    "d1": 1.542610151025202, "d2": 1.9118668724141425, "d3": 1.8436152886247341,
    "beta": 1.0654822176259133, "m": 0.8004990030316192, "eps1": -0.8345031330830202,
    "eps2": 0.8984995992846102,
}
V_ROUTE_SPLIT = ComplexSpeed(0.0, 0.008006207323123089)


def test_amplitudes_follow_the_kernel_where_routes_split():
    # neither the kernel nor mode_vector checks the kernel dimension, so
    # both build the same A
    M = validate_coefficients(ROUTE_SPLIT)
    assert math.isfinite(abs(point_dets(M, [complex(V_ROUTE_SPLIT)])[0][0]))
    A = secular_matrix(M, V_ROUTE_SPLIT).A
    assert np.linalg.norm(mode_vector_matrix(M, V_ROUTE_SPLIT) - A) <= 1e-12 * np.linalg.norm(A)
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
    # a non-finite argument would only turn the fields into NaN
    for kappa, x1, x2, time in ((math.inf, 0.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 0.0),
                                (1.0, 0.0, math.nan, 0.0), (1.0, 0.0, math.inf, 0.0),
                                (1.0, math.nan, 0.0, 0.0), (1.0, -math.inf, 0.0, 0.0),
                                (1.0, 0.0, 0.0, math.inf), (1.0, 0.0, 0.0, math.nan)):
        with pytest.raises(DomainError):
            field_eval(reference, v, gamma, kappa, x1, x2, time)
    for kappa, x1, time in ((math.inf, 0.0, 0.0), (1.0, math.nan, 0.0), (1.0, 0.0, math.inf)):
        with pytest.raises(DomainError):
            boundary_residual(reference, v, gamma, kappa, x1=x1, time=time)


def test_mode_weights_are_validated(reference, solved_reference):
    v, gamma = solved_reference.v, solved_reference.gamma
    bad = (np.zeros(3), gamma[None, :], np.where(np.arange(5) == 2, np.nan, gamma),
           np.full(5, np.inf), np.array(["1"] * 5))
    for g in bad:
        with pytest.raises(DomainError, match="five finite numbers"):
            field_eval(reference, v, g, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError, match="five finite numbers"):
            boundary_residual(reference, v, g, 1.0)
    # zero weights are a zero wave, but leave no scale to compare a traction to
    assert not np.any(field_eval(reference, v, np.zeros(5), 1.0, 0.0, 0.0, 0.0).traction)
    with pytest.raises(DomainError, match="not all be zero"):
        boundary_residual(reference, v, np.zeros(5), 1.0)
    # a list of weights is taken as its array
    assert (boundary_residual(reference, v, list(gamma), 1.0)
            == boundary_residual(reference, v, gamma, 1.0))


def test_field_eval_typed_where_the_phase_overflows(reference, solved_reference):
    # a damped wave far back in time: kappa v_i |t| > 709 overflows exp
    gamma = amplitudes(reference, solved_reference.v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            field_eval(reference, solved_reference.v, gamma, 1.0, 0.0, 0.0, -3e4)


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
    # at x2 = 0 kappa, x1 and t cancel exactly
    assert vals[0] <= 1e-8
    assert vals[0] == vals[1] == vals[2]


def test_boundary_residual_large_off_root(reference):
    # a well-normalized but non-root combination leaves order-one traction
    rs = mode_speeds(reference)
    res = boundary_residual(reference, V05, np.ones(5, dtype=complex), 1.0)
    assert res > 1e-3


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
    # an SVD of D(p_4) counts two null directions; both routes trust the
    # factorization of det D(p), give a determinant, and the closed form is
    # a null vector of D(p_4) to roundoff
    M = validate_coefficients(NEAR_DEGENERATE)
    v = ComplexSpeed(V_NEAR_DEGENERATE)
    assert math.isfinite(abs(point_dets(M, [complex(v)])[0][0]))
    mb = mode_vector(M, v, mode_speeds(M).roots[3])
    D = assemble_Dp(M, v, mb.p.p)
    assert len(numeric_nullspace(D)) == 2
    assert np.linalg.norm(D @ mb.u) <= 1e-12 * np.linalg.norm(D, 2) * np.linalg.norm(mb.u)


#: Speeds from |v| = 1e-4 to 0.1, in units of the slowest bulk speed, where
#: every p_k nears i and the p_k^2 crowd together.
SMALL_RING = (np.logspace(-4, -1, 13)[:, None]
              * np.exp(-1j * np.array([0.0, 0.4, 1.0, 1.5]))).ravel()


def test_closed_forms_span_the_kernel_wherever_defined(reference, case_i_material,
                                                       case_ii_material, case_iii_material):
    # the kernel trusts det D(p) = det Q1 prod_j (p^2 - p_j^2): wherever it
    # calls a speed defined, each closed form is a null vector of D(p_k) to
    # roundoff, near-degenerate gaps and the small ring included.  Measured
    # maxima: 5e-16 on the rings, 5e-15 on the near-degenerate lattice and
    # 1.2e-13 on the first lattice below, the closed forms' own roundoff.
    M_near = validate_coefficients(NEAR_DEGENERATE)
    rng = np.random.default_rng(59)
    cases = []  # (material, speeds, whether every speed must be defined)
    for M in (M_near, random_material(rng), random_material(rng)):
        w = default_window(M, nx=64, ny=32)
        cases.append((M, (w.re_values()[:, None] + 1j * w.im_values()).ravel(), False))
    cases += [(M, math.sqrt(min(mode_speeds(M).t_values())) * SMALL_RING, True)
              for M in (reference, case_i_material, case_ii_material, case_iii_material)]
    cases.append((M_near, np.array([V_NEAR_DEGENERATE + 0j]), True))
    for M, v, everywhere in cases:
        kernel = secular_kernel(M)
        defined = kernel.evaluate(v)[3] == 0
        assert defined.all() or not everywhere
        vv = v[defined, None]
        root = np.sqrt(vv * vv / kernel.t - 1.0)
        p = np.where(root.imag > 0.0, root, -root)[..., None]
        u = kernel.u0 + p * kernel.u1 + vv[..., None] * kernel.u2
        q1, q2, v_lin, r0, r1, r2, _ = material_blocks(M)
        pm, vm = p[..., None], vv[..., None, None]
        D = pm * (pm * q1 + (q2 + vm * v_lin)) + (r0 + vm * (r1 + vm * r2))
        residual = np.linalg.norm((D @ u[..., None])[..., 0], axis=-1)
        scale = np.linalg.norm(D, 2, axis=(-2, -1)) * np.linalg.norm(u, axis=-1)
        assert np.all(residual <= 1e-12 * scale)


def test_point_dets_matches_objective_F(reference, case_i_material):
    # one batched call, mixing every way objective_F can succeed or raise
    golden = 1.038454844666989 - 0.02631077604792278j
    zs = [golden, 0.9 + 0j, 0j, complex(math.nan, 0.0), complex(math.inf, -1.0),
          -0.5 - 0.1j, 0.5 + 0.1j, 1e160 + 0j, V_NEAR_DEGENERATE + 0j, complex(0.7, -0.0)]
    unsupported = case_i_material.replace(eps1=0.5)
    for M in (reference, validate_coefficients(NEAR_DEGENERATE), case_i_material, unsupported):
        entries = point_dets(M, zs)
        assert len(entries) == len(zs)
        for z, entry in zip(zs, entries):
            try:
                F = objective_F(M, z.real, -z.imag)
            except ModeFailureError:
                assert entry is None, z
                continue
            assert repr(objective_from_det(entry[0])) == repr(F), z
            A = secular_matrix(M, ComplexSpeed.from_complex(z)).A
            assert entry[1].tobytes() == A.tobytes()
    assert point_dets(reference, zs)[0] is not None
    assert point_dets(validate_coefficients(NEAR_DEGENERATE), zs)[8] is not None
    assert point_dets(case_i_material, zs)[0] is not None
    assert point_dets(unsupported, zs) == [None] * len(zs)


#: Speeds in the quadrant from |v| = 1e100 to 1e170, dense where the
#: columns of A start to overflow (|v| near 1e153) and v^2 itself does
#: (1.3e154).
HUGE_SPEEDS = (
    np.concatenate([np.logspace(100, 170, 141), np.logspace(151, 155, 161)])[:, None]
    * np.exp(-1j * np.array([0.0, 0.4, 1.0, 1.5]))
).ravel()


def _lean_cases(reference):
    """The near-degenerate speed, then the reference and 24 seeded random
    materials, each on its 64x32 lattice and on ``HUGE_SPEEDS``."""
    rng = np.random.default_rng(83)
    cases = [(validate_coefficients(NEAR_DEGENERATE), np.array([V_NEAR_DEGENERATE + 0j]))]
    for M in [reference] + [random_material(rng) for _ in range(24)]:
        w = default_window(M, nx=64, ny=32)
        cases.append((M, (w.re_values()[:, None] + 1j * w.im_values()).ravel()))
        cases.append((M, HUGE_SPEEDS))
    return cases


#: Speeds down to |v| = 1e-300, where v^2 underflows and every p_k is i.
TINY_SPEEDS = (np.logspace(-300, -1, 150)[:, None]
               * np.exp(-1j * np.array([0.0, 0.4, 1.0, 1.5]))).ravel()


def _real_axis(M):
    """The real axis up to twice the fastest bulk speed, with both signs of
    zero."""
    c = math.sqrt(max(mode_speeds(M).t_values()))
    return np.array([complex(x, zero) for x in np.linspace(0.0, 2.0 * c, 201)[1:]
                     for zero in (0.0, -0.0)])


#: Speeds ``ComplexSpeed`` rejects (zero, outside the quadrant, not
#: finite), each batched between two it accepts.
OUTSIDE_SPEEDS = np.array([0.5 - 0.1j, 0j, 0.9 + 0j, -0.5 - 0.1j, 0.5 + 0.1j, 1e160 + 0j,
                           -1e-300 - 1j, 1.0 + 1e-300j, complex(math.nan, 0.0),
                           complex(math.inf, -1.0), complex(0.3, math.nan), 0.5 - 0.1j])


def _edge_cases(materials):
    """Each material on its 64x32 lattice, on ``HUGE_SPEEDS``, on
    ``_real_axis``, on ``TINY_SPEEDS`` and on ``OUTSIDE_SPEEDS``."""
    for M in materials:
        w = default_window(M, nx=64, ny=32)
        yield M, (w.re_values()[:, None] + 1j * w.im_values()).ravel()
        yield M, HUGE_SPEEDS
        yield M, _real_axis(M)
        yield M, TINY_SPEEDS
        yield M, OUTSIDE_SPEEDS


def _assert_matches_full_d_kernel(kernel, v):
    A, det, mode, kind, p, u = kernel.evaluate(v)
    A_ref, det_ref, mode_ref, kind_ref, p_ref, u_ref = full_matrices(kernel, v)
    assert p.tobytes() == p_ref.tobytes()
    assert u.tobytes() == u_ref.tobytes()
    assert np.array_equal(A, A_ref, equal_nan=True)
    assert np.array_equal(mode, mode_ref)
    assert np.array_equal(kind, kind_ref)
    assert np.array_equal(det[kind == 0], det_ref[kind == 0])
    return set(kind.tolist())


def test_lean_kernel_matches_full_d_kernel(reference, case_i_material, case_ii_material,
                                           case_iii_material):
    # the constant S-block product as one matrix product gives the same
    # matrices and verdicts as checking everything for every mode
    kinds = set()
    cases = list(_lean_cases(reference)) + list(_edge_cases(
        [reference, case_i_material, case_ii_material, case_iii_material]))
    for M, v in cases:
        kinds |= _assert_matches_full_d_kernel(secular_kernel(M), v)
    assert {NON_DECAYING, NOT_FINITE, INADMISSIBLE, DET_NOT_FINITE} <= kinds


def test_kernel_rejects_a_vanishing_closed_form(reference, monkeypatch):
    # u_k = u0 + p u1 + v u2 vanishes at no admissible speed unless its whole
    # row does, which kernel_row refuses.  The rows that vanish on some
    # admissible material have rows of their own, so the longitudinal rows
    # are zeroed at their source here: the material has no kernel, and no
    # speed a determinant
    monkeypatch.setattr(modes, "_longitudinal", lambda x, y, z: (modes._ZERO,) * 3)
    M = reference.replace()  # a copy without the cached kernel
    with pytest.raises(DegenerateKernelError,
                       match="closed-form kernel vector vanishes for mode 3"):
        secular_kernel(M)
    with pytest.raises(ModeFailureError) as err:
        objective_F(M, 0.5, 0.1)
    assert err.value.cause_name == "DegenerateKernelError"
    assert np.isnan(secular_objective(M, np.array([0.5 - 0.1j, 1.0 - 0.02j]))).all()


def _dets_anywhere(M, v):
    """det A at complex speeds in any quadrant: ``evaluate`` builds A
    outside the quadrant too, and only its ``det`` is left undefined."""
    return np.linalg.det(secular_kernel(M).evaluate(v)[0])


def test_det_is_odd_or_even_and_conjugate_symmetric(reference, case_i_material,
                                                    case_ii_material, case_iii_material):
    # the model has no damping.  P D(p; v) P = D(p; -v) with P = diag(1, 1,
    # 1, 1, -1), the same for S, and each p_k depends on v^2 alone, so
    # det A(-v) = +-det A(v) bit for bit, odd where det A ~ v^5 at 0 and
    # even for case III (v^4).  The blocks are real, and with P' = diag(1,
    # -1, 1, -1, 1) D(-p) = P' D(p) P' and S(-p) = -P' S(p) P', so off the
    # real axis det A(conj v) = c conj(det A(v)) with one c per material
    rng = np.random.default_rng(19)
    cases = [(reference, -1), (case_i_material, -1), (case_ii_material, -1),
             (case_iii_material, 1)] + [(random_material(rng), -1) for _ in range(4)]
    for M, sign in cases:
        w = default_window(M, nx=16, ny=8)
        v = (w.re_values()[:, None] + 1j * w.im_values()[w.im_values() < 0.0]).ravel()
        det = _dets_anywhere(M, v)
        assert np.isfinite(det).all() and np.array_equal(_dets_anywhere(M, -v), sign * det)
        c = _dets_anywhere(M, v.conj()) / det.conj()
        assert np.abs(c - c[0]).max() <= 1e-12 * abs(c[0])


def test_roots_come_in_conjugate_pairs(reference, solved_reference):
    # by that symmetry every non-real root has a conjugate twin: the golden
    # root decays in time and its conjugate grows, and both are singular
    # with modes that decay in depth.  So are the imaginary-axis root -iy
    # and its twin +iy.
    y = 0.242375085709775
    golden = complex(solved_reference.v)
    for v in (golden, golden.conjugate(), -1j * y, 1j * y):
        A, _, _, _, p, _ = secular_kernel(reference).evaluate(np.array([v]))
        s = np.linalg.svd(A[0], compute_uv=False)
        assert s[-1] <= 1e-12 * s[0], v
        assert p.imag.min() > 0.05, v


def test_huge_speed_fails_alike_on_both_routes(reference, capfd):
    # v^2 / t_k overflows for some mode here: the kernel and mode_vector
    # name the same non-decaying mode, and nothing reaches LAPACK to print
    # to stdout
    roots = mode_speeds(reference).roots
    for v, mode in ((ComplexSpeed(1e154, 3e153), 2),
                    (ComplexSpeed(1e160, 0.0), 1),  # complex ** 2 raised OverflowError
                    (ComplexSpeed(1e155, 3e154), 1)):  # v^2 overflows off the axis
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in roots[:mode - 1]:
                mode_vector(reference, v, r)
            with pytest.raises(NonDecayingError) as ref:
                mode_vector(reference, v, roots[mode - 1])
            with pytest.raises(NonDecayingError) as res:
                boundary_residual(reference, v, np.ones(5), 1.0)
            with pytest.raises(ModeFailureError) as err:
                objective_F(reference, v.v_r, v.v_i)
        cause = err.value.__cause__
        assert type(cause) is NonDecayingError
        assert ref.value.mode_index == res.value.mode_index == cause.mode_index == mode
        assert str(ref.value) == str(cause)
    assert capfd.readouterr().out == ""


def test_boundary_residual_finite_or_typed_at_huge_speeds(reference):
    # |det A| overflows from |v| ~ 1e31 and the columns of A from ~1e153:
    # the residual is a finite number or the typed error of the failing
    # mode, never NaN and never a numpy warning
    gamma = np.ones(5, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e40, 1e80, 1e120):
            v = ComplexSpeed(scale, 0.1 * scale)
            assert boundary_residual(reference, v, gamma, 1.0) == pytest.approx(
                0.5818091898897648, rel=1e-12)
        outcomes = Counter()
        for z in HUGE_SPEEDS.tolist():
            try:
                res = boundary_residual(reference, ComplexSpeed.from_complex(z), gamma, 1.0)
            except (NonDecayingError, np.linalg.LinAlgError) as exc:
                outcomes[type(exc).__name__] += 1
                continue
            assert math.isfinite(res), z
            outcomes["finite"] += 1
    assert outcomes.keys() == {"finite", "NonDecayingError", "LinAlgError"}


def test_amplitudes_not_a_root_at_huge_speeds(reference):
    # |det A| overflows here but every column of A is finite: amplitudes
    # reads the matrix, which is far from singular
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e40, 1e80, 1e120):
            with pytest.raises(NotARootError):
                amplitudes(reference, ComplexSpeed(scale, 0.1 * scale))


def test_undefined_speeds_fail_typed(reference, case_i_material, case_ii_material,
                                     case_iii_material):
    # at extreme speeds objective_F either gives a finite value or names the
    # cause, and point_dets is None exactly where it raises; at |v| >~ 1e100
    # |det A| can overflow although every entry of A is finite
    rng = np.random.default_rng(83)
    materials = [reference, case_i_material, case_ii_material, case_iii_material,
                 random_material(rng), random_material(rng), random_material(rng)]
    causes = set()
    for M in materials:
        for v in (HUGE_SPEEDS, _real_axis(M), TINY_SPEEDS):
            for z, entry in zip(v, point_dets(M, v)):
                try:
                    F = objective_F(M, z.real, -z.imag)
                except ModeFailureError as exc:
                    assert entry is None, z
                    causes.add(exc.cause_name)
                    continue
                assert entry is not None and F == objective_from_det(entry[0]), z
                assert not math.isnan(F), z
    assert causes == {"NonDecayingError", "LinAlgError"}


def _named_failures(M, v):
    """Tally of ``(cause class, mode index)`` over the undefined speeds of v
    as one ``SecularKernel.evaluate`` call names them, after checking that
    ``objective_F`` raises that error, with that message, at each of them."""
    kernel = secular_kernel(M)
    _, _, mode, kind, _, _ = kernel.evaluate(v)
    named, bad = Counter(), kind != 0
    for z, m, k in zip(v[bad].tolist(), mode[bad].tolist(), kind[bad].tolist()):
        err = kernel.failure(z, m, k)
        with pytest.raises(ModeFailureError) as raised:
            objective_F(M, z.real, -z.imag)
        cause = raised.value.__cause__
        assert type(cause) is type(err), z
        assert getattr(cause, "mode_index", m) == getattr(err, "mode_index", m) == m, z
        assert str(cause) == str(err), z
        named[type(err).__name__, m] += 1
    return named


def test_batch_names_what_objective_raises(reference, case_i_material, case_ii_material,
                                           case_iii_material):
    # every undefined speed of a batch is named as objective_F names it one
    # point at a time: the error class and, for a failing mode, its index
    w = default_window(reference)
    named = _named_failures(reference, (w.re_values()[:, None] + 1j * w.im_values()).ravel())
    assert named == {("NonDecayingError", 1): 76, ("NonDecayingError", 2): 23}
    rng = np.random.default_rng(107)
    names = set()
    for M, v in _edge_cases([reference, case_i_material, case_ii_material, case_iii_material,
                             random_material(rng), random_material(rng)]):
        names |= {name for name, _ in _named_failures(M, v)}
    assert names == {"NonDecayingError", "LinAlgError", "ValueError"}
    # a window across Re v = 0 and Im v = 0: every cell outside the quadrant
    # fails as ComplexSpeed's ValueError, and no mode is named for it
    w = ScanWindow(-0.3, 1.5, -0.6, 0.3, 18, 10)
    named = _named_failures(reference, (w.re_values()[:, None] + 1j * w.im_values()).ravel())
    outside = sum(x < 0.0 or y > 0.0 for x in w.re_values() for y in w.im_values())
    assert named["ValueError", 0] == outside > 0


def test_huge_window_scans_fail_typed():
    # the scan's second pass names every undefined cell; where no cell is
    # defined the scan raises the typed AllPointsFailedError
    w = ScanWindow(1e152, 1e155, -3e154, 0.0, 24, 12)
    for seed in (3, 7, 11):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            try:
                grid = grid_scan(random_material(rng), w)
            except AllPointsFailedError:
                continue
            assert grid.failures == sum(grid.failure_causes.values())


@pytest.mark.parametrize("name", ["reference", "case_i_material", "case_ii_material",
                                  "case_iii_material"])
def test_routes_agree_near_the_origin(name, request):
    # every p_k nears i and the p_k^2 crowd together, but the mode speeds
    # stay distinct: the kernel and mode_vector build the same A and the
    # residual is finite
    M = request.getfixturevalue(name)
    c = math.sqrt(min(mode_speeds(M).t_values()))
    for scale in (1e-4, 1e-3, 1e-2):
        for phase in (0.0, 0.4, 1.0):
            v = ComplexSpeed.from_complex(scale * c * cmath.exp(-1j * phase))
            A = secular_matrix(M, v).A
            assert np.linalg.norm(mode_vector_matrix(M, v) - A) <= 1e-12 * np.linalg.norm(A)
            assert math.isfinite(boundary_residual(M, v, np.ones(5), 1.0))


def test_point_det_matches_row_evaluate():
    # refinement's one-point calls and the scan's row calls give the same
    # determinant to the last bit, and objective_F raises where it has none
    rng = np.random.default_rng(97)
    for _ in range(6):
        M = random_material(rng)
        kernel = secular_kernel(M)
        w = default_window(M, nx=24, ny=16)
        for re_v in w.re_values():
            _, det, _, kind, _, _ = kernel.evaluate(re_v + 1j * w.im_values())
            for im_v, d, k in zip(w.im_values(), det, kind):
                (entry,) = point_dets(M, [complex(re_v, im_v)])
                if k:
                    assert entry is None
                    with pytest.raises(ModeFailureError):
                        objective_F(M, re_v, -im_v)
                else:
                    assert entry[0] == d


def test_mode_failure_message_plain_speed(reference):
    # the second pass of grid_scan hands numpy scalars to objective_F
    with pytest.raises(ModeFailureError) as err:
        objective_F(reference, np.float64(0.75), -np.float64(0.0))
    assert "np.float64" not in str(err.value)
    assert "v = (0.75+0j)" in str(err.value)


def test_scalar_route_reads_the_kernel_bit_for_bit(reference, case_i_material,
                                                   case_ii_material, case_iii_material):
    # mode_vector and p_from_t take p and u from the kernel's own arithmetic
    # (modes.mode_shapes): at every speed they return its bits, p_from_t
    # raises exactly where the kernel finds a mode non-decaying, and
    # mode_vector also raises where the kernel's p or u is not finite
    rng = np.random.default_rng(59)
    materials = [reference, case_i_material, case_ii_material, case_iii_material,
                 random_material(rng), random_material(rng)]
    ranked = 0  # speeds the kernel ranks NON_DECAYING
    overflowed = 0  # decaying modes whose p or u is not finite
    for M in materials:
        kernel, roots = secular_kernel(M), mode_speeds(M).roots
        w = default_window(M, nx=64, ny=32)
        speeds = np.concatenate([(w.re_values()[:, None] + 1j * w.im_values()).ravel(),
                                 HUGE_SPEEDS])
        _, _, mode, kind, p, u = kernel.evaluate(speeds)
        for z, pz, uz, m, k in zip(speeds, p, u, mode.tolist(), kind.tolist()):
            v = ComplexSpeed.from_complex(z)
            raised = []
            for r in roots:
                j = r.index - 1
                try:
                    ae = p_from_t(v, r.t, r.index)
                except NonDecayingError:
                    assert not pz[j].imag > 0.0, (M, z, r.index)
                    raised.append(r.index)
                    with pytest.raises(NonDecayingError):
                        mode_vector(M, v, r)
                    continue
                assert pz[j].imag > 0.0, (M, z, r.index)
                assert np.complex128(ae.p).tobytes() == pz[j].tobytes(), (M, z, r.index)
                if not (np.isfinite(pz[j]) and np.isfinite(uz[j]).all()):
                    with pytest.raises(np.linalg.LinAlgError, match=f"mode {r.index} "):
                        mode_vector(M, v, r)
                    overflowed += 1
                    continue
                mb = mode_vector(M, v, r)
                assert np.complex128(mb.p.p).tobytes() == pz[j].tobytes(), (M, z, r.index)
                assert mb.u.tobytes() == uz[j].tobytes(), (M, z, r.index)
            if k == NON_DECAYING:
                assert raised[0] == m, (M, z)
                ranked += 1
    assert ranked and overflowed


def test_mode_vector_finite_or_typed_at_huge_speeds(reference):
    # near |v| ~ 1e153 a decaying branch can overflow (p = -inf + inf j
    # passes Im p > 0): mode_vector then raises the LinAlgError the kernel
    # names a non-finite column by, and never returns a non-finite vector
    outcomes = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in HUGE_SPEEDS.tolist():
            v = ComplexSpeed.from_complex(z)
            for r in mode_speeds(reference).roots:
                try:
                    mb = mode_vector(reference, v, r)
                except (NonDecayingError, np.linalg.LinAlgError) as exc:
                    outcomes[type(exc).__name__] += 1
                    continue
                assert cmath.isfinite(mb.p.p) and np.isfinite(mb.u).all(), (z, r.index)
                outcomes["finite"] += 1
    assert outcomes["LinAlgError"] == 133
    assert outcomes.keys() == {"finite", "NonDecayingError", "LinAlgError"}


def test_secular_matrix_evaluates_the_kernel_once(reference, monkeypatch):
    # A, p and u come from one kernel evaluation: no second pass over the
    # mode shapes
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(secular, "mode_shapes", counted("mode_shapes", secular.mode_shapes))
    monkeypatch.setattr(SecularKernel, "evaluate", counted("evaluate", SecularKernel.evaluate))
    v = ComplexSpeed.from_complex(1.038454844666989 - 0.02631077604792278j)
    sm = secular_matrix(reference, v)
    assert calls == {"mode_shapes": 1, "evaluate": 1}
    A, _, _, _, p, u = secular_kernel(reference).evaluate(np.array([complex(v)]))
    assert sm.A.tobytes() == A[0].tobytes()
    assert sm.p.tobytes() == p[0].tobytes() and sm.u.tobytes() == u[0].tobytes()
