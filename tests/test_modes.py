"""Depth branch selection, propagation matrix, closed-form kernels."""

import cmath
import math

import numpy as np
import pytest

from rayleighmt import (
    ComplexSpeed,
    DegenerateKernelError,
    DomainError,
    ModeRoot,
    NonDecayingError,
    UnsupportedCouplingError,
    assemble_Dp,
    derived_cubic,
    kernel_row,
    mode_speeds,
    mode_vector,
    numeric_nullspace,
    p_from_t,
    polarization_check,
    validate_coefficients,
)
from rayleighmt import modes
from rayleighmt.modes import material_blocks

from helpers import (
    CANCELLING,
    cancelling_material,
    kernel_residual,
    nullspace_sine,
    random_material,
    random_speed,
)

V05 = ComplexSpeed(0.5, 0.0)


def test_complex_speed_value():
    v = ComplexSpeed(0.62, 0.08)
    assert complex(v) == 0.62 - 0.08j
    assert ComplexSpeed.from_complex(0.62 - 0.08j) == v


@pytest.mark.parametrize("vr,vi", [(-0.1, 0.0), (0.5, -0.2), (0.0, 0.0)])
def test_complex_speed_rejects_bad_quadrant(vr, vi):
    with pytest.raises(ValueError):
        ComplexSpeed(vr, vi)


def test_p_from_t_real_speed_below_transition():
    ae = p_from_t(V05, 1.5)
    # sqrt(1 - 0.25/1.5) i
    assert ae.p == pytest.approx(0.9128709291752769j, rel=1e-15)


def test_p_from_t_pure_damping():
    ae = p_from_t(ComplexSpeed(0.0, 1.0), 2.0)
    assert ae.p == pytest.approx(1.224744871391589j, rel=1e-15)


def test_p_from_t_non_decaying():
    with pytest.raises(NonDecayingError):
        p_from_t(ComplexSpeed(1.3, 0.0), 1.5)


def test_p_from_t_rejects_nonpositive_t():
    with pytest.raises(DomainError):
        p_from_t(V05, 0.0)


def test_kernel_row_rejects_nonpositive_t(reference):
    # a root built by hand can carry a squared speed that mode_speeds never gives
    message = "squared mode speed must be positive"
    with pytest.raises(DomainError, match=message):
        kernel_row(reference, ModeRoot(1, -1.0, "q2"))
    with pytest.raises(DomainError, match=message):
        mode_vector(reference, V05, ModeRoot(1, 0.0, "q2"))


def test_branch_invariants_property():
    rng = np.random.default_rng(31)
    for _ in range(200):
        M = random_material(rng)
        v = random_speed(rng, M)
        for r in mode_speeds(M).roots:
            p = p_from_t(v, r.t, r.index).p
            alpha, beta_im = p.real, p.imag
            assert beta_im > 0.0
            assert alpha <= 0.0
            lhs_re = r.t * (alpha * alpha - beta_im * beta_im + 1.0)
            lhs_im = r.t * alpha * beta_im
            scale = max(abs(complex(v)) ** 2, r.t)
            assert abs(lhs_re - (v.v_r ** 2 - v.v_i ** 2)) <= 1e-12 * scale
            assert abs(lhs_im + v.v_r * v.v_i) <= 1e-12 * scale


def test_propagation_matrix_at_p_zero(reference):
    D = assemble_Dp(reference, V05, 0.0)
    Q1, _, _, R0, R1, R2, _ = material_blocks(reference)
    v = complex(V05)
    assert np.array_equal(D, R0 + v * R1 + (v * v) * R2)
    assert D[0, 0] == 2.75
    assert D[4, 4] == 0.75
    assert Q1[4, 4] == reference.k


def test_material_blocks_are_kept_read_only(reference):
    # built once per material and shared by every D(p) and S(p) assembly
    blocks = material_blocks(reference)
    assert material_blocks(reference) is blocks
    assert not any(block.flags.writeable for block in blocks)
    with pytest.raises(ValueError):
        blocks[0][4, 4] = 0.0
    changed = material_blocks(reference.replace(k=2.0 * reference.k))
    assert changed[0][4, 4] == 2.0 * reference.k and blocks[0][4, 4] == reference.k


#: The slots (row, column) of eps1 and eps2 in Q2 and S0.
EPS_SLOTS = ((0, 3), (3, 0), (1, 2), (2, 1))


def _symmetrized_flux_gap(M):
    """Q2 - (S0 + S0^T): zero when a stored energy gives the fluxes."""
    _, q2, *_, s0 = material_blocks(M)
    return q2 - (s0 + s0.T)


def test_p_linear_block_is_the_symmetrized_flux_block():
    # ROADMAP item 16: the relation holds for every coefficient but the
    # elastic-microthermal couplings, whatever the material
    rng = np.random.default_rng(16)
    rest = np.ones((5, 5), dtype=bool)
    rest[tuple(zip(*EPS_SLOTS))] = False
    for _ in range(20):
        assert not _symmetrized_flux_gap(random_material(rng))[rest].any()


@pytest.mark.xfail(strict=True, reason="Q2 holds eps1 + eps2 where S0 + S0^T holds 2 eps2 "
                                       "and 2 eps1 (ROADMAP item 16)")
def test_eps_slots_of_the_flux_block_symmetrize_to_q2():
    M = random_material(np.random.default_rng(16))
    assert M.eps1 != M.eps2
    assert not _symmetrized_flux_gap(M)[tuple(zip(*EPS_SLOTS))].any()


def test_determinant_factorizes():
    rng = np.random.default_rng(7)
    for _ in range(100):
        M = random_material(rng)
        C = derived_cubic(M)
        v = random_speed(rng, M)
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        D = assemble_Dp(M, v, p)
        t = complex(v) ** 2 / (p * p + 1.0)
        q2v = (t - C.a2) * t + C.a0
        q3v = ((t - C.b4) * t + C.b2) * t - C.b0
        ref = -M.rho ** 2 * M.a * M.b ** 2 * (p * p + 1.0) ** 5 * q2v * q3v
        assert np.linalg.det(D) == pytest.approx(ref, rel=1e-9)


def test_reference_kernels_frozen(reference):
    rs = mode_speeds(reference)
    mb1 = mode_vector(reference, V05, rs.roots[0])
    assert mb1.u[1] == pytest.approx(1.0, rel=1e-15)  # Phi
    p1 = 0.9128709291752769j
    assert mb1.u == pytest.approx([-p1, 1.0, -p1, 1.0, 0.0], rel=1e-14)

    mb2 = mode_vector(reference, V05, rs.roots[1])
    assert mb2.u[1] == pytest.approx(-1.0, rel=1e-15)  # Phi

    mb3 = mode_vector(reference, V05, rs.roots[2])
    assert mb3.u[0] == pytest.approx(1.587489956937453, rel=1e-14)  # Gamma
    assert mb3.u[2] == pytest.approx(2.087489956937453, rel=1e-14)  # Lambda
    assert mb3.u[4] == pytest.approx(0.19652383441091972, rel=1e-13)  # B


def test_kernel_membership_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        M = random_material(rng)
        v = random_speed(rng, M)
        for r in mode_speeds(M).roots:
            mb = mode_vector(M, v, r)
            D = assemble_Dp(M, v, mb.p.p)
            res = np.linalg.norm(D @ mb.u)
            assert res <= 1e-10 * np.linalg.norm(D) * np.linalg.norm(mb.u)


def test_case_kernels_follow_root_speed(case_i_material):
    # mode_speeds numbers the case I roots differently from roots_case; each
    # still gets the row of the factor its t zeroes
    v = ComplexSpeed(0.6, 0.1)
    for r in mode_speeds(case_i_material).roots:
        mb = mode_vector(case_i_material, v, r)
        D = assemble_Dp(case_i_material, v, mb.p.p)
        res = np.linalg.norm(D @ mb.u)
        assert res <= 1e-10 * np.linalg.norm(D) * np.linalg.norm(mb.u)


def test_kernel_parallel_to_numeric_nullspace():
    rng = np.random.default_rng(13)
    for _ in range(50):
        M = random_material(rng)
        v = random_speed(rng, M)
        for r in mode_speeds(M).roots:
            mb = mode_vector(M, v, r)
            basis = numeric_nullspace(assemble_Dp(M, v, mb.p.p))
            assert len(basis) == 1
            assert nullspace_sine(mb.u, basis[0]) <= 1e-8


def test_transverse_modes_isothermal():
    rng = np.random.default_rng(19)
    for _ in range(50):
        M = random_material(rng)
        v = random_speed(rng, M)
        for r in mode_speeds(M).roots[:2]:
            mb = mode_vector(M, v, r)
            assert mb.u[4] == 0.0                # exact, not approximate
            assert polarization_check(mb) == "orthogonal"


def test_longitudinal_modes_parallel():
    rng = np.random.default_rng(23)
    for _ in range(50):
        M = random_material(rng)
        v = random_speed(rng, M)
        for r in mode_speeds(M).roots[2:]:
            assert polarization_check(mode_vector(M, v, r)) == "parallel"


def test_polarization_check_rejects_mixed(reference):
    mb = mode_vector(reference, V05, mode_speeds(reference).roots[0])
    broken = ModeBasisProxy(mb, u=mb.u * np.array([1.0, 2.0, 1.0, 1.0, 1.0]))
    with pytest.raises(DomainError):
        polarization_check(broken)


class ModeBasisProxy:
    """A ModeBasis stand-in with one field overridden."""

    def __init__(self, mb, **overrides):
        self._mb = mb
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._mb, name)


def test_longitudinal_scalar_needs_total_thermal_stiffness():
    # The first kernel scalar of the cubic-factor modes must carry the sum
    # d1+d2+d3; substituting the bare d2 (as for the quadratic-factor
    # scalar Phi) leaves a vector visibly outside the kernel.  Checked on
    # materials where d1+d3 is large so the two variants are far apart.
    rng = np.random.default_rng(43)
    for _ in range(20):
        M = random_material(rng)
        v = random_speed(rng, M)
        e12 = M.eps_long
        for r in mode_speeds(M).roots[2:]:
            mb = mode_vector(M, v, r)
            D = assemble_Dp(M, v, mb.p.p)
            scale = np.linalg.norm(D)
            gamma_wrong = M.b * M.beta * (r.t - M.d2 / M.b) + M.m * e12
            lam_k = M.rho * M.m * (r.t - M.p_wave_modulus / M.rho) + M.beta * e12
            b_wrong = (complex(v) / (M.m * M.beta * r.t)) * (
                gamma_wrong * lam_k - e12 * (M.beta * gamma_wrong + M.m * lam_k))
            p = mb.p.p
            u_wrong = np.array([gamma_wrong, p * gamma_wrong, lam_k,
                                p * lam_k, b_wrong], dtype=complex)
            res_good = np.linalg.norm(D @ mb.u) / (scale * np.linalg.norm(mb.u))
            res_wrong = np.linalg.norm(D @ u_wrong) / (scale * np.linalg.norm(u_wrong))
            assert res_good <= 1e-10
            assert res_wrong > 1e-6


@pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-9])
@pytest.mark.parametrize("raw", CANCELLING, ids=["cancelling_1", "cancelling_2"])
def test_kernel_row_where_gamma_and_lambda_cancel(raw, gap):
    # on the family Gamma and Lambda are roundoff, and their row left kernel
    # residuals up to 0.44 at these probes (0.016 with d2 moved by 1e-12,
    # 7e-6 by 1e-9): the cross product of rows 1 and 3 of the longitudinal
    # system takes over
    M = validate_coefficients(dict(raw, d2=raw["d2"] * (1.0 + gap)))
    c = math.sqrt(min(mode_speeds(M).t_values()))
    for v in (ComplexSpeed(0.5 * c, 0.1 * c), ComplexSpeed(3.0 * c, 0.5 * c)):
        for r in mode_speeds(M).roots:
            assert kernel_residual(M, v, r) <= 1e-12


@pytest.mark.parametrize("draw", [lambda rng: random_material(rng, e12_zero=True),
                                  cancelling_material], ids=["e12_zero", "cancelling"])
def test_kernel_rows_without_longitudinal_coupling(draw):
    # eps1 + 2 eps2 = 0, which the general sampler never draws, away from
    # and on the family where Gamma and Lambda cancel
    rng = np.random.default_rng(71)
    for _ in range(40):
        M = draw(rng)
        v = random_speed(rng, M)
        for r in mode_speeds(M).roots:
            assert kernel_residual(M, v, r) <= 1e-12


def test_mode_vector_requires_general_coupling(case_i_material):
    # beta = eps2 = 0 with eps1 and m nonzero is no regime the closed forms cover
    M = case_i_material.replace(eps1=0.5)
    rs = mode_speeds(M)
    with pytest.raises(UnsupportedCouplingError):
        mode_vector(M, V05, rs.roots[0])


def test_mode_vector_names_a_vanishing_closed_form(reference, monkeypatch):
    # kernel_row refuses an all-zero row.  The rows that vanish on some
    # admissible material have rows of their own (the case III P wave with
    # eps1 + 2 eps2 = 0, the common root of Gamma and Lambda), so the
    # longitudinal rows are zeroed at their source here.  The row is refused
    # before the speed is looked at: at a speed where mode 4 does not decay
    monkeypatch.setattr(modes, "_longitudinal", lambda x, y, z: (modes._ZERO,) * 3)
    root = mode_speeds(reference).roots[3]
    for v in (V05, ComplexSpeed(10.0, 0.0)):
        with pytest.raises(DegenerateKernelError,
                           match="closed-form kernel vector vanishes for mode 4"):
            mode_vector(reference, v, root)


def test_numeric_nullspace_trivial_cases():
    assert numeric_nullspace(np.eye(5, dtype=complex)) == []
    basis = numeric_nullspace(np.zeros((5, 5), dtype=complex))
    assert len(basis) == 5

