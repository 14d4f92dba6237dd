"""Secular determinant of the traction-free surface condition.

Each depth mode contributes a column S(p_k) u_k holding the five boundary
flux amplitudes (t21, t22, L21, L22, S2) it generates at the surface.  A
surface wave exists when some combination of the five modes leaves the
surface flux-free, i.e. when the 5x5 secular matrix A is singular.  The
search objective is F = ln |det A|.

A solve builds A one way only, by one batched kernel over arrays of
speeds (``secular_objective`` for the scan, ``point_dets`` for the few
speeds of a refinement step; ``point_matrix``, ``point_det`` and
``objective_F`` are its one-point calls) built on material-only data
computed once per material; the mode weights of a root (``amplitudes``)
come from it too.  It builds the propagation matrix D(p_k) of a depth
mode only for the two checks that need it: the SVD that D(p_k) has a
one-dimensional kernel, run only where p_k^2 nears another p_j^2
(``GAP_SCREEN``; elsewhere the factorization of det D(p) guarantees it),
and the check that D(p_k) is finite, run only where a bound from the
material's constant blocks cannot rule out overflow (elsewhere every entry
is provably finite).
``secular_matrix`` and ``secular_det`` assemble A one speed at a time from
``mode_vector``: the verification route, which ``field_eval`` and
``boundary_residual`` use so that a kernel root is checked independently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKernelError,
    DomainError,
    ModeFailureError,
    NonDecayingError,
    NotARootError,
    RayleighError,
    UnsupportedCouplingError,
)
from .material import MaterialCoefficients
from .modes import NULLSPACE_RTOL, ComplexSpeed, Matrix5, mode_vector, propagation_blocks
from .spectrum import mode_speeds

#: Objective value reported where the determinant is exactly zero.
F_SENTINEL = -1.0e308

#: Largest sigma_min / sigma_max ratio accepted as a secular root.
ROOT_RATIO_TOL = 1e-6


def assemble_Sp(M: MaterialCoefficients, v: ComplexSpeed, p: complex) -> Matrix5:
    """Boundary flux operator S(p) mapping (U1, U2, A1, A2, B) to
    (t21, t22, L21, L22, S2) amplitudes.

    The matrix is intentionally not symmetric in the coupling entries
    (lambda against (lambda+2mu)p, d3 against d1, eps1 against eps2); the
    rows follow the constitutive fluxes through the surface x2 = 0.
    """
    lam, mu = M.lam, M.mu
    e1, e2 = M.eps1, M.eps2
    e12 = M.eps_long
    vc = complex(v)
    vb = vc * M.beta
    mv = M.m * vc
    return np.array([
        [mu * p, mu, p * e2, e2, 0.0],
        [lam, (lam + 2.0 * mu) * p, e1, p * e12, vb],
        [p * e2, e1, M.d2 * p, M.d3, 0.0],
        [e2, p * e12, M.d1, M.d * p, mv],
        [0.0, vb, 0.0, mv, M.k * p],
    ], dtype=complex)


@dataclass(frozen=True, eq=False)
class SecularMatrix:
    """Secular matrix with the mode bases that generated its columns."""

    A: Matrix5
    modes: tuple


def secular_matrix(M: MaterialCoefficients, v: ComplexSpeed) -> SecularMatrix:
    """Assemble the secular matrix at speed v.

    Column k is S(p_k) u_k with u_k the closed-form kernel vector of mode
    k; the common exponential factor of each mode is dropped, so the
    columns are constant vectors.
    """
    roots = mode_speeds(M)
    modes = tuple(mode_vector(M, v, r) for r in roots)
    cols = [assemble_Sp(M, v, mb.p.p) @ mb.u for mb in modes]
    return SecularMatrix(A=np.stack(cols, axis=1), modes=modes)


def det_elimination(A: Matrix5) -> complex:
    """Determinant by Gaussian elimination with partial pivoting.

    The pivot is the largest entry by magnitude in the active column; ties
    break to the lowest row index, which makes the result deterministic.
    """
    a = [[complex(x) for x in row] for row in np.asarray(A)]
    n = len(a)
    det = complex(1.0)
    for col in range(n):
        piv_row = max(range(col, n), key=lambda r: abs(a[r][col]))
        piv = a[piv_row][col]
        if piv == 0.0:
            return complex(0.0)
        if piv_row != col:
            a[col], a[piv_row] = a[piv_row], a[col]
            det = -det
        det *= piv
        for r in range(col + 1, n):
            factor = a[r][col] / piv
            if factor != 0.0:
                row_r, row_c = a[r], a[col]
                for c in range(col + 1, n):
                    row_r[c] -= factor * row_c[c]
    return det


def secular_det(M: MaterialCoefficients, v: ComplexSpeed) -> complex:
    """Determinant of the secular matrix at speed v."""
    return det_elimination(secular_matrix(M, v).A)


def objective_from_det(det: complex) -> float:
    """Log magnitude of a determinant, with a large negative sentinel at 0."""
    mag = abs(det)
    if mag == 0.0:
        return F_SENTINEL
    return math.log(mag)


#: Ways one mode can fail at one speed, in the order ``mode_vector`` checks
#: them: no decaying branch, a vanishing closed form, a kernel of D(p_k)
#: whose dimension is not one.  The batched kernel runs the dimension
#: check's SVD only where ``GAP_SCREEN`` lets it through.  A D(p_k) with a
#: non-finite entry, an overflow at a huge speed, fails before all of them.
NON_DECAYING, ZERO_KERNEL, KERNEL_DIMENSION, NOT_FINITE = 1, 2, 3, 4

#: Relative gap min_j |p_k^2 - p_j^2| / |p_k|^2 at and above which the
#: kernel of D(p_k) is taken as one-dimensional without an SVD.  det D(p)
#: is a constant times prod_j (p^2 - p_j^2), so a second null direction
#: needs p_k^2 to near another p_j^2; on seeded random materials
#: sigma_4 / sigma_1 stayed above 1e3 * NULLSPACE_RTOL at this gap and up.
GAP_SCREEN = 1e-3


def _poly_blocks(M: MaterialCoefficients) -> tuple:
    """Constant blocks of D(p) = p^2 Q1 + p (Q2 + v V) + R0 + v R1 + v^2 R2
    and S(p) = p Q1 + S0 + v V.

    Q1, Q2, R0 and S0 are ``propagation_blocks`` and ``assemble_Sp`` at
    v = 0; V, R1 and R2 hold their beta, m, rho, b and a entries.
    """
    q1, q2, r0 = propagation_blocks(M, 0j)
    s0 = assemble_Sp(M, 0j, 0.0)
    v_lin, r1 = np.zeros((5, 5)), np.zeros((5, 5))
    v_lin[1, 4] = v_lin[4, 1] = r1[0, 4] = r1[4, 0] = M.beta
    v_lin[3, 4] = v_lin[4, 3] = r1[2, 4] = r1[4, 2] = M.m
    r2 = -np.diag([M.rho, M.rho, M.b, M.b, M.a])
    return q1, q2, v_lin, r0, r1, r2, s0


@dataclass(frozen=True, eq=False)
class SecularKernel:
    """Material-only data of the batched objective.

    The closed-form kernel vector of mode k (see ``mode_vector``) is
    u_k = u0_k + p_k u1_k + v u2_k, with the coefficients Phi for the
    transverse modes and Gamma, Lambda and the B factor for the
    longitudinal ones folded into ``u0``, ``u1`` and ``u2``.  The rows of
    A need only u_k and S(p_k); D(p_k) is built only for ``matrices``'
    checks.
    """

    roots: tuple  # ModeRoot, indices 1..5
    t: np.ndarray  # (5,)
    u0: np.ndarray  # (5 modes, 5 components)
    u1: np.ndarray
    u2: np.ndarray
    delta: np.ndarray  # (5,) min over j != k of |1/t_k - 1/t_j|
    blocks: tuple  # _poly_blocks
    d_reach: float  # 1 + |p| + |v| below which D(p) cannot overflow

    @classmethod
    def build(cls, M: MaterialCoefficients) -> "SecularKernel":
        roots = mode_speeds(M).roots
        if M.eps2 == 0.0 or M.m == 0.0 or M.beta == 0.0:
            raise UnsupportedCouplingError(
                "closed-form kernels require eps2 != 0, m != 0 and beta != 0"
            )
        u0, u1, u2 = (np.zeros((5, 5)) for _ in range(3))
        e12 = M.eps_long
        for k, r in enumerate(roots):
            t = r.t
            if not t > 0.0:
                raise DomainError(f"squared mode speed must be positive, got {t!r}")
            if r.source == "q2":
                phi = (M.b / M.eps2) * (t - M.d2 / M.b)
                u0[k, [1, 3]] = (phi, 1.0)
                u1[k, [0, 2]] = (-phi, -1.0)
            else:
                gamma = M.b * M.beta * (t - M.d / M.b) + M.m * e12
                lam_k = M.rho * M.m * (t - M.p_wave_modulus / M.rho) + M.beta * e12
                u0[k, [0, 2]] = (gamma, lam_k)
                u1[k, [1, 3]] = (gamma, lam_k)
                u2[k, 4] = (gamma * lam_k - e12 * (M.beta * gamma + M.m * lam_k)) / (
                    M.m * M.beta * t)
        t = np.array([r.t for r in roots])
        inv = np.abs(1.0 / t[:, None] - 1.0 / t)
        np.fill_diagonal(inv, np.inf)
        blocks = _poly_blocks(M)
        # With b the largest entry modulus of Q1, Q2, V, R0, R1 and R2, every
        # intermediate of D(p) = p (p Q1 + (Q2 + v V)) + (R0 + v (R1 + v R2))
        # is at most b (1 + |p| + |v|)^2 in modulus: a complex product z w
        # forms its parts from terms whose moduli sum to at most |z| |w|
        # (Cauchy-Schwarz).  Below d_reach that bound is under a quarter of
        # the largest double, which leaves room for rounding, so D(p) is
        # finite there and is not built just to check it.
        b = max(float(np.abs(x).max()) for x in blocks[:6])
        return cls(roots=roots, t=t, u0=u0, u1=u1, u2=u2, delta=inv.min(axis=1),
                   blocks=blocks, d_reach=math.sqrt(np.finfo(float).max / (4.0 * b)))

    def matrices(self, v: np.ndarray) -> tuple:
        """Secular matrices at admissible complex speeds v, shape (n,).

        Returns ``(A, mode, kind)``: ``A`` is the (n, 5, 5) stack whose
        column k is S(p_k) u_k, ``mode`` holds the index of the first mode
        that fails at each speed (0 where none does) and ``kind`` how it
        fails (``NON_DECAYING``, ``ZERO_KERNEL``, ``KERNEL_DIMENSION`` or
        ``NOT_FINITE``).  ``A`` is meaningless where ``mode`` is nonzero.
        A depth mode's D(p_k) is built only for the two checks that need
        it: the kernel-dimension SVD, run only where the gap
        |v|^2 delta_k / |p_k|^2 = min_j |p_k^2 - p_j^2| / |p_k|^2 is below
        ``GAP_SCREEN`` or NaN (everywhere else the kernel is
        one-dimensional), and the finiteness check, run only where
        1 + |p_k| + |v| reaches ``d_reach`` or is NaN (everywhere else no
        entry of D(p_k) can overflow).
        """
        q1, q2, v_lin, r0, r1, r2, s0 = self.blocks
        with np.errstate(all="ignore"):
            vv = v[:, None]
            root = np.sqrt(vv * vv / self.t - 1.0)  # (n, 5)
            p = np.where(root.imag > 0.0, root, -root)
            pp, vm = p[..., None], vv[..., None]
            u = self.u0 + pp * self.u1 + vm * self.u2  # (n, 5 modes, 5 components)
            sv = s0 + vm * v_lin  # the v-dependent part of S(p)
            rows = pp * (u @ q1.T) + u @ np.swapaxes(sv, 1, 2)  # row k: S(p_k) u_k

            abs_p, abs_v = np.abs(p), np.abs(vv)
            wide = abs_v ** 2 * self.delta / abs_p ** 2 >= GAP_SCREEN
            build = ~(wide & (1.0 + abs_p + abs_v < self.d_reach))
            finite = np.ones(p.shape, dtype=bool)
            degenerate = np.zeros(p.shape, dtype=bool)
            if build.any():
                at, k = np.nonzero(build)
                pm, vs = p[at, k, None, None], v[at, None, None]
                D = pm * (pm * q1 + (q2 + vs * v_lin)) + (r0 + vs * (r1 + vs * r2))
                finite[at, k] = np.isfinite(D).all(axis=(-2, -1))
                svd = ~wide[at, k] & finite[at, k]
                if svd.any():
                    s = np.linalg.svd(D[svd], compute_uv=False)
                    degenerate[at[svd], k[svd]] = np.sum(
                        s <= NULLSPACE_RTOL * s[:, :1], axis=-1) != 1

        non_decaying, zero_kernel = root.imag == 0.0, ~u.any(axis=-1)
        failed = non_decaying | zero_kernel | degenerate | ~finite  # (n, 5)
        mode = np.zeros(len(v), dtype=int)
        kind = np.zeros(len(v), dtype=int)
        bad = np.flatnonzero(failed.any(axis=1))
        if bad.size:
            # a non-finite D(p_k) outranks every other failure at its speed;
            # otherwise the first failing mode is reported
            kinds = np.select(
                [non_decaying[bad], zero_kernel[bad], degenerate[bad]],
                [NON_DECAYING, ZERO_KERNEL, KERNEL_DIMENSION], 0)
            overflow = ~finite[bad]
            kinds = np.where(overflow.any(axis=1, keepdims=True),
                             np.where(overflow, NOT_FINITE, 0), kinds)
            first = np.argmax(kinds > 0, axis=1)
            kind[bad] = kinds[np.arange(bad.size), first]
            mode[bad] = first + 1
        return np.swapaxes(rows, 1, 2), mode, kind

    def evaluate(self, v: np.ndarray) -> tuple:
        """``matrices`` with each matrix replaced by its determinant."""
        A, mode, kind = self.matrices(v)
        with np.errstate(all="ignore"):
            return np.linalg.det(A), mode, kind

    def failure(self, v: complex, mode: int, kind: int) -> RayleighError:
        """The typed error ``mode_vector`` raises for this failure."""
        if kind == NON_DECAYING:
            return NonDecayingError(t=self.roots[mode - 1].t, v=v, mode_index=mode)
        if kind == ZERO_KERNEL:
            return DegenerateKernelError(
                f"closed-form kernel vector vanishes for mode {mode}")
        if kind == NOT_FINITE:
            return np.linalg.LinAlgError(
                f"propagation matrix of mode {mode} is not finite")
        return DegenerateKernelError(
            f"propagation matrix kernel at mode {mode} is not one-dimensional")


def secular_kernel(M: MaterialCoefficients) -> SecularKernel:
    """The batched-objective data of a material, built on first use and
    kept on the (frozen) material instance.

    Raises the errors of ``mode_speeds``, and ``UnsupportedCouplingError``
    when a coupling the closed forms divide by vanishes.
    """
    kernel = vars(M).get("_secular_kernel")
    if kernel is None:
        kernel = SecularKernel.build(M)
        object.__setattr__(M, "_secular_kernel", kernel)
    return kernel


def _admissible(v: np.ndarray) -> np.ndarray:
    """Mask of the speeds ``ComplexSpeed`` accepts: finite, nonzero, in the
    quadrant Re v >= 0, Im v <= 0."""
    return np.isfinite(v) & (v.real >= 0.0) & (v.imag <= 0.0) & (v != 0.0)


def _defined_dets(M: MaterialCoefficients, v: np.ndarray) -> tuple:
    """``(defined, A, det A)`` at a 1-D array of complex speeds v, from one
    call of ``SecularKernel.matrices``.

    A speed is defined where it is admissible and no mode fails there;
    none is for a material whose mode speeds or couplings rule out the
    closed-form kernels (its A and det are NaN).
    """
    try:
        kernel = secular_kernel(M)
    except RayleighError:
        A = np.full((len(v), 5, 5), np.nan, dtype=complex)
        return np.zeros(len(v), dtype=bool), A, A[:, 0, 0]
    ok = _admissible(v)
    A, mode, _ = kernel.matrices(np.where(ok, v, 1.0))
    with np.errstate(all="ignore"):
        return ok & (mode == 0), A, np.linalg.det(A)


def secular_objective(M: MaterialCoefficients, v) -> np.ndarray:
    """F = ln |det A| over an array of complex speeds v, NaN where undefined.

    The objective is undefined at inadmissible speeds, where a mode fails,
    and everywhere for a material whose mode speeds or couplings rule out
    the closed-form kernels; ``objective_F`` names the cause at one speed.
    """
    v = np.asarray(v, dtype=complex)
    defined, _, det = _defined_dets(M, v.ravel())
    mag = np.abs(det).reshape(v.shape)
    with np.errstate(divide="ignore"):
        F = np.where(mag == 0.0, F_SENTINEL, np.log(mag))
    return np.where(defined.reshape(v.shape), F, np.nan)


def point_matrix(M: MaterialCoefficients, v: ComplexSpeed) -> Matrix5:
    """Secular matrix A(v) from a one-point call of ``SecularKernel.matrices``.

    Raises the typed error ``mode_vector`` raises for the first failing
    mode (``SecularKernel.failure``), and the errors of ``secular_kernel``.
    """
    vc = complex(v)
    kernel = secular_kernel(M)
    A, mode, kind = kernel.matrices(np.array([vc]))
    if mode[0]:
        raise kernel.failure(vc, int(mode[0]), int(kind[0]))
    return A[0]


def point_det(M: MaterialCoefficients, v_r: float, v_i: float) -> complex:
    """Secular determinant det A(v) at v = v_r - i v_i, from ``point_matrix``.

    Raises
    ------
    ModeFailureError
        Wrapping whatever solver error made the determinant undefined at
        this speed sample (inadmissible quadrant, non-decaying branch,
        repeated or shared mode speeds, degenerate kernel, overflow).
    """
    try:
        A = point_matrix(M, ComplexSpeed(v_r, v_i))
        with np.errstate(all="ignore"):
            return complex(np.linalg.det(A))
    except (RayleighError, ValueError) as exc:
        raise ModeFailureError(v_r, v_i, exc) from exc


def point_dets(M: MaterialCoefficients, zs) -> list:
    """``point_det`` and ``point_matrix`` at each complex speed of ``zs``
    (v itself, not ``(v_r, v_i)``), from one call of
    ``SecularKernel.matrices``.

    Returns one ``(det, A)`` per speed, or None exactly where ``point_det``
    raises: an inadmissible speed, a failing mode, or a material the
    closed-form kernels cannot handle.
    """
    defined, A, det = _defined_dets(M, np.array(zs, dtype=complex))
    return [(complex(d), a) if good else None for d, a, good in zip(det, A, defined)]


def objective_F(M: MaterialCoefficients, v_r: float, v_i: float) -> float:
    """Search objective F(v) = ln |det A(v)| at v = v_r - i v_i.

    Raises
    ------
    ModeFailureError
        Where ``point_det`` raises it.
    """
    return objective_from_det(point_det(M, v_r, v_i))


@dataclass(frozen=True, eq=False)
class AmplitudeVector:
    """Mode weights, scaled so the largest component is exactly 1."""

    gamma: np.ndarray


def nullspace_amplitude(A: Matrix5, ratio_tol: float = ROOT_RATIO_TOL) -> AmplitudeVector:
    """Smallest singular direction of A, max-normalized.

    Raises
    ------
    NotARootError
        If sigma_min / sigma_max exceeds ``ratio_tol``, i.e. the matrix is
        not numerically singular.
    """
    _, s, vh = np.linalg.svd(A)
    if s[-1] > ratio_tol * s[0]:
        raise NotARootError(
            f"secular matrix is not singular (sigma ratio {s[-1] / s[0]:.3e} "
            f"> {ratio_tol:.1e})"
        )
    gamma = vh[-1].conj()
    peak = int(np.argmax(np.abs(gamma)))
    gamma = gamma / gamma[peak]
    gamma[peak] = 1.0  # z / z is not always exactly 1 in complex arithmetic
    return AmplitudeVector(gamma=gamma)


def amplitudes(M: MaterialCoefficients, v: ComplexSpeed,
               ratio_tol: float = ROOT_RATIO_TOL) -> AmplitudeVector:
    """Mode weights of the surface wave at a converged secular root, from
    the batched kernel's matrix (``point_matrix``) that refinement uses; the
    fields and the residual stay on the verification route on purpose."""
    return nullspace_amplitude(point_matrix(M, v), ratio_tol)


@dataclass(frozen=True, eq=False)
class FieldState:
    """Field and boundary-flux amplitudes at one space-time point."""

    u1: complex
    u2: complex
    tau1: complex
    tau2: complex
    chi: complex
    traction: np.ndarray  # (t21, t22, L21, L22, S2)


def field_eval(M: MaterialCoefficients, v: ComplexSpeed, gamma: AmplitudeVector,
               kappa: float, x1: float, x2: float, time: float) -> FieldState:
    """Evaluate the surface-wave fields at one point.

    The wave is the superposition of the five depth modes with weights
    ``gamma``, each carried by exp(i kappa (x1 - v t + p_k x2)).  The
    returned traction holds the five boundary flux amplitudes; at a
    converged root and x2 = 0 they cancel for every wavenumber kappa.

    Raises
    ------
    DomainError
        If kappa is not positive or x2 is negative (the half-space is
        x2 >= 0).
    """
    return _fields(M, v, gamma, kappa, x1, x2, time)[0]


def _fields(M: MaterialCoefficients, v: ComplexSpeed, gamma: AmplitudeVector,
            kappa: float, x1: float, x2: float, time: float) -> tuple:
    """``field_eval``'s state together with the secular matrix it used."""
    if not kappa > 0.0:
        raise DomainError(f"wavenumber must be positive, got {kappa!r}")
    if x2 < 0.0:
        raise DomainError(f"depth must be nonnegative, got {x2!r}")

    sm = secular_matrix(M, v)
    vc = complex(v)
    fields = np.zeros(5, dtype=complex)
    traction = np.zeros(5, dtype=complex)
    for weight, mb, col in zip(gamma.gamma, sm.modes, sm.A.T):
        phase = cmath.exp(1j * kappa * (x1 - vc * time + mb.p.p * x2))
        fields += weight * phase * mb.u
        traction += weight * phase * col
    traction *= 1j * kappa
    return FieldState(
        u1=fields[0], u2=fields[1], tau1=fields[2], tau2=fields[3], chi=fields[4],
        traction=traction,
    ), sm


def boundary_residual(M: MaterialCoefficients, v: ComplexSpeed,
                      gamma: AmplitudeVector, kappa: float,
                      x1: float = 0.0, time: float = 0.0) -> float:
    """Relative size of the surface traction left by a candidate wave.

    Evaluates the five boundary fluxes at x2 = 0 and divides by the scale
    the individual modes contribute, so the result is wavenumber- and
    phase-independent; at a converged secular root it sits at roundoff
    level for every kappa.
    """
    state, sm = _fields(M, v, gamma, kappa, x1, 0.0, time)
    phase_mag = abs(cmath.exp(1j * kappa * (x1 - complex(v) * time)))
    scale = kappa * phase_mag * sum(
        abs(weight) * float(np.linalg.norm(col))
        for weight, col in zip(gamma.gamma, sm.A.T)
    )
    return float(np.linalg.norm(state.traction)) / scale
