"""Secular determinant of the traction-free surface condition.

Each depth mode contributes a column S(p_k) u_k holding the five boundary
flux amplitudes (t21, t22, L21, L22, S2) it generates at the surface, with
S(p) = p Q1 + S0 + v V from the blocks of ``modes.material_blocks``.  A
surface wave exists when some combination of the five modes leaves the
surface flux-free, i.e. when the 5x5 secular matrix A is singular.  The
search objective is F = ln |det A|.

A solve builds A one way only: ``SecularKernel.evaluate``, one batched
kernel over arrays of speeds built on material-only data computed once per
material.  ``secular_objective`` calls it for the scan, ``point_dets`` for
the speeds one refinement step of every seed needs, and ``point_det`` and
``objective_F`` are its one-point calls.  It never builds D(p_k) or
checks that its kernel is one-dimensional: det D(p) is det Q1 times prod_j
(p^2 - p_j^2) and ``mode_speeds`` keeps the t_j distinct, so at an
admissible speed p_k^2 is a simple root and the kernel is a line.  One rule
decides where A is defined, and ``evaluate`` applies it for every caller
(the failure kinds below); ``SecularKernel.failure`` turns a failure into
the typed error a one-point call raises.  ``secular_matrix`` is one more
one-point call, for the mode weights of a root (``amplitudes``), the
fields (``field_eval``) and the boundary residual: it returns A with the
p_k and u_k (``modes.mode_shapes``) that ``evaluate`` built it from, so a
root is checked on the matrix that found it.  The closed forms of
``modes.kernel_row`` and the blocks are cached on the material; the tests
check them against the SVD nullspace of D(p_k) and against a 40-digit
route that shares only the blocks.
"""

from __future__ import annotations

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
)
from .material import MaterialCoefficients
from .modes import (
    ComplexSpeed,
    Matrix5,
    kernel_row,
    material_blocks,
    mode_shapes,
    mode_vector,  # not called here; bench/tracing.py wraps secular.mode_vector
)
from .spectrum import mode_speeds

#: Objective value reported where the determinant is exactly zero.
F_SENTINEL = -1.0e308

#: Largest sigma_min / sigma_max ratio accepted as a secular root.
ROOT_RATIO_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SecularMatrix:
    """Secular matrix A with the attenuation exponents ``p`` (5,) and the
    closed-form kernel vectors ``u`` (5 modes, 5 components) of its columns."""

    A: Matrix5
    p: np.ndarray
    u: np.ndarray


def secular_matrix(M: MaterialCoefficients, v: ComplexSpeed) -> SecularMatrix:
    """Secular matrix at speed v with the p_k and u_k of its columns, from a
    one-point call of ``SecularKernel.evaluate``: column k is S(p_k) u_k.
    Raises the typed error of a failing mode (``SecularKernel.failure``) and
    those of ``secular_kernel``; an overflowing |det A| is no failure here."""
    kernel, vc = secular_kernel(M), complex(v)
    A, _, mode, kind, p, u = kernel.evaluate(np.array([vc]))
    if kind[0] and kind[0] != DET_NOT_FINITE:
        raise kernel.failure(vc, int(mode[0]), int(kind[0]))
    return SecularMatrix(A=A[0], p=p[0], u=u[0])


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


def objective_from_det(det: complex) -> float:
    """Log magnitude of a determinant, with a large negative sentinel at 0."""
    mag = abs(det)
    if mag == 0.0:
        return F_SENTINEL
    return math.log(mag)


#: Ways a speed can fail, in the order ``SecularKernel.evaluate`` checks
#: them: outside the quadrant; then, in the first failing mode by index, no
#: decaying branch (an overflowing v^2's NaN branch included) or a
#: non-finite entry of its column S(p_k) u_k (an overflow at a huge speed);
#: last an overflowing |det A| with every entry finite.
NON_DECAYING, NOT_FINITE, INADMISSIBLE, DET_NOT_FINITE = 1, 2, 3, 4


@dataclass(frozen=True, eq=False)
class SecularKernel:
    """Material-only data of the batched objective.

    The closed-form kernel vector of mode k is u_k = u0_k + p_k u1_k +
    v u2_k, with the rows of ``modes.kernel_row`` for the material's
    coupling regime.  The rows of A need only u_k and S(p_k), never
    D(p_k).  The transposes of Q1, S0 and V are stored contiguous, so the
    constant product u Q1^T over every mode of every speed is one matrix
    product.  Every component of u_k takes one term of u0, p u1 and v u2 at
    most (``kernel_row``), p_k != 0 where the mode decays and v != 0 where
    the speed is admissible, so u_k vanishes only where its whole row is
    zero: a property of the material, which ``build`` rejects once.
    """

    t: np.ndarray  # (5,)
    u0: np.ndarray  # (5 modes, 5 components)
    u1: np.ndarray
    u2: np.ndarray
    q1T: np.ndarray  # Q1^T, S0^T and V^T, C-contiguous
    s0T: np.ndarray
    vT: np.ndarray

    @classmethod
    def build(cls, M: MaterialCoefficients) -> "SecularKernel":
        roots = mode_speeds(M).roots
        rows = np.array([kernel_row(M, r) for r in roots])
        for r, row in zip(roots, rows):
            if not row.any():
                raise DegenerateKernelError(
                    f"closed-form kernel vector vanishes for mode {r.index}")
        u0, u1, u2 = rows.swapaxes(0, 1)
        q1, _, v_lin, _, _, _, s0 = material_blocks(M)
        return cls(t=np.array([r.t for r in roots]), u0=u0, u1=u1, u2=u2,
                   q1T=q1.T.copy(), s0T=s0.T.copy(), vT=v_lin.T.copy())

    def evaluate(self, v: np.ndarray) -> tuple:
        """``(A, det, mode, kind, p, u)`` at any complex speeds v, shape (n,).

        ``A`` is the (n, 5, 5) stack whose column k is S(p_k) u_k and ``det``
        its determinants, meaningless where ``kind`` is nonzero.  ``kind`` is
        0 where the speed is defined and otherwise its first failure, in the
        order above; ``mode`` is the failing mode of a per-mode kind, else 0.
        Only failing speeds are ranked; ``det`` is computed only if some
        speed has no failing mode.  ``p`` (n, 5) and ``u`` (n, 5, 5) are the
        ``modes.mode_shapes`` that A is built from.
        """
        n = len(v)
        # the speeds ComplexSpeed accepts: finite, nonzero, Re v >= 0, Im v <= 0
        admissible = np.isfinite(v) & (v.real >= 0.0) & (v.imag <= 0.0) & (v != 0.0)
        with np.errstate(all="ignore"):
            p, u = mode_shapes(v, self.t, self.u0, self.u1, self.u2)
            pp, vm = p[..., None], v[:, None, None]
            svT = self.s0T + vm * self.vT  # the v-dependent part of S(p), transposed
            uq = (u.reshape(-1, 5) @ self.q1T).reshape(u.shape)
            rows = pp * uq + u @ svT  # row k: S(p_k) u_k
            A = np.swapaxes(rows, 1, 2)
            decays = p.imag > 0.0
            passed = decays & np.isfinite(rows).all(axis=-1)
            defined = admissible & passed.all(axis=1)
            n_defined = np.count_nonzero(defined)
            if n_defined:
                det = np.linalg.det(A)
                defined &= np.isfinite(np.abs(det))
                n_defined = np.count_nonzero(defined)
            else:
                det = np.full(n, np.nan, dtype=complex)
        mode, kind = np.zeros((2, n), dtype=int)
        if n_defined < n:
            # rank each failing speed: the speed itself, then its first
            # failing mode by index (no decay before a non-finite column),
            # then the determinant
            for i in np.flatnonzero(~defined).tolist():
                modes = passed[i].tolist()
                if not admissible[i]:
                    kind[i] = INADMISSIBLE
                elif all(modes):
                    kind[i] = DET_NOT_FINITE
                else:
                    m = modes.index(False)
                    mode[i], kind[i] = m + 1, NOT_FINITE if decays[i, m] else NON_DECAYING
        return A, det, mode, kind, p, u

    def failure(self, v: complex, mode: int, kind: int) -> Exception:
        """The typed error of the failure ``evaluate`` ranked at speed v: the
        ``ValueError`` of ``ComplexSpeed`` for an inadmissible speed, the
        ``NonDecayingError`` that ``mode_vector`` raises for a mode without a
        decaying branch, and a ``LinAlgError`` for a non-finite column of A or
        a determinant whose modulus is not finite."""
        if kind == INADMISSIBLE:
            try:
                ComplexSpeed.from_complex(v)
            except ValueError as exc:
                return exc
        if kind == NON_DECAYING:
            return NonDecayingError(t=float(self.t[mode - 1]), v=v, mode_index=mode)
        if kind == DET_NOT_FINITE:
            return np.linalg.LinAlgError("secular determinant is not finite")
        return np.linalg.LinAlgError(f"secular matrix column of mode {mode} is not finite")


def secular_kernel(M: MaterialCoefficients) -> SecularKernel:
    """The batched-objective data of a material, built on first use and
    kept on the (frozen) material instance.

    Raises the errors of ``mode_speeds`` and of ``modes.kernel_row``:
    ``UnsupportedCouplingError`` for a material no closed-form kernel
    covers (DEGENERATE, or GENERAL with eps2 = 0); and
    ``DegenerateKernelError`` for a mode whose closed form is all zeros.
    """
    return M.memo("_secular_kernel", SecularKernel.build)


def secular_objective(M: MaterialCoefficients, v) -> np.ndarray:
    """F = ln |det A| over an array of complex speeds v, from one call of
    ``SecularKernel.evaluate``; NaN where the speed is undefined, and
    everywhere for a material whose mode speeds or couplings rule out the
    closed-form kernels.  ``objective_F`` names the cause at one speed."""
    v = np.asarray(v, dtype=complex)
    try:
        kernel = secular_kernel(M)
    except RayleighError:
        return np.full(v.shape, np.nan)
    _, det, _, kind, _, _ = kernel.evaluate(v.ravel())
    mag = np.abs(det).reshape(v.shape)
    with np.errstate(divide="ignore"):
        F = np.where(mag == 0.0, F_SENTINEL, np.log(mag))
    return np.where(kind.reshape(v.shape) == 0, F, np.nan)


def point_det(M: MaterialCoefficients, v_r: float, v_i: float) -> complex:
    """Secular determinant det A(v) at v = v_r - i v_i, from a one-point call
    of ``SecularKernel.evaluate``.

    Raises
    ------
    ModeFailureError
        Wrapping whatever solver error made the determinant undefined at
        this speed sample (inadmissible quadrant, non-decaying branch,
        repeated or shared mode speeds, vanishing closed form, a non-finite
        column of A, or a determinant whose modulus overflows).
    """
    v = complex(v_r, -v_i)
    try:
        kernel = secular_kernel(M)
        _, det, mode, kind, _, _ = kernel.evaluate(np.array([v]))
        if kind[0]:
            raise kernel.failure(v, int(mode[0]), int(kind[0]))
    except (RayleighError, ValueError) as exc:
        raise ModeFailureError(v_r, v_i, exc) from exc
    return complex(det[0])


def point_dets(M: MaterialCoefficients, zs) -> list:
    """``point_det`` and the secular matrix A at each complex speed of
    ``zs`` (v itself, not ``(v_r, v_i)``) from one ``SecularKernel.evaluate``
    call: one ``(det, A)`` per speed, or None exactly where ``point_det``
    raises (an undefined speed, or a material no closed-form kernel covers)."""
    try:
        kernel = secular_kernel(M)
    except RayleighError:
        return [None] * len(zs)
    A, det, _, kind, _, _ = kernel.evaluate(np.array(zs, dtype=complex))
    return [(complex(d), a) if not k else None for d, a, k in zip(det, A, kind)]


def objective_F(M: MaterialCoefficients, v_r: float, v_i: float) -> float:
    """Search objective F(v) = ln |det A(v)| at v = v_r - i v_i.

    Raises
    ------
    ModeFailureError
        Where ``point_det`` raises it.
    """
    return objective_from_det(point_det(M, v_r, v_i))


def nullspace_amplitude(A: Matrix5) -> np.ndarray:
    """Smallest singular direction of A, scaled so the largest component is
    exactly 1.

    Raises
    ------
    NotARootError
        If sigma_min / sigma_max exceeds ``ROOT_RATIO_TOL``, i.e. the matrix is
        not numerically singular.
    """
    _, s, vh = np.linalg.svd(A)
    if s[-1] > ROOT_RATIO_TOL * s[0]:
        raise NotARootError(
            f"secular matrix is not singular (sigma ratio {s[-1] / s[0]:.3e} "
            f"> {ROOT_RATIO_TOL:.1e})"
        )
    gamma = vh[-1].conj()
    peak = int(np.argmax(np.abs(gamma)))
    gamma = gamma / gamma[peak]
    gamma[peak] = 1.0  # z / z is not always exactly 1 in complex arithmetic
    return gamma


def amplitudes(M: MaterialCoefficients, v: ComplexSpeed) -> np.ndarray:
    """Mode weights of the surface wave at a converged secular root: the
    nullspace of ``secular_matrix``'s A, the matrix refinement uses.

    Raises ``nullspace_amplitude``'s ``NotARootError`` where A is not
    numerically singular, an overflowing |det A| included, and the errors
    of ``secular_matrix``."""
    return nullspace_amplitude(secular_matrix(M, v).A)


@dataclass(frozen=True, eq=False)
class FieldState:
    """Field and boundary-flux amplitudes at one space-time point."""

    u1: complex
    u2: complex
    tau1: complex
    tau2: complex
    chi: complex
    traction: np.ndarray  # (t21, t22, L21, L22, S2)


def _check_point(kappa: float, x1: float, x2: float, time: float) -> None:
    if not 0.0 < kappa < math.inf:
        raise DomainError(f"wavenumber must be positive and finite, got {kappa!r}")
    if not 0.0 <= x2 < math.inf:
        raise DomainError(f"depth must be nonnegative and finite, got {x2!r}")
    if not (math.isfinite(x1) and math.isfinite(time)):
        raise DomainError(f"x1 and time must be finite, got {x1!r} and {time!r}")


def _check_weights(gamma) -> np.ndarray:
    gamma = np.asarray(gamma)
    if gamma.shape != (5,) or gamma.dtype.kind not in "biufc" or not np.isfinite(gamma).all():
        raise DomainError(f"mode weights must be five finite numbers, got {gamma!r}")
    return gamma


def field_eval(M: MaterialCoefficients, v: ComplexSpeed, gamma: np.ndarray,
               kappa: float, x1: float, x2: float, time: float) -> FieldState:
    """Evaluate the surface-wave fields at one point.

    The wave is the superposition of the five depth modes with weights
    ``gamma``, each carried by exp(i kappa (x1 - v t + p_k x2)); the p_k,
    the mode vectors u_k and the columns of A come from ``secular_matrix``.
    The returned traction holds the five boundary flux amplitudes; at a
    converged root and x2 = 0 they cancel for every wavenumber kappa.

    Raises
    ------
    DomainError
        If kappa is not positive and finite, x2 is not nonnegative and
        finite (the half-space is x2 >= 0), x1 or time is not finite, or
        gamma is not five finite numbers; also where a weighted mode phase
        overflows (a damped wave far back in time).
    RayleighError, numpy.linalg.LinAlgError
        Those of ``secular_matrix`` where a mode fails at v.
    """
    _check_point(kappa, x1, x2, time)
    gamma = _check_weights(gamma)
    sm = secular_matrix(M, v)
    try:
        with np.errstate(over="raise"):
            w = gamma * np.exp(1j * kappa * (x1 - complex(v) * time + sm.p * x2))
    except FloatingPointError:
        raise DomainError(f"mode phase overflows at x1 = {x1!r}, x2 = {x2!r}, "
                          f"time = {time!r}") from None
    return FieldState(*(w @ sm.u), traction=1j * kappa * (sm.A @ w))


def boundary_residual(M: MaterialCoefficients, v: ComplexSpeed,
                      gamma: np.ndarray, kappa: float,
                      x1: float = 0.0, time: float = 0.0) -> float:
    """Relative size of the surface traction left by a candidate wave.

    At x2 = 0 every mode carries the same phase exp(i kappa (x1 - v t)), so
    the traction of ``field_eval`` over the scale the modes contribute is
    ||A gamma|| / sum_k |gamma_k| ||A_k||: kappa, x1 and t cancel exactly.
    A is first divided by its largest real or imaginary part, so the norms
    stay finite wherever A is; at a converged root the result is at
    roundoff level.  Raises ``field_eval``'s ``DomainError``, also for an
    all-zero gamma, and the errors of ``secular_matrix``.
    """
    _check_point(kappa, x1, 0.0, time)
    gamma = _check_weights(gamma)
    if not gamma.any():
        raise DomainError("mode weights must not all be zero")
    A = secular_matrix(M, v).A
    A = A / np.maximum(np.abs(A.real), np.abs(A.imag)).max()  # |a| can overflow
    return float(np.linalg.norm(A @ gamma)) / float(np.abs(gamma) @ np.linalg.norm(A, axis=0))
