"""Depth modes of the surface-wave ansatz.

For a complex speed v and a squared mode speed t, the depth dependence of
one partial wave is exp(i kappa p x2) with p the attenuation exponent
satisfying t (p^2 + 1) = v^2 and Im p > 0.  Substituting the ansatz into
the field equations gives a 5x5 propagation matrix D(p) acting on the
amplitude vector (U1, U2, A1, A2, B); its kernel at p = p_k carries the
mode shape.  Closed forms for those kernel vectors are implemented here and
cross-checked against an SVD nullspace.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKernelError,
    DomainError,
    NonDecayingError,
    UnsupportedCouplingError,
)
from .material import MaterialCoefficients
from .spectrum import ModeRoot

#: 5x5 complex matrix (plain ndarray; the alias only documents intent).
Matrix5 = np.ndarray

#: Relative singular-value threshold below which a direction counts as null.
NULLSPACE_RTOL = 1e-10

#: Relative tolerance for the bilinear polarization tests.
POLARIZATION_RTOL = 1e-10


@dataclass(frozen=True)
class ComplexSpeed:
    """Complex propagation speed v = v_r - i v_i.

    ``v_r`` is the phase speed and ``v_i`` the temporal damping rate; both
    must be nonnegative and not simultaneously zero, which pins v to the
    closed lower-right quadrant minus the origin.
    """

    v_r: float
    v_i: float = 0.0

    def __post_init__(self):
        if not (cmath.isfinite(complex(self.v_r, self.v_i))):
            raise ValueError("speed components must be finite")
        if self.v_r < 0.0 or self.v_i < 0.0:
            raise ValueError(
                f"speed must satisfy v_r >= 0 and v_i >= 0, got ({self.v_r!r}, {self.v_i!r})"
            )
        if self.v_r == 0.0 and self.v_i == 0.0:
            raise ValueError("speed must be nonzero")

    @property
    def value(self) -> complex:
        return complex(self.v_r, -self.v_i)

    @classmethod
    def from_complex(cls, z) -> "ComplexSpeed":
        return cls(z.real, -z.imag)

    def __complex__(self) -> complex:
        return self.value


@dataclass(frozen=True)
class AttenuationExponent:
    """Depth attenuation exponent of one partial wave."""

    p: complex
    mode_index: int


def p_from_t(v: ComplexSpeed, t: float, mode_index: int = 0) -> AttenuationExponent:
    """Select the decaying branch of p from t (p^2 + 1) = v^2.

    The two candidates are the square roots of v^2/t - 1.  For a speed in
    the open quadrant (v_r > 0, v_i > 0) exactly one candidate has positive
    imaginary part and nonpositive real part; it is returned.  On the real
    axis the candidates are either purely imaginary (decaying) or purely
    real, in which case no decaying branch exists.

    Raises
    ------
    NonDecayingError
        If both square-root candidates are real.
    DomainError
        If t is not positive.
    """
    if not t > 0.0:
        raise DomainError(f"squared mode speed must be positive, got {t!r}")
    w = complex(v) ** 2 / t - 1.0
    root = cmath.sqrt(w)
    if root.imag > 0.0:
        p = root
    elif root.imag < 0.0:
        p = -root
    else:
        raise NonDecayingError(t=t, v=complex(v), mode_index=mode_index)
    return AttenuationExponent(p=p, mode_index=mode_index)


def propagation_blocks(M: MaterialCoefficients, v: ComplexSpeed) -> tuple:
    """The three coefficient blocks of D(p) = p^2 Q1 + p Q2 + R."""
    lam, mu = M.lam, M.mu
    pw = M.p_wave_modulus
    e12 = M.eps_long
    e1, e2 = M.eps1, M.eps2
    d, d1, d2, d3 = M.d, M.d1, M.d2, M.d3
    vc = complex(v)
    v2 = vc * vc
    vb = vc * M.beta
    mv = M.m * vc

    q1 = np.array([
        [mu, 0.0, e2, 0.0, 0.0],
        [0.0, pw, 0.0, e12, 0.0],
        [e2, 0.0, d2, 0.0, 0.0],
        [0.0, e12, 0.0, d, 0.0],
        [0.0, 0.0, 0.0, 0.0, M.k],
    ], dtype=complex)
    q2 = np.array([
        [0.0, lam + mu, 0.0, e1 + e2, 0.0],
        [lam + mu, 0.0, e1 + e2, 0.0, vb],
        [0.0, e1 + e2, 0.0, d1 + d3, 0.0],
        [e1 + e2, 0.0, d1 + d3, 0.0, mv],
        [0.0, vb, 0.0, mv, 0.0],
    ], dtype=complex)
    r = np.array([
        [pw - M.rho * v2, 0.0, e12, 0.0, vb],
        [0.0, mu - M.rho * v2, 0.0, e2, 0.0],
        [e12, 0.0, d - M.b * v2, 0.0, mv],
        [0.0, e2, 0.0, d2 - M.b * v2, 0.0],
        [vb, 0.0, mv, 0.0, M.k - M.a * v2],
    ], dtype=complex)
    return (q1, q2, r)


def assemble_Dp(M: MaterialCoefficients, v: ComplexSpeed, p: complex) -> Matrix5:
    """Propagation matrix D(p) for one attenuation exponent."""
    q1, q2, r = propagation_blocks(M, v)
    return (p * p) * q1 + p * q2 + r


def numeric_nullspace(D: Matrix5, rel_tol: float = NULLSPACE_RTOL) -> list:
    """Unit kernel vectors of D, ordered by increasing singular value.

    A right singular direction belongs to the kernel when its singular
    value is at most ``rel_tol`` times the largest one.
    """
    _, s, vh = np.linalg.svd(D)
    tol = rel_tol * s[0]
    return [vh[i].conj() for i in range(len(s) - 1, -1, -1) if s[i] <= tol]


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """Closed-form kernel vector of D(p_k) for one mode.

    ``u`` holds the amplitude components (U1, U2, A1, A2, B); ``aux`` the
    intermediate scalars of the closed form.
    """

    mode: ModeRoot
    p: AttenuationExponent
    u: np.ndarray
    aux: dict

    def unit(self) -> np.ndarray:
        """The kernel vector scaled so its largest component is 1."""
        return self.u / self.u[int(np.argmax(np.abs(self.u)))]


def _kernel_dimension(D: Matrix5, rel_tol: float = NULLSPACE_RTOL) -> int:
    s = np.linalg.svd(D, compute_uv=False)
    return int(np.sum(s <= rel_tol * s[0]))


def mode_vector(M: MaterialCoefficients, v: ComplexSpeed, r: ModeRoot) -> ModeBasis:
    """Closed-form kernel vector for one mode root.

    The closed forms divide by eps2, m, and beta, so all three couplings
    must be nonzero; decoupled materials are served by the dedicated
    case routines.

    Raises
    ------
    UnsupportedCouplingError
        If eps2, m, or beta vanishes.
    NonDecayingError
        Propagated from the branch selection.
    DegenerateKernelError
        If the numeric kernel of D(p_k) does not have dimension one, or the
        closed form degenerates to the zero vector.
    """
    if M.eps2 == 0.0 or M.m == 0.0 or M.beta == 0.0:
        raise UnsupportedCouplingError(
            "closed-form kernels require eps2 != 0, m != 0 and beta != 0"
        )
    ae = p_from_t(v, r.t, r.index)
    p = ae.p
    t = r.t
    vc = complex(v)

    if r.source == "q2":
        phi = (M.b / M.eps2) * (t - M.d2 / M.b)
        u = np.array([-p * phi, phi, -p, 1.0, 0.0], dtype=complex)
        aux = {"Phi": phi}
    else:
        e12 = M.eps_long
        # d, not d2: the longitudinal block couples through the full thermal
        # stiffness, and only this choice makes B consistent across rows.
        gamma = M.b * M.beta * (t - M.d / M.b) + M.m * e12
        lam_k = M.rho * M.m * (t - M.p_wave_modulus / M.rho) + M.beta * e12
        b_k = (vc / (M.m * M.beta * t)) * (
            gamma * lam_k - e12 * (M.beta * gamma + M.m * lam_k)
        )
        u = np.array([gamma, p * gamma, lam_k, p * lam_k, b_k], dtype=complex)
        aux = {"Gamma": gamma, "Lambda": lam_k, "B": b_k}

    if not np.any(u):
        raise DegenerateKernelError(f"closed-form kernel vector vanishes for mode {r.index}")
    if _kernel_dimension(assemble_Dp(M, v, p)) != 1:
        raise DegenerateKernelError(
            f"propagation matrix kernel at mode {r.index} is not one-dimensional"
        )
    return ModeBasis(mode=r, p=ae, u=u, aux=aux)


def polarization_check(mb: ModeBasis) -> str:
    """Classify a mode against the propagation direction n = (1, p).

    Both the displacement pair (U1, U2) and the microtemperature pair
    (A1, A2) must agree: transverse modes have vanishing bilinear dot
    product with n, longitudinal modes have vanishing cross product.  The
    products are unconjugated, matching the analytic structure rather than
    the Hermitian inner product.

    Raises
    ------
    DomainError
        If neither test passes within tolerance for both pairs.
    """
    p = mb.p.p
    n_norm = (1.0 + abs(p) ** 2) ** 0.5

    def dot_and_cross(c1, c2):
        tol = POLARIZATION_RTOL * max(max(abs(c1), abs(c2)) * n_norm, 1e-300)
        dot = c1 + c2 * p
        cross = c1 * p - c2
        return dot, cross, tol

    pairs = [dot_and_cross(mb.u[0], mb.u[1]), dot_and_cross(mb.u[2], mb.u[3])]
    if all(abs(dot) <= tol for dot, _, tol in pairs):
        return "orthogonal"
    if all(abs(cross) <= tol for _, cross, tol in pairs):
        return "parallel"
    raise DomainError("mode is neither transverse nor longitudinal within tolerance")
