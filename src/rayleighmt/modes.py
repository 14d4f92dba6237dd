"""Depth modes of the surface-wave ansatz.

For a complex speed v and a squared mode speed t, the depth dependence of
one partial wave is exp(i kappa p x2) with p the attenuation exponent
satisfying t (p^2 + 1) = v^2 and Im p > 0.  Substituting the ansatz into
the field equations gives a 5x5 propagation matrix D(p) acting on the
amplitude vector (U1, U2, A1, A2, B); its kernel at p = p_k carries the
mode shape.  ``material_blocks`` is the one table of where each
constitutive coefficient enters D(p) and the surface flux operator S(p);
``assemble_Dp`` and the batched secular kernel (``secular.SecularKernel``)
evaluate it.  ``kernel_row`` holds the closed forms of those kernel
vectors for every coupling regime the solver handles, the general one and
the paper's three decoupled cases, written once as u = u0 + p u1 + v u2;
``mode_vector`` and the batched secular kernel both read it, and the tests
check it against an SVD nullspace and a 40-digit one.  ``mode_shapes``
gives the decaying branch p_k and u with the same bits on every route: the
batched kernel, ``p_from_t``, ``mode_vector``, the run in q, the case check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKernelError,
    DomainError,
    NonDecayingError,
    UnsupportedCouplingError,
)
from .material import (
    CASE_ZEROED_COUPLINGS,
    CouplingCase,
    MaterialCoefficients,
    classify_coupling,
)
from .spectrum import ModeRoot, roots_q2

#: 5x5 complex matrix (plain ndarray; the alias only documents intent).
Matrix5 = np.ndarray

#: Relative singular-value threshold below which a direction counts as null.
NULLSPACE_RTOL = 1e-10

#: Relative tolerance for the bilinear polarization tests.
POLARIZATION_RTOL = 1e-10

#: Distance relative to t within which Gamma and Lambda cancel (``kernel_row``).
CANCEL_RTOL = 1e-6


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


def mode_shapes(v: np.ndarray, t: np.ndarray, u0, u1, u2) -> tuple:
    """``(p, u)`` at complex speeds v (n,) for squared mode speeds t (m,) and
    closed forms u0, u1, u2 (m, 5) of ``kernel_row`` (zeros where only p is
    wanted).  p (n, m) is the square root of v^2 / t - 1 with Im p > 0 where
    one has it: one does in the open quadrant, and on the real axis both
    are imaginary or neither is.  u (n, m, 5) is u0 + p u1 + v u2.  An
    overflow leaves a NaN or infinite entry, and Im p > 0 fails on NaN."""
    vv = v[:, None]
    with np.errstate(all="ignore"):
        root = np.sqrt(vv * vv / t - 1.0)
        p = np.where(root.imag > 0.0, root, -root)
        return p, u0 + p[..., None] * u1 + vv[..., None] * u2


def p_from_t(v: ComplexSpeed, t: float, mode_index: int = 0) -> AttenuationExponent:
    """The decaying branch of p from t (p^2 + 1) = v^2: ``mode_shapes`` at
    one speed and one squared mode speed.

    Raises
    ------
    NonDecayingError
        If no candidate has Im p > 0: both are real, or an overflowing
        v^2 made them NaN.
    DomainError
        If t is not positive.
    """
    if not t > 0.0:
        raise DomainError(f"squared mode speed must be positive, got {t!r}")
    vc = complex(v)
    p = complex(mode_shapes(np.array([vc]), np.array([t]), 0.0, 0.0, 0.0)[0][0, 0])
    if not p.imag > 0.0:
        raise NonDecayingError(t=t, v=vc, mode_index=mode_index)
    return AttenuationExponent(p=p, mode_index=mode_index)


#: The constant blocks of D(p) = p^2 Q1 + p (Q2 + v V) + R0 + v R1 + v^2 R2
#: and S(p) = p Q1 + S0 + v V: one block a line, its five rows split by "|",
#: each entry the name of the coefficient there (``material_blocks``).  It
#: is read once into ``_SLOTS``, so a table converts twenty values, not 175.
_LAYOUT = """
Q1: mu 0 e2 0 0 | 0 pw 0 e12 0 | e2 0 d2 0 0 | 0 e12 0 d 0 | 0 0 0 0 k
Q2: 0 lm 0 ee 0 | lm 0 ee 0 0 | 0 ee 0 dd 0 | ee 0 dd 0 0 | 0 0 0 0 0
V:  0 0 0 0 0 | 0 0 0 0 beta | 0 0 0 0 0 | 0 0 0 0 m | 0 beta 0 m 0
R0: pw 0 e12 0 0 | 0 mu 0 e2 0 | e12 0 d 0 0 | 0 e2 0 d2 0 | 0 0 0 0 k
R1: 0 0 0 0 beta | 0 0 0 0 0 | 0 0 0 0 m | 0 0 0 0 0 | beta 0 m 0 0
R2: -rho 0 0 0 0 | 0 -rho 0 0 0 | 0 0 -b 0 0 | 0 0 0 -b 0 | 0 0 0 0 -a
S0: 0 mu 0 e2 0 | lam 0 e1 0 0 | 0 e1 0 d3 0 | e2 0 d1 0 0 | 0 0 0 0 0
"""
_ENTRIES = [line.split(":")[1].replace("|", " ").split()
            for line in _LAYOUT.strip().splitlines()]
_NAMES = sorted({name for block in _ENTRIES for name in block})
_SLOTS = np.array([[_NAMES.index(x) for x in block] for block in _ENTRIES]).reshape(7, 5, 5)


def material_blocks(M: MaterialCoefficients) -> tuple:
    """Constant blocks ``(Q1, Q2, V, R0, R1, R2, S0)`` of ``_LAYOUT``: the
    only place a coefficient enters D(p) or the boundary flux operator S(p),
    which maps (U1, U2, A1, A2, B) to the fluxes (t21, t22, L21, L22, S2).
    S0 is not symmetric in the couplings (lambda against (lambda+2mu)p, d3
    against d1, eps1 against eps2): its rows follow the constitutive fluxes
    through the surface x2 = 0.  The blocks are built on first use and kept
    on the (frozen) material as read-only arrays.
    """
    return M.memo("_material_blocks", _build_blocks)


def _build_blocks(M: MaterialCoefficients) -> tuple:
    value = {
        "0": 0.0, "lam": M.lam, "mu": M.mu, "pw": M.p_wave_modulus, "lm": M.lam + M.mu,
        "e1": M.eps1, "e2": M.eps2, "e12": M.eps_long, "ee": M.eps1 + M.eps2,
        "d": M.d, "d1": M.d1, "d2": M.d2, "d3": M.d3, "dd": M.d1 + M.d3, "k": M.k,
        "beta": M.beta, "m": M.m, "-rho": -M.rho, "-b": -M.b, "-a": -M.a,
    }
    table = np.array([value[name] for name in _NAMES], dtype=complex)[_SLOTS]
    table.flags.writeable = False
    return tuple(table)


def assemble_Dp(M: MaterialCoefficients, v: ComplexSpeed, p: complex) -> Matrix5:
    """Propagation matrix D(p) for one attenuation exponent."""
    q1, q2, v_lin, r0, r1, r2, _ = material_blocks(M)
    vc = complex(v)
    return (p * p) * q1 + p * (q2 + vc * v_lin) + (r0 + vc * r1 + (vc * vc) * r2)


def numeric_nullspace(D: Matrix5) -> list:
    """Unit kernel vectors of D, ordered by increasing singular value.

    A right singular direction belongs to the kernel when its singular
    value is at most ``NULLSPACE_RTOL`` times the largest one.
    """
    _, s, vh = np.linalg.svd(D)
    tol = NULLSPACE_RTOL * s[0]
    return [vh[i].conj() for i in range(len(s) - 1, -1, -1) if s[i] <= tol]


def case_speeds(M: MaterialCoefficients, case: CouplingCase) -> tuple:
    """Closed-form squared mode speeds of a decoupled regime, as
    ``(t, label, factor)`` triples.

    In each regime the transverse factor q2 and the cubic factor q3 split:
    the five speeds are the transverse pair, the root of the cubic's linear
    factor, then the two roots (num +- sqrt(disc)) / den of its quadratic
    factor, in that order (``_case_factors``).
    """
    pair, linear, num, disc, den = _case_factors(M, case)
    s = math.sqrt(disc)
    return (*((t, label, "q2") for t, label in pair), (*linear, "q3"),
            ((num + s) / den, "radical+", "q3"), ((num - s) / den, "radical-", "q3"))


def _case_factors(M: MaterialCoefficients, case: CouplingCase) -> tuple:
    """``(pair, linear, num, disc, den)`` of a decoupled regime, for
    ``case_speeds`` and ``special_cases.reduced_cubic_coefficients``."""
    pw = M.p_wave_modulus
    rho, A, B, k, d = M.rho, M.a, M.b, M.k, M.d
    pair = ((M.mu / rho, "mu/rho"), (M.d2 / B, "d2/b"))
    if case is CouplingCase.CASE_I:
        linear = (pw / rho, "(lambda+2mu)/rho")
        disc = M.m ** 4 + (A * d - B * k) ** 2 + 2.0 * M.m ** 2 * (A * d + B * k)
        num, den = M.m ** 2 + A * d + B * k, 2.0 * A * B
    elif case is CouplingCase.CASE_II:
        linear = (d / B, "d/b")
        disc = (M.beta ** 4 + (A * pw - rho * k) ** 2
                + 2.0 * M.beta ** 2 * (A * pw + rho * k))
        num, den = A * pw + M.beta ** 2 + k * rho, 2.0 * A * rho
    else:
        pair = tuple(zip(roots_q2(M), ("transverse+", "transverse-")))
        linear = (k / A, "k/a")
        disc = (B * pw - rho * d) ** 2 + 4.0 * rho * B * M.eps_long ** 2
        num, den = B * pw + d * rho, 2.0 * rho * B
    return pair, linear, num, disc, den


_ZERO = (0.0,) * 5


def _transverse(x, y) -> tuple:
    """(u0, u1, u2) of u = (-p x, x, -p y, y, 0)."""
    return (0.0, x, 0.0, y, 0.0), (-x, 0.0, -y, 0.0, 0.0), _ZERO


def _longitudinal(x, y, z) -> tuple:
    """(u0, u1, u2) of u = (x, p x, y, p y, v z)."""
    return (x, 0.0, y, 0.0, 0.0), (0.0, x, 0.0, y, 0.0), (0.0, 0.0, 0.0, 0.0, z)


def kernel_row(M: MaterialCoefficients, r: ModeRoot) -> tuple:
    """Closed-form kernel vector of D(p) at one mode root.

    Returns ``(u0, u1, u2)``, three 5-tuples of floats: the kernel of
    D(p_k) at speed v is spanned by u0 + p_k u1 + v u2, with coefficients
    that depend on the material and t_k alone.  A general material takes
    the transverse row (Phi) or the longitudinal row (Gamma, Lambda and the
    B factor) by the root's factor, the latter replaced within
    ``CANCEL_RTOL`` of a common root of Gamma and Lambda, where it cancels.
    A decoupled material takes the row of the closed-form speed
    (``case_speeds``) its t lies nearest to, so a root gets the same row
    whatever its index.

    This is the one place that judges a row.  With distinct mode speeds
    p_k^2 is a simple root of det D(p), so a nonzero row spans its kernel;
    and u vanishes only where its whole row does (each component takes one
    term at most, p != 0 and v != 0), which is refused here.

    Raises
    ------
    UnsupportedCouplingError
        For a DEGENERATE material, and for a GENERAL one with eps2 = 0:
        the general rows divide by eps2, m and beta.
    DomainError
        If the squared mode speed is not positive.
    DegenerateKernelError
        If the row is all zeros.
    """
    row = _closed_form(M, r)
    if not np.any(row):
        raise DegenerateKernelError(f"closed-form kernel vector vanishes for mode {r.index}")
    return row


def _closed_form(M: MaterialCoefficients, r: ModeRoot) -> tuple:
    general = M.eps2 != 0.0 and M.m != 0.0 and M.beta != 0.0
    case = None if general else classify_coupling(M)
    if case is not None and case not in CASE_ZEROED_COUPLINGS:
        raise UnsupportedCouplingError(
            f"no closed-form kernels for a {case.value} material with eps2 = {M.eps2!r}"
        )
    t = r.t
    if not t > 0.0:
        raise DomainError(f"squared mode speed must be positive, got {t!r}")
    e12 = M.eps_long
    if general and r.source == "q2":
        return _transverse((M.b / M.eps2) * (t - M.d2 / M.b), 1.0)
    if general:
        # d, not d2: the longitudinal block couples through the full thermal
        # stiffness, and only this choice makes B consistent across rows.
        gamma = M.b * M.beta * (t - M.d / M.b) + M.m * e12
        lam_k = M.rho * M.m * (t - M.p_wave_modulus / M.rho) + M.beta * e12
        if max(abs(gamma / (M.b * M.beta)), abs(lam_k / (M.rho * M.m))) > CANCEL_RTOL * t:
            return _longitudinal(gamma, lam_k, (gamma * lam_k - e12 * (
                M.beta * gamma + M.m * lam_k)) / (M.m * M.beta * t))
        # (gamma, lam_k) is along the cross product of rows 1 and 2 of the system
        # (pw - rho t, e12, beta t; e12, d - b t, m t; beta, m, k - a t) (x, y, z) = 0,
        # parallel at a common root of both (as eps1 + 2 eps2 = 0, rho d = b pw): use 1 and 3
        ak = M.k - M.a * t
        return _longitudinal(e12 * ak - M.beta * M.m * t,
                             M.beta ** 2 * t + (M.rho * t - M.p_wave_modulus) * ak, -lam_k)
    ts = [speed for speed, _, _ in case_speeds(M, case)]
    slot = min(range(5), key=lambda j: abs(ts[j] - t))
    if case is CouplingCase.CASE_III:
        if slot < 2:
            return _transverse(M.eps2, M.rho * t - M.mu)
        if slot == 2:
            return (0.0, 0.0, 0.0, 0.0, M.eps2), _ZERO, _ZERO  # thermal, at k/a
        if e12 == 0.0:
            # eps1 + 2 eps2 = 0 decouples the P wave at (lambda+2mu)/rho from
            # the longitudinal microtemperature wave at d/b
            return _longitudinal(M.b * t - M.d, M.rho * t - M.p_wave_modulus, 0.0)
        return _longitudinal(e12, M.rho * t - M.p_wave_modulus, 0.0)
    if slot < 2:
        # the shear wave at mu/rho or the microtemperature one at d2/b
        return _transverse(float(slot == 0), float(slot == 1))
    if slot == 2:
        # the P wave at (lambda+2mu)/rho (case I) or the longitudinal
        # microtemperature wave at d/b (case II)
        first = case is CouplingCase.CASE_I
        return _longitudinal(float(first), float(not first), 0.0)
    if case is CouplingCase.CASE_I:
        pi = M.m ** 2 * t + (M.a * t - M.k) * (M.d1 + M.d3)
        return _longitudinal(0.0, pi, M.m * (M.b * t - M.d2))
    om = M.beta ** 2 * t + (M.a * t - M.k) * (M.lam + M.mu)
    return _longitudinal(om, 0.0, M.beta * (M.rho * t - M.mu))


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """Closed-form kernel vector of D(p_k) for one mode.

    ``u`` holds the amplitude components (U1, U2, A1, A2, B).
    """

    mode: ModeRoot
    p: AttenuationExponent
    u: np.ndarray


def mode_vector(M: MaterialCoefficients, v: ComplexSpeed, r: ModeRoot) -> ModeBasis:
    """Closed-form kernel vector for one mode root, from ``kernel_row``.

    The root may come from ``mode_speeds`` or, for a decoupled material,
    from ``special_cases.roots_case``; both get the same vector.  D(p_k) is
    not built (``kernel_row`` says why).

    Raises
    ------
    UnsupportedCouplingError, DomainError, DegenerateKernelError
        From ``kernel_row``, at any speed: the owner of the rule that u != 0.
    NonDecayingError
        Where ``p_from_t`` raises it: no decaying branch, or a NaN one.
    numpy.linalg.LinAlgError
        If p_k or u_k overflows, as the batched kernel names such a mode.
    """
    vc = complex(v)
    p, u = mode_shapes(np.array([vc]), np.array([r.t]), *np.array(kernel_row(M, r))[:, None])
    p, u = complex(p[0, 0]), u[0, 0]
    if not p.imag > 0.0:
        raise NonDecayingError(t=r.t, v=vc, mode_index=r.index)
    if not (cmath.isfinite(p) and np.isfinite(u).all()):
        raise np.linalg.LinAlgError(f"kernel vector of mode {r.index} is not finite")
    return ModeBasis(mode=r, p=AttenuationExponent(p=p, mode_index=r.index), u=u)


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
    # (dot, cross, tolerance) of the displacement and microtemperature pairs
    pairs = [(c1 + c2 * p, c1 * p - c2,
              POLARIZATION_RTOL * max(max(abs(c1), abs(c2)) * n_norm, 1e-300))
             for c1, c2 in (mb.u[0:2], mb.u[2:4])]
    if all(abs(dot) <= tol for dot, _, tol in pairs):
        return "orthogonal"
    if all(abs(cross) <= tol for _, cross, tol in pairs):
        return "parallel"
    raise DomainError("mode is neither transverse nor longitudinal within tolerance")
