"""Decoupled coupling regimes with fully explicit solutions.

When some coupling coefficients vanish the quintic propagation condition
factors into quadratics, so every squared mode speed, kernel vector, and
(for two of the regimes) the secular function itself has a closed form.
These routes exist to cross-check the general pipeline, and to serve
materials the general closed-form kernels cannot (they divide by the
couplings).

Mode indices always follow the root order: 1-2 transverse pair, 3-5 cubic
group, matching the general pipeline, so each kernel vector is paired with
the root whose identities it satisfies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKernelError,
    DegenerateRootsError,
    NotStronglyEllipticError,
    WrongCaseError,
)
from .material import (
    CouplingCase,
    MaterialCoefficients,
    check_strong_ellipticity,
    classify_coupling,
)
from .modes import (
    AttenuationExponent,
    ComplexSpeed,
    ModeBasis,
    assemble_Dp,
    p_from_t,
    _kernel_dimension,
)
from .secular import assemble_Sp, det_elimination
from .spectrum import GAP_RTOL, ModeRoot, mode_speeds

#: The regimes served by this module.
EXPLICIT_CASES = (CouplingCase.CASE_I, CouplingCase.CASE_II, CouplingCase.CASE_III)


@dataclass(frozen=True)
class CaseRootSet:
    """Squared mode speeds of a decoupled material, with formula labels."""

    case: CouplingCase
    roots: tuple
    labels: tuple

    def t_values(self) -> tuple:
        return tuple(r.t for r in self.roots)

    def __iter__(self):
        return iter(self.roots)


def _require_case(M: MaterialCoefficients, case: CouplingCase) -> None:
    if case not in EXPLICIT_CASES:
        raise WrongCaseError(expected="one of the decoupled cases", actual=case.value)
    actual = classify_coupling(M)
    if actual is not case:
        raise WrongCaseError(expected=case.value, actual=actual.value)
    report = check_strong_ellipticity(M)
    if not report.passed:
        raise NotStronglyEllipticError(report.violations)


def roots_case(M: MaterialCoefficients, case: CouplingCase) -> CaseRootSet:
    """Closed-form squared mode speeds for one decoupled regime.

    Raises
    ------
    WrongCaseError
        If the material does not classify as the requested case.
    NotStronglyEllipticError
        If the material is inadmissible.
    DegenerateRootsError
        If any two of the five speeds coincide; the kernel pairing then
        breaks down and the material needs a different treatment.
    """
    _require_case(M, case)
    pw = M.p_wave_modulus
    rho, A, B, k = M.rho, M.a, M.b, M.k
    d = M.d

    if case is CouplingCase.CASE_I:
        t1, t2 = M.mu / rho, M.d2 / B
        t3 = pw / rho
        disc = M.m ** 4 + (A * d - B * k) ** 2 + 2.0 * M.m ** 2 * (A * d + B * k)
        s = math.sqrt(disc)
        t4 = (M.m ** 2 + A * d + B * k + s) / (2.0 * A * B)
        t5 = (M.m ** 2 + A * d + B * k - s) / (2.0 * A * B)
        labels = ("mu/rho", "d2/b", "(lambda+2mu)/rho", "radical+", "radical-")
    elif case is CouplingCase.CASE_II:
        t1, t2 = M.mu / rho, M.d2 / B
        t3 = d / B
        disc = (M.beta ** 4 + (A * pw - rho * k) ** 2
                + 2.0 * M.beta ** 2 * (A * pw + rho * k))
        s = math.sqrt(disc)
        t4 = (A * pw + M.beta ** 2 + k * rho + s) / (2.0 * A * rho)
        t5 = (A * pw + M.beta ** 2 + k * rho - s) / (2.0 * A * rho)
        labels = ("mu/rho", "d2/b", "d/b", "radical+", "radical-")
    else:
        disc2 = (M.mu * B - rho * M.d2) ** 2 + 4.0 * rho * B * M.eps2 ** 2
        s2 = math.sqrt(disc2)
        t1 = (M.mu * B + rho * M.d2 + s2) / (2.0 * rho * B)
        t2 = (M.mu * B + rho * M.d2 - s2) / (2.0 * rho * B)
        t3 = k / A
        disc = (B * pw - rho * d) ** 2 + 4.0 * rho * B * M.eps_long ** 2
        s = math.sqrt(disc)
        t4 = (B * pw + d * rho + s) / (2.0 * rho * B)
        t5 = (B * pw + d * rho - s) / (2.0 * rho * B)
        labels = ("transverse+", "transverse-", "k/a", "radical+", "radical-")

    ts = (t1, t2, t3, t4, t5)
    tol = GAP_RTOL * max(abs(t) for t in ts)
    for i in range(5):
        for j in range(i + 1, 5):
            if abs(ts[i] - ts[j]) <= tol:
                raise DegenerateRootsError(
                    f"{case.value} speeds {labels[i]} and {labels[j]} coincide at t = {ts[i]!r}"
                )
    sources = ("q2", "q2", "q3", "q3", "q3")
    roots = tuple(
        ModeRoot(index, t, source)
        for index, (t, source) in enumerate(zip(ts, sources), start=1)
    )
    return CaseRootSet(case=case, roots=roots, labels=labels)


def _case_kernel_vectors(M: MaterialCoefficients, v: ComplexSpeed,
                         rs: CaseRootSet) -> list:
    """Closed-form kernel vectors, one per case root, in root order."""
    vc = complex(v)
    t = rs.t_values()
    p = [p_from_t(v, r.t, r.index).p for r in rs.roots]

    if rs.case is CouplingCase.CASE_I:
        pi4 = M.m ** 2 * t[3] + (M.a * t[3] - M.k) * (M.d1 + M.d3)
        pi5 = M.m ** 2 * t[4] + (M.a * t[4] - M.k) * (M.d1 + M.d3)
        vectors = [
            np.array([-p[0], 1.0, 0.0, 0.0, 0.0], dtype=complex),
            np.array([0.0, 0.0, -p[1], 1.0, 0.0], dtype=complex),
            np.array([1.0, p[2], 0.0, 0.0, 0.0], dtype=complex),
            np.array([0.0, 0.0, pi4, p[3] * pi4,
                      M.m * vc * (M.b * t[3] - M.d2)], dtype=complex),
            np.array([0.0, 0.0, pi5, p[4] * pi5,
                      M.m * vc * (M.b * t[4] - M.d2)], dtype=complex),
        ]
        aux = [{}, {}, {}, {"Pi": pi4}, {"Pi": pi5}]
    elif rs.case is CouplingCase.CASE_II:
        om4 = M.beta ** 2 * t[3] + (M.a * t[3] - M.k) * (M.lam + M.mu)
        om5 = M.beta ** 2 * t[4] + (M.a * t[4] - M.k) * (M.lam + M.mu)
        vectors = [
            np.array([-p[0], 1.0, 0.0, 0.0, 0.0], dtype=complex),
            np.array([0.0, 0.0, -p[1], 1.0, 0.0], dtype=complex),
            np.array([0.0, 0.0, 1.0, p[2], 0.0], dtype=complex),
            np.array([om4, p[3] * om4, 0.0, 0.0,
                      M.beta * vc * (M.rho * t[3] - M.mu)], dtype=complex),
            np.array([om5, p[4] * om5, 0.0, 0.0,
                      M.beta * vc * (M.rho * t[4] - M.mu)], dtype=complex),
        ]
        aux = [{}, {}, {}, {"Omega": om4}, {"Omega": om5}]
    else:
        e12 = M.eps_long
        psi_hat = [M.rho * t[0] - M.mu, M.rho * t[1] - M.mu]
        psi = [M.rho * t[3] - M.p_wave_modulus, M.rho * t[4] - M.p_wave_modulus]
        vectors = [
            np.array([-M.eps2 * p[0], M.eps2, -p[0] * psi_hat[0], psi_hat[0], 0.0],
                     dtype=complex),
            np.array([-M.eps2 * p[1], M.eps2, -p[1] * psi_hat[1], psi_hat[1], 0.0],
                     dtype=complex),
            np.array([0.0, 0.0, 0.0, 0.0, M.eps2], dtype=complex),
            np.array([e12, e12 * p[3], psi[0], p[3] * psi[0], 0.0], dtype=complex),
            np.array([e12, e12 * p[4], psi[1], p[4] * psi[1], 0.0], dtype=complex),
        ]
        aux = [{"Psi_hat": psi_hat[0]}, {"Psi_hat": psi_hat[1]}, {},
               {"Psi": psi[0]}, {"Psi": psi[1]}]

    return [
        ModeBasis(
            mode=root,
            p=AttenuationExponent(p=p[idx], mode_index=root.index),
            u=vectors[idx],
            aux=aux[idx],
        )
        for idx, root in enumerate(rs.roots)
    ]


def mode_vectors_case(M: MaterialCoefficients, v: ComplexSpeed,
                      case: CouplingCase) -> list:
    """Closed-form kernel vectors for one decoupled regime, in root order.

    Every vector is verified to span a one-dimensional numeric kernel of
    its propagation matrix.

    Raises
    ------
    WrongCaseError, NotStronglyEllipticError, DegenerateRootsError
        Propagated from the root computation.
    NonDecayingError
        Propagated from the branch selection.
    DegenerateKernelError
        If any kernel is not one-dimensional or a closed form vanishes.
    """
    rs = roots_case(M, case)
    bases = _case_kernel_vectors(M, v, rs)
    for mb in bases:
        if not np.any(mb.u):
            raise DegenerateKernelError(
                f"closed-form kernel vector vanishes for mode {mb.mode.index}"
            )
        if _kernel_dimension(assemble_Dp(M, v, mb.p.p)) != 1:
            raise DegenerateKernelError(
                f"propagation matrix kernel at mode {mb.mode.index} is not one-dimensional"
            )
    return bases


def secular_case_det(M: MaterialCoefficients, v: ComplexSpeed,
                     case: CouplingCase) -> complex:
    """Secular determinant built from the case kernel vectors.

    Available for all three decoupled regimes; for the third it is the only
    secular route.
    """
    bases = mode_vectors_case(M, v, case)
    cols = [assemble_Sp(M, v, mb.p.p) @ mb.u for mb in bases]
    return det_elimination(np.stack(cols, axis=1))


def _case_i_expression(M: MaterialCoefficients, p, t, vc: complex) -> complex:
    mu, a, b, d, k, m = M.mu, M.a, M.b, M.d, M.k, M.m
    d23 = M.d2 + M.d3
    v2 = vc * vc
    bv = b * v2 - d23
    classical = 4.0 * mu ** 2 * p[0] * p[1] + (M.rho * v2 - 2.0 * mu) ** 2
    inner = (
        b * p[3] * bv * ((k - a * t[4]) * bv + m ** 2 * v2)
        + p[4] * (
            p[2] * p[3] * d23 ** 2 * (-2.0 * a * b * t[4] + a * d + b * k)
            + a * (d - b * t[4]) * bv ** 2
            + m ** 2 * d23 * ((p[2] * p[3] + 1.0) * d23 - b * v2)
        )
    )
    return vc * classical * inner


def _case_ii_expression(M: MaterialCoefficients, p, t, vc: complex) -> complex:
    mu, a, k, rho, beta = M.mu, M.a, M.k, M.rho, M.beta
    pw = M.p_wave_modulus
    d23 = M.d2 + M.d3
    v2 = vc * vc
    bv = M.b * v2 - d23
    micro = bv ** 2 + p[1] * p[2] * d23 ** 2
    inner = (
        p[3] * rho * (rho * v2 - 2.0 * mu)
        * (beta * v2 - (k - a * t[4]) * (2.0 * mu - rho * v2))
        + p[4] * (
            4.0 * mu ** 2 * p[0] * p[3] * (a * (pw - 2.0 * rho * t[4]) + k * rho)
            + a * (rho * v2 - 2.0 * mu) ** 2 * (pw - rho * t[4])
            + 2.0 * beta ** 2 * mu * (2.0 * mu + 2.0 * mu * p[0] * p[3] - rho * v2)
        )
    )
    return vc * micro * inner


def secular_case_explicit(M: MaterialCoefficients, v: ComplexSpeed,
                          case: CouplingCase) -> complex:
    """Fully expanded secular expression for the first two regimes.

    The third regime has no tractable expansion; use
    :func:`secular_case_det` there.

    Raises
    ------
    WrongCaseError
        If the material is not of the requested case, or the case has no
        explicit expansion.
    """
    if case is CouplingCase.CASE_III:
        raise WrongCaseError(expected="case_i or case_ii", actual=case.value)
    rs = roots_case(M, case)
    t = rs.t_values()
    p = [p_from_t(v, r.t, r.index).p for r in rs.roots]
    if case is CouplingCase.CASE_I:
        return _case_i_expression(M, p, t, complex(v))
    return _case_ii_expression(M, p, t, complex(v))


def reduced_cubic_coefficients(M: MaterialCoefficients, case: CouplingCase) -> tuple:
    """(b4, b2, b0) of the cubic factor from the case factorization.

    Expands the product of the linear root and the quadratic factor into
    monic form; must match the general coefficients once the case's
    couplings vanish.
    """
    _require_case(M, case)
    pw = M.p_wave_modulus
    if case is CouplingCase.CASE_I:
        u = pw / M.rho
        c1 = (M.m ** 2 + M.a * M.d + M.b * M.k) / (M.a * M.b)
        c0 = M.k * M.d / (M.a * M.b)
    elif case is CouplingCase.CASE_II:
        u = M.d / M.b
        c1 = (M.a * pw + M.beta ** 2 + M.k * M.rho) / (M.a * M.rho)
        c0 = pw * M.k / (M.a * M.rho)
    else:
        u = M.k / M.a
        c1 = (M.b * pw + M.d * M.rho) / (M.rho * M.b)
        c0 = (pw * M.d - M.eps_long ** 2) / (M.rho * M.b)
    return (u + c1, u * c1 + c0, u * c0)


@dataclass(frozen=True)
class CaseCrossCheck:
    """Zero-set agreement of the explicit secular expression and the
    determinant over a sample of admissible speeds."""

    case: CouplingCase
    total: int
    agreements: int
    explicit_roots: int
    det_roots: int

    @property
    def agreed(self) -> bool:
        return self.agreements == self.total


def cross_check_case(M: MaterialCoefficients, case: CouplingCase,
                     n_samples: int = 200, seed: int = 20240814,
                     root_rtol: float = 1e-6) -> CaseCrossCheck:
    """Compare the explicit secular expression against the determinant.

    Both functions are evaluated at ``n_samples`` random admissible speeds;
    a sample counts as a root of either function when its magnitude falls
    below ``root_rtol`` times that function's median magnitude over the
    sample set.  Agreement means both functions give the same root flag.
    Only the first two regimes have explicit expressions.

    Raises
    ------
    WrongCaseError
        Propagated when the material or the case does not fit.
    """
    rs = roots_case(M, case)
    c = math.sqrt(min(rs.t_values()))
    rng = np.random.default_rng(seed)
    v_res = rng.uniform(0.05 * c, 0.95 * c, n_samples)
    v_ims = rng.uniform(0.0, 0.4 * c, n_samples)

    explicit_mags = np.empty(n_samples)
    det_mags = np.empty(n_samples)
    for i in range(n_samples):
        v = ComplexSpeed(v_res[i], v_ims[i])
        explicit_mags[i] = abs(secular_case_explicit(M, v, case))
        det_mags[i] = abs(secular_case_det(M, v, case))

    explicit_flags = explicit_mags <= root_rtol * np.median(explicit_mags)
    det_flags = det_mags <= root_rtol * np.median(det_mags)
    return CaseCrossCheck(
        case=case,
        total=n_samples,
        agreements=int(np.sum(explicit_flags == det_flags)),
        explicit_roots=int(np.sum(explicit_flags)),
        det_roots=int(np.sum(det_flags)),
    )


@dataclass(frozen=True)
class LimitReport:
    """Convergence of the general roots to a case's closed forms."""

    case: CouplingCase
    scales: tuple
    gaps: tuple
    limit_ts: tuple

    @property
    def rates(self) -> tuple:
        """Convergence order of gap vs coupling scale between steps."""
        out = []
        for i in range(len(self.gaps) - 1):
            if self.gaps[i] > 0.0 and self.gaps[i + 1] > 0.0:
                out.append(
                    math.log(self.gaps[i + 1] / self.gaps[i])
                    / math.log(self.scales[i + 1] / self.scales[i])
                )
            else:
                out.append(float("inf"))
        return tuple(out)

    @property
    def converged(self) -> bool:
        return self.gaps[-1] <= 1e-4


_CASE_ZEROED_FIELDS = {
    CouplingCase.CASE_I: ("beta", "eps1", "eps2"),
    CouplingCase.CASE_II: ("m", "eps1", "eps2"),
    CouplingCase.CASE_III: ("beta", "m"),
}


def limit_consistency(M_general: MaterialCoefficients, case: CouplingCase,
                      scales: tuple = (1e-2, 1e-4, 1e-6)) -> LimitReport:
    """Drive the case's couplings to zero and compare root sets.

    The couplings the case requires to vanish are scaled by each factor in
    ``scales``; the general pipeline roots of every scaled material are
    compared against the closed forms of the fully decoupled material.

    Raises
    ------
    WrongCaseError
        If zeroing the couplings does not produce a material of the case.
    """
    if case not in _CASE_ZEROED_FIELDS:
        raise WrongCaseError(expected="one of the decoupled cases", actual=case.value)
    fields = _CASE_ZEROED_FIELDS[case]
    M_limit = M_general.replace(**{name: 0.0 for name in fields})
    target = sorted(roots_case(M_limit, case).t_values())

    gaps = []
    for scale in scales:
        M_scaled = M_general.replace(
            **{name: getattr(M_general, name) * scale for name in fields}
        )
        ts = sorted(mode_speeds(M_scaled).t_values())
        gaps.append(max(abs(x - y) for x, y in zip(ts, target)))
    return LimitReport(case=case, scales=tuple(scales), gaps=tuple(gaps),
                       limit_ts=tuple(target))
