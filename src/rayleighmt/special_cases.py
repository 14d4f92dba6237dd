"""Decoupled coupling regimes: labelled roots and explicit secular forms.

When some coupling coefficients vanish the quintic propagation condition
factors into quadratics, so every squared mode speed and (for two of the
regimes) the secular function itself has a closed form.  The kernel
vectors and the batched secular kernel are those of the general pipeline
(``modes.kernel_row`` holds the rows of every regime), so ``scan`` and
``solve`` handle these materials like any other, and the determinant of
a case is ``point_det``'s.  This module adds the paper's labelled speeds,
its explicit secular expansions and the checks that tie them to the
determinant and to the general route.

Roots are numbered in the label order of ``modes.case_speeds`` (transverse
pair, the cubic's linear factor, its quadratic factor), which need not be
the order of ``mode_speeds``; a root's kernel row follows its t, not its
index, so ``mode_vector`` takes a labelled root as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DegenerateRootsError,
    ModeFailureError,
    NotStronglyEllipticError,
    WrongCaseError,
)
from .material import (
    CASE_ZEROED_COUPLINGS,
    CouplingCase,
    MaterialCoefficients,
    check_strong_ellipticity,
    classify_coupling,
)
from .modes import ComplexSpeed, case_speeds, p_from_t
from .secular import secular_kernel
from .spectrum import GAP_RTOL, ModeRoot, min_gap, mode_speeds


@dataclass(frozen=True)
class CaseRootSet:
    """Squared mode speeds of a decoupled material, with formula labels."""

    case: CouplingCase
    roots: tuple
    labels: tuple

    def t_values(self) -> tuple:
        return tuple(r.t for r in self.roots)


def _require_case(M: MaterialCoefficients, case: CouplingCase) -> None:
    if case not in CASE_ZEROED_COUPLINGS:
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
        If two of the five speeds coincide (``spectrum.min_gap`` within
        ``GAP_RTOL`` times the largest, pairs in index order); the kernel
        pairing then breaks down and the material needs another treatment.
    """
    _require_case(M, case)
    ts, labels, factors = zip(*case_speeds(M, case))
    min_gap(ts, GAP_RTOL * max(abs(t) for t in ts), combinations(range(5), 2),
            lambda i, j: DegenerateRootsError(
                f"{case.value} speeds {labels[i]} and {labels[j]} coincide at t = {ts[i]!r}"))
    roots = tuple(ModeRoot(i, t, f) for i, (t, f) in enumerate(zip(ts, factors), start=1))
    return CaseRootSet(case=case, roots=roots, labels=labels)


def _case_i_expression(M: MaterialCoefficients, p, t, vc: complex) -> complex:
    mu, a, b, d, k, m = M.mu, M.a, M.b, M.d, M.k, M.m
    d23 = M.d2 + M.d3
    v2 = vc * vc
    bv = b * v2 - d23
    # modes 1 and 3 are the shear and P waves, mode 2 the microtemperature one
    classical = 4.0 * mu ** 2 * p[0] * p[2] + (M.rho * v2 - 2.0 * mu) ** 2
    inner = (
        b * p[3] * bv * ((k - a * t[4]) * bv + m ** 2 * v2)
        + p[4] * (
            p[1] * p[3] * d23 ** 2 * (-2.0 * a * b * t[4] + a * d + b * k)
            + a * (d - b * t[4]) * bv ** 2
            + m ** 2 * d23 * ((p[1] * p[3] + 1.0) * d23 - b * v2)
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

    The third regime has no tractable expansion; the determinant
    (``point_det``) is its only secular function.

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

    Expands the product of the linear factor's root (``case_speeds``) and
    the quadratic factor into monic form; must match the general
    coefficients once the case's couplings vanish.
    """
    _require_case(M, case)
    pw = M.p_wave_modulus
    u = case_speeds(M, case)[2][0]
    if case is CouplingCase.CASE_I:
        c1 = (M.m ** 2 + M.a * M.d + M.b * M.k) / (M.a * M.b)
        c0 = M.k * M.d / (M.a * M.b)
    elif case is CouplingCase.CASE_II:
        c1 = (M.a * pw + M.beta ** 2 + M.k * M.rho) / (M.a * M.rho)
        c0 = pw * M.k / (M.a * M.rho)
    else:
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


#: Random speeds ``cross_check_case`` draws, and the seed of the draw.
CROSS_CHECK_SAMPLES = 200
CROSS_CHECK_SEED = 20240814

#: Fraction of a function's median magnitude over the samples at or below
#: which ``cross_check_case`` counts a sample as a root of that function.
CROSS_CHECK_ROOT_RTOL = 1e-6


def cross_check_case(M: MaterialCoefficients, case: CouplingCase) -> CaseCrossCheck:
    """Compare the explicit secular expression against the determinant.

    Both functions are evaluated at ``CROSS_CHECK_SAMPLES`` random
    admissible speeds, the determinant in one ``SecularKernel.evaluate``
    call; a sample counts as a root of either function when its magnitude
    falls below ``CROSS_CHECK_ROOT_RTOL`` times that function's median
    magnitude over the sample set.  Agreement means both functions give the
    same root flag.  Only the first two regimes have explicit expressions.

    Raises
    ------
    WrongCaseError
        Propagated when the material or the case does not fit.
    ModeFailureError
        If the determinant is undefined at a sample: the error ``point_det``
        raises at the first such sample, named from the batch.
    """
    rs = roots_case(M, case)
    c = math.sqrt(min(rs.t_values()))
    rng = np.random.default_rng(CROSS_CHECK_SEED)
    v_res = rng.uniform(0.05 * c, 0.95 * c, CROSS_CHECK_SAMPLES)
    v_ims = rng.uniform(0.0, 0.4 * c, CROSS_CHECK_SAMPLES)

    explicit_mags = np.array([abs(secular_case_explicit(M, ComplexSpeed(x, y), case))
                              for x, y in zip(v_res, v_ims)])
    # the kernel orders the modes as mode_speeds does, not by label; that
    # permutation can flip the sign of det A but not its magnitude
    v = v_res - 1j * v_ims
    kernel = secular_kernel(M)
    _, det, mode, kind = kernel.evaluate(v)
    if kind.any():
        i = np.flatnonzero(kind)[0]
        raise ModeFailureError(v_res[i], v_ims[i],
                               kernel.failure(complex(v[i]), int(mode[i]), int(kind[i])))
    det_mags = np.abs(det)

    explicit_flags = explicit_mags <= CROSS_CHECK_ROOT_RTOL * np.median(explicit_mags)
    det_flags = det_mags <= CROSS_CHECK_ROOT_RTOL * np.median(det_mags)
    return CaseCrossCheck(
        case=case,
        total=CROSS_CHECK_SAMPLES,
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


#: Factors by which ``limit_consistency`` scales a case's couplings.
LIMIT_SCALES = (1e-2, 1e-4, 1e-6)


def limit_consistency(M_general: MaterialCoefficients, case: CouplingCase) -> LimitReport:
    """Drive the case's couplings to zero and compare root sets.

    The couplings the case requires to vanish are scaled by each factor in
    ``LIMIT_SCALES``; the general pipeline roots of every scaled material are
    compared against the closed forms of the fully decoupled material.

    Raises
    ------
    WrongCaseError
        If zeroing the couplings does not produce a material of the case.
    """
    fields = CASE_ZEROED_COUPLINGS.get(case, ())
    M_limit = M_general.replace(**{name: 0.0 for name in fields})
    target = sorted(roots_case(M_limit, case).t_values())

    gaps = []
    for scale in LIMIT_SCALES:
        M_scaled = M_general.replace(
            **{name: getattr(M_general, name) * scale for name in fields}
        )
        ts = sorted(mode_speeds(M_scaled).t_values())
        gaps.append(max(abs(x - y) for x, y in zip(ts, target)))
    return LimitReport(case=case, scales=LIMIT_SCALES, gaps=tuple(gaps),
                       limit_ts=tuple(target))
