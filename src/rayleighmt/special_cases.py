"""Decoupled coupling regimes: labelled roots and explicit secular forms.

When some coupling coefficients vanish the quintic propagation condition
factors into quadratics, so every squared mode speed and (for two of the
regimes) the secular function itself has a closed form.  The kernel
vectors and the batched secular kernel are those of the general pipeline
(``modes.kernel_row`` holds the rows of every regime), so ``scan`` and
``solve`` handle these materials like any other, and the determinant of
a case is ``SecularKernel.evaluate``'s.  This module adds the paper's
labelled speeds, its explicit secular expansions and the checks that tie
them to the determinant and to the general route.  An expansion takes the kernel's
p_k (``modes.mode_shapes``) in one pass over an array of speeds: the
cross-check's samples, or the one speed of ``secular_case_explicit``.

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
    NonDecayingError,
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
from .modes import ComplexSpeed, _case_factors, case_speeds, mode_shapes
from .secular import objective_F, secular_kernel
from .spectrum import GAP_RTOL, ModeRoot, RootSet, min_gap


def _require_case(M: MaterialCoefficients, case: CouplingCase) -> None:
    if case not in CASE_ZEROED_COUPLINGS:
        raise WrongCaseError(expected="one of the decoupled cases", actual=case.value)
    actual = classify_coupling(M)
    if actual is not case:
        raise WrongCaseError(expected=case.value, actual=actual.value)
    report = check_strong_ellipticity(M)
    if not report.passed:
        raise NotStronglyEllipticError(report.violations)


def roots_case(M: MaterialCoefficients, case: CouplingCase) -> RootSet:
    """Closed-form squared mode speeds for one decoupled regime, as the
    ``RootSet`` of ``mode_speeds`` with each speed's formula in ``labels``
    and its factor in ``source``.

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
    gap = min_gap(ts, GAP_RTOL * max(abs(t) for t in ts), combinations(range(5), 2),
                  lambda i, j: DegenerateRootsError(
                      f"{case.value} speeds {labels[i]} and {labels[j]} coincide at t = {ts[i]!r}"))
    roots = tuple(ModeRoot(i, t, f) for i, (t, f) in enumerate(zip(ts, factors), start=1))
    return RootSet(roots=roots, pairwise_min_gap=gap, labels=labels)


def _case_i_expression(M: MaterialCoefficients, p, t, vc: np.ndarray) -> np.ndarray:
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


def _case_ii_expression(M: MaterialCoefficients, p, t, vc: np.ndarray) -> np.ndarray:
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


def _explicit(M: MaterialCoefficients, case: CouplingCase) -> tuple:
    """``(t, f)``: a regime's labelled squared mode speeds and its explicit
    expansion f over an array of speeds.  ``WrongCaseError`` for the third
    regime, which has none, comes before the errors of ``roots_case``; f
    raises ``p_from_t``'s error for the first speed and mode without decay."""
    if case is CouplingCase.CASE_III:
        raise WrongCaseError(expected="case_i or case_ii", actual=case.value)
    expression = _case_i_expression if case is CouplingCase.CASE_I else _case_ii_expression
    t = roots_case(M, case).t_values()

    def f(v: np.ndarray) -> np.ndarray:
        p, _ = mode_shapes(v, np.array(t), 0.0, 0.0, 0.0)
        stuck = np.argwhere(~(p.imag > 0.0))
        if len(stuck):
            i, j = stuck[0].tolist()
            raise NonDecayingError(t=t[j], v=complex(v[i]), mode_index=j + 1)
        return expression(M, p.T, t, v)

    return t, f


def secular_case_explicit(M: MaterialCoefficients, v: ComplexSpeed,
                          case: CouplingCase) -> complex:
    """Fully expanded secular expression for the first two regimes, by the
    array pass of ``cross_check_case``.

    The third regime has no tractable expansion; the determinant
    (``secular.point_dets``) is its only secular function.

    Raises
    ------
    WrongCaseError
        If the material is not of the requested case, or the case has no
        explicit expansion.
    NonDecayingError
        Where ``p_from_t`` raises it for a labelled root.
    """
    _, f = _explicit(M, case)
    return complex(f(np.array([complex(v)]))[0])


def reduced_cubic_coefficients(M: MaterialCoefficients, case: CouplingCase) -> tuple:
    """(b4, b2, b0) of the cubic factor from the case factorization.

    Expands the product of the linear factor's root (``case_speeds``) and
    the quadratic factor into monic form; must match the general
    coefficients once the case's couplings vanish.
    """
    _require_case(M, case)
    _, (u, _), num, _, den = _case_factors(M, case)
    c1 = 2.0 * num / den  # the sum of the quadratic factor's roots
    # c0 is their product (Vieta), simplified by hand
    if case is CouplingCase.CASE_I:
        c0 = M.k * M.d / (M.a * M.b)
    elif case is CouplingCase.CASE_II:
        c0 = M.p_wave_modulus * M.k / (M.a * M.rho)
    else:
        c0 = (M.p_wave_modulus * M.d - M.eps_long ** 2) / (M.rho * M.b)
    return (u + c1, u * c1 + c0, u * c0)


@dataclass(frozen=True)
class CaseCrossCheck:
    """Zero-set agreement of the explicit secular expression and the
    determinant over a sample of admissible speeds."""

    case: CouplingCase
    total: int
    agreements: int


#: Random speeds ``cross_check_case`` draws, and the seed of the draw.
CROSS_CHECK_SAMPLES = 200
CROSS_CHECK_SEED = 20240814

#: Fraction of a function's median magnitude over the samples at or below
#: which ``cross_check_case`` counts a sample as a root of that function.
CROSS_CHECK_ROOT_RTOL = 1e-6


def cross_check_case(M: MaterialCoefficients, case: CouplingCase) -> CaseCrossCheck:
    """Compare the explicit secular expression against the determinant.

    Both functions are evaluated at ``CROSS_CHECK_SAMPLES`` random
    subsonic speeds, each in one array pass: the expansion by the pass
    ``secular_case_explicit`` makes at one speed, the determinant from one
    ``SecularKernel.evaluate`` call.  A sample counts as a root of either
    function when its magnitude falls below ``CROSS_CHECK_ROOT_RTOL`` times
    that function's median magnitude over the sample set.  Agreement means
    both functions give the same root flag.  Only the first two regimes
    have explicit expressions.

    Raises
    ------
    WrongCaseError
        Propagated when the material or the case does not fit.
    ModeFailureError
        If the determinant is undefined at a sample: the error
        ``objective_F`` raises at the first such sample.
    DegenerateKernelError
        Where ``secular_kernel`` raises it: a closed form is all zeros.
    """
    t, explicit = _explicit(M, case)
    c = math.sqrt(min(t))
    rng = np.random.default_rng(CROSS_CHECK_SEED)
    v = (rng.uniform(0.05 * c, 0.95 * c, CROSS_CHECK_SAMPLES)
         - 1j * rng.uniform(0.0, 0.4 * c, CROSS_CHECK_SAMPLES))
    explicit_mags = np.abs(explicit(v))  # every mode decays below sqrt(t_min)
    # the kernel orders the modes as mode_speeds does, not by label; that
    # permutation can flip the sign of det A but not its magnitude
    _, det, _, kind, _, _ = secular_kernel(M).evaluate(v)
    if kind.any():
        bad = v[np.flatnonzero(kind)[0]]
        objective_F(M, bad.real, -bad.imag)  # raises, naming the sample's failure
    det_mags = np.abs(det)

    explicit_flags = explicit_mags <= CROSS_CHECK_ROOT_RTOL * np.median(explicit_mags)
    det_flags = det_mags <= CROSS_CHECK_ROOT_RTOL * np.median(det_mags)
    return CaseCrossCheck(case=case, total=CROSS_CHECK_SAMPLES,
                          agreements=int(np.sum(explicit_flags == det_flags)))
