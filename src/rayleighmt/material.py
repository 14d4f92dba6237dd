"""Constitutive coefficients and their admissibility checks.

A material is described by thirteen real constants: density ``rho``, the
thermal and microthermal inertia moduli ``a`` and ``b``, the conductivity
``k``, the elastic moduli ``lambda`` and ``mu``, the microtemperature
conduction moduli ``d1``, ``d2``, ``d3``, the elastic-microthermal couplings
``eps1`` and ``eps2``, and the thermal couplings ``beta`` and ``m``.  This
module validates raw inputs, evaluates the strong-ellipticity inequalities,
and derives the coefficients of the quadratic and cubic factors whose roots
are the squared bulk mode speeds.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from typing import Mapping

from .errors import InputError, MissingFieldError, NonFiniteError, NotStronglyEllipticError

#: JSON keys of a material file, in canonical order.
COEFFICIENT_KEYS = (
    "rho", "a", "b", "k", "lambda", "mu",
    "d1", "d2", "d3", "eps1", "eps2", "beta", "m",
)

# "lambda" is a Python keyword, so the dataclass field is named "lam".
_FIELD_NAMES = (
    "rho", "a", "b", "k", "lam", "mu",
    "d1", "d2", "d3", "eps1", "eps2", "beta", "m",
)


@dataclass(frozen=True)
class MaterialCoefficients:
    """The thirteen constitutive constants of an isotropic half-space."""

    rho: float
    a: float
    b: float
    k: float
    lam: float
    mu: float
    d1: float
    d2: float
    d3: float
    eps1: float
    eps2: float
    beta: float
    m: float

    def __post_init__(self):
        for key, name in zip(COEFFICIENT_KEYS, _FIELD_NAMES):
            value = getattr(self, name)
            if isinstance(value, (bool, str)):
                raise NonFiniteError(key)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise NonFiniteError(key) from None
            if not math.isfinite(value):
                raise NonFiniteError(key)
            object.__setattr__(self, name, value)

    @property
    def d(self) -> float:
        """Total microtemperature conduction modulus d1 + d2 + d3."""
        return self.d1 + self.d2 + self.d3

    @property
    def p_wave_modulus(self) -> float:
        """Longitudinal elastic modulus lambda + 2 mu."""
        return self.lam + 2.0 * self.mu

    @property
    def eps_long(self) -> float:
        """Longitudinal elastic-microthermal coupling eps1 + 2 eps2."""
        return self.eps1 + 2.0 * self.eps2

    def replace(self, **changes) -> "MaterialCoefficients":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """Serialize to a plain dict using the canonical JSON keys."""
        return {key: getattr(self, name) for key, name in zip(COEFFICIENT_KEYS, _FIELD_NAMES)}


def validate_coefficients(raw: Mapping) -> MaterialCoefficients:
    """Build a coefficient record from a raw mapping.

    Parameters
    ----------
    raw : mapping
        Must contain every key in :data:`COEFFICIENT_KEYS` with a finite
        real value.  Extra keys are ignored.

    Raises
    ------
    MissingFieldError
        If any of the thirteen coefficients is absent.
    NonFiniteError
        If a value is NaN, infinite, or not a number.
    """
    values = {}
    for key, name in zip(COEFFICIENT_KEYS, _FIELD_NAMES):
        if key not in raw:
            raise MissingFieldError(key)
        values[name] = raw[key]
    return MaterialCoefficients(**values)


def load_material(path) -> MaterialCoefficients:
    """Read a material JSON file and validate its coefficients."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, Mapping):
        raise InputError("material file does not hold a JSON object")
    return validate_coefficients(raw)


# Strong-ellipticity conditions.  Each margin is a signed slack, positive
# exactly when the strict inequality is satisfied.
_SE_CONDITIONS = (
    ("rho>0", lambda M: M.rho),
    ("a>0", lambda M: M.a),
    ("b>0", lambda M: M.b),
    ("k>0", lambda M: M.k),
    ("lambda+2mu>0", lambda M: M.p_wave_modulus),
    ("mu>0", lambda M: M.mu),
    ("(eps1+2eps2)^2<(lambda+2mu)d", lambda M: M.p_wave_modulus * M.d - M.eps_long ** 2),
    ("eps2^2<mu*d2", lambda M: M.mu * M.d2 - M.eps2 ** 2),
)

#: Names of the strong-ellipticity conditions, in evaluation order.
SE_CONDITION_NAMES = tuple(name for name, _ in _SE_CONDITIONS)


@dataclass(frozen=True)
class EllipticityReport:
    """Outcome of the strong-ellipticity check.

    ``margins`` maps every condition name to its signed slack; a condition
    is satisfied exactly when its margin is positive.  ``violations`` lists
    the failed condition names in evaluation order.
    """

    passed: bool
    violations: tuple
    margins: dict


def check_strong_ellipticity(M: MaterialCoefficients) -> EllipticityReport:
    """Evaluate all strong-ellipticity inequalities.

    Always returns a report; materials that fail are reported, not rejected.
    """
    margins = {name: cond(M) for name, cond in _SE_CONDITIONS}
    violations = tuple(name for name in SE_CONDITION_NAMES if not margins[name] > 0.0)
    return EllipticityReport(passed=not violations, violations=violations, margins=margins)


@dataclass(frozen=True)
class CubicCoefficients:
    """Coefficients of the mode-speed factors.

    The squared bulk speeds are the roots of
    ``q2(t) = t^2 - a2 t + a0`` and ``q3(t) = t^3 - b4 t^2 + b2 t - b0``.
    ``h0`` and ``h1`` are the shifted-cubic invariants used by the
    trigonometric root formula and the distinct-root criterion.
    """

    d: float
    a2: float
    a0: float
    b4: float
    b2: float
    b0: float
    h0: float
    h1: float


def derived_cubic(M: MaterialCoefficients) -> CubicCoefficients:
    """Compute the quadratic and cubic coefficients for a material.

    Raises
    ------
    NotStronglyEllipticError
        If the material fails any strong-ellipticity condition.  The
        inequalities guarantee every denominator below is positive and both
        constant terms are positive.
    """
    report = check_strong_ellipticity(M)
    if not report.passed:
        raise NotStronglyEllipticError(report.violations)

    d = M.d
    pw = M.p_wave_modulus
    e = M.eps_long

    a2 = M.mu / M.rho + M.d2 / M.b
    a0 = (M.mu * M.d2 - M.eps2 ** 2) / (M.rho * M.b)

    b4 = pw / M.rho + d / M.b + (M.m ** 2 / M.b + M.beta ** 2 / M.rho) / M.a + M.k / M.a
    b2 = (
        (M.a * d + M.m ** 2) * (pw * d - e ** 2) + (d * M.beta - e * M.m) ** 2
    ) / (M.rho * M.a * M.b * d) + (M.k / M.a) * (pw / M.rho + d / M.b)
    b0 = M.k * (pw * d - e ** 2) / (M.rho * M.a * M.b)

    h1 = (b4 ** 2 - 3.0 * b2) / 3.0
    h0 = -(2.0 * b4 ** 3 - 9.0 * b2 * b4 + 27.0 * b0) / 27.0
    return CubicCoefficients(d=d, a2=a2, a0=a0, b4=b4, b2=b2, b0=b0, h0=h0, h1=h1)


def check_distinct_cubic_roots(C: CubicCoefficients) -> bool:
    """True when the cubic factor has three distinct real roots."""
    return C.h0 ** 2 < (4.0 / 27.0) * C.h1 ** 3


class CouplingCase(enum.Enum):
    """Which coupling coefficients vanish, selecting the solver route."""

    GENERAL = "general"
    CASE_I = "case_i"
    CASE_II = "case_ii"
    CASE_III = "case_iii"
    DEGENERATE = "degenerate"

    @property
    def description(self) -> str:
        return _CASE_DESCRIPTIONS[self]


_CASE_DESCRIPTIONS = {
    CouplingCase.GENERAL: "all couplings active (m != 0, beta != 0, eps1 or eps2 != 0)",
    CouplingCase.CASE_I: "beta = eps1 = eps2 = 0, m != 0",
    CouplingCase.CASE_II: "m = eps1 = eps2 = 0, beta != 0",
    CouplingCase.CASE_III: "beta = m = 0, eps1 != 0 and eps2 != 0",
    CouplingCase.DEGENERATE: "coupling pattern outside the handled regimes",
}


def classify_coupling(M: MaterialCoefficients, zero_tol: float = 0.0) -> CouplingCase:
    """Classify the coupling pattern of a material.

    A coefficient counts as zero when its magnitude is at most ``zero_tol``;
    the default demands exact zeros.
    """

    def is_zero(x: float) -> bool:
        return abs(x) <= zero_tol

    m_zero, beta_zero = is_zero(M.m), is_zero(M.beta)
    e1_zero, e2_zero = is_zero(M.eps1), is_zero(M.eps2)

    if not m_zero and not beta_zero and not (e1_zero and e2_zero):
        return CouplingCase.GENERAL
    if beta_zero and not m_zero and e1_zero and e2_zero:
        return CouplingCase.CASE_I
    if m_zero and not beta_zero and e1_zero and e2_zero:
        return CouplingCase.CASE_II
    if beta_zero and m_zero and not e1_zero and not e2_zero:
        return CouplingCase.CASE_III
    return CouplingCase.DEGENERATE
