"""Squared bulk mode speeds.

The plane-wave analysis factors the propagation condition into a quadratic
``q2`` (transverse modes) and a cubic ``q3`` (longitudinal and thermal
modes).  Both are solved in closed form: the quadratic by its radical, the
cubic by the trigonometric formula for three distinct real roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CommonRootError, DomainError, IndistinctRootsError
from .material import (
    CubicCoefficients,
    MaterialCoefficients,
    check_distinct_cubic_roots,
    derived_cubic,
)

#: Relative gap (scaled by b4) below which two mode speeds count as equal.
GAP_RTOL = 1e-9

#: Allowed overshoot of the arccos argument before it is a hard error.
ACOS_SLACK = 1e-12


@dataclass(frozen=True)
class ModeRoot:
    """One squared mode speed with its provenance."""

    index: int
    t: float
    source: str  # "q2" or "q3"


@dataclass(frozen=True)
class RootSet:
    """All five squared mode speeds of a material, indexed 1..5."""

    roots: tuple
    pairwise_min_gap: float

    def t_values(self) -> tuple:
        return tuple(r.t for r in self.roots)

    def __iter__(self):
        return iter(self.roots)


def roots_q2(M: MaterialCoefficients) -> tuple:
    """Roots of the transverse factor, in descending order.

    Uses the explicit radical; the discriminant
    ``(mu b - rho d2)^2 + 4 rho b eps2^2`` is nonnegative for any real
    coefficients, so both roots are real.
    """
    disc = (M.mu * M.b - M.rho * M.d2) ** 2 + 4.0 * M.rho * M.b * M.eps2 ** 2
    s = math.sqrt(disc)
    den = 2.0 * M.rho * M.b
    return ((M.mu * M.b + M.rho * M.d2 + s) / den, (M.mu * M.b + M.rho * M.d2 - s) / den)


def roots_q3(C: CubicCoefficients) -> tuple:
    """Roots of the cubic factor, in descending order.

    Evaluates the trigonometric closed form.  The distinct-root criterion
    ``h0^2 < (4/27) h1^3`` must hold; it also guarantees the arccos argument
    lies inside [-1, 1] up to roundoff.

    Raises
    ------
    IndistinctRootsError
        If the distinct-root criterion fails.
    DomainError
        If the arccos argument leaves [-1, 1] by more than the roundoff
        band; smaller overshoots are clamped.
    """
    if not check_distinct_cubic_roots(C):
        raise IndistinctRootsError(
            f"cubic factor has a repeated root (h0^2 = {C.h0 ** 2!r} "
            f">= (4/27) h1^3 = {(4.0 / 27.0) * C.h1 ** 3!r})"
        )
    arg = (-3.0 * C.h0 / (2.0 * C.h1)) * math.sqrt(3.0 / C.h1)
    if abs(arg) > 1.0 + ACOS_SLACK:
        raise DomainError(f"arccos argument {arg!r} outside [-1, 1]")
    arg = min(1.0, max(-1.0, arg))
    theta = math.acos(arg)
    radius = 2.0 * math.sqrt(C.h1 / 3.0)
    ts = sorted(
        (C.b4 / 3.0 + radius * math.cos(theta / 3.0 - 2.0 * math.pi * (k + 1.0) / 3.0)
         for k in (3, 4, 5)),
        reverse=True,
    )
    return tuple(ts)


def mode_speeds(M: MaterialCoefficients) -> RootSet:
    """All five squared mode speeds of a strongly elliptic material.

    Roots 1-2 come from the transverse factor and roots 3-5 from the cubic
    factor, each group in descending order.

    Raises
    ------
    NotStronglyEllipticError
        Propagated from the coefficient derivation.
    IndistinctRootsError
        If either factor has a repeated root.
    CommonRootError
        If the two factors share a root (gap below ``GAP_RTOL * b4``).
    """
    C = derived_cubic(M)
    t1, t2 = roots_q2(M)
    t3, t4, t5 = roots_q3(C)

    tol = GAP_RTOL * C.b4
    if abs(t1 - t2) <= tol:
        raise IndistinctRootsError(f"transverse factor has a repeated root t = {t1!r}")
    q3_ts = (t3, t4, t5)
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(q3_ts[i] - q3_ts[j]) <= tol:
                raise IndistinctRootsError(
                    f"cubic factor roots {q3_ts[i]!r} and {q3_ts[j]!r} coincide"
                )
    for tq in (t1, t2):
        for tc in q3_ts:
            if abs(tq - tc) <= tol:
                raise CommonRootError(
                    f"transverse and cubic factors share the root t = {tq!r}"
                )

    roots = (
        ModeRoot(1, t1, "q2"),
        ModeRoot(2, t2, "q2"),
        ModeRoot(3, t3, "q3"),
        ModeRoot(4, t4, "q3"),
        ModeRoot(5, t5, "q3"),
    )
    ts = [r.t for r in roots]
    gap = min(abs(ts[i] - ts[j]) for i in range(5) for j in range(i + 1, 5))
    return RootSet(roots=roots, pairwise_min_gap=gap)


def polynomial_residual(C: CubicCoefficients, t: float) -> tuple:
    """Evaluate (q2(t), q3(t)) by Horner's scheme."""
    q2 = (t - C.a2) * t + C.a0
    q3 = ((t - C.b4) * t + C.b2) * t - C.b0
    return (q2, q3)
