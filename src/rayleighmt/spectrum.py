"""Squared bulk mode speeds.

The plane-wave analysis factors the propagation condition into a quadratic
``q2`` (transverse modes) and a cubic ``q3`` (longitudinal and thermal
modes).  Both are solved in closed form: the quadratic by its radical, the
cubic by the trigonometric formula for three distinct real roots.
``min_gap`` keeps five speeds distinct, for ``mode_speeds`` and for the
closed forms of ``special_cases.roots_case``.
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
    factor, each group in descending order.  They are computed on first use
    and kept on the (frozen) material instance.

    Raises
    ------
    NotStronglyEllipticError
        Propagated from the coefficient derivation.
    IndistinctRootsError
        If either factor has a repeated root.
    CommonRootError
        If the two factors share a root.  Speeds within ``GAP_RTOL * b4``
        count as equal, and the first such pair in ``FACTOR_PAIRS`` is named.
    """
    return M.memo("_mode_speeds", _solve_mode_speeds)


#: Index pairs of the mode speeds in the order ``mode_speeds`` checks them:
#: the transverse pair, the cubic pairs, then the cross pairs.
FACTOR_PAIRS = ((0, 1), (2, 3), (2, 4), (3, 4), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))


def min_gap(ts, tol: float, pairs, error) -> float:
    """Smallest |t_i - t_j| over the index ``pairs``; raises ``error(i, j)``
    for the first pair, in their order, whose gap is at most ``tol``."""
    gaps = []
    for i, j in pairs:
        gaps.append(abs(ts[i] - ts[j]))
        if gaps[-1] <= tol:
            raise error(i, j)
    return min(gaps)


def _coincidence(ri: ModeRoot, rj: ModeRoot) -> Exception:
    """The error for two mode speeds that coincide, named by their factors."""
    if ri.source != rj.source:
        return CommonRootError(f"transverse and cubic factors share the root t = {ri.t!r}")
    if ri.source == "q2":
        return IndistinctRootsError(f"transverse factor has a repeated root t = {ri.t!r}")
    return IndistinctRootsError(f"cubic factor roots {ri.t!r} and {rj.t!r} coincide")


def _solve_mode_speeds(M: MaterialCoefficients) -> RootSet:
    C = derived_cubic(M)
    ts = (*roots_q2(M), *roots_q3(C))
    roots = tuple(ModeRoot(i, t, "q2" if i < 3 else "q3") for i, t in enumerate(ts, start=1))
    gap = min_gap(ts, GAP_RTOL * C.b4, FACTOR_PAIRS, lambda i, j: _coincidence(roots[i], roots[j]))
    return RootSet(roots=roots, pairwise_min_gap=gap)


def polynomial_residual(C: CubicCoefficients, t: float) -> tuple:
    """Evaluate (q2(t), q3(t)) by Horner's scheme."""
    q2 = (t - C.a2) * t + C.a0
    q3 = ((t - C.b4) * t + C.b2) * t - C.b0
    return (q2, q3)
