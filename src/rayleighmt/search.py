"""Root search over the complex speed plane.

The objective F = ln |det A| is sampled on a rectangular lattice and its
strict interior local minima seed the refinement.  Each seed is polished
by Muller's method on the complex determinant det A, clamped to the
quadrant; when that fails to land on an accepted root, a clamped
Nelder-Mead simplex on F takes over.  Both stages work on the complex
speed v itself, down to ``DIAMETER_TOL``.  Every refinement step asks
the batched kernel (``point_dets``) for all the speeds it may need in one
call: the three start points, each Muller iterate, the four candidates of
a simplex iteration, the two vertices of a shrink.  Refined minima are
accepted as surface-wave roots when the secular determinant is small
against the typical determinant magnitude of the scan; the mode weights
come from the matrix already computed at the refined point.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllPointsFailedError,
    ModeFailureError,
    NotARootError,
    StartFailureError,
)
from .material import MaterialCoefficients
from .modes import ComplexSpeed
from .secular import (
    AmplitudeVector,
    amplitudes,  # not called here; bench/tracing.py wraps search.amplitudes
    nullspace_amplitude,
    objective_F,
    objective_from_det,
    point_dets,
    secular_objective,
)

@dataclass(frozen=True)
class ScanWindow:
    """Rectangular window of the complex speed plane, with lattice shape.

    Coordinates are those of v itself, so the admissible quadrant has
    Re v >= 0 and Im v <= 0; the window must intersect it.  Endpoints are
    included in the lattice.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int

    def __post_init__(self):
        nonfinite = [f"{name} = {getattr(self, name)!r}"
                     for name in ("re_min", "re_max", "im_min", "im_max")
                     if not math.isfinite(getattr(self, name))]
        if nonfinite:
            raise ValueError(f"window bounds must be finite, got {', '.join(nonfinite)}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("window bounds must satisfy re_min < re_max and im_min < im_max")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("lattice needs at least 2 points per axis")
        if self.re_max < 0.0 or self.im_min > 0.0:
            raise ValueError("window does not intersect the quadrant Re v >= 0, Im v <= 0")

    def re_values(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.nx)

    def im_values(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.ny)

    def cell_size(self) -> tuple:
        return (
            (self.re_max - self.re_min) / (self.nx - 1),
            (self.im_max - self.im_min) / (self.ny - 1),
        )


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """Objective samples over a window; failed points hold NaN.

    ``failure_causes`` counts the failed points by the class of the error
    ``objective_F`` raises there (``ModeFailureError.cause_name``).
    """

    window: ScanWindow
    values: np.ndarray  # shape (nx, ny), F or NaN
    failures: int
    failure_causes: dict = field(default_factory=dict)


def grid_scan(M: MaterialCoefficients, window: ScanWindow, threads=None) -> ScanGrid:
    """Sample the objective on the window lattice.

    Each lattice row (one Re v, every Im v) is one call of the batched
    objective.  Points outside the admissible quadrant or where the
    objective is undefined become NaN and are counted as failures.  Each of
    them is evaluated once more by ``objective_F``, whose typed error is
    tallied in ``failure_causes``, so the failures are exactly the points
    where ``objective_F`` raises.  ``threads`` is accepted and ignored.

    Raises
    ------
    AllPointsFailedError
        If no lattice point evaluates.
    """
    res = window.re_values()
    ims = window.im_values()
    values = np.empty((window.nx, window.ny))
    for i, re_v in enumerate(res):
        values[i] = secular_objective(M, re_v + 1j * ims)

    causes = Counter()
    for i, j in zip(*np.nonzero(np.isnan(values))):
        try:
            values[i, j] = objective_F(M, res[i], -ims[j])
        except ModeFailureError as exc:
            causes[exc.cause_name] += 1

    failures = int(np.isnan(values).sum())
    if failures == values.size:
        named = ", ".join(f"{name} at {count}" for name, count in sorted(causes.items()))
        raise AllPointsFailedError(f"objective undefined at every lattice point ({named})")
    return ScanGrid(window=window, values=values, failures=failures,
                    failure_causes=dict(causes))


def local_minima(grid: ScanGrid) -> list:
    """Indices (i, j) of strict interior local minima of the lattice.

    A point qualifies when it is finite and strictly below all eight
    neighbors; NaN neighbors count as +inf, so minima at the edge of the
    evaluable region still qualify as long as they are interior to the
    lattice itself.  The list is in row-major order.
    """
    padded = np.where(np.isnan(grid.values), np.inf, grid.values)
    nx, ny = padded.shape
    center = padded[1:-1, 1:-1]
    strict = np.isfinite(center)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            if (di, dj) != (1, 1):
                strict &= center < padded[di:nx - 2 + di, dj:ny - 2 + dj]
    return [(int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(strict))]


@dataclass(frozen=True)
class RefineOptions:
    """Stopping and acceptance parameters of the refinement.

    ``initial_step`` spaces the three start points of both stages and sets
    the radius of the Muller stage's disc.  ``MAX_EVALS`` bounds the
    evaluations of both stages together and ``DIAMETER_TOL`` the last
    Muller step and the final simplex diameter.
    """

    initial_step: tuple = (1e-3, 1e-3)
    det_ratio_tol: float = 1e-6
    det_scale: float = None  # reference |det|; falls back to the seed value


@dataclass(frozen=True, eq=False)
class RayleighRoot:
    """A refined minimum of the secular objective."""

    v: ComplexSpeed
    f_value: float
    det_abs: float
    gamma: AmplitudeVector  # None when not converged
    iterations: int
    classification: str  # "converged" or "stagnated"


#: Bound on the last Muller step and on the final simplex diameter.
DIAMETER_TOL = 1e-10

#: Evaluations both refinement stages may spend together, counted as
#: evaluating one speed at a time would spend them (a simplex iteration
#: evaluates four candidates in one kernel call but counts only those it
#: uses).  Read at call time.
MAX_EVALS = 500

#: Evaluations the Muller stage may spend, start points included.
MULLER_MAX_EVALS = 40

#: Radius of the disc around the seed that Muller iterates may not leave,
#: in units of the larger initial step.
MULLER_RADIUS_STEPS = 8.0


def _clamp(z: complex) -> complex:
    """z moved into the admissible quadrant Re v >= 0, Im v <= 0."""
    return complex(max(z.real, 0.0), min(z.imag, 0.0))


def _muller(M: MaterialCoefficients, z: list, start: list, opts: RefineOptions,
            evals: list):
    """Muller iterates on det A from three complex start speeds.

    ``start`` holds the ``point_dets`` entries of the three start speeds;
    each later iterate is one ``point_dets`` call of its own.  Each step
    fits a parabola through the last three points by divided differences,
    takes the root nearer the newest point (the denominator of larger
    modulus) and clamps it into the quadrant.  Returns the evaluated speed
    of smallest |det| with its entry, ``(z, (det, A))``, once a step is at
    most ``DIAMETER_TOL`` or the determinant vanishes, and None when the
    simplex must take over: an undefined evaluation, a vanishing
    denominator, a step out of the disc around the seed, or the cap.
    """
    if any(entry is None for entry in start):
        return None
    f = [det for det, _ in start]
    seed = z[0]
    radius = MULLER_RADIUS_STEPS * max(opts.initial_step)
    best = min(zip(z, start), key=lambda ze: abs(ze[1][0]))
    while evals[0] < min(MULLER_MAX_EVALS, MAX_EVALS):
        try:
            h1, h2 = z[1] - z[0], z[2] - z[1]
            d1, d2 = (f[1] - f[0]) / h1, (f[2] - f[1]) / h2
            a = (d2 - d1) / (h2 + h1)
            b = d2 + h2 * a
            disc = cmath.sqrt(b * b - 4.0 * f[2] * a)
            den = b + disc if abs(b + disc) >= abs(b - disc) else b - disc
            z_new = _clamp(z[2] - 2.0 * f[2] / den)
        except (ZeroDivisionError, OverflowError):
            return None
        if not abs(z_new - seed) <= radius:  # also catches a NaN step
            return None
        if abs(z_new - z[2]) <= DIAMETER_TOL:
            break
        (entry,) = point_dets(M, [z_new])
        evals[0] += 1
        if entry is None:
            return None
        f_new = entry[0]
        z, f = [z[1], z[2], z_new], [f[1], f[2], f_new]
        if abs(f_new) < abs(best[1][0]):
            best = (z_new, entry)
        if f_new == 0.0:
            break
    else:
        return None
    return best


def _objective(entry) -> tuple:
    """``(F, A)`` of a ``point_dets`` entry: F = ln |det A|, or +inf and no
    matrix where the determinant is undefined."""
    return (math.inf, None) if entry is None else (objective_from_det(entry[0]), entry[1])


def _nelder_mead(M: MaterialCoefficients, simplex: list, values: list,
                 evals: list) -> tuple:
    """Clamped Nelder-Mead on F from a start simplex of speeds and their
    ``(F, A)`` values.

    Reflection, expansion, contraction and shrink coefficients are 1, 2,
    0.5, 0.5; every candidate vertex is clamped into the quadrant.  All four
    candidates of an iteration (reflected, expanded, outside and inside
    contraction) are known before any is evaluated, so each iteration makes
    one ``point_dets`` call on all four, and a shrink one more on its two new
    vertices.  ``evals`` counts only the evaluations the one-at-a-time
    algorithm consumes: 1 for an accepted reflection, 2 for an expansion or
    a contraction, 4 with a shrink.  The loop stops when the simplex
    diameter drops below ``DIAMETER_TOL`` or when the next iteration could
    take ``evals`` past ``MAX_EVALS``.  Returns the best vertex and its
    value.
    """

    def diameter() -> float:
        return max(abs(p - q) for idx, p in enumerate(simplex) for q in simplex[idx + 1:])

    def evaluated(zs: list) -> list:
        return [_objective(entry) for entry in point_dets(M, zs)]

    # One iteration spends at most 4 evaluations (reflect, contract, shrink
    # pair), so stopping 4 short keeps the hard budget.
    while evals[0] <= MAX_EVALS - 4 and diameter() > DIAMETER_TOL:
        best, mid, worst = sorted(range(3), key=lambda idx: values[idx][0])
        centroid = (simplex[best] + simplex[mid]) / 2.0
        xw = simplex[worst]
        reflected = _clamp(2.0 * centroid - xw)
        expanded = _clamp(3.0 * centroid - 2.0 * xw)
        outside = _clamp(centroid + 0.5 * (reflected - centroid))
        inside = _clamp(centroid + 0.5 * (xw - centroid))
        at_r, at_e, at_out, at_in = evaluated([reflected, expanded, outside, inside])
        evals[0] += 1

        if at_r[0] < values[best][0]:
            evals[0] += 1
            if at_e[0] < at_r[0]:
                simplex[worst], values[worst] = expanded, at_e
            else:
                simplex[worst], values[worst] = reflected, at_r
        elif at_r[0] < values[mid][0]:
            simplex[worst], values[worst] = reflected, at_r
        else:
            evals[0] += 1
            if at_r[0] < values[worst][0]:
                contracted, at_c, f_better = outside, at_out, at_r[0]
            else:
                contracted, at_c, f_better = inside, at_in, values[worst][0]
            if at_c[0] < f_better:
                simplex[worst], values[worst] = contracted, at_c
            else:
                evals[0] += 2
                xb = simplex[best]
                for idx in (mid, worst):
                    simplex[idx] = _clamp(xb + 0.5 * (simplex[idx] - xb))
                values[mid], values[worst] = evaluated([simplex[mid], simplex[worst]])

    best = min(range(3), key=lambda idx: values[idx][0])
    return simplex[best], values[best]


def _classify(z: complex, f: float, A, scale: float, opts: RefineOptions,
              iterations: int) -> RayleighRoot:
    """The refined speed z with objective f and secular matrix A, classified
    against ``scale``."""
    v = ComplexSpeed.from_complex(z)
    det_abs = math.exp(f) if f < 700.0 else math.inf
    converged = math.isfinite(det_abs) and det_abs <= opts.det_ratio_tol * scale
    gamma = None
    if converged:
        try:
            gamma = nullspace_amplitude(A)
        except NotARootError:
            converged = False
    return RayleighRoot(
        v=v,
        f_value=f,
        det_abs=det_abs,
        gamma=gamma,
        iterations=iterations,
        classification="converged" if converged else "stagnated",
    )


def refine_minimum(M: MaterialCoefficients, v0: ComplexSpeed,
                   opts: RefineOptions = RefineOptions()) -> RayleighRoot:
    """Refine a seed speed by Muller's method, with a simplex fallback.

    Both stages work on the complex speed v itself.  They start from the
    seed and its two perturbations by ``opts.initial_step``, +hx along
    Re v and -hy along Im v, clamped into the admissible quadrant, and
    every later point is clamped too.  det A is holomorphic in the open
    quadrant, so Muller's method on the complex determinant (Muller 1956)
    usually lands on a root in a handful of evaluations.  Its point of
    smallest |det| is returned when it classifies as "converged".
    Otherwise a clamped Nelder-Mead simplex on F = ln |det A| restarts from
    the three start points and their values, with the evaluations Muller
    left of ``MAX_EVALS``; its best vertex never worsens the seed
    value.  ``iterations`` counts the evaluations of both stages, as
    ``_nelder_mead`` counts them.

    The root is classified "converged" when its determinant magnitude is at
    most ``opts.det_ratio_tol`` times the reference scale ``opts.det_scale``
    (the seed determinant magnitude when no scale is given) and
    ``nullspace_amplitude`` finds singular the secular matrix that the
    batched kernel returned at that point.

    Raises
    ------
    StartFailureError
        If the objective is undefined at the seed and at both initial
        perturbations.
    """

    z0 = _clamp(complex(v0))
    hx, hy = opts.initial_step
    simplex = [z0, _clamp(z0 + hx), _clamp(z0 - 1j * hy)]
    start = point_dets(M, simplex)
    evals = [len(simplex)]
    values = [_objective(entry) for entry in start]
    f_values = [f for f, _ in values]
    if all(math.isinf(f) for f in f_values):
        raise StartFailureError(
            f"objective undefined at seed v = {complex(v0)!r} and all perturbations"
        )
    f_seed = min(f_values)
    scale = opts.det_scale
    if scale is None:
        scale = math.exp(f_seed) if f_seed < 700.0 else math.inf

    polished = _muller(M, simplex, start, opts, evals)
    if polished is not None:
        z_best, (det, A) = polished
        root = _classify(z_best, objective_from_det(det), A, scale, opts, evals[0])
        if root.classification == "converged":
            return root
    z_best, (f_best, A) = _nelder_mead(M, simplex, values, evals)
    return _classify(z_best, f_best, A, scale, opts, evals[0])


#: Roots closer than this in the complex plane count as duplicates.
DEDUP_TOL = 1e-6


def grid_median_det(grid: ScanGrid) -> float:
    """Median determinant magnitude over the evaluable lattice points."""
    finite = grid.values[np.isfinite(grid.values)]
    return float(np.median(np.exp(np.minimum(finite, 700.0))))


def find_rayleigh(M: MaterialCoefficients, window: ScanWindow,
                  det_ratio_tol: float = 1e-6) -> list:
    """Locate surface-wave roots inside a window.

    Scans the lattice, refines every strict interior local minimum with an
    initial step of a quarter grid cell, removes duplicates closer
    than ``DEDUP_TOL`` (keeping the lower objective value), and returns the
    roots sorted by objective value.  Convergence is judged against the
    median determinant magnitude of the scan.

    Raises
    ------
    ValueError
        If ``det_ratio_tol`` is not a nonnegative number.
    AllPointsFailedError
        Propagated from the scan.
    """
    if not det_ratio_tol >= 0.0:
        raise ValueError(f"det_ratio_tol must be a nonnegative number, got {det_ratio_tol!r}")
    grid = grid_scan(M, window)
    seeds = local_minima(grid)
    if not seeds:
        return []
    dx, dy = grid.window.cell_size()
    opts = RefineOptions(
        initial_step=(dx / 4.0, abs(dy) / 4.0),
        det_ratio_tol=det_ratio_tol,
        det_scale=grid_median_det(grid),
    )
    res = grid.window.re_values()
    ims = grid.window.im_values()

    refined = []
    for i, j in seeds:
        seed = ComplexSpeed(res[i], -ims[j])
        try:
            refined.append(refine_minimum(M, seed, opts))
        except StartFailureError:
            continue

    refined.sort(key=lambda root: root.f_value)
    kept = []
    for root in refined:
        if all(abs(complex(root.v) - complex(other.v)) > DEDUP_TOL for other in kept):
            kept.append(root)
    return kept
