"""Root search over the complex speed plane.

The objective F = ln |det A| is sampled on a rectangular lattice and its
strict interior local minima seed the refinement.  Each seed is polished
by Muller's method on the complex determinant det A: first in the speed v
itself and, when that run does not converge on an accepted root, in the
uniformizing variable q = p_k of the bulk speed nearest the seed, where
det A stays analytic although it is not analytic in v (``modes.mode_shapes``
gives its start values, the kernel's own branch).  An undefined iterate,
one out of the admissible quadrant included, halves its step.  Refined
minima are accepted as surface-wave roots when the secular determinant is
small against the typical determinant magnitude of the scan; the mode
weights come from the matrix already computed at the refined point.
"""

from __future__ import annotations

import cmath
import math
import numbers
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
from .modes import ComplexSpeed, mode_shapes
from .secular import (
    amplitudes,  # not called here; bench/tracing.py wraps search.amplitudes
    nullspace_amplitude,
    objective_F,
    objective_from_det,
    point_dets,
    secular_objective,
)
from .spectrum import mode_speeds

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
        if not all(isinstance(n, numbers.Integral) for n in (self.nx, self.ny)):
            raise ValueError(f"lattice sizes must be integers, got {self.nx!r} and {self.ny!r}")
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


def default_window(M: MaterialCoefficients, nx: int = 128, ny: int = 64) -> ScanWindow:
    """The window searched when none is given: Re v in [0.02 c, 1.25 c] and
    Im v in [-0.45 c, 0], c = sqrt(t_max).  Damped roots can sit above every
    bulk speed, so the window runs up to 1.25 times the fastest mode speed."""
    c = math.sqrt(max(mode_speeds(M).t_values()))
    return ScanWindow(re_min=0.02 * c, re_max=1.25 * c, im_min=-0.45 * c, im_max=0.0,
                      nx=nx, ny=ny)


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


#: Lattice points per batched objective call of ``grid_scan``, at most: fewer
#: calls spend less on per-call numpy overhead, larger ones raise peak memory.
_SCAN_CHUNK = 256


def grid_scan(M: MaterialCoefficients, window: ScanWindow, threads=None) -> ScanGrid:
    """Sample the objective on the window lattice.

    Each call of the batched objective evaluates at most ``_SCAN_CHUNK``
    consecutive lattice points in row-major order (a row is one Re v and
    every Im v), from speeds built for that call alone (a lattice-sized
    array of them slowed the reference solve by a quarter in some heap
    layouts); a point's value does not depend on the call.  Points outside
    the admissible quadrant or where the objective is undefined become NaN
    and are counted as failures.  Each of them is evaluated once more by
    ``objective_F``, whose typed error is tallied in ``failure_causes``, so
    the failures are exactly the points where ``objective_F`` raises.
    ``threads`` is accepted and ignored.

    Raises
    ------
    AllPointsFailedError
        If no lattice point evaluates.
    """
    res = window.re_values()
    ims = window.im_values()
    values = np.empty((window.nx, window.ny))
    for k in range(0, values.size, _SCAN_CHUNK):
        i, j = np.divmod(np.arange(k, min(k + _SCAN_CHUNK, values.size)), window.ny)
        values.flat[k:k + _SCAN_CHUNK] = secular_objective(M, res[i] + 1j * ims[j])

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
    """Start and acceptance scale of the refinement.

    ``initial_step`` spaces the three start points, whose offsets set the
    radius of each run's disc: 1e-3 |seed| on each axis when None, so it
    scales with the units; ``find_rayleigh`` passes a quarter lattice cell.
    ``det_scale`` is the |det A| that ``DET_RATIO_TOL`` is relative to (the
    seed's when None).  ``MAX_EVALS`` bounds the evaluations of both runs
    together and ``DIAMETER_TOL`` their last step.  A given step is a pair
    of finite and positive offsets, so the start points lie in the
    admissible quadrant with the seed.  A given scale is positive; it may
    be +inf, which ``grid_median_det`` returns for a scan of huge |det|.
    """

    initial_step: tuple = None
    det_scale: float = None

    def __post_init__(self):
        step = self.initial_step
        if step is not None and (np.ndim(step) != 1 or len(step) != 2):
            raise ValueError(f"initial_step must be a pair, got {step!r}")
        if not (self.det_scale is None or self.det_scale > 0.0):  # also catches NaN
            raise ValueError(f"det_scale must be None or positive, got {self.det_scale!r}")
        if step is not None and not all(math.isfinite(h) and h > 0.0 for h in step):
            raise ValueError(f"initial_step must be finite and positive, got {step!r}")


@dataclass(frozen=True, eq=False)
class RayleighRoot:
    """A refined minimum of the secular objective."""

    v: ComplexSpeed
    f_value: float
    det_abs: float
    gamma: np.ndarray  # max-normalized mode weights; None when not converged
    iterations: int
    classification: str  # "converged" or "stagnated"


#: Bound on the last Muller step: times |z0| (the seed) in v, and as
#: it is in the dimensionless q = p_k, so neither stop depends on the units.
DIAMETER_TOL = 1e-10

#: Evaluations the refinement of one seed may spend, start points
#: included.  The run in v stops at half of them, so the run in q always
#: has at least the other half.  Read at call time.
MAX_EVALS = 80

#: Radius of the disc around the seed that Muller iterates may not leave,
#: in units of the larger start offset.
MULLER_RADIUS_STEPS = 8.0


def _muller(M: MaterialCoefficients, w: list, z: list, start: list, speed, tol: float,
            evals: int, limit: int):
    """Muller iterates on det A in a variable w of the speed v = speed(w).

    ``w`` holds the three start points in that variable, ``z`` their speeds
    and ``start`` their ``point_dets`` entries; each later iterate is
    evaluated by a ``point_dets`` call of its own.  Each step fits a
    parabola through the last three points by divided differences and takes
    the root nearer the newest point (the denominator of larger modulus).
    An undefined iterate, such as a w that ``speed`` maps to NaN or out of
    the admissible quadrant, halves its step toward the newest point; it
    counts as an evaluation, but a NaN speed costs no ``point_dets`` call.
    The run converges once a step is at most ``tol``.  It gives up on an
    undefined start point, a vanishing denominator, a step out of the disc
    of ``MULLER_RADIUS_STEPS`` start offsets around ``w[0]``, or the count
    ``evals`` of evaluations so far reaching ``limit``.
    Returns ``(best, converged, evals)``: the evaluated speed of smallest
    |det| with its entry, ``(z, (det, A))``, whether the run converged, and
    the evaluation count after the run.
    """
    best = min(((zk, entry) for zk, entry in zip(z, start) if entry is not None),
               key=lambda ze: abs(ze[1][0]))
    if any(entry is None for entry in start):
        return best, False, evals
    f = [det for det, _ in start]
    seed, w_new = w[0], None
    radius = MULLER_RADIUS_STEPS * max(abs(w[1] - seed), abs(w[2] - seed))
    while evals < limit:
        if w_new is None:
            try:
                h1, h2 = w[1] - w[0], w[2] - w[1]
                d1, d2 = (f[1] - f[0]) / h1, (f[2] - f[1]) / h2
                a = (d2 - d1) / (h2 + h1)
                b = d2 + h2 * a
                disc = cmath.sqrt(b * b - 4.0 * f[2] * a)
                den = b + disc if abs(b + disc) >= abs(b - disc) else b - disc
                w_new = w[2] - 2.0 * f[2] / den
            except (ZeroDivisionError, OverflowError):
                break
            if not abs(w_new - seed) <= radius:  # also catches a NaN step
                break
        if abs(w_new - w[2]) <= tol:
            return best, True, evals
        z_new = speed(w_new)
        evals += 1
        entry = None if cmath.isnan(z_new) else point_dets(M, [z_new])[0]
        if entry is None:
            w_new = w[2] + 0.5 * (w_new - w[2])
            continue
        f_new = entry[0]
        w, f = [w[1], w[2], w_new], [f[1], f[2], f_new]
        if abs(f_new) < abs(best[1][0]):
            best = (z_new, entry)
        w_new = None
    return best, False, evals


def _det_abs(f: float) -> float:
    """|det A| from F = ln |det A|, infinite for F at or above ``F_INFINITE``."""
    return math.exp(f) if f < F_INFINITE else math.inf


def _classify(best: tuple, scale: float, iterations: int) -> RayleighRoot:
    """The speed and ``point_dets`` entry ``best = (z, (det, A))``,
    classified against ``DET_RATIO_TOL`` times ``scale``."""
    z, (det, A) = best
    f = objective_from_det(det)
    det_abs = _det_abs(f)
    converged = math.isfinite(det_abs) and det_abs <= DET_RATIO_TOL * scale
    gamma = None
    if converged:
        try:
            gamma = nullspace_amplitude(A)
        except NotARootError:
            converged = False
    return RayleighRoot(
        v=ComplexSpeed.from_complex(z),
        f_value=f,
        det_abs=det_abs,
        gamma=gamma,
        iterations=iterations,
        classification="converged" if converged else "stagnated",
    )


def refine_minimum(M: MaterialCoefficients, v0: ComplexSpeed,
                   opts: RefineOptions = RefineOptions()) -> RayleighRoot:
    """Refine a seed speed by Muller's method on det A, in v and then in q.

    Both runs start from the seed and its two perturbations by
    ``opts.initial_step`` (1e-3 |seed| each by default), +hx along Re v and
    -hy along Im v.  det A is holomorphic in the open quadrant, so Muller's
    method (Muller 1956) in v itself usually lands on a root in a handful
    of evaluations.  It stops at half of ``MAX_EVALS`` and stays within
    ``MULLER_RADIUS_STEPS`` initial steps of the seed.  When it converges
    on a point that classifies as "converged", that point is the root.
    Otherwise a second run restarts from the same three start points
    and their values in q = p_k (``modes.mode_shapes``) for the bulk speed
    sqrt(t_k) nearest the seed, with v = sqrt(t_k (1 + q^2)).  det A is
    analytic in q at that bulk speed, where it is not in v.  The second run
    keeps to a disc of ``MULLER_RADIUS_STEPS`` start offsets measured in q.
    In both runs an undefined iterate halves its step toward the newest
    point, and one outside the admissible quadrant (in q, outside its image
    Re q <= 0, Im q >= 0) is undefined.  A run stops at a step of
    ``DIAMETER_TOL`` times |seed| in v, or of ``DIAMETER_TOL`` in q.
    The root is the evaluated point of smallest |det| over both runs, so it
    never worsens the seed value.  ``iterations`` counts every evaluation,
    start points included: one ``point_dets`` call evaluates the three start
    points, and one more each iterate that has a speed.

    The root is classified "converged" when its determinant magnitude is at
    most ``DET_RATIO_TOL`` times the reference scale ``opts.det_scale`` (the
    seed determinant magnitude when no scale is given) and
    ``nullspace_amplitude`` finds singular the secular matrix that the
    batched kernel returned at that point.

    Raises
    ------
    StartFailureError
        If the objective is undefined at the seed and at both initial
        perturbations.
    """
    z0 = complex(v0)
    hx, hy = (1e-3 * abs(z0),) * 2 if opts.initial_step is None else opts.initial_step
    z = [z0, z0 + hx, z0 - 1j * hy]
    start = point_dets(M, z)
    if all(entry is None for entry in start):
        raise StartFailureError(
            f"objective undefined at seed v = {z0!r} and all perturbations"
        )
    scale = opts.det_scale
    if scale is None:
        scale = _det_abs(min(objective_from_det(entry[0])
                             for entry in start if entry is not None))

    best, converged, evals = _muller(M, z, z, start, lambda v: v, DIAMETER_TOL * abs(z0),
                                     len(z), MAX_EVALS // 2)
    root = _classify(best, scale, evals)
    if converged and root.classification == "converged":
        return root
    t = min(mode_speeds(M).t_values(), key=lambda t: abs(z0 - math.sqrt(t)))
    q = mode_shapes(np.array(z), np.array([t]), 0.0, 0.0, 0.0)[0][:, 0].tolist()

    def speed(q):  # none outside Re q <= 0 <= Im q, the image of the quadrant
        return cmath.sqrt(t * (1.0 + q * q)) if q.real <= 0.0 <= q.imag else cmath.nan

    in_q, _, evals = _muller(M, q, z, start, speed, DIAMETER_TOL, evals, MAX_EVALS)
    if abs(in_q[1][0]) < abs(best[1][0]):
        best = in_q
    return _classify(best, scale, evals)


#: Roots closer than this times the window's largest absolute bound merge.
DEDUP_TOL = 1e-6

#: A refined point is accepted as a root when its |det A| is at most this
#: times the reference scale (``RefineOptions.det_scale``): the scan median
#: in ``find_rayleigh``.
DET_RATIO_TOL = 1e-6

#: F = ln |det A| from which |det A| counts as infinite, short of exp's range.
F_INFINITE = 700.0


def grid_median_det(grid: ScanGrid) -> float:
    """Median |det A| over the evaluable lattice points, as ``_det_abs`` has it."""
    F = grid.values[np.isfinite(grid.values)]
    return float(np.median(np.where(F < F_INFINITE, np.exp(np.minimum(F, F_INFINITE)), np.inf)))


def find_rayleigh(M: MaterialCoefficients, window: ScanWindow) -> list:
    """Locate surface-wave roots inside a window.

    Scans the lattice, refines every strict interior local minimum by the
    two Muller runs of ``refine_minimum`` (in v, then in q = p_k of the
    nearest bulk speed) with an initial step of a quarter grid cell, removes
    duplicates closer than ``DEDUP_TOL`` times the window's largest absolute
    bound (keeping the lower objective value), and returns the roots sorted
    by objective value.  A root is accepted at |det A| at most
    ``DET_RATIO_TOL`` times the median determinant magnitude of the scan
    (``grid_median_det``).  Each seed is refined by a ``refine_minimum``
    call of its own, and a seed whose start points are all undefined is
    dropped.

    Raises
    ------
    AllPointsFailedError
        Propagated from the scan.
    """
    grid = grid_scan(M, window)
    seeds = local_minima(grid)
    dx, dy = grid.window.cell_size()
    opts = RefineOptions(initial_step=(dx / 4.0, abs(dy) / 4.0), det_scale=grid_median_det(grid))
    res = grid.window.re_values()
    ims = grid.window.im_values()
    refined = []
    for i, j in seeds:
        try:
            refined.append(refine_minimum(M, ComplexSpeed(res[i], -ims[j]), opts))
        except StartFailureError:
            continue
    refined.sort(key=lambda root: root.f_value)
    tol = DEDUP_TOL * max(map(abs, (window.re_min, window.re_max, window.im_min, window.im_max)))
    kept = []
    for root in refined:
        if all(abs(complex(root.v) - complex(other.v)) > tol for other in kept):
            kept.append(root)
    return kept
