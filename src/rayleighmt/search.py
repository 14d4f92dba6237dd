"""Root search over the complex speed plane.

The objective F = ln |det A| is sampled on a rectangular lattice and its
strict interior local minima seed the refinement.  Each seed is polished
by Muller's method on the complex determinant det A: first in the speed v
itself and, when that run does not converge on an accepted root, in the
uniformizing variable q = p_k of the bulk speed nearest the seed, where
det A stays analytic although it is not analytic in v (``modes.mode_shapes``
gives its start values, the kernel's own branch).  Iterates are kept
in the image of the quadrant, and an undefined one halves its step.  All
seeds step in lockstep, so each step of every seed together is one call
of the batched kernel (``point_dets``); a speed's value does not depend on
the call, so each seed ends where it would alone.  Refined minima are
accepted as surface-wave roots when the secular determinant is small
against the typical determinant magnitude of the scan; the mode weights
come from the matrix already computed at the refined point.
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
    radius of each run's disc.  Its default is an absolute speed, not one
    relative to the seed; ``find_rayleigh`` passes a quarter of a lattice
    cell.  ``det_scale`` is the |det A| that ``DET_RATIO_TOL`` is relative
    to (the seed's when None).  ``MAX_EVALS`` bounds the evaluations of
    both runs together and ``DIAMETER_TOL`` their last step.
    """

    initial_step: tuple = (1e-3, 1e-3)
    det_scale: float = None


@dataclass(frozen=True, eq=False)
class RayleighRoot:
    """A refined minimum of the secular objective."""

    v: ComplexSpeed
    f_value: float
    det_abs: float
    gamma: np.ndarray  # max-normalized mode weights; None when not converged
    iterations: int
    classification: str  # "converged" or "stagnated"


#: Bound on the last Muller step: times |z0| (the clamped seed) in v, and as
#: it is in the dimensionless q = p_k, so neither stop depends on the units.
DIAMETER_TOL = 1e-10

#: Evaluations the refinement of one seed may spend, start points
#: included.  The run in v stops at half of them, so the run in q always
#: has at least the other half.  Read at call time.
MAX_EVALS = 80

#: Radius of the disc around the seed that Muller iterates may not leave,
#: in units of the larger start offset.
MULLER_RADIUS_STEPS = 8.0


def _clamp(z: complex) -> complex:
    """z moved into the admissible quadrant Re v >= 0, Im v <= 0."""
    return complex(max(z.real, 0.0), min(z.imag, 0.0))


def _clamp_q(q: complex) -> complex:
    """q moved into Re q <= 0, Im q >= 0, the image of the quadrant under
    q = p_k."""
    return complex(min(q.real, 0.0), max(q.imag, 0.0))


def _muller(w: list, z: list, start: list, speed, clamp, tol: float, evals: list, limit: int):
    """Muller iterates on det A in a variable w of the speed v = speed(w).

    A generator: ``w`` holds the three start points in that variable, ``z``
    their speeds and ``start`` their ``point_dets`` entries; the speed of
    each later iterate is yielded as a one-speed list, to be sent back its
    entry.  Each step fits a parabola through the last three points by
    divided differences, takes the root nearer the newest point (the
    denominator of larger modulus) and moves it into the image of the
    quadrant with ``clamp``.  An undefined iterate halves its step toward
    the newest point.  The run converges once a step is at most ``tol``.
    It gives up on an undefined start point, a vanishing denominator, a
    step out of the disc of ``MULLER_RADIUS_STEPS`` start offsets around
    ``w[0]``, or ``evals`` reaching ``limit``.
    Returns ``(best, converged)``: the evaluated speed of smallest |det|
    with its entry, ``(z, (det, A))``, and whether the run converged.
    """
    best = min(((zk, entry) for zk, entry in zip(z, start) if entry is not None),
               key=lambda ze: abs(ze[1][0]))
    if any(entry is None for entry in start):
        return best, False
    f = [det for det, _ in start]
    seed, w_new = w[0], None
    radius = MULLER_RADIUS_STEPS * max(abs(w[1] - seed), abs(w[2] - seed))
    while evals[0] < limit:
        if w_new is None:
            try:
                h1, h2 = w[1] - w[0], w[2] - w[1]
                d1, d2 = (f[1] - f[0]) / h1, (f[2] - f[1]) / h2
                a = (d2 - d1) / (h2 + h1)
                b = d2 + h2 * a
                disc = cmath.sqrt(b * b - 4.0 * f[2] * a)
                den = b + disc if abs(b + disc) >= abs(b - disc) else b - disc
                w_new = clamp(w[2] - 2.0 * f[2] / den)
            except (ZeroDivisionError, OverflowError):
                break
            if not abs(w_new - seed) <= radius:  # also catches a NaN step
                break
        if abs(w_new - w[2]) <= tol:
            return best, True
        z_new = speed(w_new)
        (entry,) = yield [z_new]
        evals[0] += 1
        if entry is None:
            w_new = w[2] + 0.5 * (w_new - w[2])
            continue
        f_new = entry[0]
        w, f = [w[1], w[2], w_new], [f[1], f[2], f_new]
        if abs(f_new) < abs(best[1][0]):
            best = (z_new, entry)
        w_new = None
    return best, False


def _det_abs(f: float) -> float:
    """|det A| from F = ln |det A|, infinite for F at or above 700."""
    return math.exp(f) if f < 700.0 else math.inf


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


def _refine(M: MaterialCoefficients, v0: ComplexSpeed, opts: RefineOptions):
    """The refinement of one seed (``refine_minimum``) as a generator: it
    yields the list of speeds each step needs, is sent back their
    ``point_dets`` entries, and returns the ``RayleighRoot``."""
    z0 = _clamp(complex(v0))
    hx, hy = opts.initial_step
    z = [z0, _clamp(z0 + hx), _clamp(z0 - 1j * hy)]
    start = yield z
    if all(entry is None for entry in start):
        raise StartFailureError(
            f"objective undefined at seed v = {complex(v0)!r} and all perturbations"
        )
    scale = opts.det_scale
    if scale is None:
        scale = _det_abs(min(objective_from_det(entry[0])
                             for entry in start if entry is not None))
    evals = [len(z)]

    best, converged = yield from _muller(z, z, start, lambda v: v, _clamp,
                                         DIAMETER_TOL * abs(z0), evals, MAX_EVALS // 2)
    root = _classify(best, scale, evals[0])
    if converged and root.classification == "converged":
        return root
    t = min(mode_speeds(M).t_values(), key=lambda t: abs(z0 - math.sqrt(t)))
    q = mode_shapes(np.array(z), np.array([t]), 0.0, 0.0, 0.0)[0][:, 0].tolist()
    in_q, _ = yield from _muller(q, z, start, lambda q: cmath.sqrt(t * (1.0 + q * q)),
                                 _clamp_q, DIAMETER_TOL, evals, MAX_EVALS)
    if abs(in_q[1][0]) < abs(best[1][0]):
        best = in_q
    return _classify(best, scale, evals[0])


def _refine_lockstep(M: MaterialCoefficients, seeds: list, opts: RefineOptions) -> list:
    """Refine every seed at once: each round makes one ``point_dets`` call
    on the speeds all unfinished seeds ask for and sends each seed its
    entries.  A speed's entry does not depend on the call it is in, so every
    seed takes the steps it takes alone.  Returns one ``RayleighRoot`` per
    seed, or the ``StartFailureError`` of a seed whose start points are all
    undefined."""
    runs = [_refine(M, seed, opts) for seed in seeds]
    asks = [next(run) for run in runs]
    results = [None] * len(runs)
    live = range(len(runs))
    while live:
        entries = point_dets(M, [z for k in live for z in asks[k]])
        at, still = 0, []
        for k in live:
            n = len(asks[k])
            try:
                asks[k] = runs[k].send(entries[at:at + n])
                still.append(k)
            except StopIteration as done:
                results[k] = done.value
            except StartFailureError as exc:
                results[k] = exc
            at += n
        live = still
    return results


def refine_minimum(M: MaterialCoefficients, v0: ComplexSpeed,
                   opts: RefineOptions = RefineOptions()) -> RayleighRoot:
    """Refine a seed speed by Muller's method on det A, in v and then in q.

    Both runs start from the seed and its two perturbations by
    ``opts.initial_step``, +hx along Re v and -hy along Im v, clamped into
    the admissible quadrant.  det A is holomorphic in the open quadrant, so
    Muller's method (Muller 1956) in v itself usually lands on a root in a
    handful of evaluations.  It stops at half of ``MAX_EVALS`` and stays
    within ``MULLER_RADIUS_STEPS`` initial steps of the seed.  When it
    converges on a point that classifies as "converged", that point is the
    root.  Otherwise a second run restarts from the same three start points
    and their values in q = p_k (``modes.mode_shapes``) for the bulk speed
    sqrt(t_k) nearest the seed, with v = sqrt(t_k (1 + q^2)).  det A is
    analytic in q at that bulk speed, where it is not in v.  The second run
    keeps to Re q <= 0, Im q >= 0, the image of the quadrant, and to a disc
    of ``MULLER_RADIUS_STEPS`` start offsets measured in q.  A run stops at a
    step of ``DIAMETER_TOL`` times |seed| in v, or of ``DIAMETER_TOL`` in q.
    The root is the evaluated point of smallest |det| over both runs, so it
    never worsens the seed value.  ``iterations`` counts every evaluation,
    start points included.  Each step is one ``point_dets`` call: this is
    the lockstep refinement of ``find_rayleigh`` run on one seed.

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
    (root,) = _refine_lockstep(M, [v0], opts)
    if isinstance(root, StartFailureError):
        raise root
    return root


#: Roots closer than this times the window's largest absolute bound merge.
DEDUP_TOL = 1e-6

#: A refined point is accepted as a root when its |det A| is at most this
#: times the reference scale (``RefineOptions.det_scale``): the scan median
#: in ``find_rayleigh``.
DET_RATIO_TOL = 1e-6


def grid_median_det(grid: ScanGrid) -> float:
    """Median determinant magnitude over the evaluable lattice points."""
    finite = grid.values[np.isfinite(grid.values)]
    return float(np.median(np.exp(np.minimum(finite, 700.0))))


def find_rayleigh(M: MaterialCoefficients, window: ScanWindow) -> list:
    """Locate surface-wave roots inside a window.

    Scans the lattice, refines every strict interior local minimum by the
    two Muller runs of ``refine_minimum`` (in v, then in q = p_k of the
    nearest bulk speed) with an initial step of a quarter grid cell, removes
    duplicates closer than ``DEDUP_TOL`` times the window's largest absolute
    bound (keeping the lower objective value), and returns the roots sorted
    by objective value.  A root is accepted at |det A| at most
    ``DET_RATIO_TOL`` times the median determinant magnitude of the scan
    (``grid_median_det``).  The seeds are refined in lockstep, one
    ``point_dets`` call per step for all of them; each root is the one
    ``refine_minimum`` gives its seed, and a seed whose start points are all
    undefined is dropped.

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
    refined = [root for root in _refine_lockstep(
        M, [ComplexSpeed(res[i], -ims[j]) for i, j in seeds], opts)
        if isinstance(root, RayleighRoot)]
    refined.sort(key=lambda root: root.f_value)
    tol = DEDUP_TOL * max(map(abs, (window.re_min, window.re_max, window.im_min, window.im_max)))
    kept = []
    for root in refined:
        if all(abs(complex(root.v) - complex(other.v)) > tol for other in kept):
            kept.append(root)
    return kept
