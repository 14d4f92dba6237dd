"""Shared samplers for the property tests.

Materials are drawn so that every strong-ellipticity condition holds by
construction: the coupling magnitudes eps1, eps2 are placed strictly
inside their admissible intervals, everything else is positive.  The
rejection loop only guards against the rare draw whose five mode speeds
come out too close to pass the distinctness check.
"""

import cmath
import math
from collections import Counter

import numpy as np

from rayleighmt import (
    ComplexSpeed,
    ModeFailureError,
    NotARootError,
    RayleighError,
    StartFailureError,
    mode_speeds,
    validate_coefficients,
)
from rayleighmt import search, secular
from rayleighmt.modes import NULLSPACE_RTOL


def random_material(rng, general=True):
    """One strongly elliptic material; couplings nonzero when general."""
    while True:
        raw = {
            "rho": rng.uniform(0.3, 3.0),
            "a": rng.uniform(0.3, 3.0),
            "b": rng.uniform(0.3, 3.0),
            "k": rng.uniform(0.3, 3.0),
            "mu": rng.uniform(0.3, 3.0),
            "d1": rng.uniform(0.1, 2.0),
            "d2": rng.uniform(0.3, 3.0),
            "d3": rng.uniform(0.1, 2.0),
            "beta": rng.uniform(0.1, 1.5) if general else 0.0,
            "m": rng.uniform(0.1, 1.5) if general else 0.0,
        }
        raw["lambda"] = rng.uniform(-0.5 * raw["mu"], 3.0)
        pw = raw["lambda"] + 2.0 * raw["mu"]
        d = raw["d1"] + raw["d2"] + raw["d3"]
        if general:
            raw["eps2"] = rng.uniform(0.05, 0.8) * math.sqrt(raw["mu"] * raw["d2"])
            e12 = rng.uniform(0.05, 0.8) * math.sqrt(pw * d)
            raw["eps1"] = e12 - 2.0 * raw["eps2"]
        else:
            raw["eps1"] = raw["eps2"] = 0.0
        M = validate_coefficients(raw)
        try:
            mode_speeds(M)
        except RayleighError:
            continue
        return M


def random_speed(rng, M, im_floor=0.01):
    """An admissible complex speed away from the real axis."""
    c = math.sqrt(min(mode_speeds(M).t_values()))
    return ComplexSpeed(rng.uniform(0.05, 1.6) * c, rng.uniform(im_floor, 0.5) * c)


def det_cofactor(A):
    """Determinant by cofactor expansion along the first row.

    Exponential in the matrix size; kept as an independent cross-check of
    the elimination determinant.
    """
    a = [[complex(x) for x in row] for row in np.asarray(A)]

    def expand(rows, cols):
        if len(cols) == 1:
            return a[rows[0]][cols[0]]
        first = rows[0]
        rest = rows[1:]
        total = complex(0.0)
        sign = 1.0
        for i, col in enumerate(cols):
            entry = a[first][col]
            if entry != 0.0:
                sub_cols = cols[:i] + cols[i + 1:]
                total += sign * entry * expand(rest, sub_cols)
            sign = -sign
        return total

    n = len(a)
    return expand(tuple(range(n)), tuple(range(n)))


def nullspace_sine(u, w):
    """Sine of the angle between u and the unit vector w."""
    uhat = np.asarray(u, dtype=complex)
    uhat = uhat / np.linalg.norm(uhat)
    return float(np.linalg.norm(uhat - w * np.vdot(w, uhat)))


def full_d_matrices(kernel, v):
    """``SecularKernel.matrices`` as it was before D(p_k) was built only
    where a check needs it: the full (n, 5, 5, 5) stack of D(p_k), its
    finiteness everywhere, and the failure reduction over every speed.

    Returns ``(A, mode, kind, D)``; kept as the reference the lean kernel
    must match bit for bit.
    """
    with np.errstate(all="ignore"):
        q1, q2, v_lin, r0, r1, r2, s0 = kernel.blocks
        vv = v[:, None]
        root = np.sqrt(vv * vv / kernel.t - 1.0)
        p = np.where(root.imag > 0.0, root, -root)
        pp, vm = p[..., None], vv[..., None]
        u = kernel.u0 + pp * kernel.u1 + vm * kernel.u2

        q2v = q2 + vm * v_lin
        rv = r0 + vm * (r1 + vm * r2)
        sv = s0 + vm * v_lin
        pm = pp[..., None]
        D = pm * (pm * q1 + q2v[:, None]) + rv[:, None]
        finite = np.isfinite(D).all(axis=(-2, -1))
        gap = np.abs(vv) ** 2 * kernel.delta / np.abs(p) ** 2
        check = ~(gap >= secular.GAP_SCREEN) & finite
        dimension = np.ones(p.shape, dtype=int)
        if check.any():
            s = np.linalg.svd(D[check], compute_uv=False)
            dimension[check] = np.sum(s <= NULLSPACE_RTOL * s[:, :1], axis=-1)

        kind = np.where(dimension != 1, secular.KERNEL_DIMENSION, 0)
        kind = np.where(u.any(axis=-1), kind, secular.ZERO_KERNEL)
        kind = np.where(root.imag == 0.0, secular.NON_DECAYING, kind)
        kind = np.where(finite.all(axis=1, keepdims=True), kind,
                        np.where(finite, 0, secular.NOT_FINITE))
        first = np.argmax(kind > 0, axis=1)
        kind = np.take_along_axis(kind, first[:, None], axis=1)[:, 0]
        mode = np.where(kind > 0, first + 1, 0)

        rows = pp * (u @ q1.T) + u @ np.swapaxes(sv, 1, 2)
        return np.swapaxes(rows, 1, 2), mode, kind, D


#: Branches ``reference_refine_minimum`` took, by name; a test that counts
#: them monkeypatches in a fresh Counter.
BRANCHES = Counter()


def _reference_muller(det_at, z, dets, opts, evals):
    if any(d is None for d in dets):
        return None
    f = list(dets)
    seed = z[0]
    radius = search.MULLER_RADIUS_STEPS * max(opts.initial_step)
    best_z, best_f = min(zip(z, f), key=lambda zf: abs(zf[1]))
    while evals[0] < min(search.MULLER_MAX_EVALS, opts.max_evals):
        try:
            h1, h2 = z[1] - z[0], z[2] - z[1]
            d1, d2 = (f[1] - f[0]) / h1, (f[2] - f[1]) / h2
            a = (d2 - d1) / (h2 + h1)
            b = d2 + h2 * a
            disc = cmath.sqrt(b * b - 4.0 * f[2] * a)
            den = b + disc if abs(b + disc) >= abs(b - disc) else b - disc
            z_new = search._clamp(z[2] - 2.0 * f[2] / den)
        except (ZeroDivisionError, OverflowError):
            return None
        if not abs(z_new - seed) <= radius:
            return None
        if abs(z_new - z[2]) <= search.DIAMETER_TOL:
            break
        f_new = det_at(z_new)
        if f_new is None:
            return None
        z, f = [z[1], z[2], z_new], [f[1], f[2], f_new]
        if abs(f_new) < abs(best_f):
            best_z, best_f = z_new, f_new
        if f_new == 0.0:
            break
    else:
        return None
    return best_z, best_f


def _reference_nelder_mead(objective, simplex, f_values, opts, evals):
    clamp = search._clamp

    def diameter():
        return max(abs(p - q) for idx, p in enumerate(simplex) for q in simplex[idx + 1:])

    while evals[0] <= opts.max_evals - 4 and diameter() > search.DIAMETER_TOL:
        best, mid, worst = sorted(range(3), key=lambda idx: f_values[idx])
        centroid = (simplex[best] + simplex[mid]) / 2.0
        xw = simplex[worst]
        reflected = clamp(2.0 * centroid - xw)
        f_reflected = objective(reflected)

        if f_reflected < f_values[best]:
            BRANCHES["expansion"] += 1
            expanded = clamp(3.0 * centroid - 2.0 * xw)
            f_expanded = objective(expanded)
            if f_expanded < f_reflected:
                simplex[worst], f_values[worst] = expanded, f_expanded
            else:
                simplex[worst], f_values[worst] = reflected, f_reflected
        elif f_reflected < f_values[mid]:
            simplex[worst], f_values[worst] = reflected, f_reflected
        else:
            if f_reflected < f_values[worst]:
                BRANCHES["outside_contraction"] += 1
                contracted = clamp(centroid + 0.5 * (reflected - centroid))
                f_better = f_reflected
            else:
                BRANCHES["inside_contraction"] += 1
                contracted = clamp(centroid + 0.5 * (xw - centroid))
                f_better = f_values[worst]
            f_contracted = objective(contracted)
            if f_contracted < f_better:
                simplex[worst], f_values[worst] = contracted, f_contracted
            else:
                BRANCHES["shrink"] += 1
                xb = simplex[best]
                for idx in (mid, worst):
                    simplex[idx] = clamp(xb + 0.5 * (simplex[idx] - xb))
                    f_values[idx] = objective(simplex[idx])

    best = min(range(3), key=lambda idx: f_values[idx])
    return simplex[best], f_values[best]


def _reference_classify(M, z, f, scale, opts, iterations):
    v = ComplexSpeed.from_complex(z)
    det_abs = math.exp(f) if f < 700.0 else math.inf
    converged = math.isfinite(det_abs) and det_abs <= opts.det_ratio_tol * scale
    gamma = None
    if converged:
        try:
            gamma = secular.amplitudes(M, v)
        except NotARootError:
            converged = False
    return search.RayleighRoot(v=v, f_value=f, det_abs=det_abs, gamma=gamma,
                               iterations=iterations,
                               classification="converged" if converged else "stagnated")


def reference_refine_minimum(M, v0, opts=search.RefineOptions()):
    """``search.refine_minimum`` as it was before refinement batched its
    evaluations: one ``point_det`` or ``objective_F`` call per candidate
    speed and ``amplitudes`` at the end.  Kept as the reference the batched
    refinement must match bit for bit; it also tallies in ``BRANCHES`` the
    simplex branches it takes and each Muller-to-simplex handover."""
    evals = [0]

    def det_at(z):
        evals[0] += 1
        try:
            return secular.point_det(M, z.real, -z.imag)
        except ModeFailureError:
            return None

    def objective(z):
        evals[0] += 1
        try:
            return secular.objective_F(M, z.real, -z.imag)
        except ModeFailureError:
            return math.inf

    z0 = search._clamp(complex(v0))
    hx, hy = opts.initial_step
    simplex = [z0, search._clamp(z0 + hx), search._clamp(z0 - 1j * hy)]
    dets = [det_at(z) for z in simplex]
    f_values = [math.inf if d is None else secular.objective_from_det(d) for d in dets]
    if all(math.isinf(f) for f in f_values):
        raise StartFailureError(
            f"objective undefined at seed v = {complex(v0)!r} and all perturbations")
    f_seed = min(f_values)
    scale = opts.det_scale
    if scale is None:
        scale = math.exp(f_seed) if f_seed < 700.0 else math.inf

    polished = _reference_muller(det_at, simplex, dets, opts, evals)
    if polished is not None:
        root = _reference_classify(M, polished[0], secular.objective_from_det(polished[1]),
                                   scale, opts, evals[0])
        if root.classification == "converged":
            return root
    BRANCHES["handover"] += 1
    z_best, f_best = _reference_nelder_mead(objective, simplex, f_values, opts, evals)
    return _reference_classify(M, z_best, f_best, scale, opts, evals[0])
