"""Shared samplers for the property tests.

Materials are drawn so that every strong-ellipticity condition holds by
construction: the coupling magnitudes eps1, eps2 are placed strictly
inside their admissible intervals, everything else is positive.  The
rejection loop only guards against the rare draw whose five mode speeds
come out too close to pass the distinctness check.
"""

import math

import numpy as np

from rayleighmt import (
    ComplexSpeed,
    RayleighError,
    mode_speeds,
    validate_coefficients,
)
from rayleighmt import secular
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
