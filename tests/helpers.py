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
