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
    assemble_Dp,
    mode_speeds,
    mode_vector,
    validate_coefficients,
)
from rayleighmt import search, secular


def random_material(rng, general=True, e12_zero=False):
    """One strongly elliptic material; couplings nonzero when general.
    ``e12_zero`` sets eps1 + 2 eps2 = 0, at least 1e-3 (relative) away from
    rho d = b (lambda + 2 mu), where ``cancelling_material`` draws."""
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
            raw["eps1"] = (0.0 if e12_zero else e12) - 2.0 * raw["eps2"]
        else:
            raw["eps1"] = raw["eps2"] = 0.0
        if e12_zero and abs(raw["rho"] * d - raw["b"] * pw) < 1e-3 * raw["b"] * pw:
            continue
        M = validate_coefficients(raw)
        try:
            mode_speeds(M)
        except RayleighError:
            continue
        return M


#: General materials on which Gamma and Lambda of ``modes.kernel_row``'s
#: longitudinal row cancel at a mode speed: eps1 + 2 eps2 = 0 with
#: rho d = b (lambda + 2 mu), at t = d / b.  With that row, ``find_rayleigh``
#: reported a converged root at a boundary residual of 0.10 and 0.074.
CANCELLING = [
    {"rho": 1.5, "a": 0.7, "b": 0.8, "k": 1.3, "mu": 1.1, "lambda": 3.049999999999999,
     "d1": 0.9, "d2": 1.6, "d3": 0.3, "eps1": -1.2, "eps2": 0.6, "beta": 0.4, "m": 1.7},
    {"rho": 1.0, "a": 1.0, "b": 1.0, "k": 1.0, "mu": 1.0, "lambda": 0.0,
     "d1": 0.5, "d2": 1.5, "d3": 0.0, "eps1": -2.0, "eps2": 1.0, "beta": 1.0, "m": 1.0},
]


def cancelling_material(rng):
    """A general material on which Gamma and Lambda of ``modes.kernel_row``
    share a root, so that t is a mode speed: d is set, through d1, to meet
    d / b - m e12 / (b beta) = (lambda + 2 mu) / rho - beta e12 / (rho m),
    e12 = eps1 + 2 eps2.  Every second draw has e12 = 0 (``CANCELLING``)."""
    while True:
        M = random_material(rng)
        e12 = M.eps_long * float(rng.integers(2))
        d = (M.b * (M.p_wave_modulus / M.rho - M.beta * e12 / (M.rho * M.m))
             + M.m * e12 / M.beta)
        M = validate_coefficients(dict(M.to_dict(), eps1=e12 - 2.0 * M.eps2,
                                       d1=d - M.d2 - M.d3))
        try:
            mode_speeds(M)
        except RayleighError:
            continue
        return M


def kernel_residual(M, v, r):
    """||D(p_k) u_k|| / (||D|| ||u_k||) of ``mode_vector`` at speed v."""
    mb = mode_vector(M, v, r)
    D = assemble_Dp(M, v, mb.p.p)
    return float(np.linalg.norm(D @ mb.u) / (np.linalg.norm(D) * np.linalg.norm(mb.u)))


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


def reference_propagation_blocks(M, v):
    """The three coefficient blocks of D(p) = p^2 Q1 + p Q2 + R, written
    out entry by entry as ``modes`` once did; ``reference_Dp``,
    ``reference_Sp`` and ``reference_blocks`` are the literal operators the
    block table of ``modes.material_blocks`` must reproduce bit for bit."""
    lam, mu = M.lam, M.mu
    pw = M.p_wave_modulus
    e12 = M.eps_long
    e1, e2 = M.eps1, M.eps2
    d, d1, d2, d3 = M.d, M.d1, M.d2, M.d3
    vc = complex(v)
    v2 = vc * vc
    vb = vc * M.beta
    mv = M.m * vc

    q1 = np.array([
        [mu, 0.0, e2, 0.0, 0.0],
        [0.0, pw, 0.0, e12, 0.0],
        [e2, 0.0, d2, 0.0, 0.0],
        [0.0, e12, 0.0, d, 0.0],
        [0.0, 0.0, 0.0, 0.0, M.k],
    ], dtype=complex)
    q2 = np.array([
        [0.0, lam + mu, 0.0, e1 + e2, 0.0],
        [lam + mu, 0.0, e1 + e2, 0.0, vb],
        [0.0, e1 + e2, 0.0, d1 + d3, 0.0],
        [e1 + e2, 0.0, d1 + d3, 0.0, mv],
        [0.0, vb, 0.0, mv, 0.0],
    ], dtype=complex)
    r = np.array([
        [pw - M.rho * v2, 0.0, e12, 0.0, vb],
        [0.0, mu - M.rho * v2, 0.0, e2, 0.0],
        [e12, 0.0, d - M.b * v2, 0.0, mv],
        [0.0, e2, 0.0, d2 - M.b * v2, 0.0],
        [vb, 0.0, mv, 0.0, M.k - M.a * v2],
    ], dtype=complex)
    return (q1, q2, r)


def reference_Dp(M, v, p):
    """Literal D(p) at speed v."""
    q1, q2, r = reference_propagation_blocks(M, v)
    return (p * p) * q1 + p * q2 + r


def reference_Sp(M, v, p):
    """Literal boundary flux operator S(p) at speed v."""
    lam, mu = M.lam, M.mu
    e1, e2 = M.eps1, M.eps2
    e12 = M.eps_long
    vc = complex(v)
    vb = vc * M.beta
    mv = M.m * vc
    return np.array([
        [mu * p, mu, p * e2, e2, 0.0],
        [lam, (lam + 2.0 * mu) * p, e1, p * e12, vb],
        [p * e2, e1, M.d2 * p, M.d3, 0.0],
        [e2, p * e12, M.d1, M.d * p, mv],
        [0.0, vb, 0.0, mv, M.k * p],
    ], dtype=complex)


def mode_vector_matrix(M, v):
    """The secular matrix built one mode at a time, apart from the batched
    kernel: column k is the literal S(p_k) (``reference_Sp``) times
    ``mode_vector``'s closed form, in ``mode_speeds`` order.  Raises the
    error of the first mode whose ``mode_vector`` raises."""
    modes = [mode_vector(M, v, r) for r in mode_speeds(M).roots]
    return np.stack([reference_Sp(M, v, mb.p.p) @ mb.u for mb in modes], axis=1)


def reference_blocks(M):
    """The literal operators' blocks (Q1, Q2, V, R0, R1, R2, S0): Q1, Q2, R0
    and S0 at v = 0, and V, R1, R2 placed by index."""
    q1, q2, r0 = reference_propagation_blocks(M, 0j)
    s0 = reference_Sp(M, 0j, 0.0)
    v_lin, r1 = np.zeros((5, 5)), np.zeros((5, 5))
    v_lin[1, 4] = v_lin[4, 1] = r1[0, 4] = r1[4, 0] = M.beta
    v_lin[3, 4] = v_lin[4, 3] = r1[2, 4] = r1[4, 2] = M.m
    r2 = -np.diag([M.rho, M.rho, M.b, M.b, M.a])
    return q1, q2, v_lin, r0, r1, r2, s0


def _in_quadrant(z):
    """Whether ``ComplexSpeed`` accepts the speed z."""
    try:
        ComplexSpeed.from_complex(z)
    except ValueError:
        return False
    return True


def full_matrices(kernel, v):
    """``SecularKernel.evaluate`` written out with every check at every
    speed: the quadrant (by ``ComplexSpeed`` itself), then for every mode
    the non-decaying branch and the finiteness of each column S(p_k) u_k,
    then the finiteness of |det A|, taken at every speed.  A failure is
    ranked by the speed, then by the first failing mode and, within it, by
    the first failing check, then by the determinant.

    Returns ``(A, det, mode, kind, p, u)``; kept as the reference the lean
    kernel must match bit for bit (``det`` where ``kind`` is 0).
    """
    admissible = np.array([_in_quadrant(z) for z in v.tolist()], dtype=bool)
    with np.errstate(all="ignore"):
        q1, s0, v_lin = kernel.q1T.T, kernel.s0T.T, kernel.vT.T
        vv = v[:, None]
        root = np.sqrt(vv * vv / kernel.t - 1.0)
        p = np.where(root.imag > 0.0, root, -root)
        pp, vm = p[..., None], vv[..., None]
        u = kernel.u0 + pp * kernel.u1 + vm * kernel.u2
        sv = s0 + vm * v_lin
        rows = pp * (u @ q1.T) + u @ np.swapaxes(sv, 1, 2)
        A = np.swapaxes(rows, 1, 2)
        det = np.linalg.det(A)

        kind = np.where(np.isfinite(rows).all(axis=-1), 0, secular.NOT_FINITE)
        kind = np.where(p.imag > 0.0, kind, secular.NON_DECAYING)
        first = np.argmax(kind > 0, axis=1)
        kind = np.take_along_axis(kind, first[:, None], axis=1)[:, 0]
        mode = np.where(kind > 0, first + 1, 0)
        kind = np.where(kind > 0, kind,
                        np.where(np.isfinite(np.abs(det)), 0, secular.DET_NOT_FINITE))
        mode = np.where(admissible, mode, 0)
        kind = np.where(admissible, kind, secular.INADMISSIBLE)
        return A, det, mode, kind, p, u


#: Budgets of the removed Muller-then-simplex refinement, frozen here so
#: that ``search``'s own budget does not move the reference: evaluations of
#: the Muller stage, evaluations of both stages, and the Muller disc radius
#: in initial steps.
REFERENCE_MULLER_MAX_EVALS = 40
REFERENCE_MAX_EVALS = 500
REFERENCE_RADIUS_STEPS = 8.0

#: Muller-to-simplex handovers (``"handover"``) and iterates moved into the
#: quadrant (``"clamped"``) of ``reference_refine_minimum``; a test that
#: counts them monkeypatches in a fresh Counter.
BRANCHES = Counter()


def _clamp(z):
    """z moved into the admissible quadrant Re v >= 0, Im v <= 0, as the
    removed refinement did with every iterate; a move is tallied in
    ``BRANCHES["clamped"]``."""
    clamped = complex(max(z.real, 0.0), min(z.imag, 0.0))
    if clamped != z:
        BRANCHES["clamped"] += 1
    return clamped


def _reference_muller(det_at, z, dets, opts, evals):
    if any(d is None for d in dets):
        return None
    f = list(dets)
    seed = z[0]
    radius = REFERENCE_RADIUS_STEPS * max(opts.initial_step)
    best_z, best_f = min(zip(z, f), key=lambda zf: abs(zf[1]))
    while evals[0] < min(REFERENCE_MULLER_MAX_EVALS, REFERENCE_MAX_EVALS):
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


def _reference_nelder_mead(objective, simplex, f_values, evals):
    clamp = _clamp

    def diameter():
        return max(abs(p - q) for idx, p in enumerate(simplex) for q in simplex[idx + 1:])

    while evals[0] <= REFERENCE_MAX_EVALS - 4 and diameter() > search.DIAMETER_TOL:
        best, mid, worst = sorted(range(3), key=lambda idx: f_values[idx])
        centroid = (simplex[best] + simplex[mid]) / 2.0
        xw = simplex[worst]
        reflected = clamp(2.0 * centroid - xw)
        f_reflected = objective(reflected)

        if f_reflected < f_values[best]:
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
                contracted = clamp(centroid + 0.5 * (reflected - centroid))
                f_better = f_reflected
            else:
                contracted = clamp(centroid + 0.5 * (xw - centroid))
                f_better = f_values[worst]
            f_contracted = objective(contracted)
            if f_contracted < f_better:
                simplex[worst], f_values[worst] = contracted, f_contracted
            else:
                xb = simplex[best]
                for idx in (mid, worst):
                    simplex[idx] = clamp(xb + 0.5 * (simplex[idx] - xb))
                    f_values[idx] = objective(simplex[idx])

    best = min(range(3), key=lambda idx: f_values[idx])
    return simplex[best], f_values[best]


def _reference_classify(M, z, f, scale, iterations):
    v = ComplexSpeed.from_complex(z)
    det_abs = math.exp(f) if f < 700.0 else math.inf
    converged = math.isfinite(det_abs) and det_abs <= search.DET_RATIO_TOL * scale
    gamma = None
    if converged:
        try:
            gamma = secular.amplitudes(M, v)
        except NotARootError:
            converged = False
    return search.RayleighRoot(v=v, f_value=f, det_abs=det_abs, gamma=gamma,
                               iterations=iterations,
                               classification="converged" if converged else "stagnated")


def reference_refine_minimum(M, v0, opts=search.RefineOptions(initial_step=(1e-3, 1e-3))):
    """``search.refine_minimum`` as it was before the simplex fallback was
    removed, before refinement batched its evaluations and before it
    stopped clamping iterates into the quadrant: a clamped Muller stage in
    v, then a clamped Nelder-Mead on F = ln |det A| where that stage does
    not converge on an accepted root, with one ``point_dets`` or
    ``objective_F`` call per candidate speed and ``amplitudes`` at the end.
    Its default start step is that pipeline's absolute ``(1e-3, 1e-3)``.
    Kept as a test-only cross-check: wherever its Muller stage converges
    without clamping an iterate, ``refine_minimum`` must match it bit for
    bit, and no decaying root it finds may be lost.  Each Muller-to-simplex
    handover is tallied in ``BRANCHES["handover"]``, and each iterate it
    moves into the quadrant in ``BRANCHES["clamped"]``."""
    evals = [0]

    def det_at(z):
        evals[0] += 1
        (entry,) = secular.point_dets(M, [z])
        return None if entry is None else entry[0]

    def objective(z):
        evals[0] += 1
        try:
            return secular.objective_F(M, z.real, -z.imag)
        except ModeFailureError:
            return math.inf

    z0 = _clamp(complex(v0))
    hx, hy = opts.initial_step
    simplex = [z0, _clamp(z0 + hx), _clamp(z0 - 1j * hy)]
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
                                   scale, evals[0])
        if root.classification == "converged":
            return root
    BRANCHES["handover"] += 1
    z_best, f_best = _reference_nelder_mead(objective, simplex, f_values, evals)
    return _reference_classify(M, z_best, f_best, scale, evals[0])
