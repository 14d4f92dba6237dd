"""A 40-digit route to the secular matrix, the tests' independent reference.

It shares only the coefficient table ``modes.material_blocks`` with the
library, and computes everything else in mpmath at ``DPS`` significant
digits, along the textbook route rather than the closed forms:

- the squared bulk speeds t_k are the zeros of det D(p) at v = 1, where
  t (p^2 + 1) = v^2 gives p^2 = 1/t - 1.  det D(sqrt(s)) is a quintic in
  s = p^2; it is interpolated at six nodes, its roots start the search,
  and each t_k is refined as a zero of det D(sqrt(1/t - 1)) itself;
- at a speed v, p_k is the root of p^2 = v^2 / t_k - 1 with Im p_k > 0,
  and u_k is the null vector of D(p_k), the last right singular vector of
  ``mp.svd_c``;
- column k of A is S(p_k) u_k, and det A is taken at ``DPS`` digits.

A null vector is fixed only up to a factor: each u_k is divided by its
component ``pivots[k]`` (by default its largest one), so det A is an
analytic function of v while the pivots stay fixed.  Comparing with the
library means rescaling by the closed forms' own components there.
"""

from mpmath import mp

from rayleighmt.modes import material_blocks

#: Working precision of the oracle, in decimal digits.
DPS = 40

#: Step below which a secant iteration stops: ten digits short of ``DPS``,
#: where the determinant's rounding would otherwise keep it stepping.
TOL = 10.0 ** (10 - DPS)


def _blocks(M):
    return [mp.matrix([[mp.mpc(complex(x)) for x in row] for row in block])
            for block in material_blocks(M)]


def _operators(M, v):
    """D(p) and S(p) at speed v, as functions of p."""
    q1, q2, vl, r0, r1, r2, s0 = _blocks(M)
    b, c, s = q2 + v * vl, r0 + v * r1 + v * v * r2, s0 + v * vl
    return (lambda p: p * p * q1 + p * b + c), (lambda p: p * q1 + s)


def bulk_speeds(M):
    """The five squared bulk speeds t_k at ``DPS`` digits, ascending."""
    with mp.workdps(DPS):
        D, _ = _operators(M, mp.mpf(1))
        nodes = [mp.mpf(j) for j in range(6)]
        values = [mp.det(D(mp.sqrt(s))) for s in nodes]
        coeffs = mp.lu_solve(mp.matrix([[s ** (5 - j) for j in range(6)] for s in nodes]),
                             mp.matrix(values))
        ts = []
        for s in mp.polyroots(list(coeffs), maxsteps=200, extraprec=2 * DPS):
            t0 = 1 / (1 + mp.re(s))
            t = mp.findroot(lambda t: mp.det(D(mp.sqrt(1 / t - 1))), (t0, t0 * (1 + 1e-12)),
                            tol=TOL)
            ts.append(mp.re(t))
        return sorted(ts)


def secular(M, v, ts, pivots=None):
    """``(A, det, ps, us, pivots)`` at speed v for the squared bulk speeds
    ts, in their order: the secular matrix (``mp.matrix``) and its
    determinant, the decaying exponents, the null vectors scaled to 1 at
    their pivot components, and those pivots (each vector's largest
    component unless given)."""
    with mp.workdps(DPS):
        v = mp.mpc(v)
        D, S = _operators(M, v)
        A, ps, us, js = mp.matrix(5, 5), [], [], []
        for k, t in enumerate(ts):
            p = mp.sqrt(v * v / t - 1)
            p = p if mp.im(p) > 0 else -p
            _, _, V = mp.svd_c(D(p))
            u = [mp.conj(V[4, i]) for i in range(5)]
            j = pivots[k] if pivots else max(range(5), key=lambda i: abs(u[i]))
            u = mp.matrix([x / u[j] for x in u])
            col = S(p) * u
            for i in range(5):
                A[i, k] = col[i]
            ps.append(p)
            us.append(u)
            js.append(j)
        return A, mp.det(A), ps, us, js


def root(M, v0, ts):
    """A zero of det A near v0, by a secant iteration at ``DPS`` digits with
    the pivots of v0 held fixed."""
    pivots = secular(M, v0, ts)[4]
    with mp.workdps(DPS):
        v0 = mp.mpc(v0)
        return mp.findroot(lambda v: secular(M, v, ts, pivots)[1],
                           (v0, v0 * (1 + 1e-9)), tol=TOL)
