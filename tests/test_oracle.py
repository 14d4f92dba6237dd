"""The batched secular kernel against a 40-digit route that shares only the
coefficient table with it (``oracle``)."""

import numpy as np
import pytest

mp = pytest.importorskip("mpmath").mp

import oracle  # noqa: E402  (needs mpmath)
from rayleighmt import mode_speeds, secular_matrix
from rayleighmt.modes import kernel_row
from rayleighmt.secular import point_dets

from helpers import random_material, random_speed


@pytest.fixture(scope="module")
def samples(reference, case_i_material, case_ii_material, case_iii_material):
    """``(M, v, ts, oracle.secular(M, v, ts))`` at one seeded speed of each
    material file and of two random materials, with the oracle's bulk
    speeds ts put in the kernel's mode order (each mode takes the nearest)."""
    rng = np.random.default_rng(113)
    out = []
    for M in (reference, case_i_material, case_ii_material, case_iii_material,
              random_material(rng), random_material(rng)):
        ts = oracle.bulk_speeds(M)
        ts = [min(ts, key=lambda t: abs(t - r.t)) for r in mode_speeds(M).roots]
        v = complex(random_speed(rng, M))
        out.append((M, v, ts, oracle.secular(M, v, ts)))
    return out


def test_mode_speeds_match_the_oracle(samples):
    # each of the five closed-form speeds lies next to a distinct 40-digit one
    for M, _, ts, _ in samples:
        assert len(set(ts)) == 5
        for r, t in zip(mode_speeds(M).roots, ts):
            assert abs(r.t - t) <= 1e-13 * t


def test_point_det_matches_the_oracle(samples):
    # a null vector is fixed up to a factor: the oracle's are 1 at their
    # pivots, so the kernel's det A is divided by the closed forms there
    for M, v, _, (_, det, ps, _, pivots) in samples:
        sm = secular_matrix(M, v)
        assert np.abs(sm.p - np.array(ps, dtype=complex)).max() <= 1e-14 * np.abs(sm.p).max()
        got = point_dets(M, [v])[0][0] / np.prod(sm.u[range(5), pivots])
        assert abs(got - complex(det)) <= 1e-10 * abs(complex(det))


def test_closed_forms_are_the_oracle_null_vectors(samples):
    # every closed form of kernel_row, taken at the oracle's p_k, is parallel
    # to the null vector of D(p_k)
    for M, v, _, (_, _, ps, us, pivots) in samples:
        for r, p, w, j in zip(mode_speeds(M).roots, ps, us, pivots):
            with mp.workdps(oracle.DPS):
                u = mp.matrix([x + p * y + mp.mpc(v) * z for x, y, z in zip(*kernel_row(M, r))])
                assert mp.norm(u / u[j] - w) <= 1e-12 * mp.norm(w)


def test_golden_root_matches_the_oracle(reference, solved_reference):
    z = complex(solved_reference.v)
    assert abs(complex(oracle.root(reference, z, oracle.bulk_speeds(reference))) - z) <= 2e-12
