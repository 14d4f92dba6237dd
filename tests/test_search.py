"""Grid scan, local minima extraction, Muller and simplex refinement, root search."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rayleighmt import (
    AllPointsFailedError,
    ComplexSpeed,
    ModeFailureError,
    RefineOptions,
    ScanGrid,
    ScanWindow,
    StartFailureError,
    find_rayleigh,
    grid_scan,
    local_minima,
    mode_speeds,
    objective_F,
    refine_minimum,
    secular_det,
    validate_coefficients,
)
from rayleighmt import search
from rayleighmt.search import DEDUP_TOL, grid_median_det

import helpers
from conftest import default_window
from helpers import random_material, reference_refine_minimum

# frozen after the first verified solve at 128x64; the doubling run agreed
# to 6.4e-11
REF_ROOT = 1.038454844666989 - 0.02631077604792278j

INDISTINCT = validate_coefficients({
    "rho": 1.0, "a": 1.0, "b": 1.0, "k": 2.0, "lambda": 1.0, "mu": 1.0,
    "d1": 1.0, "d2": 1.0, "d3": 2.0, "eps1": 0.0, "eps2": 0.0,
    "beta": 0.0, "m": 0.0,
})


def test_window_validation():
    with pytest.raises(ValueError):
        ScanWindow(re_min=1.0, re_max=0.5, im_min=-1.0, im_max=0.0, nx=4, ny=4)
    with pytest.raises(ValueError):
        ScanWindow(re_min=0.0, re_max=1.0, im_min=-1.0, im_max=0.0, nx=1, ny=4)
    with pytest.raises(ValueError):
        ScanWindow(re_min=-2.0, re_max=-1.0, im_min=-1.0, im_max=0.0, nx=4, ny=4)
    w = ScanWindow(re_min=0.0, re_max=1.0, im_min=-0.5, im_max=0.0, nx=5, ny=3)
    assert w.cell_size() == (0.25, 0.25)
    assert list(w.re_values()) == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_grid_scan_marks_failures(reference):
    # the im = 0 row beyond the slowest transition speed has no decaying
    # branch and must come back NaN, not raise
    w = ScanWindow(re_min=0.75, re_max=0.9, im_min=-0.1, im_max=0.0, nx=4, ny=3)
    grid = grid_scan(reference, w)
    assert grid.failures == 4
    assert np.isnan(grid.values[:, 2]).all()
    assert np.isfinite(grid.values[:, :2]).all()


def test_grid_scan_reference_failures(reference):
    # the 99 failures of the reference window all sit on the real axis,
    # past the slowest bulk speed
    grid = grid_scan(reference, default_window(reference))
    assert grid.failures == 99
    assert grid.failure_causes == {"NonDecayingError": 99}
    assert np.isfinite(grid.values[:, :-1]).all()


def _pointwise_scan(M, w):
    values = np.empty((w.nx, w.ny))
    causes = Counter()
    for i, re_v in enumerate(w.re_values()):
        for j, im_v in enumerate(w.im_values()):
            try:
                values[i, j] = objective_F(M, re_v, -im_v)
            except ModeFailureError as exc:
                values[i, j] = math.nan
                causes[exc.cause_name] += 1
    return values, dict(causes)


def test_grid_scan_matches_pointwise_objective():
    # the lattice reaches past Re v = 0 and onto the real axis, so both
    # inadmissible speeds and non-decaying modes show up as failures
    rng = np.random.default_rng(9)
    for _ in range(20):
        M = random_material(rng)
        c = math.sqrt(max(mode_speeds(M).t_values()))
        w = ScanWindow(re_min=-0.1 * c, re_max=1.3 * c, im_min=-0.4 * c, im_max=0.0,
                       nx=9, ny=6)
        grid = grid_scan(M, w)
        values, causes = _pointwise_scan(M, w)
        assert np.array_equal(np.isnan(grid.values), np.isnan(values))
        assert grid.failure_causes == causes
        assert grid.failures == sum(causes.values())
        finite = np.isfinite(values)
        assert np.max(np.abs(grid.values[finite] - values[finite])) <= 1e-10


def test_grid_scan_serial_parallel_identical(reference):
    w = ScanWindow(re_min=0.1, re_max=1.2, im_min=-0.3, im_max=0.0, nx=16, ny=8)
    serial = grid_scan(reference, w, threads=1)
    parallel = grid_scan(reference, w, threads=4)
    assert np.array_equal(serial.values, parallel.values, equal_nan=True)
    assert serial.failures == parallel.failures


def test_grid_scan_overflow_cells_fail(reference):
    # v^2 overflows on the two far rows: NaN cells tallied under the error
    # objective_F raises there, not a crash of the whole scan
    w = ScanWindow(re_min=0.5, re_max=1e160, im_min=-0.1, im_max=0.0, nx=3, ny=2)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = grid_scan(reference, w)
    assert grid.failures == 4
    assert grid.failure_causes == {"LinAlgError": 4}
    assert np.isfinite(grid.values[0]).all()
    assert np.isnan(grid.values[1:]).all()


def test_grid_scan_all_failed():
    w = ScanWindow(re_min=0.1, re_max=0.5, im_min=-0.2, im_max=0.0, nx=3, ny=3)
    with pytest.raises(AllPointsFailedError):
        grid_scan(INDISTINCT, w)


def test_local_minima_synthetic():
    w = ScanWindow(re_min=0.0, re_max=1.0, im_min=-1.0, im_max=0.0, nx=5, ny=5)
    values = np.full((5, 5), 2.0)
    values[2, 2] = -1.0       # interior minimum
    values[0, 1] = -5.0       # boundary, must be ignored
    values[3, 3] = math.nan   # NaN neighbor counts as +inf
    grid = ScanGrid(window=w, values=values, failures=1)
    assert local_minima(grid) == [(2, 2)]


def test_local_minima_plateau_is_not_strict():
    w = ScanWindow(re_min=0.0, re_max=1.0, im_min=-1.0, im_max=0.0, nx=5, ny=5)
    values = np.full((5, 5), 2.0)
    values[2, 2] = 1.0
    values[2, 3] = 1.0
    grid = ScanGrid(window=w, values=values, failures=0)
    assert local_minima(grid) == []


def _brute_local_minima(values):
    padded = np.where(np.isnan(values), np.inf, values)
    out = []
    for i in range(1, values.shape[0] - 1):
        for j in range(1, values.shape[1] - 1):
            center = padded[i, j]
            if not np.isfinite(center):
                continue
            neighborhood = padded[i - 1:i + 2, j - 1:j + 2].copy()
            neighborhood[1, 1] = np.inf
            if center < neighborhood.min():
                out.append((i, j))
    return out


def test_local_minima_matches_brute_force():
    # few distinct levels make plateaus common; NaN cells count as +inf
    rng = np.random.default_rng(5)
    for _ in range(200):
        nx, ny = (int(n) for n in rng.integers(2, 12, size=2))
        values = rng.integers(0, 4, size=(nx, ny)).astype(float)
        values[rng.random((nx, ny)) < 0.2] = math.nan
        w = ScanWindow(re_min=0.0, re_max=1.0, im_min=-1.0, im_max=0.0, nx=nx, ny=ny)
        grid = ScanGrid(window=w, values=values, failures=int(np.isnan(values).sum()))
        assert local_minima(grid) == _brute_local_minima(values)


def test_refine_from_near_seed(reference):
    seed = ComplexSpeed(1.03, 0.03)
    root = refine_minimum(reference, seed,
                          RefineOptions(initial_step=(5e-3, 5e-3), det_scale=1.0))
    assert root.classification == "converged"
    assert abs(complex(root.v) - REF_ROOT) <= 1e-8
    assert root.iterations <= 500
    assert root.det_abs <= 1e-6


def test_refine_muller_polish_is_cheap(reference):
    root = refine_minimum(reference, ComplexSpeed(1.04, 0.028), RefineOptions(det_scale=1.0))
    assert root.classification == "converged"
    assert abs(complex(root.v) - REF_ROOT) <= 1e-8
    assert root.iterations <= 12


def _simplex_only(monkeypatch):
    """Make refine_minimum skip the Muller stage and run the simplex alone."""
    monkeypatch.setattr(search, "_muller", lambda *args: None)


# the reference scan's seed next to the bulk speed sqrt(t4), with the
# quarter-cell step and the scan-median scale find_rayleigh gives it
BRANCH_SEED = ComplexSpeed(1.3627, 0.0170)
BRANCH_OPTS = RefineOptions(initial_step=(5.8e-3, 4.3e-3), det_scale=1148.9)


def test_refine_branch_seed_falls_back_to_simplex(reference, monkeypatch):
    root = refine_minimum(reference, BRANCH_SEED, BRANCH_OPTS)
    assert root.classification == "stagnated"
    assert root.gamma is None
    _simplex_only(monkeypatch)
    alone = refine_minimum(reference, BRANCH_SEED, BRANCH_OPTS)
    assert complex(root.v) == complex(alone.v)
    assert root.f_value == alone.f_value
    assert root.iterations >= alone.iterations


@pytest.mark.parametrize("opts", [
    RefineOptions(det_scale=1e-30),  # Muller's root fails the det test
    RefineOptions(initial_step=(1e-6, 1e-6), det_scale=1.0),  # root outside the disc
], ids=["tiny_scale", "tiny_step"])
def test_refine_muller_hands_over_to_simplex(reference, monkeypatch, opts):
    seed = ComplexSpeed(1.04, 0.028)
    root = refine_minimum(reference, seed, opts)
    _simplex_only(monkeypatch)
    alone = refine_minimum(reference, seed, opts)
    assert complex(root.v) == complex(alone.v)
    assert root.classification == alone.classification
    assert root.iterations >= alone.iterations


def test_refine_budget_covers_both_stages(reference):
    for seed, opts in ((BRANCH_SEED, BRANCH_OPTS), (ComplexSpeed(1.04, 0.028), RefineOptions())):
        assert refine_minimum(reference, seed, replace(opts, max_evals=20)).iterations <= 20


def _converged_roots(M, w):
    return sorted((complex(r.v) for r in find_rayleigh(M, w) if r.classification == "converged"),
                  key=lambda v: (v.real, v.imag))


def test_simplex_fallback_loses_no_root(monkeypatch):
    rng = np.random.default_rng(21)
    cases = [(M, default_window(M, nx=48, ny=24))
             for M in (random_material(rng) for _ in range(8))]
    polished = [_converged_roots(M, w) for M, w in cases]
    _simplex_only(monkeypatch)
    alone = [_converged_roots(M, w) for M, w in cases]
    assert sum(map(len, alone)) > 0
    for ours, theirs in zip(polished, alone):
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert abs(a - b) <= 1e-6


def test_refine_never_worsens_seed(reference):
    from rayleighmt import objective_F
    seed = ComplexSpeed(0.3, 0.1)
    root = refine_minimum(reference, seed)
    assert root.f_value <= objective_F(reference, 0.3, 0.1)


def test_refine_start_failure():
    with pytest.raises(StartFailureError) as err:
        refine_minimum(INDISTINCT, ComplexSpeed(np.float64(0.5), np.float64(0.1)))
    assert "seed v = (0.5-0.1j)" in str(err.value)
    assert "np.float64" not in str(err.value)


# the reference solve's three seeds with the options find_rayleigh gives
# them: the golden root and the two that stagnate at sqrt(t4) and sqrt(t3)
REFERENCE_SEED_OPTS = RefineOptions(initial_step=(0.005767977578577557, 0.004253967203712832),
                                    det_scale=1148.9222112511563)
REFERENCE_SEEDS = (ComplexSpeed(1.0397365761969235, 0.034031737629702574),
                   ComplexSpeed(1.3627433205972668, 0.017015868814851176),
                   ComplexSpeed(2.3548354641126066, 0.017015868814851176))


def _assert_same_root(ours, theirs):
    for a, b in ((ours.v.v_r, theirs.v.v_r), (ours.v.v_i, theirs.v.v_i)):
        assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    assert ours.f_value == theirs.f_value
    assert ours.det_abs == theirs.det_abs
    assert ours.iterations == theirs.iterations
    assert ours.classification == theirs.classification
    if theirs.gamma is None:
        assert ours.gamma is None
    else:
        assert list(ours.gamma.gamma) == list(theirs.gamma.gamma)


def test_batched_refinement_matches_one_point_reference(reference, monkeypatch):
    # each simplex iteration evaluates all four candidates in one kernel
    # call; the roots, budgets and counts must stay those of evaluating one
    # candidate at a time
    cases = [(reference, seed, REFERENCE_SEED_OPTS) for seed in REFERENCE_SEEDS]
    cases += [(reference, seed, replace(REFERENCE_SEED_OPTS, max_evals=20))
              for seed in REFERENCE_SEEDS]
    rng = np.random.default_rng(47)
    for M in [random_material(rng) for _ in range(2)]:
        w = default_window(M, nx=4, ny=2)
        dx, dy = w.cell_size()
        opts = RefineOptions(initial_step=(dx / 4.0, abs(dy) / 4.0))
        # the Im v = 0 row sends the simplex against the clamped axis
        cases += [(M, ComplexSpeed(re, -im), opts)
                  for re in w.re_values()[1:] for im in w.im_values()]
    monkeypatch.setattr(helpers, "BRANCHES", Counter())
    for M, seed, opts in cases:
        _assert_same_root(refine_minimum(M, seed, opts), reference_refine_minimum(M, seed, opts))
    for refine in (refine_minimum, reference_refine_minimum):
        with pytest.raises(StartFailureError):
            refine(INDISTINCT, ComplexSpeed(0.5, 0.1))
    for branch in ("handover", "expansion", "outside_contraction", "inside_contraction",
                   "shrink"):
        assert helpers.BRANCHES[branch] > 0, branch


def test_find_rayleigh_reference(reference, solved_reference):
    assert abs(complex(solved_reference.v) - REF_ROOT) <= 1e-6
    assert solved_reference.classification == "converged"
    assert solved_reference.iterations <= 500
    assert solved_reference.gamma is not None


def test_find_rayleigh_sorted_and_deduped(reference):
    w = default_window(reference, nx=96, ny=48)
    roots = find_rayleigh(reference, w)
    fs = [r.f_value for r in roots]
    assert fs == sorted(fs)
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            assert abs(complex(a.v) - complex(b.v)) > DEDUP_TOL


def test_converged_classification_uses_grid_median(reference):
    w = default_window(reference)
    grid = grid_scan(reference, w)
    median = grid_median_det(grid)
    assert median > 0.0
    roots = find_rayleigh(reference, w)
    for root in roots:
        expected = "converged" if root.det_abs <= 1e-6 * median else "stagnated"
        assert root.classification == expected


def test_stagnated_minima_have_no_gamma(reference):
    roots = find_rayleigh(reference, default_window(reference))
    for root in roots:
        if root.classification == "stagnated":
            assert root.gamma is None
