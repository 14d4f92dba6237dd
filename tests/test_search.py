"""Grid scan, local minima extraction, Muller refinement in v and in q, root search."""

import cmath
import math
from collections import Counter

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
    boundary_residual,
    find_rayleigh,
    grid_scan,
    local_minima,
    mode_speeds,
    objective_F,
    refine_minimum,
    validate_coefficients,
)
from rayleighmt import search
from rayleighmt.modes import mode_shapes
from rayleighmt.search import DEDUP_TOL, grid_median_det
from rayleighmt.secular import point_dets, secular_objective

import helpers
from conftest import default_window
from helpers import random_material, reference_refine_minimum
from test_secular import ROUTE_SPLIT

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
    for bounds in ((0.0, math.inf, -1.0, 0.0), (0.0, 1.0, -math.inf, 0.0),
                   (math.nan, 1.0, -1.0, 0.0)):
        with pytest.raises(ValueError, match="window bounds must be finite"):
            ScanWindow(*bounds, nx=4, ny=4)
    w = ScanWindow(re_min=0.0, re_max=1.0, im_min=-0.5, im_max=0.0, nx=5, ny=3)
    assert w.cell_size() == (0.25, 0.25)
    assert list(w.re_values()) == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_window_lattice_sizes_are_integers(reference):
    # a float size used to pass here and fail later inside np.linspace
    for nx, ny in ((2.5, 4), (4.0, 4), (4, "4")):
        with pytest.raises(ValueError, match="lattice sizes must be integers"):
            ScanWindow(re_min=0.1, re_max=1.0, im_min=-0.5, im_max=0.0, nx=nx, ny=ny)
    w = ScanWindow(re_min=0.1, re_max=1.0, im_min=-0.5, im_max=0.0,
                   nx=np.int64(5), ny=np.int32(3))
    assert grid_scan(reference, w).values.shape == (5, 3)


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


def _row_scan(M, w):
    """``grid_scan`` with one batched objective call per lattice row."""
    res, ims = w.re_values(), w.im_values()
    values = np.array([secular_objective(M, re_v + 1j * ims) for re_v in res])
    causes = Counter()
    for i, j in zip(*np.nonzero(np.isnan(values))):
        try:
            values[i, j] = objective_F(M, res[i], -ims[j])
        except ModeFailureError as exc:
            causes[exc.cause_name] += 1
    return values, dict(causes)


def test_grid_scan_blocks_match_row_calls(reference):
    # calls of _SCAN_CHUNK row-major points give every point the bits of
    # one-row calls: with calls that end inside a row, with rows longer than
    # a call (a row split over calls), and on the smallest lattice
    rows = search._SCAN_CHUNK // 48
    rng = np.random.default_rng(31)
    for M in [reference] + [random_material(rng) for _ in range(3)]:
        c = math.sqrt(max(mode_speeds(M).t_values()))
        for nx, ny in ((2 * rows + 1, 48), (3, search._SCAN_CHUNK + 1), (2, 2)):
            w = ScanWindow(re_min=-0.1 * c, re_max=1.3 * c, im_min=-0.4 * c, im_max=0.0,
                           nx=nx, ny=ny)
            grid = grid_scan(M, w)
            values, causes = _row_scan(M, w)
            assert grid.values.tobytes() == values.tobytes()
            assert grid.failure_causes == causes
            assert grid.failures == sum(causes.values()) > 0


def test_grid_scan_serial_parallel_identical(reference):
    w = ScanWindow(re_min=0.1, re_max=1.2, im_min=-0.3, im_max=0.0, nx=16, ny=8)
    serial = grid_scan(reference, w, threads=1)
    parallel = grid_scan(reference, w, threads=4)
    assert np.array_equal(serial.values, parallel.values, equal_nan=True)
    assert serial.failures == parallel.failures


def test_grid_scan_overflow_cells_fail(reference):
    # v^2 overflows on the two far rows and leaves no decaying branch: NaN
    # cells tallied under the error objective_F raises there, not a crash of
    # the whole scan
    w = ScanWindow(re_min=0.5, re_max=1e160, im_min=-0.1, im_max=0.0, nx=3, ny=2)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = grid_scan(reference, w)
    assert grid.failures == 4
    assert grid.failure_causes == {"NonDecayingError": 4}
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


# the reference scan's seed next to the bulk speed sqrt(t4), with the
# quarter-cell step and the scan-median scale find_rayleigh gives it
BRANCH_SEED = ComplexSpeed(1.3627, 0.0170)
BRANCH_OPTS = RefineOptions(initial_step=(5.8e-3, 4.3e-3), det_scale=1148.9)


def test_refine_branch_seed_stagnates_within_budget(reference):
    root = refine_minimum(reference, BRANCH_SEED, BRANCH_OPTS)
    assert root.classification == "stagnated"
    assert root.gamma is None
    assert root.iterations <= search.MAX_EVALS


def test_refine_budget_covers_both_stages(reference, monkeypatch):
    monkeypatch.setattr(search, "MAX_EVALS", 20)
    for seed, opts in ((BRANCH_SEED, BRANCH_OPTS), (ComplexSpeed(1.04, 0.028), RefineOptions())):
        assert refine_minimum(reference, seed, opts).iterations <= 20


def test_refine_halves_an_undefined_step(monkeypatch):
    # the first Muller step in v lands on the real axis past a bulk speed,
    # where no mode decays; halving it toward the last point lands the root
    # in the run in v (the removed simplex fallback spent 136 evaluations),
    # which never asks for the bulk speeds of the run in q
    def no_run_in_q(M):
        raise AssertionError("the run in v did not land the root")

    rng = np.random.default_rng(23)
    M = [random_material(rng) for _ in range(6)][-1]
    w = default_window(M, nx=48, ny=24)
    dx, dy = w.cell_size()
    opts = RefineOptions(initial_step=(dx / 4.0, abs(dy) / 4.0),
                         det_scale=grid_median_det(grid_scan(M, w)))
    monkeypatch.setattr(search, "mode_speeds", no_run_in_q)
    root = refine_minimum(M, ComplexSpeed.from_complex(1.4743605018610624 - 0.055770079613616685j),
                          opts)
    assert root.classification == "converged"
    assert abs(complex(root.v) - (1.4853950190584049 - 0.0030446170951926328j)) <= 1e-8
    assert root.iterations == 10


def test_run_in_q_has_no_speed_outside_the_image_of_the_quadrant(reference, monkeypatch):
    # q = p_k maps the admissible quadrant onto Re q <= 0 <= Im q, and the
    # run in q maps back by v = sqrt(t_k (1 + q^2)).  A q outside that image
    # is the p_k of no admissible speed (a q of the opposite quadrant maps
    # to the speed whose p_k is -q), so it has no speed and its step halves.
    speed_maps = []
    muller = search._muller

    def spy(M, w, z, start, speed, *rest):
        speed_maps.append(speed)
        return muller(M, w, z, start, speed, *rest)

    monkeypatch.setattr(search, "_muller", spy)
    refine_minimum(reference, BRANCH_SEED, BRANCH_OPTS)
    v_of_q = speed_maps[1]
    t = min(mode_speeds(reference).t_values(),
            key=lambda t: abs(complex(BRANCH_SEED) - math.sqrt(t)))
    for q in (-0.3 + 0.2j, -0.3 + 0.0j, -0.0 + 0.2j, -1e-3 + 4.0j):
        v = v_of_q(q)
        assert v.real >= 0.0 >= v.imag
        p = complex(mode_shapes(np.array([v]), np.array([t]), 0.0, 0.0, 0.0)[0][0, 0])
        assert abs(p - q) <= 1e-12 * abs(q)
    for q in (0.3 - 0.2j, 0.3 + 0.2j, -0.3 - 0.2j, 1e-3 + 4.0j):
        assert cmath.isnan(v_of_q(q))


def test_refine_asks_the_kernel_for_no_speed_outside_the_image_of_the_quadrant(
        case_ii_material, monkeypatch):
    # the run in q maps a q outside the image of the quadrant to NaN; that
    # iterate counts as an evaluation but costs no point_dets call (34 such
    # speeds reached the kernel on this material)
    kernel_dets, asked = search.point_dets, []

    def spy(M, zs):
        asked.extend(zs)
        return kernel_dets(M, zs)

    monkeypatch.setattr(search, "point_dets", spy)
    roots = find_rayleigh(case_ii_material, default_window(case_ii_material))
    assert not any(cmath.isnan(z) for z in asked)
    assert [root.iterations for root in roots] == [7, 7, 3, 80]


def test_refine_stops_at_one_undefined_start_point(reference):
    # the +hx start point lies on the real axis past the slowest bulk speed,
    # where no mode decays: both Muller runs give up at once, and the root
    # is the defined start point of smaller |det|
    x = math.sqrt(min(mode_speeds(reference).t_values())) - 5e-4
    starts = [complex(x, -0.0), complex(x + 1e-3, -0.0), complex(x, -1e-3)]
    entries = point_dets(reference, starts)
    assert [entry is None for entry in entries] == [False, True, False]
    root = refine_minimum(reference, ComplexSpeed(x, 0.0),
                          RefineOptions(initial_step=(1e-3, 1e-3)))
    assert root.iterations == 3
    defined = [(z, entry[0]) for z, entry in zip(starts, entries) if entry is not None]
    assert complex(root.v) == min(defined, key=lambda z_det: abs(z_det[1]))[0]


SINGULAR_A = np.diag([1.0, 1.0, 1.0, 1.0, 0.0]).astype(complex)


def test_refine_gives_up_where_the_parabola_has_no_root(reference, monkeypatch):
    # det A is 1 at every speed: the parabola through the start points is
    # flat, its root divides by zero, and both runs give up without
    # evaluating an iterate, so the one kernel call is the start points'
    calls = []

    def flat_dets(M, zs):
        calls.append(list(zs))
        return [(1.0 + 0j, SINGULAR_A) for _ in zs]

    monkeypatch.setattr(search, "point_dets", flat_dets)
    root = refine_minimum(reference, ComplexSpeed(1.0, 0.5), RefineOptions())
    assert len(calls) == 1
    assert root.iterations == 3
    assert complex(root.v) == 1.0 - 0.5j  # the first of three equal |det|
    assert root.classification == "stagnated" and root.gamma is None


@pytest.mark.parametrize("det_scale,classification", [(1e6, "converged"),
                                                      (0.99e6, "stagnated")])
def test_refine_accepts_a_det_up_to_1e_6_of_the_scale(reference, monkeypatch, det_scale,
                                                       classification):
    # |det A| = 1 at every speed and A singular: the point is accepted
    # exactly when 1 <= DET_RATIO_TOL * det_scale
    monkeypatch.setattr(search, "point_dets", lambda M, zs: [(1.0 + 0j, SINGULAR_A) for _ in zs])
    root = refine_minimum(reference, ComplexSpeed(1.0, 0.5), RefineOptions(det_scale=det_scale))
    assert root.det_abs == 1.0
    assert root.classification == classification


def test_refine_reports_det_abs_as_the_determinant_modulus(reference, monkeypatch):
    # det_abs is |det A| itself; exp(ln |det A|) gives 1.000000000000001e-12
    monkeypatch.setattr(search, "point_dets", lambda M, zs: [(1e-12 + 0j, SINGULAR_A) for _ in zs])
    root = refine_minimum(reference, ComplexSpeed(1.0, 0.5), RefineOptions(det_scale=1.0))
    assert root.det_abs == 1e-12
    assert root.classification == "converged"


def test_refine_converges_on_an_iterate_where_det_vanishes(reference, monkeypatch):
    # det A = v - r with r the +hx start point, all in exact binary
    # fractions: the first Muller step lands on r again, where det A is 0.
    # The next step would divide by the zero spacing of r and r, so the run
    # in v gives up there; the run in q finds no smaller |det|, and r is
    # the root.
    r = 1.125 - 0.5j
    monkeypatch.setattr(search, "point_dets", lambda M, zs: [(z - r, SINGULAR_A) for z in zs])
    root = refine_minimum(reference, ComplexSpeed(1.0, 0.5),
                          RefineOptions(initial_step=(0.125, 0.125)))
    assert complex(root.v) == r
    assert root.det_abs == 0.0
    assert root.classification == "converged"
    assert list(root.gamma) == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_refine_does_not_accept_a_small_det_of_a_regular_matrix(reference, monkeypatch):
    # |det A| = 1e-12 passes the det test, but A = I is not singular:
    # nullspace_amplitude refuses it and the root stagnates
    monkeypatch.setattr(search, "point_dets", lambda M, zs: [(1e-12 + 0j, np.eye(5)) for _ in zs])
    root = refine_minimum(reference, ComplexSpeed(1.0, 0.5), RefineOptions(det_scale=1.0))
    assert root.det_abs <= search.DET_RATIO_TOL
    assert root.classification == "stagnated" and root.gamma is None


def test_refine_does_not_accept_the_static_limit():
    # as v -> 0 every p_k -> i and det A -> 0 without a surface wave; the
    # removed simplex fallback walked there from this seed (204 evaluations,
    # |det| = 0) and called it converged
    M = validate_coefficients(ROUTE_SPLIT)
    root = refine_minimum(M, ComplexSpeed(0.59435, 0.2475),
                          RefineOptions(initial_step=(1e-3, 1e-3), det_scale=1.0))
    assert root.classification == "stagnated"
    assert abs(complex(root.v)) > 0.5


def test_refine_never_worsens_seed(reference):
    from rayleighmt import objective_F
    seed = ComplexSpeed(0.3, 0.1)
    root = refine_minimum(reference, seed)
    assert root.f_value <= objective_F(reference, 0.3, 0.1)


STEP_ERROR = "initial_step must be finite and positive"
PAIR_ERROR = "initial_step must be a pair"
SCALE_ERROR = "det_scale must be None or positive"


@pytest.mark.parametrize("options,match", [
    (dict(initial_step=(0.0, 1e-3)), STEP_ERROR),
    (dict(initial_step=(1e-3, -1e-3)), STEP_ERROR),
    (dict(initial_step=(math.nan, 1e-3)), STEP_ERROR),
    (dict(initial_step=(1e-3, math.inf)), STEP_ERROR),
    (dict(initial_step=(1e-3, 1e-3, 1e-3)), PAIR_ERROR),
    (dict(initial_step=1e-3), PAIR_ERROR),
    (dict(det_scale=0.0), SCALE_ERROR),
    (dict(det_scale=-1.0), SCALE_ERROR),
    (dict(det_scale=math.nan), SCALE_ERROR),
], ids=["step0", "step1", "step2", "step3", "step_triple", "step_scalar",
        "det_scale_zero", "det_scale_negative", "det_scale_nan"])
def test_refine_options_reject_a_step_that_is_not_finite_and_positive(options, match):
    # the start points are the seed and its offsets +hx and -i hy, so both
    # offsets must be positive for them to lie in the admissible quadrant.
    # A scale of 0, below 0 or NaN would call every root stagnated; +inf
    # stays allowed, as grid_median_det gives it for a scan of huge |det|
    with pytest.raises(ValueError, match=match):
        RefineOptions(**options)
    assert RefineOptions(det_scale=math.inf).det_scale == math.inf


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
        assert list(ours.gamma) == list(theirs.gamma)


def test_batched_refinement_matches_one_point_reference(reference, monkeypatch):
    # wherever the removed pipeline's Muller stage converges on an accepted
    # root without clamping an iterate into the quadrant, the run in v takes
    # the same steps: same root, same bits, same count, although it now
    # evaluates through the batched kernel
    cases = [(reference, seed, REFERENCE_SEED_OPTS) for seed in REFERENCE_SEEDS]
    rng = np.random.default_rng(47)
    for M in [random_material(rng) for _ in range(2)]:
        w = default_window(M, nx=4, ny=2)
        dx, dy = w.cell_size()
        opts = RefineOptions(initial_step=(dx / 4.0, abs(dy) / 4.0))
        cases += [(M, ComplexSpeed(re, -im), opts)
                  for re in w.re_values()[1:] for im in w.im_values()]
    for M in [random_material(rng) for _ in range(10)]:
        w = default_window(M, nx=48, ny=24)
        grid = grid_scan(M, w)
        dx, dy = w.cell_size()
        opts = RefineOptions(initial_step=(dx / 4.0, abs(dy) / 4.0),
                             det_scale=grid_median_det(grid))
        cases += [(M, ComplexSpeed(w.re_values()[i], -w.im_values()[j]), opts)
                  for i, j in local_minima(grid)]
    monkeypatch.setattr(helpers, "BRANCHES", Counter())
    compared = 0
    for M, seed, opts in cases:
        branches = Counter(helpers.BRANCHES)
        theirs = reference_refine_minimum(M, seed, opts)
        if helpers.BRANCHES == branches:
            _assert_same_root(refine_minimum(M, seed, opts), theirs)
            compared += 1
    assert compared >= 6 and helpers.BRANCHES["handover"] >= 6
    assert helpers.BRANCHES["clamped"] > 0
    for refine in (refine_minimum, reference_refine_minimum):
        with pytest.raises(StartFailureError):
            refine(INDISTINCT, ComplexSpeed(0.5, 0.1))


def _dedup_tol(w):
    """The distance below which ``find_rayleigh`` merges two roots in ``w``."""
    return DEDUP_TOL * max(abs(w.re_min), abs(w.re_max), abs(w.im_min), abs(w.im_max))


def test_refinement_loses_no_decaying_root(monkeypatch):
    # every decaying root the removed simplex fallback found is found again;
    # material 0's root 0.5764289583762007 - 0.006599420986731245i needs the
    # run in q (the simplex spent 136 evaluations on it)
    rng = np.random.default_rng(21)
    decaying = 0
    for M in [random_material(rng) for _ in range(8)]:
        w = default_window(M, nx=48, ny=24)
        ours = [complex(root.v) for root in find_rayleigh(M, w)
                if root.classification == "converged"]
        with monkeypatch.context() as patch:
            patch.setattr(search, "refine_minimum", reference_refine_minimum)
            theirs = find_rayleigh(M, w)
        for root in theirs:
            v = complex(root.v)
            if root.classification == "converged" and v.imag <= -1e-8:
                decaying += 1
                assert any(abs(v - z) <= 1e-6 for z in ours), v
    assert decaying >= 8


def test_grid_median_det_counts_F_INFINITE_and_above_as_infinite():
    # from F_INFINITE up |det A| counts as infinite, not as exp(F_INFINITE)
    w = ScanWindow(re_min=0.0, re_max=1.0, im_min=-1.0, im_max=0.0, nx=2, ny=3)

    def median(values):
        return grid_median_det(ScanGrid(window=w, values=np.reshape(values, (2, 3)), failures=1))

    assert median([1.0, 2.0, 3.0, 699.5, 700.0, np.nan]) == np.exp(3.0)
    assert median([1.0, 700.0, 900.0, np.nan, 2.0, 1e300]) == math.inf
    assert median([1.0, 2.0, 700.0, 800.0, np.nan, np.nan]) == math.inf


@pytest.mark.parametrize("raw", helpers.CANCELLING, ids=["cancelling_1", "cancelling_2"])
def test_no_root_at_roundoff_where_gamma_and_lambda_cancel(raw):
    # with a roundoff kernel row for the mode at t = d / b, det A was roundoff
    # along a curve, and a point of it was reported converged at a boundary
    # residual of 0.10 (1.6358202822989958 - 4.8e-16i) or 0.074 (1.7973 - 4.1e-13i)
    M = validate_coefficients(raw)
    for root in find_rayleigh(M, default_window(M)):
        if root.classification == "converged":
            assert boundary_residual(M, root.v, root.gamma, 1.0) <= 1e-8


@pytest.mark.parametrize("draw", [lambda rng: random_material(rng, e12_zero=True),
                                  helpers.cancelling_material], ids=["e12_zero", "cancelling"])
def test_converged_roots_without_longitudinal_coupling(draw):
    # eps1 + 2 eps2 = 0, away from and on the family where Gamma and Lambda
    # cancel: every converged root leaves the surface traction-free
    rng = np.random.default_rng(73)
    converged = 0
    for _ in range(6):
        M = draw(rng)
        for root in find_rayleigh(M, default_window(M, nx=48, ny=24)):
            if root.classification == "converged":
                converged += 1
                assert boundary_residual(M, root.v, root.gamma, 1.0) <= 1e-8
    assert converged >= 6


def test_find_rayleigh_drops_a_seed_that_cannot_start(reference, monkeypatch):
    # a seed whose start points are all undefined is dropped without
    # changing what the other seeds find
    w = default_window(reference)
    expected = find_rayleigh(reference, w)
    z_bad = complex(w.re_values()[2], w.im_values()[2])  # far from every minimum
    lattice_minima, kernel_dets = search.local_minima, search.point_dets
    asked = []

    def local_minima_and_bad(grid):
        minima = lattice_minima(grid)
        return minima[:1] + [(2, 2)] + minima[1:]

    def point_dets(M, zs):
        near = [abs(z - z_bad) < 0.05 for z in zs]
        asked.extend(z for z, bad in zip(zs, near) if bad)
        return [None if bad else entry for bad, entry in zip(near, kernel_dets(M, zs))]

    monkeypatch.setattr(search, "local_minima", local_minima_and_bad)
    monkeypatch.setattr(search, "point_dets", point_dets)
    got = find_rayleigh(reference, w)
    assert len(asked) == 3  # the three start points, then the seed is dropped
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        _assert_same_root(a, b)
    with pytest.raises(StartFailureError):
        refine_minimum(reference, ComplexSpeed.from_complex(z_bad))


def test_find_rayleigh_refines_each_seed_through_the_module_attribute(reference, monkeypatch):
    # bench/tracing.py counts the refine metrics in a wrapper it sets on
    # search.refine_minimum: find_rayleigh must call that attribute once per
    # lattice seed, or the metrics read 0
    refine, asked = search.refine_minimum, []

    def counting(M, v0, opts):
        asked.append(complex(v0))
        return refine(M, v0, opts)

    monkeypatch.setattr(search, "refine_minimum", counting)
    w = default_window(reference)
    find_rayleigh(reference, w)
    seeds = [complex(w.re_values()[i], w.im_values()[j])
             for i, j in local_minima(grid_scan(reference, w))]
    assert len(asked) == 3
    assert asked == seeds


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
            assert abs(complex(a.v) - complex(b.v)) > _dedup_tol(w)


def test_solve_is_scale_free(reference):
    # rho, a and b times s with beta and m times sqrt(s) multiply every speed
    # by s^-1/2 and give D(p) at v / sqrt(s) the reference's value at v: the
    # search takes the same steps to the same roots, scaled
    base = find_rayleigh(reference, default_window(reference))
    assert [root.iterations for root in base] == [6, 3, 3]
    for s in (1e-12, 1e-8, 1e4, 1e8, 1e12):
        M = reference.replace(rho=s * reference.rho, a=s * reference.a, b=s * reference.b,
                              beta=math.sqrt(s) * reference.beta, m=math.sqrt(s) * reference.m)
        roots = find_rayleigh(M, default_window(M))
        assert [root.classification for root in roots] == [b.classification for b in base]
        assert [root.iterations for root in roots] == [6, 3, 3]
        for root, b in zip(roots, base):
            assert abs(complex(root.v) * math.sqrt(s) - complex(b.v)) <= 1e-13 * abs(complex(b.v))


def test_refine_without_options_is_scale_free(reference):
    # the default start step is relative to the seed: a step of 1e-3 in
    # absolute speed stagnated on the scaled seed at every s but 1
    base = refine_minimum(reference, REFERENCE_SEEDS[0])
    assert base.classification == "converged" and base.iterations == 6
    assert abs(complex(base.v) - REF_ROOT) <= 1e-8
    for s in (1e-12, 1e-8, 1e4, 1e8, 1e12):
        M = reference.replace(rho=s * reference.rho, a=s * reference.a, b=s * reference.b,
                              beta=math.sqrt(s) * reference.beta, m=math.sqrt(s) * reference.m)
        root = refine_minimum(M, ComplexSpeed.from_complex(complex(REFERENCE_SEEDS[0]) / math.sqrt(s)))
        assert root.classification == "converged" and root.iterations == 6
        assert abs(complex(root.v) * math.sqrt(s) - complex(base.v)) <= 1e-13 * abs(complex(base.v))


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


#: sqrt(2 - 2/sqrt(3)): the classical Rayleigh root of case_i.json, on the
#: real axis below every bulk speed, where det A changes sign.
CASE_I_REAL_ROOT = 0.9194016867619661


@pytest.mark.xfail(strict=True, reason="the subsonic segment lies on the lattice's "
                                       "top row, and only interior minima seed (ROADMAP item 2)")
def test_solve_finds_the_real_root_of_case_i(case_i_material):
    roots = find_rayleigh(case_i_material, default_window(case_i_material))
    assert any(abs(complex(r.v) - CASE_I_REAL_ROOT) <= 1e-12 for r in roots)


@pytest.mark.xfail(strict=True, reason="the run in q lands on p_3 = 0 at sqrt(k/a) and "
                                       "calls it converged (ROADMAP item 1)")
def test_solve_rejects_the_branch_point_artefact_of_case_iii(case_iii_material):
    roots = find_rayleigh(case_iii_material, default_window(case_iii_material))
    near = [r for r in roots if abs(complex(r.v) - 1.0) <= 1e-6]
    assert all(r.classification != "converged" for r in near)


# materials of the seeded benchmark sweep (``random_material`` draws of
# bench/workloads.py: MaterialSweep(4).cases[14] and MaterialSweep(12).cases[17]),
# each solved on the 64x32 sweep window
SWEEP_4_14 = {
    "rho": 2.9058801899337667, "a": 0.7546292511764623, "b": 2.566711555660597,
    "k": 1.1053850542550168, "lambda": 1.610720605199053, "mu": 1.3617783657586604,
    "d1": 0.3518765799900948, "d2": 0.40106751735776397, "d3": 1.529167629798305,
    "eps1": 1.9129498683820056, "eps2": 0.17971241264120424, "beta": 1.144550727203774,
    "m": 0.2729071367965077,
}
SWEEP_12_17 = {
    "rho": 1.065052412482839, "a": 1.0971771750525572, "b": 2.476404166509073,
    "k": 2.6819866484789614, "lambda": 0.6192716565041334, "mu": 2.7329415982345764,
    "d1": 1.2772548859503188, "d2": 2.3846202143313464, "d3": 0.3392559024659204,
    "eps1": 1.0027102546076945, "eps2": 1.0743639681247488, "beta": 0.5852286831855592,
    "m": 1.2016635946616328,
}


def _sweep_roots(raw, v, tol):
    """The material's sweep-window roots within ``tol`` of ``v``, and the material."""
    M = validate_coefficients(raw)
    return [r for r in find_rayleigh(M, default_window(M, nx=64, ny=32))
            if abs(complex(r.v) - v) <= tol], M


def test_sweep_root_next_to_a_bulk_speed_verifies():
    # 1.6e-5 from a bulk speed; while iterates were clamped into the
    # quadrant, the refinement ended where the boundary residual was 1.012e-8
    near, M = _sweep_roots(SWEEP_4_14, 1.0152416792 - 1.2992e-5j, 1e-9)
    assert [r.classification for r in near] == ["converged"]
    assert boundary_residual(M, near[0].v, near[0].gamma, 1.0) <= 1e-8


def test_sweep_root_that_clamped_iterates_missed():
    # clamping pulled this seed onto the subsonic root on the real axis and
    # never reached the damped root next to it (sigma_5 / sigma_1 = 1.9e-16)
    v = 0.8580475745703978 - 0.0005183013530038685j
    near, M = _sweep_roots(SWEEP_12_17, v, 1e-10 * abs(v))
    assert [r.classification for r in near] == ["converged"]
    assert boundary_residual(M, near[0].v, near[0].gamma, 1.0) <= 1e-8


@pytest.mark.xfail(strict=True, reason="the subsonic segment lies on the lattice's "
                                       "top row, and only interior minima seed (ROADMAP item 2)")
def test_solve_finds_the_subsonic_root_of_a_sweep_material():
    # det A changes sign on the real axis at 0.8513559393557143, 2.3e-4
    # below the slowest bulk speed
    near, _ = _sweep_roots(SWEEP_12_17, 0.8513559393557143, 1e-9)
    assert [r.classification for r in near] == ["converged"]
