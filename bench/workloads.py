"""The three benchmark workloads: set-up, one solve, and its correctness check.

Each workload is built from a seed (its set-up) and then serves solves by
index.  ``solve(index)`` makes only the library calls a user would make
and returns their result; ``check(index, result)`` judges that result and
is run outside the timer and the tracer.  A ``RayleighError`` raised by a
solve is handed to ``check`` as its result and fails the check.  A pass is
the shortest run of indices after which the solves repeat: solve ``i`` and
solve ``i + pass_length`` do the same work, so counts averaged over whole
passes repeat exactly from run to run.

Every call into the library goes through a module attribute
(``search.refine_minimum``, ``cli.main``, ...) at call time, so the
wrappers that the traced run installs on those attributes see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rayleighmt
from rayleighmt import cli, search, secular
from rayleighmt.errors import RayleighError
from rayleighmt.material import load_material, validate_coefficients
from rayleighmt.modes import ComplexSpeed
from rayleighmt.spectrum import mode_speeds

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_ARG = "materials/reference.json"  # relative: the CLI runs from ROOT

#: Converged root of the reference material (frozen in tests/test_search.py).
GOLDEN_ROOT = 1.038454844666989 - 0.02631077604792278j

#: Largest distance from the golden root accepted on ``reference_solve``.
GOLDEN_TOL = 1e-6

#: Largest relative boundary traction accepted at a converged root.
RESIDUAL_TOL = 1e-8

#: Median |det A| over the reference 128x64 scan.  Tracking runs no scan,
#: so this frozen value stands in for the scan median that ``find_rayleigh``
#: would pass as the convergence scale.
REFERENCE_DET_SCALE = 1148.9222112511563

#: Largest move of the root between neighbouring path steps.  Steps of the
#: 48-step path move it by at most 2e-3; a jump ten times that means the
#: simplex left for another minimum.
MAX_STEP_JUMP = 0.02

#: Path steps per tracking solve.  One step takes about 40 ms, short enough
#: for one brief slow spell of the host to decide its time; seven steps
#: make a solve of about 0.25 s and split the 49-point path into 7 solves.
PATH_SEGMENT = 7

#: Lattice of the default ``solve`` window, and the coarse sweep lattice.
#: At 32x16 about half of the random materials return no root.
REFERENCE_LATTICE = (128, 64)
SWEEP_LATTICE = (64, 32)
SWEEP_POOL = 24
PATH_STEPS = 48

#: Sizes of the smoke mode.
TINY_REFERENCE_LATTICE = (32, 16)
TINY_SWEEP_LATTICE = (48, 24)
TINY_SWEEP_POOL = 2
TINY_PATH_STEPS = 3
TINY_PATH_SEGMENT = 2


def check_library_location() -> None:
    """Refuse to measure a rayleighmt that is not this checkout's."""
    src = (ROOT / "src").resolve()
    if src not in Path(rayleighmt.__file__).resolve().parents:
        raise SystemExit(f"rayleighmt imported from {rayleighmt.__file__}, not from {src}")


def default_window(speeds, lattice) -> search.ScanWindow:
    """The window ``rayleighmt solve`` uses when none is given."""
    c = math.sqrt(max(speeds.t_values()))
    return search.ScanWindow(re_min=0.02 * c, re_max=1.25 * c, im_min=-0.45 * c,
                             im_max=0.0, nx=lattice[0], ny=lattice[1])


@dataclass(frozen=True)
class Outcome:
    """Result of one solve: did its check pass, and how many roots it found."""

    passed: bool
    roots: int


class ReferenceSolve:
    """``rayleighmt solve --verify`` on the reference material, in-process."""

    name = "reference_solve"
    seed_used = False
    pass_length = 1

    def __init__(self, seed: int, tiny: bool = False):
        lattice = TINY_REFERENCE_LATTICE if tiny else REFERENCE_LATTICE
        material = load_material(ROOT / REFERENCE_ARG)
        self.window = default_window(mode_speeds(material), lattice)
        self.argv = ["solve", "--material", REFERENCE_ARG, "--verify"]
        if tiny:
            self.argv += ["--nx", str(lattice[0]), "--ny", str(lattice[1])]

    def solve(self, index: int):
        """The exit code and the captured standard output of the CLI."""
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(self.argv)
        return code, captured.getvalue()

    def check(self, index: int, result) -> Outcome:
        if isinstance(result, RayleighError) or result[0] != cli.EXIT_OK:
            return Outcome(False, 0)
        payload = json.loads(result[1])
        converged = [r for r in payload["roots"] if r["classification"] == "converged"]
        if not converged:
            return Outcome(False, 0)
        best = complex(converged[0]["v_re"], converged[0]["v_im"])
        window = payload["window"]
        residuals = [float(x) for x in payload["boundary_residuals"].values()]
        passed = (
            abs(best - GOLDEN_ROOT) <= GOLDEN_TOL
            and len(residuals) == len(cli.VERIFY_KAPPAS)
            and all(r <= RESIDUAL_TOL for r in residuals)
            and (window["nx"], window["ny"]) == (self.window.nx, self.window.ny)
            and math.isclose(window["re_max"], self.window.re_max)
        )
        return Outcome(passed, len(converged))


class RootTracking:
    """Continuation of the reference root while the couplings shrink.

    The seed draws, for each of eps1, eps2, beta and m, the factor it ends
    at (between 0.4 and 0.6); the path steps linearly from the reference
    material to those factors.  Step 0 is the reference material seeded at
    the golden root; each later step is seeded with the root of the step
    before.  One solve is a segment of consecutive steps.  There is no
    scan.  The smoke mode keeps the first few steps.
    """

    name = "root_tracking"
    seed_used = True

    def __init__(self, seed: int, tiny: bool = False):
        base = load_material(ROOT / REFERENCE_ARG)
        ends = np.random.default_rng(seed).uniform(0.4, 0.6, size=4)
        self.path = []
        for k in range((TINY_PATH_STEPS if tiny else PATH_STEPS) + 1):
            f = 1.0 + (ends - 1.0) * (k / PATH_STEPS)
            M = base.replace(eps1=base.eps1 * f[0], eps2=base.eps2 * f[1],
                             beta=base.beta * f[2], m=base.m * f[3])
            mode_speeds(M)  # distinct speeds all along the path, or set-up fails
            self.path.append(M)
        self.segment = TINY_PATH_SEGMENT if tiny else PATH_SEGMENT
        self.pass_length = len(self.path) // self.segment
        self.opts = search.RefineOptions(det_scale=REFERENCE_DET_SCALE)
        # roots[k] is where step k ended; a failed step passes its seed on
        self.roots = [None] * len(self.path)

    def _steps(self, index: int) -> range:
        first = (index % self.pass_length) * self.segment
        return range(first, first + self.segment)

    def _entry_seed(self, index: int) -> ComplexSpeed:
        first = self._steps(index)[0]
        return ComplexSpeed.from_complex(GOLDEN_ROOT) if first == 0 else self.roots[first - 1]

    def solve(self, index: int) -> list:
        """(seed, refined root) of each step of the segment, in order."""
        steps = []
        seed = self._entry_seed(index)
        for k in self._steps(index):
            root = search.refine_minimum(self.path[k], seed, self.opts)
            steps.append((seed, root))
            seed = root.v
        return steps

    def _step_ok(self, k: int, seed, root) -> bool:
        if root.classification != "converged" or abs(complex(root.v) - complex(seed)) > MAX_STEP_JUMP:
            return False
        try:
            return secular.boundary_residual(self.path[k], root.v, root.gamma, 1.0) <= RESIDUAL_TOL
        except RayleighError:
            return False

    def check(self, index: int, result) -> Outcome:
        if isinstance(result, RayleighError):
            for k in self._steps(index):
                self.roots[k] = self._entry_seed(index)
            return Outcome(False, 0)
        passed = True
        for k, (seed, root) in zip(self._steps(index), result):
            ok = self._step_ok(k, seed, root)
            self.roots[k] = root.v if ok else seed
            passed = passed and ok
        return Outcome(passed, len(result) if passed else 0)


_UNIFORM_RANGES = (
    ("rho", 0.3, 3.0), ("a", 0.3, 3.0), ("b", 0.3, 3.0), ("k", 0.3, 3.0),
    ("mu", 0.3, 3.0), ("d1", 0.1, 2.0), ("d2", 0.3, 3.0), ("d3", 0.1, 2.0),
    ("beta", 0.1, 1.5), ("m", 0.1, 1.5),
)


def random_material(rng):
    """An admissible general material and its mode speeds.

    Draws like the property-test sampler: every strong-ellipticity
    condition holds by construction, and the loop only rejects the rare
    draw whose mode speeds are not distinct.
    """
    while True:
        raw = {name: rng.uniform(lo, hi) for name, lo, hi in _UNIFORM_RANGES}
        raw["lambda"] = rng.uniform(-0.5 * raw["mu"], 3.0)
        pw = raw["lambda"] + 2.0 * raw["mu"]
        d = raw["d1"] + raw["d2"] + raw["d3"]
        raw["eps2"] = rng.uniform(0.05, 0.8) * math.sqrt(raw["mu"] * raw["d2"])
        raw["eps1"] = rng.uniform(0.05, 0.8) * math.sqrt(pw * d) - 2.0 * raw["eps2"]
        M = validate_coefficients(raw)
        try:
            return M, mode_speeds(M)
        except RayleighError:
            continue


class MaterialSweep:
    """``find_rayleigh`` on seeded random materials, each on its own window."""

    name = "material_sweep"
    seed_used = True

    def __init__(self, seed: int, tiny: bool = False):
        count, lattice = (TINY_SWEEP_POOL, TINY_SWEEP_LATTICE) if tiny else (SWEEP_POOL, SWEEP_LATTICE)
        rng = np.random.default_rng(seed)
        self.cases = []
        for _ in range(count):
            M, speeds = random_material(rng)
            self.cases.append((M, default_window(speeds, lattice)))
        self.pass_length = len(self.cases)

    def solve(self, index: int) -> list:
        M, window = self.cases[index % len(self.cases)]
        return search.find_rayleigh(M, window)

    def check(self, index: int, result) -> Outcome:
        if isinstance(result, RayleighError):
            return Outcome(False, 0)
        M, _ = self.cases[index % len(self.cases)]
        converged = [r for r in result if r.classification == "converged"]
        try:
            passed = all(secular.boundary_residual(M, r.v, r.gamma, 1.0) <= RESIDUAL_TOL
                         for r in converged)
        except RayleighError:
            passed = False
        return Outcome(passed, len(converged))


WORKLOADS = {w.name: w for w in (ReferenceSolve, RootTracking, MaterialSweep)}
