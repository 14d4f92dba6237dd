"""Span tracing of the library's public functions, for the per-layer metrics.

The tracer replaces functions on the module globals their callers look
them up in (``search.objective_F`` is what ``grid_scan`` and
``refine_minimum`` call; patching ``rayleighmt.objective_F`` would change
nothing).  Each wrapper opens a span on a stack, closes it when the
function returns or raises, and adds its duration to the enclosing span,
so a function's self time is its span minus the spans of the wrapped
functions it called.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter

from rayleighmt import cli, material, modes, search, secular, spectrum
from rayleighmt.errors import ModeFailureError

#: (module, attribute) pairs wrapped by the traced run, at their call sites.
TARGETS = (
    (search, "objective_F"),
    (search, "amplitudes"),
    (search, "grid_scan"),
    (search, "local_minima"),
    (search, "refine_minimum"),
    (secular, "mode_speeds"),
    (secular, "mode_vector"),
    (secular, "secular_matrix"),
    (secular, "det_elimination"),
    (secular, "boundary_residual"),
    (modes, "assemble_Dp"),
    (modes, "p_from_t"),
    (spectrum, "derived_cubic"),
    (material, "check_strong_ellipticity"),
    (cli, "main"),
    (cli, "find_rayleigh"),
    (cli, "boundary_residual"),
)


class ScanTallyMismatch(RuntimeError):
    """The failures seen inside a scan differ from the count it returned."""


class Span:
    """Calls, total time and self time of one wrapped function."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span statistics per wrapped function, summed over the traced solves."""

    def __init__(self):
        self.spans = {}
        self.stack = []  # child time of each open span
        self.failures = Counter()  # objective_F failures by cause class
        self.open_scans = 0
        self.scan_failures = 0
        self.scan_points = 0
        self.refines = []  # (iterations, converged) per refined seed

    def _timed(self, name, fn):
        stat = self.spans.setdefault(name, Span())
        stack = self.stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _wrap(self, module, attr, fn):
        timed = self._timed(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", fn)
        if attr == "objective_F":
            def objective_F(*args, **kwargs):
                try:
                    return timed(*args, **kwargs)
                except ModeFailureError as exc:
                    self.failures[exc.cause_name] += 1
                    if self.open_scans:
                        self.scan_failures += 1
                    raise
            return objective_F
        if attr == "grid_scan":
            def grid_scan(*args, **kwargs):
                before = self.scan_failures
                self.open_scans += 1
                try:
                    grid = timed(*args, **kwargs)
                finally:
                    self.open_scans -= 1
                if self.scan_failures - before != grid.failures:
                    raise ScanTallyMismatch(
                        f"scan returned {grid.failures} failures, "
                        f"objective_F raised {self.scan_failures - before}"
                    )
                self.scan_points += grid.values.size
                return grid
            return grid_scan
        if attr == "refine_minimum":
            def refine_minimum(*args, **kwargs):
                root = timed(*args, **kwargs)
                self.refines.append((root.iterations, root.classification == "converged"))
                return root
            return refine_minimum
        return timed

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        originals = [(module, attr, getattr(module, attr)) for module, attr in TARGETS]
        for module, attr, fn in originals:
            setattr(module, attr, self._wrap(module, attr, fn))
        try:
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def _span(self, name) -> Span:
        return self.spans.get(name, Span())

    def per_layer(self, solves: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}, per traced solve.

        ``_us`` metrics are self time per call; ``_s`` metrics are the
        stage's inclusive time per solve (per seed for refinement), except
        ``cli.self_s``, which is ``main`` minus the solve and the residuals.
        """
        def per_solve(x):
            return x / solves

        def ratio(x, base):
            return x / base if base else 0.0

        def calls(name):
            return (per_solve(self._span(name).calls), "count")

        def us(name):
            span = self._span(name)
            return (ratio(span.self_time, span.calls) * 1e6, "us")

        scan = self._span("search.grid_scan")
        refine = self._span("search.refine_minimum")
        seeds = len(self.refines)
        converged = sum(1 for _, ok in self.refines if ok)
        stagnated_evals = sum(evals for evals, ok in self.refines if not ok)
        failures = sum(self.failures.values())
        known = ("NonDecayingError", "DegenerateKernelError")
        residual_s = (self._span("secular.boundary_residual").total
                      + self._span("cli.boundary_residual").total)
        cli_self = (self._span("cli.main").total - self._span("cli.find_rayleigh").total
                    - self._span("cli.boundary_residual").total)
        return {
            "search.grid_scan_s": (per_solve(scan.total), "s"),
            "search.scan_us_per_point": (ratio(scan.total, self.scan_points) * 1e6, "us"),
            "search.scan_failed_frac": (ratio(self.scan_failures, self.scan_points), "ratio"),
            "search.local_minima_s": (per_solve(self._span("search.local_minima").total), "s"),
            "search.seeds_per_solve": (per_solve(seeds), "count"),
            "search.refine_evals_per_seed": (ratio(sum(e for e, _ in self.refines), seeds), "count"),
            "search.refine_s_per_seed": (ratio(refine.total, seeds), "s"),
            "search.converged_frac": (ratio(converged, seeds), "ratio"),
            "search.stagnated_evals_per_solve": (per_solve(stagnated_evals), "count"),
            "secular.objective_F_calls": calls("search.objective_F"),
            "secular.objective_F_us": us("search.objective_F"),
            "secular.secular_matrix_us": us("secular.secular_matrix"),
            "secular.det_elimination_us": us("secular.det_elimination"),
            "secular.mode_failures": (per_solve(failures), "count"),
            "secular.mode_failures.NonDecayingError":
                (per_solve(self.failures["NonDecayingError"]), "count"),
            "secular.mode_failures.DegenerateKernelError":
                (per_solve(self.failures["DegenerateKernelError"]), "count"),
            "secular.mode_failures.other":
                (per_solve(failures - sum(self.failures[k] for k in known)), "count"),
            "secular.boundary_residual_s": (per_solve(residual_s), "s"),
            "modes.mode_vector_calls": calls("secular.mode_vector"),
            "modes.mode_vector_us": us("secular.mode_vector"),
            "modes.assemble_Dp_calls": calls("modes.assemble_Dp"),
            "modes.assemble_Dp_us": us("modes.assemble_Dp"),
            "modes.p_from_t_calls": calls("modes.p_from_t"),
            "spectrum.mode_speeds_calls": calls("secular.mode_speeds"),
            "spectrum.mode_speeds_us": us("secular.mode_speeds"),
            "material.derived_cubic_calls": calls("spectrum.derived_cubic"),
            "material.derived_cubic_us": us("spectrum.derived_cubic"),
            "material.check_strong_ellipticity_calls": calls("material.check_strong_ellipticity"),
            "cli.self_s": (per_solve(cli_self), "s"),
        }
