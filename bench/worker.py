"""One benchmark worker: set up a workload, then run its solves in a closed loop.

Started by run.py with a pinned environment, never by hand.  The worker
times its own set-up from its first statement (imports, inputs, mode
speeds and windows; no interpreter boot, no scan) and prints it as a JSON
line.  With --setup-only it stops there.  With --trace 1 it then runs its
traced passes and prints the report.  Otherwise it takes commands, one a
line, on standard input:

    run <s>     solve until <s> seconds of solving in all, then print a line
    finish <s>  the same, complete the first pass too, then print the report

One solve runs at a time and each is checked after its timer stops.
Between commands the worker waits idle, so that run.py can time other
cold starts through the run.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: the first statement

import argparse
import json
import os
import platform
import resource
import statistics
import sys

import numpy as np

from rayleighmt.errors import RayleighError
from tracing import Tracer
from workloads import ROOT, WORKLOADS, check_library_location


#: Fewest solves for a tail: ten beyond it then put it at p90 or higher.
TAIL_SAMPLES = 100


def tail(times: list) -> dict:
    """The highest order statistic with at least ten samples beyond it.

    None below ``TAIL_SAMPLES`` solves, where it would not be a tail.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < TAIL_SAMPLES:
        return None
    rank = n - 10
    return {"value_s": ordered[rank - 1], "percentile": 100.0 * rank / n,
            "samples": n, "beyond": n - rank}


#: Untimed solving before the closed loop.  On a shared 2-vCPU VM (Intel
#: Xeon, 2.1 GHz) the first two seconds of work after an idle spell ran up
#: to 1.6 times slower than the rest.
WARM_UP_S = 3.0


def timed_solve(workload, index: int):
    """One solve: its wall time and its result, or the RayleighError it raised."""
    t = time.perf_counter()
    try:
        result = workload.solve(index)
    except RayleighError as exc:
        result = exc
    return time.perf_counter() - t, result


class ClosedLoop:
    """Solves back to back, in slices of a run, until a total solving time.

    No solve starts that would take the total past the target if it took
    as long as the one before it, except to complete the first pass.
    """

    def __init__(self, workload):
        self.workload = workload
        self.times, self.outcomes = [], []
        self.first_pass_roots = {}
        self.wall = 0.0  # solving time summed over the slices, pauses excluded

    def run(self, until: float, whole_pass: bool = False) -> None:
        start, wall = time.perf_counter(), self.wall
        while True:
            last = self.times[-1] if self.times else 0.0
            index = len(self.times)
            short_of_pass = whole_pass and index < self.workload.pass_length
            if not short_of_pass and wall + (time.perf_counter() - start) + last > until:
                break
            dt, result = timed_solve(self.workload, index)
            outcome = self.workload.check(index, result)
            self.times.append(dt)
            self.outcomes.append(outcome)
            self.first_pass_roots.setdefault(index % self.workload.pass_length, outcome.roots)
        self.wall = wall + (time.perf_counter() - start)

    def report(self) -> dict:
        attempted = len(self.outcomes)
        failed = sum(1 for o in self.outcomes if not o.passed)
        metrics = {
            "solve_s": (statistics.median(self.times), "s"),
            "solves_per_s": (attempted / self.wall, "1/s"),
            "passed_frac": ((attempted - failed) / attempted, "ratio"),
            "roots_per_solve": (sum(self.first_pass_roots.values()) / self.workload.pass_length,
                                "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        meta = {"tail": tail(self.times), "solves": attempted, "timed_wall_s": self.wall}
        return {"attempted": attempted, "failed": failed, "metrics": metrics, "meta": meta}


def warm_up(workload) -> None:
    """Solve and check from the first index on for ``WARM_UP_S``, at least once.

    The timed loop starts again at index 0, so for a workload that carries
    state from one solve to the next (root tracking) it repeats the same work.
    """
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < WARM_UP_S:
        workload.check(index, timed_solve(workload, index)[1])
        index += 1


def serve(workload) -> dict:
    """Follow run.py's commands on standard input; return the final report."""
    warm_up(workload)
    loop = ClosedLoop(workload)
    for line in sys.stdin:
        command, until = line.split()
        loop.run(float(until), whole_pass=command == "finish")
        if command == "finish":
            return loop.report()
        print(json.dumps({"solves": len(loop.times)}), flush=True)
    raise SystemExit("standard input closed before the finish command")


def traced_passes(workload, seconds: float) -> dict:
    """Whole passes, each solve run untraced and then traced, for about ``seconds``.

    The tracing overhead is the median over solves of traced minus plain
    time: pairing the two runs of each solve keeps host drift out of it.
    Whole passes make the per-solve counts repeat exactly.  At least one
    pass runs, and no pass starts that would end past the deadline if it
    took as long as the one before it.  Each result is checked after the
    tracer is removed, so the checks add nothing to the per-layer figures.
    """
    tracer = Tracer()
    plain, traced, outcomes = [], [], []
    first_refines = None
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for index in range(workload.pass_length):
            plain.append(timed_solve(workload, index)[0])
            refines_before = len(tracer.refines)
            with tracer.installed():
                dt, result = timed_solve(workload, index)
            traced.append(dt)
            outcomes.append(workload.check(index, result))
            if first_refines is None:
                first_refines = [evals for evals, _ in tracer.refines[refines_before:]]
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    attempted = len(outcomes)
    metrics = tracer.per_layer(attempted)
    metrics["trace.solve_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_solve_s"] = (statistics.median(plain), "s")
    metrics["trace.overhead_s"] = (statistics.median(t - p for t, p in zip(traced, plain)), "s")
    meta = {"first_solve_refine_evals": first_refines,
            "mode_failures_by_class_per_solve": {k: v / attempted for k, v in tracer.failures.items()},
            "passes": attempted // workload.pass_length}
    return {"attempted": attempted, "failed": sum(1 for o in outcomes if not o.passed),
            "metrics": metrics, "meta": meta}


def run_metadata(workload) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in sorted(os.environ)
                    if k == "RAYLEIGH_THREADS" or k.endswith("_NUM_THREADS")},
        "src_lines": src_lines,
        "seed_used": workload.seed_used,
        "pass_length": workload.pass_length,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="traced run only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    check_library_location()
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    print(json.dumps({"setup_s": time.perf_counter() - T0}), flush=True)
    if args.setup_only:
        return 0
    result = traced_passes(workload, args.seconds) if args.trace else serve(workload)
    result["meta"].update(run_metadata(workload))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
