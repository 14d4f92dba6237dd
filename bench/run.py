"""Benchmark of the rayleighmt solve pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload reference_solve --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --smoke

One run starts a worker process with a pinned, single-threaded
environment.  It sets up the workload, then runs its solves in a closed
loop (one solve at a time, the next sent when the previous one is done)
and checks each result.  With ``--trace 0`` the loop runs in slices; in
each pause between slices a fresh worker only sets the workload up, so
that the cold starts are spread over the run.  ``setup_s`` is the median
set-up time of all of them.  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.

``--smoke`` runs every workload at tiny sizes, traced and untraced, and
fails unless each prints every metric named in BENCHMARK.json with its
unit and every check passes.

See README.md beside this file for the workloads and what each metric
should react to.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("reference_solve", "root_tracking", "material_sweep")

#: Set-ups per untraced run whose median is ``setup_s``: the solving
#: worker's own and one fresh worker in each pause of its closed loop.
COLD_STARTS = 15

#: A run must end within 180 s; this leaves room to stop and report.
RUN_BUDGET_S = 170.0

#: Single-threaded everywhere, so runs compare on any machine.
PINNED_ENV = {
    "RAYLEIGH_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """The benchmark could not run to the end."""


def check_checkout() -> None:
    for needed in ("src/rayleighmt/__init__.py", "materials/reference.json"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{needed} not found under {ROOT}: not a rayleighmt checkout")


def worker_command(args: list) -> dict:
    return dict(args=[sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
                env=dict(os.environ, **PINNED_ENV, PYTHONPATH=str(ROOT / "src")), text=True)


def worker(args: list, deadline: float) -> list:
    """Run one worker to completion and return its lines of output, parsed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker could start")
    try:
        proc = subprocess.run(**worker_command(args), stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


class LoopWorker:
    """The worker that runs the closed loop, driven one slice at a time.

    Its standard error passes through.  It is killed if the run's deadline
    passes, and is always waited for.
    """

    def __init__(self, args: list, deadline: float):
        self.args = args
        self.proc = subprocess.Popen(**worker_command(args), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.watchdog.start()

    def reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            code = self.proc.wait()
            raise BenchError(f"worker {self.args} stopped (exit {code}) without a reply; "
                             "out of time or failed, see its error output above")
        return json.loads(line)

    def send(self, command: str, until: float) -> dict:
        self.proc.stdin.write(f"{command} {until!r}\n")
        self.proc.stdin.flush()
        return self.reply()

    def close(self) -> None:
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, cold_starts: int = COLD_STARTS) -> dict:
    """One benchmark run; returns the worker's report, with ``setup_s`` if untraced."""
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    if trace:
        setup, report = worker(common + ["--seconds", str(seconds), "--trace", "1"], deadline)
        report["meta"]["setup_samples_s"] = [setup["setup_s"]]
        return report
    loop = LoopWorker(common, deadline)
    try:
        setups = [loop.reply()["setup_s"]]
        for k in range(1, cold_starts):
            loop.send("run", seconds * k / cold_starts)
            [setup] = worker(common + ["--setup-only"], deadline)
            setups.append(setup["setup_s"])
        report = loop.send("finish", seconds)
    finally:
        loop.close()
    report["meta"]["setup_samples_s"] = setups
    report["metrics"] = {"setup_s": (statistics.median(setups), "s"), **report["metrics"]}
    return report


def print_report(workload: str, seed: int, report: dict) -> None:
    meta = report["meta"]
    seed_note = "" if meta["seed_used"] else " (unused: this workload has no random input)"
    print(f"workload {workload}, seed {seed}{seed_note}")
    print("meta " + json.dumps(meta, sort_keys=True))
    metrics = report["metrics"]
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value!r} {unit}")
    if "tail" in meta:
        tail = meta["tail"]
        print(f"  {'solve_s_tail (not gated)':45s} " +
              (f"{tail['value_s']!r} s, p{tail['percentile']:.1f} of {tail['samples']} solves"
               if tail else f"none: {meta['solves']} solves leave no p90 with 10 beyond it"))
    if "trace.overhead_s" in metrics:
        print(f"  tracing overhead: {metrics['trace.overhead_s'][0]!r} s per solve")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            report = run(workload, seed=1, seconds=0.0, trace=trace, tiny=True, cold_starts=2)
            got = {name: unit for name, (_, unit) in report["metrics"].items()}
            if got != expected:
                raise BenchError(f"{workload} {key}: printed {got}, BENCHMARK.json names {expected}")
            if report["failed"]:
                raise BenchError(f"{workload}: {report['failed']} of {report['attempted']} checks failed")
            print(f"smoke {workload} {key}: {len(got)} metrics, "
                  f"{report['attempted']} solves checked")
    print("smoke: ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        check_checkout()
        if args.smoke:
            smoke()
        else:
            report = run(args.workload, args.seed, args.seconds, bool(args.trace))
            print_report(args.workload, args.seed, report)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
