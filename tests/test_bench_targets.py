"""The benchmark's tracer wraps library functions by module and name, and its
workloads keep their own copy of the default window rule."""

import sys
import types
from pathlib import Path

from rayleighmt import default_window, load_material, mode_speeds

from conftest import MATERIALS

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"


def test_tracing_targets_resolve():
    # a name removed from the library breaks the traced benchmark run; the
    # source is executed, not imported, so nothing is written under bench/
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing.__dict__)
    missing = [f"{module.__name__}.{attr}" for module, attr in tracing.TARGETS
               if not callable(getattr(module, attr, None))]
    assert tracing.TARGETS
    assert missing == []


def test_bench_default_window_matches_the_library(monkeypatch):
    # the benchmark builds its windows without the library's default_window;
    # a drift would time a window that rayleighmt solve does not search.  The
    # source is executed, not imported, and registered under its name so
    # that its dataclasses build.
    workloads = types.ModuleType("workloads")
    workloads.__file__ = str(WORKLOADS)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"),
         workloads.__dict__)
    paths = sorted(MATERIALS.glob("*.json"))
    assert len(paths) == 4
    for path in paths:
        M = load_material(path)
        for nx, ny in ((128, 64), (64, 32)):
            assert (workloads.default_window(mode_speeds(M), (nx, ny))
                    == default_window(M, nx=nx, ny=ny)), (path.name, nx, ny)
