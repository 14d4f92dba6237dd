"""The benchmark's tracer wraps library functions by module and name."""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracing_targets_resolve():
    # a name removed from the library breaks the traced benchmark run; the
    # source is executed, not imported, so nothing is written under bench/
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing.__dict__)
    missing = [f"{module.__name__}.{attr}" for module, attr in tracing.TARGETS
               if not callable(getattr(module, attr, None))]
    assert tracing.TARGETS
    assert missing == []
