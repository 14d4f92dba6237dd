"""Each demo script must run to completion from a clean checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

# pytest's own pythonpath setting does not reach the demo subprocesses
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

MARKERS = {
    "screen_materials.py": "admissible: True",
    "bulk_modes_and_kernels.py": "squared mode speeds",
    "landscape_scan.py": "strict interior minima",
    "surface_wave_root.py": "surface wave speed",
    "decoupled_cases.py": "limit consistency",
}


@pytest.mark.parametrize("script", sorted(MARKERS))
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          capture_output=True, text=True, timeout=300, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert MARKERS[script] in proc.stdout
