"""Demo: map the secular objective over the complex speed plane.

Run:
  python3 demos/landscape_scan.py

Prints a character rendering of F = log |det A| on a coarse window plus
the strict interior minima found on the lattice.  Darker characters are
lower values; 'x' marks a failed point (non decaying mode).
"""

import math
from pathlib import Path

import numpy as np

from rayleighmt import default_window, grid_scan, load_material, local_minima

MATERIALS = Path(__file__).resolve().parent.parent / "materials"
SHADES = " .:-=+*#%@"


def render(grid) -> str:
    vals = grid.values
    finite = vals[np.isfinite(vals)]
    lo, hi = finite.min(), finite.max()
    lines = []
    # print with Im v increasing downward so the admissible quadrant
    # reads like the physical half-space
    for j in range(grid.window.ny - 1, -1, -1):
        row = []
        for i in range(grid.window.nx):
            f = vals[i, j]
            if math.isnan(f):
                row.append("x")
            else:
                k = int((hi - f) / (hi - lo) * (len(SHADES) - 1))
                row.append(SHADES[k])
        lines.append("".join(row))
    return "\n".join(lines)


def main():
    M = load_material(MATERIALS / "reference.json")
    window = default_window(M, nx=72, ny=24)
    grid = grid_scan(M, window)
    print(f"window: Re v in [{window.re_min:.3f}, {window.re_max:.3f}], "
          f"Im v in [{window.im_min:.3f}, {window.im_max:.3f}]")
    print(f"lattice {window.nx} x {window.ny}, {grid.failures} failed points\n")
    print(render(grid))

    res = window.re_values()
    ims = window.im_values()
    print("\nstrict interior minima (seeds for refinement):")
    for i, j in local_minima(grid):
        print(f"  v ~ {res[i]:.4f} {ims[j]:+.4f}i   F = {grid.values[i, j]:+.4f}")


if __name__ == "__main__":
    main()
