"""Demo: locate the Rayleigh root and reconstruct the surface wave.

The full pipeline on the reference material: scan, refine, classify,
then use the nullspace amplitudes to evaluate the traction residual on
the free surface and the decay of the displacement field with depth.

Run:
  python3 demos/surface_wave_root.py
"""

from pathlib import Path

import numpy as np

from rayleighmt import (
    boundary_residual,
    default_window,
    field_eval,
    find_rayleigh,
    load_material,
)

MATERIALS = Path(__file__).resolve().parent.parent / "materials"


def main():
    M = load_material(MATERIALS / "reference.json")
    # window past the fastest bulk speed: the damped root can sit above
    # every bulk speed, so a window capped at the slowest one misses it
    roots = find_rayleigh(M, default_window(M))
    print(f"{len(roots)} candidate minima:")
    for r in roots:
        print(f"  v = {complex(r.v):.12f}  |det A| = {r.det_abs:.3e}  "
              f"{r.classification} after {r.iterations} evaluations")

    best = next(r for r in roots if r.classification == "converged")
    v, gamma = best.v, best.gamma
    print(f"\nsurface wave speed: {complex(v)}")
    print(f"mode amplitudes: {np.array2string(gamma, precision=6)}")

    # the secular equation is wavenumber free, so the residual must stay
    # at rounding level for any kappa
    print("\ntraction residual on the free surface:")
    for kappa in (0.1, 1.0, 10.0):
        res = boundary_residual(M, v, gamma, kappa, x1=0.4, time=0.25)
        print(f"  kappa = {kappa:5.2f}: residual = {res:.3e}")

    print("\ndisplacement magnitude against depth (kappa = 1):")
    surface = None
    for x2 in (0.0, 5.0, 20.0, 50.0, 100.0):
        st = field_eval(M, v, gamma, 1.0, x1=0.0, x2=x2, time=0.0)
        mag = float(np.hypot(abs(st.u1), abs(st.u2)))
        if surface is None:
            surface = mag
        print(f"  x2 = {x2:6.1f}: |u| = {mag:.6e}  ({mag / surface:.2e} of surface)")


if __name__ == "__main__":
    main()
