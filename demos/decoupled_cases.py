"""Demo: the three decoupled coupling regimes.

Each regime kills two of the three coupling coefficients and admits
closed-form labeled mode speeds plus an explicit secular expression
(for the first two).  The demo prints the labeled roots, cross-checks
the explicit route against the determinant route, solves each material
with ``find_rayleigh`` (the same kernel as for a fully coupled material),
and shows the general roots converging to the closed forms as the
couplings shrink.

Run:
  python3 demos/decoupled_cases.py
"""

import math
from pathlib import Path

from rayleighmt import (
    ScanWindow,
    cross_check_case,
    find_rayleigh,
    limit_consistency,
    load_material,
    mode_speeds,
    roots_case,
    validate_coefficients,
)
from rayleighmt.material import CouplingCase

MATERIALS = Path(__file__).resolve().parent.parent / "materials"

CASES = (
    ("case_i.json", CouplingCase.CASE_I),
    ("case_ii.json", CouplingCase.CASE_II),
    ("case_iii.json", CouplingCase.CASE_III),
)


def main():
    for fname, case in CASES:
        M = load_material(MATERIALS / fname)
        rs = roots_case(M, case)
        print(f"{case.name} ({fname}):")
        for r, label in zip(rs.roots, rs.labels):
            print(f"  mode {r.index}  t = {r.t:.12f}  [{label}]")
        if case is not CouplingCase.CASE_III:
            cc = cross_check_case(M, case)
            print(f"  explicit vs determinant agreement: "
                  f"{cc.agreements}/{cc.total} samples")
        c = math.sqrt(max(mode_speeds(M).t_values()))
        window = ScanWindow(re_min=0.02 * c, re_max=1.25 * c,
                            im_min=-0.45 * c, im_max=0.0, nx=128, ny=64)
        print("  find_rayleigh roots:")
        for r in find_rayleigh(M, window):
            print(f"    v = {complex(r.v):.10f}  {r.classification}")
        if case is CouplingCase.CASE_III:
            # the thermal column k p eps2 vanishes as p -> 0 at t = k/a
            print("    (v = sqrt(k/a) = 1 does not decay with depth: an artefact, "
                  "not a surface wave)")
        print()

    # general solver against the closed forms as couplings go to zero
    coupled = validate_coefficients({
        "rho": 1.0, "a": 1.0, "b": 1.0, "k": 1.0, "lambda": 1.0, "mu": 1.0,
        "d1": 1.0, "d2": 2.0, "d3": 2.0,
        "eps1": 0.5, "eps2": 0.5, "beta": 0.5, "m": 0.5,
    })
    print("limit consistency of the general route:")
    for case in (CouplingCase.CASE_I, CouplingCase.CASE_II, CouplingCase.CASE_III):
        rep = limit_consistency(coupled, case)
        print(f"  {case.name}: gap at scale {rep.scales[-1]:.0e} is "
              f"{rep.gaps[-1]:.3e}, observed orders {[round(r, 2) for r in rep.rates]}")


if __name__ == "__main__":
    main()
