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
    cross_check_case,
    default_window,
    find_rayleigh,
    load_material,
    mode_speeds,
    roots_case,
    validate_coefficients,
)
from rayleighmt.material import CASE_ZEROED_COUPLINGS, CouplingCase

MATERIALS = Path(__file__).resolve().parent.parent / "materials"

CASES = (
    ("case_i.json", CouplingCase.CASE_I),
    ("case_ii.json", CouplingCase.CASE_II),
    ("case_iii.json", CouplingCase.CASE_III),
)

#: Factors by which the limit study scales a case's couplings.
LIMIT_SCALES = (1e-2, 1e-4, 1e-6)


def limit_gaps(M, case):
    """Largest gap between the general mode speeds of M, with the couplings
    the case zeroes scaled by each of ``LIMIT_SCALES``, and the closed-form
    speeds of the fully decoupled material."""
    fields = CASE_ZEROED_COUPLINGS[case]
    target = sorted(roots_case(M.replace(**dict.fromkeys(fields, 0.0)), case).t_values())
    gaps = []
    for scale in LIMIT_SCALES:
        scaled = M.replace(**{name: getattr(M, name) * scale for name in fields})
        ts = sorted(mode_speeds(scaled).t_values())
        gaps.append(max(abs(x - y) for x, y in zip(ts, target)))
    return gaps


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
        print("  find_rayleigh roots:")
        for r in find_rayleigh(M, default_window(M)):
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
        gaps = limit_gaps(coupled, case)
        orders = [math.log(g1 / g0) / math.log(s1 / s0) for g0, g1, s0, s1
                  in zip(gaps, gaps[1:], LIMIT_SCALES, LIMIT_SCALES[1:])]
        print(f"  {case.name}: gap at scale {LIMIT_SCALES[-1]:.0e} is "
              f"{gaps[-1]:.3e}, observed orders {[round(r, 2) for r in orders]}")


if __name__ == "__main__":
    main()
