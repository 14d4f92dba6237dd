"""Command-line interface.

Subcommands: ``check`` (admissibility report), ``roots`` (squared mode
speeds), ``scan`` (objective samples as CSV), ``solve`` (surface-wave
roots), ``case`` (decoupled-regime cross-checks).  Exit code 0 is success,
1 a solver-domain failure, 2 a file or input problem.  Complex numbers
serialize as objects with "re" and "im" members.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .errors import InputError, RayleighError
from .material import (
    CouplingCase,
    MaterialCoefficients,
    check_distinct_cubic_roots,
    check_strong_ellipticity,
    classify_coupling,
    derived_cubic,
    load_material,
)
from .modes import ComplexSpeed, assemble_Dp, mode_vector
from .search import ScanWindow, default_window, find_rayleigh, grid_scan
from .secular import boundary_residual
from .special_cases import cross_check_case, reduced_cubic_coefficients, roots_case
from .spectrum import mode_speeds, polynomial_residual

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2

#: Wavenumbers exercised by ``solve --verify``.
VERIFY_KAPPAS = (0.1, 1.0, 10.0)


def _jsonable(obj):
    """Recursively convert payloads; complex becomes {"re":..., "im":...}."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_jsonable(payload), indent=2))
    else:
        _emit_text(payload)


def _emit_text(payload, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(payload, dict):
        for key, val in payload.items():
            if isinstance(val, (dict, list, tuple)):
                print(f"{pad}{key}:")
                _emit_text(val, indent + 1)
            else:
                print(f"{pad}{key}: {_scalar_text(val)}")
    else:
        for val in payload:
            if isinstance(val, (dict, list, tuple)):
                _emit_text(val, indent)
                print()
            else:
                print(f"{pad}- {_scalar_text(val)}")


def _scalar_text(val) -> str:
    # a numpy scalar is a float or complex, but its repr names its type
    if isinstance(val, complex):
        val = complex(val)
        sign = "-" if val.imag < 0 else "+"
        return f"{val.real!r} {sign} {abs(val.imag)!r}i"
    if isinstance(val, float):
        return repr(float(val))
    return str(val)


def _window(M: MaterialCoefficients, args: argparse.Namespace) -> ScanWindow:
    """The window of the options; ``default_window`` gives the bounds not
    set, and is not called when all are."""
    bounds = {name: getattr(args, name) for name in ("re_min", "re_max", "im_min", "im_max")}
    if None in bounds.values():
        window = default_window(M)
        bounds = {name: getattr(window, name) if val is None else val
                  for name, val in bounds.items()}
    return ScanWindow(**bounds, nx=args.nx, ny=args.ny)


def cmd_check(args: argparse.Namespace) -> int:
    M = load_material(args.material)
    report = check_strong_ellipticity(M)
    case = classify_coupling(M)
    payload = {
        "strong_ellipticity": dataclasses.asdict(report),
        "coupling": {"case": case.value, "description": case.description},
    }
    distinct = None
    if report.passed:
        C = derived_cubic(M)
        payload["cubic"] = dataclasses.asdict(C)
        distinct = check_distinct_cubic_roots(C)
    payload["distinct_cubic_roots"] = distinct
    _emit(payload, args.format)
    return EXIT_OK if (report.passed and distinct) else EXIT_DOMAIN


def cmd_roots(args: argparse.Namespace) -> int:
    M = load_material(args.material)
    C = derived_cubic(M)
    if args.case:
        case = classify_coupling(M)
        rs = roots_case(M, case)
    else:
        rs = mode_speeds(M)
    labels = [{"label": label} for label in rs.labels] or [{}] * len(rs.roots)
    rows = []
    for root, label in zip(rs.roots, labels):
        q2_res, q3_res = polynomial_residual(C, root.t)
        rows.append({"index": root.index, "t": root.t, "source": root.source, **label,
                     "residual": q2_res if root.source == "q2" else q3_res})
    payload = ({"case": case.value, "roots": rows} if args.case
               else {"roots": rows, "pairwise_min_gap": rs.pairwise_min_gap})
    _emit(payload, args.format)
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    M = load_material(args.material)
    window = _window(M, args)
    grid = grid_scan(M, window)
    lines = ["re_v,im_v,F"]
    res = [float(x) for x in window.re_values()]
    ims = [float(x) for x in window.im_values()]
    for i in range(window.nx):
        for j in range(window.ny):
            lines.append(f"{res[i]!r},{ims[j]!r},{float(grid.values[i, j])!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    M = load_material(args.material)
    window = _window(M, args)
    roots = find_rayleigh(M, window)
    payload = {
        "window": dataclasses.asdict(window),
        "roots": [
            {
                "v_re": complex(root.v).real,
                "v_im": complex(root.v).imag,
                "f_value": root.f_value,
                "det_abs": root.det_abs,
                "classification": root.classification,
                "iterations": root.iterations,
                "gamma": list(root.gamma) if root.gamma is not None else None,
            }
            for root in roots
        ],
    }
    converged = [root for root in roots if root.classification == "converged"]
    if args.verify and converged:
        best = converged[0]
        payload["boundary_residuals"] = {
            repr(kappa): boundary_residual(M, best.v, best.gamma, kappa,
                                           x1=0.4, time=0.25)
            for kappa in VERIFY_KAPPAS
        }
    _emit(payload, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(json.dumps(_jsonable(payload), indent=2) + "\n")
    return EXIT_OK if converged else EXIT_DOMAIN


def cmd_case(args: argparse.Namespace) -> int:
    M = load_material(args.material)
    case = classify_coupling(M)
    rs = roots_case(M, case)
    payload = {
        "case": case.value,
        "description": case.description,
        "roots": [
            {"index": root.index, "t": root.t, "label": label}
            for root, label in zip(rs.roots, rs.labels)
        ],
    }

    C, reduced = derived_cubic(M), reduced_cubic_coefficients(M, case)
    payload["reduced_cubic_max_rel_err"] = max(
        abs(x - y) / max(abs(y), 1e-300) for x, y in zip(reduced, (C.b4, C.b2, C.b0)))

    c = math.sqrt(min(rs.t_values()))
    v_probe = ComplexSpeed(0.5 * c, 0.1 * c)
    residuals = []
    for root in rs.roots:
        mb = mode_vector(M, v_probe, root)
        D = assemble_Dp(M, v_probe, mb.p.p)
        residuals.append(float(np.linalg.norm(D @ mb.u)
                               / (np.linalg.norm(D) * np.linalg.norm(mb.u))))
    payload["kernel_max_residual"] = max(residuals)

    if case in (CouplingCase.CASE_I, CouplingCase.CASE_II):
        check = cross_check_case(M, case)
        payload["cross_check"] = {
            "samples": check.total,
            "agreements": check.agreements,
            "summary": f"explicit and determinant secular functions agree at "
                       f"{check.agreements}/{check.total} samples",
        }
    else:
        payload["cross_check"] = {
            "summary": "no explicit secular expansion for this case; "
                       "determinant route only",
        }
    _emit(payload, args.format)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="rayleighmt",
        description="Rayleigh surface waves in thermoelastic half-spaces "
                    "with microtemperatures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--material", required=True, help="material JSON file")
        p.add_argument("--format", choices=("json", "text"), default="json")

    def add_window(p, nx, ny):
        for name in ("--re-min", "--re-max", "--im-min", "--im-max"):
            p.add_argument(name, type=float)
        p.add_argument("--nx", type=int, default=nx)
        p.add_argument("--ny", type=int, default=ny)

    p_check = sub.add_parser("check", help="admissibility and coupling report")
    add_common(p_check)

    p_roots = sub.add_parser("roots", help="squared bulk mode speeds")
    add_common(p_roots)
    p_roots.add_argument("--case", action="store_true",
                         help="use the decoupled-case closed forms")

    p_scan = sub.add_parser("scan", help="objective samples over a window (CSV)")
    add_common(p_scan)
    add_window(p_scan, nx=64, ny=32)
    p_scan.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p_solve = sub.add_parser("solve", help="locate surface-wave roots")
    add_common(p_solve)
    add_window(p_solve, nx=128, ny=64)
    p_solve.add_argument("--out", default=None, help="also write the JSON report here")
    p_solve.add_argument("--verify", action="store_true",
                         help="report boundary residuals at several wavenumbers")

    p_case = sub.add_parser("case", help="decoupled-regime cross-checks")
    add_common(p_case)
    return parser


_HANDLERS = {
    "check": cmd_check,
    "roots": cmd_roots,
    "scan": cmd_scan,
    "solve": cmd_solve,
    "case": cmd_case,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (OSError, json.JSONDecodeError, InputError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RayleighError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
