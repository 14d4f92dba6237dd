"""Command-line interface: exit codes, payload shapes, output files."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rayleighmt import (
    ComplexSpeed,
    CouplingCase,
    default_window,
    load_material,
    secular_case_explicit,
)
from rayleighmt.cli import _jsonable, main

from conftest import MATERIALS

REF = str(MATERIALS / "reference.json")
CASE_I = str(MATERIALS / "case_i.json")
CASE_II = str(MATERIALS / "case_ii.json")
CASE_III = str(MATERIALS / "case_iii.json")
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _module_run(*argv):
    """``python -m rayleighmt`` from a checkout, without an install."""
    root = MATERIALS.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "rayleighmt", *argv],
                          capture_output=True, text=True, timeout=120, env=env, cwd=root)


def test_check_reference(capsys):
    code, out, _ = run(capsys, "check", "--material", REF)
    payload = json.loads(out)
    assert code == 0
    assert payload["strong_ellipticity"]["passed"] is True
    assert payload["coupling"]["case"] == "general"
    assert payload["distinct_cubic_roots"] is True


@pytest.mark.parametrize("path,case,description", [
    (REF, "general", "all couplings active (m != 0, beta != 0, eps1 or eps2 != 0)"),
    (CASE_I, "case_i", "beta = eps1 = eps2 = 0, m != 0"),
    (CASE_II, "case_ii", "m = eps1 = eps2 = 0, beta != 0"),
    (CASE_III, "case_iii", "beta = m = 0, eps1 != 0 and eps2 != 0"),
])
def test_check_prints_the_coupling_description(capsys, path, case, description):
    code, out, _ = run(capsys, "check", "--material", path)
    assert code == 0
    assert json.loads(out)["coupling"] == {"case": case, "description": description}
    code, out, _ = run(capsys, "check", "--material", path, "--format", "text")
    assert f"  description: {description}\n" in out


def test_check_rejects_inadmissible(capsys, tmp_path):
    raw = json.loads((MATERIALS / "reference.json").read_text())
    raw["mu"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "check", "--material", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["strong_ellipticity"]["passed"] is False


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "check", "--material", "no/such/file.json")
    assert code == 2
    assert "error" in err


def test_malformed_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run(capsys, "check", "--material", str(path))
    assert code == 2


def test_missing_field_is_input_error(capsys, tmp_path):
    raw = json.loads((MATERIALS / "reference.json").read_text())
    del raw["beta"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, "check", "--material", str(path))
    assert code == 2
    assert "beta" in err


def test_non_object_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    code, _, err = run(capsys, "check", "--material", str(path))
    assert code == 2
    assert err == "error: InputError: material file does not hold a JSON object\n"


def test_roots_payload(capsys):
    code, out, _ = run(capsys, "roots", "--material", REF)
    payload = json.loads(out)
    assert code == 0
    ts = [row["t"] for row in payload["roots"]]
    assert ts == pytest.approx([1.5, 0.5, 5.674979913874906,
                                1.9389289511629555, 0.8860911349621419])
    assert all(abs(row["residual"]) < 1e-12 for row in payload["roots"])
    assert payload["pairwise_min_gap"] == pytest.approx(0.38609113496214187)


def test_roots_case_labels(capsys):
    code, out, _ = run(capsys, "roots", "--material", CASE_I, "--case")
    payload = json.loads(out)
    assert code == 0
    assert [row["label"] for row in payload["roots"]] == [
        "mu/rho", "d2/b", "(lambda+2mu)/rho", "radical+", "radical-"]


def test_scan_csv_shape(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "scan", "--material", REF,
                       "--re-min", "0.1", "--re-max", "0.5",
                       "--im-min", "-0.2", "--im-max", "0",
                       "--nx", "5", "--ny", "3", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "re_v,im_v,F"
    assert len(lines) == 1 + 5 * 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.1 and float(first[1]) == -0.2
    # re varies in the outer loop
    assert float(lines[1 + 3].split(",")[0]) == 0.2


def test_scan_nan_for_failed_points(capsys):
    code, out, _ = run(capsys, "scan", "--material", REF,
                       "--re-min", "0.8", "--re-max", "0.9",
                       "--im-min", "-0.01", "--im-max", "0",
                       "--nx", "2", "--ny", "2")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    cells = [line.split(",")[2] for line in rows]
    assert cells.count("nan") == 2


def test_solve_finds_reference_root(capsys):
    code, out, _ = run(capsys, "solve", "--material", REF,
                       "--re-min", "0.8", "--re-max", "1.3",
                       "--im-min", "-0.4", "--im-max", "0",
                       "--nx", "48", "--ny", "24", "--verify")
    payload = json.loads(out)
    assert code == 0
    best = payload["roots"][0]
    assert best["classification"] == "converged"
    assert best["v_re"] == pytest.approx(1.038454844666989, abs=1e-6)
    assert best["v_im"] == pytest.approx(-0.02631077604792278, abs=1e-6)
    assert len(best["gamma"]) == 5
    for residual in payload["boundary_residuals"].values():
        assert residual <= 1e-8


def test_solve_without_root_fails(capsys):
    code, out, _ = run(capsys, "solve", "--material", REF,
                       "--re-min", "0.1", "--re-max", "0.35",
                       "--im-min", "-0.1", "--im-max", "0",
                       "--nx", "12", "--ny", "6")
    assert code == 1


def test_case_summary(capsys):
    code, out, _ = run(capsys, "case", "--material", CASE_I)
    payload = json.loads(out)
    assert code == 0
    assert payload["case"] == "case_i"
    assert payload["cross_check"]["agreements"] == 200
    assert payload["reduced_cubic_max_rel_err"] <= 1e-12
    assert payload["kernel_max_residual"] <= 1e-10


def test_case_det_only_route(capsys):
    code, out, _ = run(capsys, "case", "--material", CASE_III)
    payload = json.loads(out)
    assert code == 0
    assert payload["case"] == "case_iii"
    assert "cross_check" not in payload or "agreements" not in payload.get(
        "cross_check", {})


def test_case_rejects_general_material():
    # roots_case names the mismatch; the command adds no check of its own
    proc = _module_run("case", "--material", REF)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: WrongCaseError: material classifies as general, "
                           "not one of the decoupled cases\n")


def test_case_iii_with_a_decoupled_p_wave(capsys, tmp_path):
    # eps1 + 2 eps2 = 0 decouples the P wave; its closed-form row must not
    # vanish, or every lattice point reads det A at roundoff
    raw = json.loads(Path(CASE_III).read_text())
    path = tmp_path / "case_iii_p_wave.json"
    path.write_text(json.dumps(dict(raw, eps1=-2.0 * raw["eps2"])))
    code, out, _ = run(capsys, "case", "--material", str(path))
    assert code == 0
    assert json.loads(out)["kernel_max_residual"] <= 1e-12
    code, out, _ = run(capsys, "scan", "--material", str(path), "--nx", "8", "--ny", "4")
    assert code == 0
    assert max(float(line.split(",")[2]) for line in out.splitlines()[1:]) > -10.0


def test_text_format(capsys):
    code, out, _ = run(capsys, "check", "--material", REF, "--format", "text")
    assert code == 0
    assert "passed: True" in out
    assert not out.lstrip().startswith("{")


def test_solve_text_format_prints_plain_numbers(capsys):
    # numpy scalars in the payload print as plain numbers, not reprs
    code, out, _ = run(capsys, "solve", "--material", REF, "--format", "text")
    assert code == 0
    assert "- 1.0 + 0.0i" in out
    assert "np." not in out


def test_solve_out_file_holds_the_json_report(capsys, tmp_path):
    # --out writes the JSON report whatever --format prints
    window = ("--re-min", "0.8", "--re-max", "1.3", "--im-min", "-0.4", "--im-max", "0",
              "--nx", "48", "--ny", "24", "--verify")
    code, printed, _ = run(capsys, "solve", "--material", REF, *window)
    assert code == 0
    for fmt in ("json", "text"):
        out_path = tmp_path / f"{fmt}.json"
        code, out, _ = run(capsys, "solve", "--material", REF, *window,
                           "--format", fmt, "--out", str(out_path))
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == printed
        assert (out == printed) == (fmt == "json")


def test_jsonable_writes_non_finite_floats_as_repr():
    payload = {"det_abs": math.inf, "gamma": [complex(1.0, -0.5), -math.inf, math.nan]}
    assert _jsonable(payload) == {"det_abs": "inf",
                                  "gamma": [{"re": 1.0, "im": -0.5}, "-inf", "nan"]}


def test_module_entry_point():
    proc = _module_run("check", "--material", REF)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["strong_ellipticity"]["passed"] is True


def test_scan_overflow_window_is_quiet():
    # speeds that overflow the kernel come out as NaN cells, with no numpy
    # warnings on stderr
    proc = _module_run("scan", "--material", REF, "--re-min", "0.5", "--re-max", "1e160",
                       "--im-min", "-0.1", "--im-max", "0", "--nx", "3", "--ny", "2")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.count(",nan\n") == 4


def test_solve_rejects_infinite_window():
    # an infinite bound used to reach linspace (a numpy RuntimeWarning) and
    # fail at every lattice point
    proc = _module_run("solve", "--material", REF, "--re-max", "inf")
    assert proc.returncode == 1
    assert "ValueError: window bounds must be finite, got re_max = inf" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_unset_window_options_come_from_default_window(capsys, tmp_path):
    # each unset bound is default_window's; with every bound set the mode
    # speeds are not asked for, so a non-elliptic material fails at the
    # lattice, not at its mode speeds
    code, out, _ = run(capsys, "solve", "--material", REF, "--re-min", "0.5", "--ny", "48")
    w = default_window(load_material(REF))
    assert code == 0
    assert json.loads(out)["window"] == {"re_min": 0.5, "re_max": w.re_max,
                                         "im_min": w.im_min, "im_max": w.im_max,
                                         "nx": 128, "ny": 48}
    raw = json.loads((MATERIALS / "reference.json").read_text())
    raw["mu"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    bounds = ("--re-min", "0.1", "--re-max", "0.5", "--im-min", "-0.2", "--im-max", "0")
    code, _, err = run(capsys, "scan", "--material", str(path), *bounds, "--nx", "4", "--ny", "3")
    assert code == 1
    assert err.startswith("error: AllPointsFailedError:")
    code, _, err = run(capsys, "scan", "--material", str(path), *bounds[:2])
    assert code == 1
    assert err.startswith("error: NotStronglyEllipticError:")


def test_solve_has_no_tolerance_option(capsys):
    # a root is accepted at search.DET_RATIO_TOL times the scan median
    with pytest.raises(SystemExit) as info:
        main(["solve", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "--verify" in out
    assert "--tol" not in out


def test_scan_csv_byte_identical(capsys, tmp_path):
    # the fixture is `rayleighmt scan --material materials/reference.json
    # --nx 16 --ny 8` as printed before D(p_k) was built only where needed
    out = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--material", REF, "--nx", "16", "--ny", "8",
                     "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (DATA / "reference_scan_16x8.csv").read_bytes()


def _complex_close(a, b, tol=1e-12):
    return abs(complex(a["re"], a["im"]) - complex(b["re"], b["im"])) <= tol


def test_solve_verify_matches_fixture(capsys):
    # the fixture is `rayleighmt solve --material materials/reference.json
    # --verify` as printed before refinement ran on complex speeds; gamma
    # and the residuals may move in the last digits when the kernel route
    # changes, the refinement results may not move at all
    fixture = json.loads((DATA / "reference_solve.json").read_text())
    code, out, _ = run(capsys, "solve", "--material", REF, "--verify")
    payload = json.loads(out)
    assert code == 0
    assert payload["window"] == fixture["window"]
    assert len(payload["roots"]) == len(fixture["roots"])
    for root, frozen in zip(payload["roots"], fixture["roots"]):
        for key in ("v_re", "v_im", "f_value", "det_abs", "iterations", "classification"):
            assert root[key] == frozen[key], key
        if frozen["gamma"] is None:
            assert root["gamma"] is None
        else:
            assert len(root["gamma"]) == len(frozen["gamma"])
            assert all(_complex_close(g, h) for g, h in zip(root["gamma"], frozen["gamma"]))
    assert payload["boundary_residuals"].keys() == fixture["boundary_residuals"].keys()
    for kappa, residual in fixture["boundary_residuals"].items():
        assert abs(payload["boundary_residuals"][kappa] - residual) <= 1e-12


def _converged(payload):
    return [complex(r["v_re"], r["v_im"]) for r in payload["roots"]
            if r["classification"] == "converged"]


def test_solve_decoupled_cases(capsys):
    code, out, _ = run(capsys, "solve", "--material", CASE_I, "--verify")
    payload = json.loads(out)
    assert code == 0
    v = _converged(payload)[0]
    assert abs(v - (1.2740462292 - 0.0147390200j)) <= 1e-6
    assert all(res <= 1e-8 for res in payload["boundary_residuals"].values())
    # the explicit case I expansion vanishes at the determinant's root
    M = load_material(CASE_I)
    f = [abs(secular_case_explicit(M, ComplexSpeed.from_complex(z), CouplingCase.CASE_I))
         for z in (v, 1.01 * v)]
    assert f[0] <= 1e-6 * f[1]

    code, out, _ = run(capsys, "solve", "--material", CASE_II)
    assert code == 0
    assert any(abs(z - (0.9440266738 - 0.0229040010j)) <= 1e-6
               for z in _converged(json.loads(out)))


#: Exit code of each subcommand on each material file.  case_iii's solve
#: exits 0 only on a non-decaying "root" at v = sqrt(k/a) = 1.
EXIT_CODES = {
    "reference.json": {"check": 0, "roots": 0, "scan": 0, "solve": 0, "case": 1},
    "case_i.json": {"check": 0, "roots": 0, "scan": 0, "solve": 0, "case": 0},
    "case_ii.json": {"check": 0, "roots": 0, "scan": 0, "solve": 0, "case": 0},
    "case_iii.json": {"check": 0, "roots": 0, "scan": 0, "solve": 0, "case": 0},
}


@pytest.mark.parametrize("material,command", [
    (path.name, command) for path in sorted(MATERIALS.glob("*.json"))
    for command in ("check", "roots", "scan", "solve", "case")])
def test_exit_code_table(capsys, material, command):
    window = ("--nx", "8", "--ny", "4") if command == "scan" else ()
    code, _, _ = run(capsys, command, "--material", str(MATERIALS / material), *window)
    assert code == EXIT_CODES[material][command]


@pytest.mark.parametrize("base,changes", [
    ("case_i.json", {"eps1": 0.5}),                    # DEGENERATE
    ("reference.json", {"eps2": 0.0, "eps1": 0.6, "d2": 2.0}),  # GENERAL, eps2 = 0
])
def test_unsupported_coupling_exits_1(capsys, tmp_path, base, changes):
    raw = json.loads((MATERIALS / base).read_text())
    path = tmp_path / "material.json"
    path.write_text(json.dumps({**raw, **changes}))
    for command in ("scan", "solve"):
        code, _, err = run(capsys, command, "--material", str(path), "--nx", "8", "--ny", "4")
        assert code == 1
        assert "UnsupportedCouplingError" in err
