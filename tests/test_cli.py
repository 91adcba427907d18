"""Command-line surface: exit codes, report schemas, determinism."""

import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pseudoboson
from pseudoboson import cli, linalg, similarity
from pseudoboson.cli import main
from pseudoboson.fock import Operator
from pseudoboson.model import ModelParams
from pseudoboson.sectors import SectorSpec, hermitian_sector_tridiag, pseudo_jacobi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strict_json(text: str):
    """json.loads that refuses the NaN and Infinity tokens RFC 8259 forbids."""
    def refuse(token):
        raise ValueError(f"non-finite token {token} in a report")
    return json.loads(text, parse_constant=refuse)


def test_spectrum_reports_closed_form_grid(capsys):
    code, out, _ = run(capsys, "spectrum")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "1"
    assert payload["command"] == "spectrum"
    by_mn = {(e["m"], e["n"]): e["energy"] for e in payload["entries"]}
    assert by_mn[(2, 3)] == 7.0
    assert by_mn[(0, 0)] == 1.25
    assert payload["all_passed"] is True


def test_spectrum_csv_format(capsys):
    code, out, _ = run(capsys, "spectrum", "--format", "csv", "--m-max", "1",
                       "--n-max", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,energy"
    assert lines[1] == "0,0,1.25"
    assert len(lines) == 5


def test_commutators_passes_at_defaults(capsys):
    code, out, _ = run(capsys, "commutators", "--trunc", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert "[c,c_ddag]" in payload["deviations"]


def test_commutators_deterministic_output(capsys):
    _, first, _ = run(capsys, "commutators", "--trunc", "6")
    _, second, _ = run(capsys, "commutators", "--trunc", "6")
    assert first == second


def test_emm_report_structure(capsys):
    code, out, _ = run(capsys, "emm")
    assert code == 0
    payload = json.loads(out)
    values = sorted(v["re"] for v in payload["closed_values"])
    assert values == [-1.75, -0.75, 0.75, 1.75]
    assert payload["secular_degenerate"] is False


def test_sectors_respects_depth_contract(capsys):
    code, _, err = run(capsys, "sectors", "--depth", "50")
    assert code == 2
    assert "multiple of 4" in err


def test_sectors_small_run(capsys):
    code, out, _ = run(capsys, "sectors", "--depth", "32", "--k-range", "0", "1",
                       "--step-tol", "1e-6")
    assert code == 0
    payload = json.loads(out)
    assert [s["k"] for s in payload["sectors"]] == [0, 1]
    assert payload["sectors"][0]["depths"] == [8, 16, 32]


def _deep_sectors_pass(capsys, k_lo, k_hi, depth):
    # the deeper depths are continued from the start depth's QR values; the
    # numpy oracle checks them on the full section
    code, out, err = run(capsys, "sectors", "--k-range", str(k_lo), str(k_hi),
                         "--depth", str(depth))
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert "Traceback" not in err
    for sector in payload["sectors"]:
        assert max(sector["abs_errors"]) < 1e-12
        m = pseudo_jacobi(SectorSpec(sector["k"], depth), ModelParams(0.5, 0.75))
        oracle = np.sort_complex(np.linalg.eigvals(m))[:3]
        values = np.array([v["re"] + 1j * v["im"] for v in sector["values"]])
        assert np.abs(values - oracle).max() < 1e-8 * np.abs(oracle).max()


def test_sectors_deep_run_passes(capsys):
    _deep_sectors_pass(capsys, 1, 1, 240)


def test_sectors_depth_480_run_passes(capsys):
    _deep_sectors_pass(capsys, -1, 1, 480)


def test_module_runs_as_program(capsys):
    argv = ["spectrum", "--m-max", "1", "--n-max", "1"]
    src = str(Path(pseudoboson.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-m", "pseudoboson", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert proc.stdout == out


def test_stability_both_regimes(capsys):
    code, out, _ = run(capsys, "stability", "--depths", "20", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["bounded"] is True
    assert payload["pairs"][-1]["lowest"] == pytest.approx(0.8, abs=1e-6)

    code, out, _ = run(capsys, "stability", "--lam", "1.2",
                       "--depths", "40", "80")
    assert code == 0
    payload = json.loads(out)
    assert payload["bounded"] is False
    assert payload["final_drop"] > 1.0


def test_stability_needs_two_depths(capsys):
    code, _, err = run(capsys, "stability", "--depths", "30")
    assert code == 2
    assert "two" in err


@pytest.mark.parametrize("first, plain", [
    (["sectors", "--k-range", "1", "1"], ["sectors"]),
    (["stability", "--depths", "40", "80"], ["stability"]),
])
def test_parser_kept_across_calls_gives_single_call_reports(capsys, first, plain):
    # main builds its parser once per process: a list flag given to one call
    # must not reach the next, and no call may change a list default in place
    singles = []
    for argv in (first, plain):
        cli._parser.cache_clear()
        singles.append(run(capsys, *argv))
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in (first, plain, plain)] == [
        singles[0], singles[1], singles[1]]


def test_theorem1_json_input(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": [[1.0, 1.0], [0.0, 2.0]],
                                "im": [[0.0, 0.0], [0.0, 0.0]]}))
    code, out, _ = run(capsys, "theorem1", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["similarity_error"] <= 1e-12
    assert payload["unitarity_defect"] > 1.0
    s = np.array([[c["re"] + 1j * c["im"] for c in row]
                  for row in payload["transform"]])
    assert np.abs(s - np.array([[1.0, -1.0], [-1.0, 2.0]])).max() < 1e-10


def test_theorem1_csv_input_matches_json(tmp_path, capsys):
    jpath = tmp_path / "m.json"
    jpath.write_text(json.dumps({"n": 2, "re": [[1.0, 1.0], [0.0, 2.0]]}))
    cpath = tmp_path / "m.csv"
    cpath.write_text("1.0,0.0,1.0,0.0\n0.0,0.0,2.0,0.0\n")
    _, from_json, _ = run(capsys, "theorem1", "--input", str(jpath))
    _, from_csv, _ = run(capsys, "theorem1", "--input", str(cpath))
    assert from_json == from_csv


def test_theorem1_precondition_failure_is_exit_one(tmp_path, capsys):
    # rotation by 90 degrees: eigenvalues +-i, spectrum not real
    path = tmp_path / "rot.json"
    path.write_text(json.dumps({"n": 2, "re": [[0.0, -1.0], [1.0, 0.0]]}))
    code, _, err = run(capsys, "theorem1", "--input", str(path))
    assert code == 1
    assert "first failing check: precondition" in err


def _zero_first_vector(m, **kwargs):
    report = linalg.eig_dense(m, **kwargs)
    report.vectors[:, 0] = 0.0
    return report


@pytest.mark.parametrize("name, planted", [
    ("solve_matrix", lambda a, b: linalg.solve_matrix(np.zeros_like(a), b)),
    ("biorthonormalize", lambda phi, psi: linalg.biorthonormalize(phi, 0.0 * psi)),
    ("eig_dense", _zero_first_vector),
], ids=["singular-lu", "vanishing-gram", "zero-eigenvector"])
def test_theorem1_solver_failure_is_exit_one(tmp_path, capsys, monkeypatch,
                                             name, planted):
    # a failure inside the construction, past its preconditions, is the
    # solver's, not the input's: exit 1 naming the solver check
    monkeypatch.setattr(similarity, name, planted)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": [[1.0, 1.0], [0.0, 2.0]]}))
    code, out, err = run(capsys, "theorem1", "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("first failing check: solver (")


@pytest.mark.parametrize("matrix, failure", [
    # every entry is subnormal: the eigenvector scaling must not overflow, and
    # the gap test, relative to the norm itself, finds the spectrum simple
    ([[1e-320, 0.0], [0.0, 2e-320]], None),
    # QR runs on the matrix scaled into [0.5, 1), and spectrum_match's
    # distance between the far pair is inf with no warning, so it passes
    ([[1e308, 1e308], [0.0, -1e308]], None),
    # a zero gap is no gap at a zero norm either
    ([[0.0, 0.0], [0.0, 0.0]], "precondition"),
    # spectrum_match is relative to the norm: the absolute distance failed
    # here with 2.76e+165
    (np.ldexp([[1.0, 2.0, 0.5], [0.3, 2.0, 1.0], [0.0, 0.7, 3.0]], 600).tolist(), None),
], ids=["subnormal", "huge", "zero", "scaled-2^600"])
def test_theorem1_extreme_input_ends_without_traceback(tmp_path, capsys, matrix,
                                                       failure):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": len(matrix), "re": matrix}))
    code, out, err = run(capsys, "theorem1", "--input", str(path))
    if failure is None:
        assert (code, err) == (0, "")
        assert json.loads(out)["all_passed"]
        return
    assert code == 1
    assert out == ""
    assert err.startswith(f"first failing check: {failure} (")


def test_theorem1_solves_a_simple_spectrum_below_1e_300(tmp_path, capsys):
    # the eigenvalues 3e-320 +- sqrt(2) 1e-320 lie 2.83e-320 apart at norm
    # 4.69e-320: simple relative to the norm, with no floor in between
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": [[4e-320, 1e-320], [1e-320, 2e-320]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "theorem1", "--input", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["all_passed"] and report["similarity_error"] == 0.0


@pytest.mark.parametrize("name, text", [
    ("nan.json", '{"n": 2, "re": [[1.0, NaN], [0.0, 2.0]]}'),
    ("inf.json", '{"n": 2, "re": [[1.0, 0.0], [0.0, 2.0]], '
                 '"im": [[0.0, Infinity], [0.0, 0.0]]}'),
    ("nan.csv", "1.0,0.0,nan,0.0\n0.0,0.0,2.0,0.0\n"),
    ("inf.csv", "1.0,0.0,1.0,-inf\n0.0,0.0,2.0,0.0\n"),
], ids=["nan-json", "inf-json", "nan-csv", "inf-csv"])
def test_theorem1_non_finite_input_is_exit_two(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "theorem1", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_theorem1_qr_non_convergence_is_solver_failure(tmp_path, capsys,
                                                      monkeypatch):
    # a sweep cap of zero leaves QR undeflated; that is solver trouble, not a
    # precondition failure of the matrix
    monkeypatch.setattr(linalg, "MAX_SWEEPS_PER_DIM", 0)
    rng = np.random.default_rng(5)
    m = rng.uniform(0.5, 1.0, (3, 3)) + 1j * rng.uniform(0.5, 1.0, (3, 3))
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 3, "re": m.real.tolist(), "im": m.imag.tolist()}))
    code, out, err = run(capsys, "theorem1", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("first failing check: solver (")


def test_theorem1_overflowing_norm_is_exit_two(tmp_path, capsys):
    # finite entries whose Frobenius norm overflows: the first Hessenberg
    # reflector would be scaled by an infinite norm
    big = 1.3e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 3,
                                "re": [[0.0, 1.0, 0.0], [big, 1.0, 1.0], [0.0, big, 1.0]],
                                "im": [[1.0, 0.0, 0.0], [big, 0.0, 0.0], [0.0, -big, 0.0]]}))
    assert run(capsys, "theorem1", "--input", str(path)) == (
        2, "", f"pseudoboson: error: {path}: matrix Frobenius norm overflows\n")


# every float flag that is a tolerance, or the drop the instability witness
# asks for, with arguments that keep each run small
TOLERANCE_FLAGS = [
    (["sectors", "--k-range", "0", "0", "--depth", "16"], "--tol"),
    (["sectors", "--k-range", "0", "0", "--depth", "16"], "--step-tol"),
    (["biorth", "--trunc", "28", "--m-max", "1", "--n-max", "1"], "--tol"),
    (["commutators", "--trunc", "4"], "--tol"),
    (["commutators", "--trunc", "4"], "--action-tol"),
    (["emm"], "--tol"),
    (["stability", "--depths", "16", "32"], "--tol"),
    (["stability", "--lam", "1.2", "--depths", "16", "32"], "--drop"),
    (["theorem1", "--input", "REAL_INPUT"], "--real-tol"),
    (["theorem1", "--input", "REAL_INPUT"], "--sim-tol"),
    (["theorem1", "--input", "REAL_INPUT"], "--biorth-tol"),
]


def test_tolerance_flags_cover_every_float_flag():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if a.dest == "command").choices
    floats = {(name, a.option_strings[0]) for name, sub in subs.items()
              for a in sub._actions if a.type is float}
    models = {(name, flag) for name, flag in floats
              if flag in ("--beta", "--gamma", "--lam")}
    assert floats - models == {(argv[0], flag) for argv, flag in TOLERANCE_FLAGS}


@pytest.mark.parametrize("argv, flag", TOLERANCE_FLAGS,
                         ids=[f"{argv[0]}{flag}" for argv, flag in TOLERANCE_FLAGS])
def test_meaningless_tolerances_are_usage_errors(tmp_path, capsys, argv, flag):
    # a negative tolerance fails every check, and a drop of 0 is witnessed
    # by a scan that does not drop; a tolerance of 0 stays accepted
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": [[1.0, 1.0], [0.0, 2.0]]}))
    argv = [str(path) if a == "REAL_INPUT" else a for a in argv]
    rule = "positive" if flag == "--drop" else "nonnegative"
    for value in ("-1", "-1e-300") + (("0",) if flag == "--drop" else ()):
        assert run(capsys, *argv, f"{flag}={value}") == (
            2, "", f"pseudoboson: error: {flag} must be {rule}\n")
    code, out, err = run(capsys, *argv, flag, "0" if flag != "--drop" else "1e-300")
    assert code in (0, 1)
    assert "must be" not in err
    json.loads(out)


def test_stability_overflowing_coupling_is_exit_two(capsys):
    code, out, err = run(capsys, "stability", "--lam", "1.7e308")
    assert (code, out) == (2, "")
    assert err.startswith("pseudoboson: error: lam = 1.7e+308 is too large")


@pytest.mark.parametrize("argv, code", [(["--beta", "1.7e308"], 1),
                                        (["--gamma", "2.2e-308"], 0)],
                         ids=["beta-1.7e308", "gamma-2.2e-308"])
def test_emm_residuals_scale_past_the_float_range(capsys, argv, code):
    # residual scales (M, lam) by one power of two and v by another, so under
    # the suite's error::RuntimeWarning filter no residual overflows or
    # underflows into a warning or a NaN: at beta 1.7e308 the 4 x 4 splits
    # exactly into two 2 x 2 blocks, whose values and residuals are exact,
    # and at gamma 2.2e-308 the secular vectors reach 9.1e307
    result, out, err = run(capsys, "emm", *argv)
    checks = {c["name"]: c for c in _strict_json(out)["checks"]}
    assert checks["emm_closed_form_residual"]["passed"]
    assert checks["secular_residual"]["passed"]
    assert result == code
    if code == 0:
        assert err == ""
        return
    # the weighted pairing still overflows to NaN: it fails by name, and the
    # report writes it as null and stays strict JSON
    assert err == "first failing check: emm_pairing_identity (value nan is not finite)\n"
    failed = [c for c in checks.values() if not c["passed"]]
    assert [(c["name"], c["value"]) for c in failed] == [("emm_pairing_identity", None)]


def test_stability_overflowing_diagonal_is_exit_two(capsys):
    # beta k overflows on the diagonal; QL would report a non-finite value
    code, out, err = run(capsys, "stability", "--beta", "1.7e308", "--k", "2")
    assert (code, out) == (2, "")
    assert err.startswith("pseudoboson: error: beta = 1.7e+308 is too large")


def test_theorem1_malformed_input_is_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,3.0\n")
    code, _, err = run(capsys, "theorem1", "--input", str(path))
    assert code == 2
    assert "expected" in err
    code, _, _ = run(capsys, "theorem1", "--input", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("text", [
    '{"n": [2], "re": [[1]]}',
    '{"n": 1e400, "re": [[1]]}',
    '{"n": 1.9, "re": [[1]]}',
    '{"n": true, "re": [[1]]}',
], ids=["list", "overflowing", "fractional", "bool"])
def test_theorem1_json_size_must_be_an_integer(tmp_path, capsys, text):
    # int() of these raised a TypeError or OverflowError, or read 1
    path = tmp_path / "m.json"
    path.write_text(text)
    code, out, err = run(capsys, "theorem1", "--input", str(path))
    assert code == 2
    assert out == ""
    assert '"n" must be a JSON integer >= 1' in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ('{"n": 2, "re": [["a", 0], [0, 1]]}', '"re" must be an 2 x 2 grid of numbers'),
    ('{"n": 2, "re": [[1, 0], [0]]}', '"re" must be an 2 x 2 grid of numbers'),
    ('{"n": 2, "re": [[true, 0], [0, 1]]}', '"re" must be an 2 x 2 grid of numbers'),
    ('{"n": 1, "re": [[1]], "im": [[null]]}', '"im" must be an 1 x 1 grid of numbers'),
    ('{"n": 1, "re": [2]}', '"re" must be an 1 x 1 grid of numbers'),
    ('{"n": 1, "re": [[1' + "0" * 400 + ']]}', "matrix entries must be finite"),
], ids=["string", "ragged", "bool", "null", "flat", "huge-integer"])
def test_theorem1_json_grid_must_hold_numbers(tmp_path, capsys, text, message):
    # numpy named no file for a string or a ragged row, read true as 1.0 and
    # raised an OverflowError for an integer beyond the float range
    path = tmp_path / "m.json"
    path.write_text(text)
    assert run(capsys, "theorem1", "--input", str(path)) == (
        2, "", f"pseudoboson: error: {path}: {message}\n")


def test_tolerance_failure_names_first_check(capsys):
    code, out, err = run(capsys, "commutators", "--trunc", "6",
                         "--tol", "1e-20", "--action-tol", "1e-20")
    assert code == 1
    assert err.startswith("first failing check: ")
    payload = json.loads(out)
    assert payload["all_passed"] is False


def test_bad_parameters_are_exit_two(capsys):
    assert run(capsys, "spectrum", "--gamma", "-1")[0] == 2
    assert run(capsys, "spectrum", "--no-such-flag")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2


@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--beta", "nan"], 2),
    (["spectrum", "--gamma", "1e300"], 2),
    (["emm", "--gamma", "1e200"], 2),
    (["stability", "--lam", "inf"], 2),
    (["sectors", "--beta", "nan", "--k-range", "0", "0", "--depth", "16"], 2),
    (["sectors", "--gamma", "1e200", "--k-range", "0", "0", "--depth", "16"], 2),
    (["biorth", "--gamma", "1e154", "--trunc", "20", "--m-max", "1",
      "--n-max", "1"], 2),
    (["sectors", "--gamma", "1e154", "--k-range", "0", "0", "--depth", "16"], 1),
    # rho - 1 rounds to 0 (or loses its digits) at small gamma; the closed
    # forms avoid that difference, and norms rescale once squares underflow
    (["emm", "--gamma", "1e-7"], 0),
    (["emm", "--gamma", "1e-9"], 0),
    (["emm", "--gamma", "1e-160"], 0),
    (["emm", "--gamma", "1e-300"], 0),
    (["verify-all", "--gamma", "1e-9", "--trunc", "20", "--depth", "32"], 0),
    (["verify-all", "--gamma", "1e-100", "--trunc", "20", "--depth", "32"], 2),
    # the [H, .] deviations are relative to the ladder normalization, which
    # grows like gamma^(-1/2)
    (["commutators", "--gamma", "1e-12", "--trunc", "8"], 0),
    (["commutators", "--gamma", "1e-20", "--trunc", "8"], 0),
    (["verify-all", "--gamma", "1e-12", "--trunc", "20", "--depth", "32"], 0),
    # (1 + rho) / gamma overflows
    (["emm", "--gamma", "1e-310"], 2),
    (["emm", "--gamma", "5e-324"], 2),
    (["commutators", "--gamma", "1e-310", "--trunc", "8"], 2),
    # the (3,4) members overflow; their Gram entries would be nan
    (["biorth", "--gamma", "1e-100", "--trunc", "20"], 2),
    # every float flag is checked, not only the model parameters: a nan
    # tolerance would fail every check, and a nan --real-tol would switch
    # off the real-spectrum precondition
    (["emm", "--tol", "nan"], 2),
    (["sectors", "--step-tol", "inf"], 2),
    (["commutators", "--action-tol", "nan"], 2),
    (["stability", "--drop", "nan"], 2),
    (["theorem1", "--input", "REAL_INPUT", "--real-tol", "nan"], 2),
    (["theorem1", "--input", "REAL_INPUT", "--sim-tol", "nan"], 2),
    (["theorem1", "--input", "REAL_INPUT", "--biorth-tol", "nan"], 2),
    # exact reflectors keep the zeros of the 4 x 4, so its two 2 x 2 blocks
    # give the eigenvalues directly
    (["emm", "--gamma", "1e50"], 0),
    (["emm", "--gamma", "9.4e153"], 0),
    # the symplectic pairing gamma (1 + rho) + gamma^3 / (1 + rho) overflows
    # although gamma^2 does not
    (["emm", "--gamma", "1e154"], 2),
    (["verify-all", "--gamma", "1e154"], 2),
])
def test_extreme_parameters_end_without_traceback(tmp_path, capsys, argv, code):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": [[1.0, 1.0], [0.0, 2.0]]}))
    argv = [str(path) if a == "REAL_INPUT" else a for a in argv]
    result, out, err = run(capsys, *argv)
    assert result == code
    assert "Traceback" not in err
    if code == 2:
        # a usage error prints no report and names the parameter at fault:
        # the flag of a non-finite value, or else the coupling
        assert out == ""
        bad = [argv[i - 1] for i, a in enumerate(argv) if a in ("nan", "inf")]
        assert (f"{bad[0]} must be finite" if bad else "gamma") in err
    if code == 1:
        assert re.match(r"first failing check: \w+ \(", err)


@pytest.mark.parametrize("command", ["commutators", "verify-all"])
def test_an_overflowing_hamiltonian_diagonal_is_a_usage_error(capsys, command):
    # (1 + beta) m overflows for m >= 2 in the number diagonal of H
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--beta", "1.7e308")
    assert (code, out) == (2, "")
    assert err == ("pseudoboson: error: beta = 1.7e+308 is too large: the "
                   "number diagonal (1 + beta) m + (1 - beta) n + 1 overflows\n")


def test_overflowing_sector_ends_in_a_named_check(capsys):
    # QL scales the gamma = 1e154 sections, whose squares overflow, and
    # converges on them; the depth-truncated values then fail the step check
    code, out, err = run(capsys, "sectors", "--gamma", "1e154", "--k-range",
                         "0", "0", "--depth", "16")
    assert (code, json.loads(out)["all_passed"]) == (1, False)
    assert err.startswith("first failing check: sector_k0_depth_step (value ")


def _scaled_cousin_lowest(depth: int, lam: float) -> float:
    # numpy.linalg on the Hermitian cousin scaled exactly by 2^-1020
    diag, off = (np.ldexp(a, -1020) for a in
                 hermitian_sector_tridiag(SectorSpec(0, depth), 0.5, lam))
    full = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return math.ldexp(float(np.linalg.eigvalsh(full)[0]), 1020)


def test_stability_near_the_overflow_threshold(capsys):
    # the largest off-diagonal entry at depth 60 is 5.9e307; unscaled QL
    # read -9.18e307 for a lowest value of -1.0673e308
    code, out, _ = run(capsys, "stability", "--lam", "1e306")
    assert code == 0
    for pair in json.loads(out)["pairs"]:
        oracle = _scaled_cousin_lowest(pair["depth"], 1e306)
        assert abs(pair["lowest"] - oracle) <= 1e-12 * abs(oracle)


@pytest.mark.parametrize("lam", ["3e306", "5e306"])
def test_stability_overflowing_lowest_value_is_exit_two(capsys, lam):
    # the entries are finite, but the lowest value lies below -1.8e308
    code, out, err = run(capsys, "stability", "--lam", lam)
    assert (code, out) == (2, "")
    assert err.startswith(f"pseudoboson: error: lam = {lam.replace('e', 'e+')} "
                          "is too large: the lowest eigenvalue")


def test_theorem1_eigenvector_miss_is_solver_failure(tmp_path, capsys, monkeypatch):
    # a pair that misses the residual contract is solver trouble, never a
    # similarity_error or a pass
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": [[1.0, 1.0], [0.0, 2.0]]}))
    # the Schur vectors of this matrix are exact, so only a negative
    # tolerance forces a miss
    monkeypatch.setattr(pseudoboson.linalg, "RESIDUAL_TOL", -1.0)
    code, out, err = run(capsys, "theorem1", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("first failing check: solver (Schur eigenvectors "
                          "missed the residual contract on a 2x2 matrix")


@pytest.mark.parametrize("argv", [
    ["biorth", "--m-max", "-1"],
    ["biorth", "--n-max", "-2"],
    ["spectrum", "--m-max", "-1"],
    # checked before the truncation, whose depth budget a negative size grows
    ["biorth", "--gamma", "3", "--trunc", "20", "--m-max", "-1"],
])
def test_negative_grid_sizes_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "must be nonnegative" in err


@pytest.mark.parametrize("argv, flags", [
    # the start depth 8 // 4 holds 2 levels, fewer than the default 3
    (["sectors", "--depth", "8"], ["--n-eigs", "--depth"]),
    (["sectors", "--n-eigs", "0"], ["--n-eigs", "--depth"]),
    (["verify-all", "--depth", "12"], ["--depth", "16"]),
    (["stability", "--depths", "0", "5"], ["--depths"]),
    (["commutators", "--trunc", "0"], ["--trunc"]),
], ids=["sectors-depth", "sectors-n-eigs", "verify-all-depth",
        "stability-depths", "commutators-trunc"])
def test_sector_layer_usage_errors_name_their_flag(capsys, argv, flags):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("pseudoboson: error: ")
    assert "Traceback" not in err
    for flag in flags:
        assert flag in err


def test_worst_takes_tolerance_and_mode_from_its_checks():
    # min and max drop a NaN that does not come first; the suite keeps the
    # first non-finite value, so it fails in either mode
    for values, mode, expected in (([3.0, 2.0], "ge", 2.0),
                                   ([0.0, 0.5], "le", 0.5),
                                   ([0.0, math.nan], "le", math.nan),
                                   ([3.0, math.nan], "ge", math.nan),
                                   ([3.0, math.inf, 2.0], "ge", math.inf),
                                   ([0.0, -math.inf, math.nan], "le", -math.inf)):
        worst = cli._worst("drop", [cli.Check(f"c{i}", v, 1.0, mode)
                                    for i, v in enumerate(values)])
        assert (worst.name, worst.tol, worst.mode) == ("drop", 1.0, mode)
        assert worst.value == expected or math.isnan(worst.value) and math.isnan(expected)
        assert worst.passed == math.isfinite(expected)
    for checks in ([cli.Check("a", 1.0, 1e-8), cli.Check("b", 1.0, 1e-9)],
                   [cli.Check("a", 1.0, 1.0), cli.Check("b", 1.0, 1.0, "ge")],
                   []):
        with pytest.raises(ValueError, match="suite x collapses checks"):
            cli._worst("x", checks)


def test_verify_all_fails_a_nan_that_is_not_the_suites_first_check(capsys, monkeypatch):
    report = cli.commutation_report

    def nan_ddag(p, trunc):
        deviations = report(p, trunc)
        assert list(deviations).index("[c_ddag,c_ddag]") > 0
        deviations["[c_ddag,c_ddag]"] = math.nan
        return deviations

    monkeypatch.setattr(cli, "commutation_report", nan_ddag)
    code, _, err = run(capsys, "verify-all", "--gamma", "0.2", "--trunc", "24",
                       "--depth", "32")
    assert code == 1
    assert err == "first failing check: wh_commutators (value nan is not finite)\n"


def test_commutators_build_the_operators_once(capsys, monkeypatch):
    calls = []

    def counted(name):
        original = getattr(pseudoboson.model, name)

        def build(*args):
            calls.append(name)
            return original(*args)
        return build

    for name in ("build_hamiltonian", "build_pseudoboson_ops"):
        monkeypatch.setattr(pseudoboson.model, name, counted(name))
    code, out, _ = run(capsys, "commutators")
    assert code == 0
    assert sorted(calls) == ["build_hamiltonian", "build_pseudoboson_ops"]
    assert list(json.loads(out)["deviations"])[-1] == "[H,d]"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "spectrum", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["schema"] == "1"
    # a missing directory, or a directory, is a usage error naming the flag
    for bad in (tmp_path / "missing" / "report.json", tmp_path):
        code, out, err = run(capsys, "spectrum", "--out", str(bad))
        assert (code, out) == (2, "")
        assert f"error: --out {bad}:" in err


def test_biorth_shallow_truncation_is_exit_two(capsys):
    code, _, err = run(capsys, "biorth", "--trunc", "12")
    assert code == 2
    assert "shallow" in err


def test_verify_all_reduced(capsys):
    code, out, _ = run(capsys, "verify-all", "--trunc", "34", "--depth", "48")
    assert code == 0
    payload = json.loads(out)
    names = [s["name"] for s in payload["suites"]]
    assert "emm_eigenvalue_multiset" in names
    assert "instability_witness" in names
    assert all(s["passed"] for s in payload["suites"])


@pytest.mark.parametrize("gamma", ["0.15", "0.2", "0.25"])
def test_verify_all_passes_on_the_symmetric_line(capsys, gamma):
    # at beta = 0 sectors k and -k coincide and every eigenvalue of the full H
    # is double; dense QR's 2x2 roots must not cancel there, or
    # full_vs_sector_union misses its 1e-8
    code, out, err = run(capsys, "verify-all", "--beta", "0", "--gamma", gamma)
    assert (code, err) == (0, "")
    union, = (s for s in json.loads(out)["suites"]
              if s["name"] == "full_vs_sector_union")
    assert union["tolerance"] == 1e-8 and union["passed"]


def _matrix_dims(monkeypatch) -> list:
    """The dimension of every `Operator` built from here on, in order."""
    dims = []
    check_shape = Operator.__post_init__

    def counted(self):
        dims.append(self.trunc.dim)
        check_shape(self)

    monkeypatch.setattr(Operator, "__post_init__", counted)
    return dims


def test_verify_all_builds_no_deep_truncation_matrix(capsys, monkeypatch):
    # the families, their residuals and their Gram act on grids, and the
    # operator identities on maps; the one matrix is the trunc-10 H that
    # full_vs_sector_union hands to dense QR
    dims = _matrix_dims(monkeypatch)
    code, _, _ = run(capsys, "verify-all", "--gamma", "0.2", "--trunc", "24",
                     "--depth", "32")
    assert code == 0
    assert dims == [121]


# the verify-all suites whose tolerance is a subcommand's default flag;
# theorem1's --real-tol gates a precondition and reaches no suite
_SUITE_TOLERANCE_FLAGS = {
    "emm_eigenvalue_multiset": ("emm", "--tol"),
    "wh_commutators": ("commutators", "--tol"),
    "diagonal_form": ("commutators", "--tol"),
    "hamiltonian_action": ("commutators", "--action-tol"),
    "biorthogonality": ("biorth", "--tol"),
    "sector_depth_step": ("sectors", "--step-tol"),
    "sector_closed_form": ("sectors", "--tol"),
    "stability_bounded": ("stability", "--tol"),
    "instability_witness": ("stability", "--drop"),
    "similarity_random_batch": ("theorem1", "--sim-tol"),
    "similarity_random_biorth": ("theorem1", "--biorth-tol"),
}


def test_verify_all_tolerances_are_the_subcommand_defaults(capsys):
    assert set(_SUITE_TOLERANCE_FLAGS.values()) == {
        (argv[0], flag) for argv, flag in TOLERANCE_FLAGS} - {("theorem1", "--real-tol")}
    subs = next(a for a in cli._parser()._actions if a.dest == "command").choices
    code, out, _ = run(capsys, "verify-all", "--gamma", "0.2", "--trunc", "24",
                       "--depth", "32")
    assert code == 0
    tolerances = {s["name"]: s["tolerance"] for s in json.loads(out)["suites"]}
    assert {name: tolerances[name] for name in _SUITE_TOLERANCE_FLAGS} == {
        name: subs[command].get_default(flag[2:].replace("-", "_"))
        for name, (command, flag) in _SUITE_TOLERANCE_FLAGS.items()}


def test_commutators_build_no_matrix(capsys, monkeypatch):
    dims = _matrix_dims(monkeypatch)
    code, _, _ = run(capsys, "commutators", "--trunc", "12")
    assert code == 0
    assert dims == []


def test_verify_all_accepts_depths_sectors_rejects(capsys):
    # sectors wants a multiple of 4; verify-all samples depth // 4 as given
    code, out, _ = run(capsys, "verify-all", "--gamma", "0.15", "--trunc", "20",
                       "--depth", "30")
    assert code == 0
    assert json.loads(out)["all_passed"] is True


# ---------------------------------------------------------------------------
# the report writer and the bytes it writes


def _report_reference(obj):
    """A payload as json.dumps sees it once each report rule is applied by
    hand: floats by _fmt (None where not finite), complex numbers as
    {"re", "im"}, arrays as lists."""
    if isinstance(obj, np.ndarray):
        return _report_reference(obj.tolist())
    if isinstance(obj, float):
        rounded = cli._fmt(obj)
        return rounded if math.isfinite(rounded) else None
    if isinstance(obj, complex):
        return {"re": _report_reference(obj.real), "im": _report_reference(obj.imag)}
    if isinstance(obj, dict):
        return {key: _report_reference(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_report_reference(value) for value in obj]
    return obj


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1.7976931348623157e308,
     1e-300, 123456789012345678.0, 0.1 + 0.2, 1 / 3])
_COMPLEX = st.builds(complex, _FINITE, _FINITE)
_KEYS = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t aZé€ 😀') | st.characters(),
                max_size=6)
_LEAVES = (st.none() | st.booleans()
           | st.integers(min_value=-2**70, max_value=2**70)
           | _FINITE | _FINITE.map(np.float64) | _COMPLEX | _COMPLEX.map(np.complex128)
           | _KEYS
           | hnp.arrays(st.sampled_from([np.float64, np.complex128]),
                        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
                        elements=_FINITE))
_TREES = st.recursive(
    _LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(_KEYS, children, max_size=4)),
    max_leaves=16)


@settings(max_examples=60)
@given(_TREES)
def test_report_writer_matches_json_dumps_of_the_rounded_tree(tree):
    assert cli._json(tree) == json.dumps(_report_reference(tree), indent=2)


def test_report_writer_writes_non_finite_numbers_as_null():
    nan, inf = float("nan"), float("inf")
    tree = {"x": [nan, inf, -inf, np.float64(nan), complex(nan, 1.0),
                  complex(2.0, -inf), np.array([[inf, 3.0]])]}
    # a finite float whose 15-digit rounding would overflow stays finite
    assert cli._json([1.7976931348623157e308, -1.7976931348623155e308]) == (
        "[\n  1.79769313486231e+308,\n  -1.79769313486231e+308\n]")
    assert json.loads(cli._json(tree)) == {"x": [
        None, None, None, None, {"re": None, "im": 1.0}, {"re": 2.0, "im": None},
        [[None, 3.0]]]}
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        cli._json(np.int64(1))


@pytest.mark.parametrize("argv, check", [
    (["emm", "--gamma", "0.77", "--beta", "1.7e308"], "emm_pairing_identity"),
    (["commutators", "--gamma", "2.2e-308", "--beta", "-0.69", "--trunc", "8"],
     "[c_ddag,c_ddag]"),
])
def test_non_finite_values_fail_by_name_in_strict_json(capsys, argv, check):
    # the overflowing pairing and deviations are NaN: the report writes
    # them as null, and the first of them fails as a non-finite value
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == f"first failing check: {check} (value nan is not finite)\n"
    failed = [c for c in _strict_json(out)["checks"] if not c["passed"]]
    assert (failed[0]["name"], failed[0]["value"]) == (check, None)


def test_non_finite_check_value_fails_in_either_mode():
    for mode in ("le", "ge"):
        for value in (math.nan, math.inf, -math.inf):
            assert not cli.Check("x", value, 1.0, mode).passed


# two fixed theorem1 inputs with exactly real spectra: a real tridiagonal
# with positive off-diagonal products and three small entries above it, and
# a complex tridiagonal whose off-diagonal products are real and positive
_REAL6 = (np.diag(np.arange(1.0, 7.0)) + np.diag([0.5] * 5, 1)
          + np.diag([0.25] * 5, -1))
_REAL6[0, 2], _REAL6[1, 4], _REAL6[0, 5] = 0.125, -0.25, 0.0625
_COMPLEX6 = (np.diag(np.arange(6) + 0.5) + np.diag([0.25 - 0.125j] * 5, -1)
             + np.diag([(0.5 + 0.25j) * (1 + i / 4) for i in range(5)], 1))

# sha256 of the JSON and of the CSV stdout of each line, under the kernel pin
# of conftest.py; a change that moves a reported value updates its digests
# and says so in CHANGES.md
REPORT_DIGESTS = {
    ("spectrum",):
        ("614245098333b32b6d2eb2127f4b41ef5776161964aa4fa2375b4b0d5cdd88ec",
         "8b947dab185a1edf44543e38b5668dca5b577d4a235aaa45026fd3ea9df41517"),
    ("sectors",):
        ("51a04335defee1dc8f77d9be43e5e154448055324ee448feb2f018947fc92186",
         "2387e3792ac4301977855ef739e21cbffd7bdfb12a58dc02970e74af2fc6ab9b"),
    ("biorth",):
        ("705e028f2fc2e676a75350bc1f5c5ca48c1b45d4f89f81119822cb456044d9f4",
         "02506ed3914d62672c156e94fc9daa8b6ad930f9967f7575583207f4d77b5488"),
    ("commutators",):
        ("d747437bc3fc336084392ffa41ac06ae2b140008b01ec864ef96daf36f37c47e",
         "f07b0081eeec0d97a720900f478238f71c6232aa723053f0d2c3dc70d064d7c0"),
    ("emm",):
        ("45e3bf95570d3148b8eecad063532cb2d2166d80fbcec1017f93d376d3ebac85",
         "7b3d61021af5e2a1f7fa5aa8b2c77e27171332f68aabad3afa8cdbe5147dc9ac"),
    # gamma = 0 takes the degenerate branch; beta = 1.25 = rho at the default
    # gamma = 0.75 takes the repeated-value branch
    ("emm", "--gamma", "0"):
        ("1bca72c3de7f2df70157127ea1bd93369428f8b610fe4b2ca05c3de9ea8cf882",
         "1f4b818429c2b3649ad0c12e5132eb3a4d9a4525b7c6892c57bc605dc2d43965"),
    ("emm", "--beta", "1.25"):
        ("87bba05ae89b8fb08a236bef0a51fedd366da268a2cccdbf1a3f912bd6f5f0af",
         "7b3d61021af5e2a1f7fa5aa8b2c77e27171332f68aabad3afa8cdbe5147dc9ac"),
    ("stability",):
        ("aa4fe2f7bd803e0f87fff7f8b78449ebd8d8c7764d32ea305dc61bd2d90a8d5a",
         "7312daaa7ea166f3c6df74fa05360d67790e1b4f1b2adb56abb2f563276c8e66"),
    ("theorem1", "--input", "REAL6"):
        ("fc0458404452244b729065bce49580e51d3cae5ab409faa8876498d9fd2f7099",
         "35f375cc73f13088638d39367ea6ddf354177b6d14b94f05aece8c44da8ce606"),
    ("theorem1", "--input", "COMPLEX6"):
        ("9ffd8022d7b06c9079538e02ef2df0b44713871eda06eaeabeb9a3e64d6e121d",
         "4b0f6265d6af3fe24c110a4856be8f804b6a3be50d35d2eaf92297b405346910"),
    ("verify-all",):
        ("b8f77edf17daf4fca7d4cf5aeeae7c77fbc8ff87e12e4aec5687b52c2a07dbad",
         "3cc7e8eb58f74be2ddae2f6fa546633dcb8b358bd9cf9e9a02f15b7c5340dea1"),
    ("verify-all", "--gamma", "0.2", "--trunc", "24", "--depth", "32"):
        ("73005d5c687f397fbca7d3be870666457ea7e35c73021c5d92cd1c5963c9b7c1",
         "b406b9213232e43bf5fad94f2e94f07be2aa34e98c387744f3d3ab1d513f2ecd"),
}


def _benchmark_oracle():
    """perfbench/oracle.py, imported by path: the checks the benchmark runs
    on every report before it times the op."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


@pytest.mark.parametrize("argv", [
    ("verify-all", "--gamma", "0.2", "--trunc", "24", "--depth", "32"),
    ("theorem1", "--input", "COMPLEX6"),
], ids=["verify-all-benchmark", "theorem1-COMPLEX6"])
def test_the_benchmark_oracle_accepts_the_reports(capsys, tmp_path, argv):
    # the benchmark's correctness checks, run on the kernels this test
    # process pins; the benchmark itself runs on the host's own kernels
    path = tmp_path / "COMPLEX6.json"
    path.write_text(json.dumps({"n": 6, "re": _COMPLEX6.real.tolist(),
                                "im": _COMPLEX6.imag.tolist()}))
    argv = [str(path) if a == "COMPLEX6" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    expect = {"command": argv[0], "input": str(path)}
    assert _benchmark_oracle().check(json.loads(out), expect) == []


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS),
                         ids=["-".join(a).replace("--", "") for a in REPORT_DIGESTS])
def test_reports_keep_their_bytes(capsys, tmp_path, argv):
    digests = REPORT_DIGESTS[argv]
    for name, m in (("REAL6", _REAL6), ("COMPLEX6", _COMPLEX6)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": 6, "re": m.real.tolist(),
                                    "im": m.imag.tolist()}))
        argv = [str(path) if a == name else a for a in argv]
    for fmt, digest in zip(("json", "csv"), digests):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
