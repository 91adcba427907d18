"""Independent checks of `pseudoboson` reports.

The library keeps `numpy.linalg` out of its own code so that it can be
cross-checked; these oracles use it freely and rebuild every matrix they
need from the model's formulas rather than from library calls. Each oracle
takes a parsed JSON report and the op's `expect` facts and returns a list of
problems, empty when the report holds.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: the suites `verify-all` must report, in order
VERIFY_ALL_SUITES = (
    "emm_eigenvalue_multiset", "emm_closed_form_residual", "emm_pairing_identity",
    "secular_residual", "wh_commutators", "hamiltonian_action", "diagonal_form",
    "eigen_residuals", "adjoint_residuals", "biorthogonality", "phase_similarity",
    "sector_transpose_similarity", "sector_depth_step", "sector_closed_form",
    "sector_energy_cross_check", "full_vs_sector_union", "su11_commutators",
    "tilted_su11_commutators", "casimir_reduction", "lowest_weight",
    "stability_bounded", "instability_witness", "similarity_hand_case",
    "similarity_hand_nonunitary", "similarity_random_batch",
    "similarity_random_biorth",
)


def _cnum(z) -> complex:
    return complex(z["re"], z["im"])


def _passes(check: dict) -> bool:
    if check["mode"] == "ge":
        return check["value"] >= check["tolerance"]
    return check["value"] <= check["tolerance"]


def tol_ratio(check: dict) -> float:
    """value / tolerance, inverted for `ge` witness checks: above 1 fails."""
    if check["mode"] == "ge":
        return check["tolerance"] / max(check["value"], 1e-300)
    return check["value"] / check["tolerance"]


def report_checks(report: dict) -> list:
    return report.get("suites", []) + report.get("checks", [])


def _rho(gamma: float) -> float:
    return math.sqrt(1.0 + gamma * gamma)


def _close(a, b, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _check_flags(report: dict) -> list:
    problems = [f"check {c['name']} says passed={c['passed']} but "
                f"{c['value']} vs {c['tolerance']} ({c['mode']}) says otherwise"
                for c in report_checks(report) if c["passed"] != _passes(c)]
    if report["all_passed"] != all(_passes(c) for c in report_checks(report)):
        problems.append("all_passed disagrees with the checks")
    return problems


def _echo(report: dict, expect: dict, keys) -> list:
    return [f"report {k} {report[k]} differs from the requested {expect[k]}"
            for k in keys if not _close(report[k], expect[k], 1e-14)]


def _verify_all(report: dict, expect: dict) -> list:
    names = tuple(s["name"] for s in report["suites"])
    if names != VERIFY_ALL_SUITES:
        return [f"suites {names} differ from the expected {len(VERIFY_ALL_SUITES)}"]
    return [f"suite {s['name']} fails" for s in report["suites"] if not _passes(s)]


def pseudo_jacobi(beta: float, gamma: float, k: int, depth: int) -> np.ndarray:
    """Sector k of H: diag beta k + |k| + 1 + 2j, off-diagonals
    -+gamma sqrt((j+1)(|k|+j+1)) above and below."""
    j = np.arange(depth, dtype=float)
    off = gamma * np.sqrt((j[:-1] + 1.0) * (abs(k) + j[:-1] + 1.0))
    return (np.diag(beta * k + abs(k) + 1.0 + 2.0 * j)
            - np.diag(off, 1) + np.diag(off, -1))


def _sectors(report: dict, expect: dict) -> list:
    beta, gamma, k = expect["beta"], expect["gamma"], expect["k"]
    problems = _echo(report, expect, ("beta", "gamma", "depth"))
    (sector,) = report["sectors"]
    values = np.array([_cnum(v) for v in sector["values"]])
    n = expect["n_eigs"]
    targets = beta * k + _rho(gamma) * (abs(k) + 1.0 + 2.0 * np.arange(n))
    reference = np.linalg.eigvals(pseudo_jacobi(beta, gamma, k, expect["depth"]))
    lowest = reference[np.argsort(reference.real, kind="stable")][:n]
    if sector["k"] != k or len(values) != n:
        return problems + [f"sector k={sector['k']} with {len(values)} values"]
    for j in range(n):
        if not _close(values[j], targets[j], 1e-6):
            problems.append(f"level {j}: {values[j]} vs closed form {targets[j]}")
        if not _close(values[j], lowest[j], 1e-8):
            problems.append(f"level {j}: {values[j]} vs numpy.linalg {lowest[j]}")
    return problems


def _emm(report: dict, expect: dict) -> list:
    problems = _echo(report, expect, ("beta", "gamma"))
    m = np.array(report["matrix"], dtype=float)
    scale = max(1.0, float(np.abs(m).max()))
    values = [_cnum(v) for v in report["closed_values"]]
    for i, (lam, vec) in enumerate(zip(values, report["eigenvectors"])):
        v = np.array([_cnum(x) for x in vec])
        res = np.linalg.norm(m @ v - lam * v) / np.linalg.norm(v)
        if res > 1e-12 * scale:
            problems.append(f"eigenpair {i}: residual {res:.3e}")
    reference = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag))
    for lam, ref in zip(sorted(values, key=lambda z: (z.real, z.imag)), reference):
        if abs(lam - ref) > 1e-7 * scale:
            problems.append(f"closed value {lam} vs numpy.linalg {ref}")
    return problems


def _theorem1(report: dict, expect: dict) -> list:
    with open(expect["input"]) as fh:
        raw = json.load(fh)
    m = np.array(raw["re"]) + 1j * np.array(raw["im"])
    s = np.array([[_cnum(z) for z in row] for row in report["transform"]])
    defect = np.linalg.norm(m.conj().T @ s - s @ m)
    scale = np.linalg.norm(m) * np.linalg.norm(s)
    problems = []
    if defect > 1e-9 * scale:
        problems.append(f"M^H S - S M has norm {defect:.3e} (scale {scale:.3e})")
    if np.abs(np.linalg.eigvals(m).imag).max() > 1e-8:
        problems.append("input spectrum is not real")
    return problems


def _spectrum(report: dict, expect: dict) -> list:
    problems = _echo(report, expect, ("beta", "gamma"))
    beta, rho = expect["beta"], _rho(expect["gamma"])
    for e in report["entries"]:
        target = rho + e["m"] * (beta + rho) + e["n"] * (rho - beta)
        if not _close(e["energy"], target, 1e-13):
            problems.append(f"E({e['m']},{e['n']}) = {e['energy']} vs {target}")
    return problems


def _stability(report: dict, expect: dict) -> list:
    problems = _echo(report, expect, ("beta", "lam"))
    k, beta, lam = expect["k"], expect["beta"], expect["lam"]
    for pair in report["pairs"]:
        j = np.arange(pair["depth"], dtype=float)
        off = lam * np.sqrt((j[:-1] + 1.0) * (abs(k) + j[:-1] + 1.0))
        cousin = np.diag(beta * k + abs(k) + 1.0 + 2.0 * j) \
            + np.diag(off, 1) + np.diag(off, -1)
        lowest = float(np.linalg.eigvalsh(cousin)[0])
        if not _close(pair["lowest"], lowest, 1e-9):
            problems.append(f"depth {pair['depth']}: {pair['lowest']} vs "
                            f"numpy.linalg {lowest}")
    return problems


_BY_COMMAND = {
    "verify-all": _verify_all,
    "sectors": _sectors,
    "emm": _emm,
    "theorem1": _theorem1,
    "spectrum": _spectrum,
    "stability": _stability,
}


def check(report: dict, expect: dict) -> list:
    """Problems with a report the program declared passing; [] if none."""
    if report.get("schema") != "1" or report.get("command") != expect["command"]:
        return [f"report is not a schema-1 {expect['command']} report"]
    problems = _check_flags(report)
    specific = _BY_COMMAND.get(expect["command"])
    if specific is not None:
        problems += specific(report, expect)
    return problems
