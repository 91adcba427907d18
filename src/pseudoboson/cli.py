"""Command-line front end: parameter sweeps, verification suites, and
machine-readable reports.

Library calls give every solver result and model quantity in a report. The
CLI forms only differences of them and the entrywise maxima that make one
check's value (sector abs errors, emm residuals and weighted pairings,
verify-all's hand case); only `_worst` forms a maximum over a suite's
values, the value of a `VERIFY_SUITES` suite. It assembles output and compares deviations
against tolerances. Reports are deterministic: fixed key order, floats
rounded to 15 significant digits by `_fmt`, no timestamps. JSON reports
carry a top-level {"schema": "1"}; CSV column sets are documented in the
README. Each subcommand returns its payload, CSV rows and checks, all holding
raw floats, complex numbers and arrays, and `_render` writes the report: the
JSON writer `_json` rounds floats, encodes complex numbers as {"re", "im"}
and writes non-finite numbers as null, so reports are strict JSON, and every
float CSV cell takes the same 15-digit rounding. verify-all reruns the
subcommands' own checks under their own parser's defaults.

Exit codes: 0 when every check in the selected suite passes; 1 on the first
failing check, named on stderr, including checks that yield no value (a
failed "precondition", a "solver" that does not converge); 2 for unusable
flags or inputs, non-finite or overflowing parameters among them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from .emm import (
    model_emm_eigenpairs,
    su11_secular,
    symplectic_pairing,
)
from .fock import TruncationSpec
from .linalg import eig_dense, multiset_distance, norm2, residual, solve_matrix
from .model import (
    ModelParams,
    biorthogonality_matrix,
    block_layout,
    commutation_report,
    eigen_residuals,
    energy,
    energy_grid,
    similarity_check,
)
from .sectors import (
    SectorSpec,
    casimir_reduction_check,
    converged_sector_spectrum,
    full_vs_sector_check,
    hermitian_variant_scan,
    lowest_weight_residuals,
    pseudo_su11_generators,
    su11_commutation_check,
    su11_generators,
    transpose_similarity_check,
)
from .similarity import verify_similarity

SCHEMA = "1"
_VERIFY_SEED = 20230817
# emm's closed-form, pairing and secular identities hold to rounding
EMM_IDENTITY_TOL = 1e-12


def _fmt(x) -> float:
    """Round to 15 significant digits so reports are byte-stable. A finite
    float within 4e-16 relative of the largest one would round past it to
    +-inf, so it takes the largest 15-digit float of its sign instead."""
    x = float(x)
    rounded = float(f"{x:.15g}")
    if math.isinf(rounded) and math.isfinite(x):
        return math.copysign(1.79769313486231e308, x)
    return rounded


class Check:
    """One named pass/fail comparison: value <= tol, or value >= tol for
    witness-style checks (mode 'ge')."""

    def __init__(self, name: str, value: float, tol: float, mode: str = "le"):
        self.name = name
        self.value = float(value)
        self.tol = float(tol)
        self.mode = mode

    @property
    def passed(self) -> bool:
        """A non-finite value fails in either mode."""
        if not math.isfinite(self.value):
            return False
        if self.mode == "ge":
            return self.value >= self.tol
        return self.value <= self.tol

    def as_json(self) -> dict:
        return {"name": self.name, "value": self.value, "tolerance": self.tol,
                "mode": self.mode, "passed": self.passed}


_escape = json.encoder.encode_basestring_ascii


def _json(obj, pad: str = "\n") -> str:
    """obj as json.dumps(obj, indent=2) writes it, under three report rules: a
    float (numpy float64 included) is rounded by `_fmt`, and written as null
    when it is not finite; a complex number is written as
    {"re", "im"}; an ndarray is written as its tolist(). pad is the line break
    and indent of obj's own level."""
    if isinstance(obj, float):
        obj = _fmt(obj)
        return repr(obj) if math.isfinite(obj) else "null"
    inner = pad + "  "
    if isinstance(obj, complex):
        return (f'{{{inner}"re": {_json(obj.real)},'
                f'{inner}"im": {_json(obj.imag)}{pad}}}')
    if isinstance(obj, dict):
        items = [f"{_escape(key)}: {_json(value, inner)}"
                 for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_json(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, np.ndarray):
        return _json(obj.tolist(), pad)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _render(args, payload: dict, csv_header, csv_rows, checks: list) -> int:
    """Write the report; return the exit code, naming a failed check on stderr."""
    payload["checks"] = [c.as_json() for c in checks]
    payload["all_passed"] = all(c.passed for c in checks)
    if args.format == "json":
        text = _json(payload) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows([f"{_fmt(x):.15g}" if isinstance(x, float) else x
                          for x in row] for row in csv_rows)
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"--out {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
    for c in checks:
        if not c.passed:
            rel = ">" if c.mode == "le" else "<"
            why = (f"{rel} tolerance {c.tol:.6g}" if math.isfinite(c.value)
                   else "is not finite")
            sys.stderr.write(
                f"first failing check: {c.name} (value {c.value:.6g} {why})\n")
            return 1
    return 0


def _worst(values: list, mode: str) -> float:
    """The worst of a suite's values: the largest, or for mode 'ge' the
    smallest. The first non-finite value is the worst in either mode: min and
    max would drop a NaN that does not come first."""
    return next((v for v in values if not math.isfinite(v)),
                (min if mode == "ge" else max)(values))


def _params(args) -> ModelParams:
    return ModelParams(beta=args.beta, gamma=args.gamma)


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, csv header, csv rows, checks)


def run_spectrum(args):
    p = _params(args)
    grid = energy_grid(p, args.m_max, args.n_max)
    blocks = block_layout(p, args.m_max, args.n_max)
    payload = {
        "beta": p.beta,
        "gamma": p.gamma,
        "rho": p.rho,
        "m_max": args.m_max,
        "n_max": args.n_max,
        "entries": [{"m": m, "n": n, "energy": e} for m, n, e in grid],
        "blocks": blocks,
    }
    return payload, ["m", "n", "energy"], grid, []


def run_sectors(args):
    if args.depth % 4 or args.depth < 8:
        raise UsageError("--depth must be a multiple of 4 and at least 8 "
                         "(the convergence protocol samples depth/4 and depth/2)")
    if args.k_range[0] > args.k_range[1]:
        raise UsageError("--k-range expects MIN <= MAX")
    if not 1 <= args.n_eigs <= args.depth // 4:
        raise UsageError(f"--n-eigs must be between 1 and --depth // 4 = "
                         f"{args.depth // 4}, the levels of the start depth")
    return _sector_report(args)


def _sector_report(args):
    """The sectors report without the flag checks of `run_sectors`."""
    p = _params(args)
    checks = []
    sectors_payload = []
    csv_rows = []
    for k in range(args.k_range[0], args.k_range[1] + 1):
        conv = converged_sector_spectrum(
            k, p, n_eigs=args.n_eigs, start_depth=args.depth // 4, tol=args.step_tol)
        errors = np.abs(conv.values - conv.targets)
        sectors_payload.append({
            "k": k,
            "depths": conv.depths,
            "history": conv.history,
            "values": conv.values,
            "targets": conv.targets,
            "abs_errors": errors,
            "max_step": conv.max_step,
            "converged": conv.converged,
        })
        checks.append(Check(f"sector_k{k}_depth_step", conv.max_step, args.step_tol))
        checks.append(Check(f"sector_k{k}_closed_form", float(errors.max()), args.tol))
        for level in range(args.n_eigs):
            v = complex(conv.values[level])
            csv_rows.append([k, level, conv.depths[-1], v.real, v.imag,
                             conv.targets[level], errors[level]])
    payload = {
        "beta": p.beta,
        "gamma": p.gamma,
        "depth": args.depth,
        "n_eigs": args.n_eigs,
        "sectors": sectors_payload,
    }
    header = ["k", "level", "depth", "value_re", "value_im", "target", "abs_error"]
    return payload, header, csv_rows, checks


def run_biorth(args):
    p = _params(args)
    trunc = TruncationSpec(args.trunc, args.trunc)
    report = biorthogonality_matrix(p, args.m_max, args.n_max, trunc)
    checks = [
        Check("biorth_max_offdiag", report.max_offdiag, args.tol),
        Check("biorth_max_diag_error", report.max_diag_error, args.tol),
    ]
    payload = {
        "beta": p.beta,
        "gamma": p.gamma,
        "trunc": args.trunc,
        "m_max": args.m_max,
        "n_max": args.n_max,
        "scale": report.scale,
        "max_offdiag": report.max_offdiag,
        "max_diag_error": report.max_diag_error,
        "labels": report.labels,
        "gram": report.gram,
    }
    csv_rows = []
    for row, (m, n) in enumerate(report.labels):
        for col, (q_m, q_n) in enumerate(report.labels):
            z = complex(report.gram[row, col])
            csv_rows.append([m, n, q_m, q_n, z.real, z.imag])
    header = ["m", "n", "p", "q", "re", "im"]
    return payload, header, csv_rows, checks


def run_commutators(args):
    if args.trunc < 1:
        raise UsageError("--trunc must be at least 1")
    p = _params(args)
    trunc = TruncationSpec(args.trunc, args.trunc)
    report = commutation_report(p, trunc)
    checks = [Check(name, dev, args.action_tol if name.startswith("[H,") else args.tol)
              for name, dev in report.items()]
    deviations = dict(report)
    diagonal = deviations.pop("diagonal_form")
    payload = {
        "beta": p.beta,
        "gamma": p.gamma,
        "trunc": args.trunc,
        "deviations": deviations,
        "diagonal_form": diagonal,
    }
    csv_rows = [[name, dev] for name, dev in report.items()]
    return payload, ["check", "deviation"], csv_rows, checks


def run_emm(args):
    p = _params(args)
    # the -beta + rho and beta - rho vectors pair to
    # gamma (1 + rho) + gamma^3 / (1 + rho), about 2 gamma^2, which overflows
    # before gamma^2 does
    if not math.isfinite(p.gamma * (1.0 + p.rho) + p.gamma * p.rho_minus_one):
        raise UsageError(f"gamma = {p.gamma:g} is too large: the symplectic pairing "
                         "gamma (1 + rho) + gamma^3 / (1 + rho) overflows")
    solution = model_emm_eigenpairs(p)
    matrix = solution.matrix
    closed = np.array([val for val, _ in solution.pairs])
    numeric = eig_dense(matrix).values
    dist = multiset_distance(numeric, closed)
    # np.max, not max: a NaN residual or product fails its check rather
    # than losing to the values beside it
    pair_res = float(np.max([residual(matrix, val, vec)
                             for val, vec in solution.pairs]))
    pairing_products = []
    weighted = []
    for i, (val_i, vec_i) in enumerate(solution.pairs):
        for j, (val_j, vec_j) in enumerate(solution.pairs):
            pairing = symplectic_pairing(vec_i, vec_j)
            # halved values, exactly: val_i + val_j overflows at |beta| near
            # the float maximum, and inf times an exact zero pairing is nan
            product = 2.0 * ((0.5 * val_i + 0.5 * val_j) * pairing)
            weighted.append(abs(product))
            pairing_products.append({"i": i, "j": j,
                                     "pairing": pairing, "weighted": product})
    pairing_dev = float(np.max(weighted))
    secular = su11_secular(p)
    secular_res = float(np.max([residual(secular.matrix, val, vec)
                                for val, vec in secular.pairs]))
    checks = [
        Check("emm_eigenvalue_multiset", dist, args.tol),
        Check("emm_closed_form_residual", pair_res, EMM_IDENTITY_TOL),
        Check("emm_pairing_identity", pairing_dev, EMM_IDENTITY_TOL),
        Check("secular_residual", secular_res, EMM_IDENTITY_TOL),
    ]
    payload = {
        "beta": p.beta,
        "gamma": p.gamma,
        "matrix": matrix,
        "closed_values": closed,
        "numeric_values": numeric,
        "eigenvectors": [vec for _, vec in solution.pairs],
        "degenerate": solution.degenerate,
        "repeated_values": solution.repeated_values,
        "pairing": pairing_products,
        "secular_matrix": secular.matrix,
        "secular_values": [val for val, _ in secular.pairs],
        "secular_vectors": [vec for _, vec in secular.pairs],
        "secular_degenerate": secular.degenerate,
    }
    csv_rows = [[c.name, c.value] for c in checks]
    return payload, ["check", "deviation"], csv_rows, checks


def run_stability(args):
    if len(args.depths) < 2:
        raise UsageError("--depths needs at least two values")
    if min(args.depths) < 1:
        raise UsageError("--depths must all be at least 1")
    scan = hermitian_variant_scan(args.k, args.beta, args.lam, args.depths)
    checks = []
    if scan.predicted is not None:
        err = abs(scan.lowest[-1] - scan.predicted)
        checks.append(Check("stability_converged", err, args.tol))
    else:
        checks.append(Check("instability_witness", scan.final_drop,
                            args.drop, mode="ge"))
    payload = {
        "k": args.k,
        "beta": args.beta,
        "lam": args.lam,
        "pairs": [{"depth": d, "lowest": v}
                  for d, v in zip(scan.depths, scan.lowest)],
        "predicted": scan.predicted,
        "final_drop": scan.final_drop,
        "bounded": scan.bounded,
    }
    csv_rows = [[d, v] for d, v in zip(scan.depths, scan.lowest)]
    return payload, ["depth", "lowest"], csv_rows, checks


def run_theorem1(args):
    matrix = _read_matrix(args.input)
    if not np.all(np.isfinite(matrix)):
        raise UsageError(f"{args.input}: matrix entries must be finite")
    # QR and the residual contract scale by the Frobenius norm
    if not math.isfinite(norm2(matrix)):
        raise UsageError(f"{args.input}: matrix Frobenius norm overflows")
    return _similarity_report(args, matrix)


def _similarity_report(args, matrix: np.ndarray):
    """The theorem1 report for one matrix; a violated precondition is a
    failing check of its own, and a solver failure (RuntimeError) reaches
    `main` as the `solver` check."""
    try:
        report = verify_similarity(matrix, real_tol=args.real_tol)
    except ValueError as exc:
        raise CheckFailure("precondition", exc) from exc
    checks = [
        Check("similarity_error", report.similarity_error, args.sim_tol),
        Check("biorth_error", report.biorth_error, args.biorth_tol),
        Check("spectrum_match", report.spectrum_match, 1e-8),
    ]
    # the scalar fields, in the order both formats list them
    fields = {name: getattr(report, name)
              for name in ("max_imag", "spectrum_match", "biorth_error",
                           "similarity_error", "unitarity_defect")}
    payload = {
        "n": matrix.shape[0],
        "spectrum_real": report.spectrum_real,
        **fields,
        "transform": report.transform,
    }
    csv_rows = [[name, value] for name, value in fields.items()]
    return payload, ["field", "value"], csv_rows, checks


def _random_similarity_batch(count: int, size: int):
    """Well-conditioned real-spectrum test matrices: V D V^-1 with
    V = I + 0.25 R (spectral radius of 0.25 R below one by construction) and
    distinct diagonal values with gaps of order one."""
    rng = np.random.default_rng(_VERIFY_SEED)
    out = []
    for _ in range(count):
        r = rng.uniform(-1.0, 1.0, size=(size, size)) / np.sqrt(size)
        v = np.eye(size) + 0.25 * r
        d = np.arange(size) + 0.2 * rng.uniform(0.0, 1.0, size=size)
        m = solve_matrix(v.T, (v @ np.diag(d)).T).T
        out.append(m)
    return out


# every verify-all suite in report order: name, tolerance source and mode; a
# (subcommand, flag) source takes that flag's default, a number is the tolerance
VERIFY_SUITES = (
    ("emm_eigenvalue_multiset", ("emm", "--tol"), "le"),
    ("emm_closed_form_residual", EMM_IDENTITY_TOL, "le"),
    ("emm_pairing_identity", EMM_IDENTITY_TOL, "le"),
    ("secular_residual", EMM_IDENTITY_TOL, "le"),
    ("wh_commutators", ("commutators", "--tol"), "le"),
    ("hamiltonian_action", ("commutators", "--action-tol"), "le"),
    ("diagonal_form", ("commutators", "--tol"), "le"),
    ("eigen_residuals", 1e-8, "le"),
    ("adjoint_residuals", 1e-8, "le"),
    ("biorthogonality", ("biorth", "--tol"), "le"),
    ("phase_similarity", 1e-13, "le"),
    ("sector_transpose_similarity", 1e-13, "le"),
    ("sector_depth_step", ("sectors", "--step-tol"), "le"),
    ("sector_closed_form", ("sectors", "--tol"), "le"),
    ("sector_energy_cross_check", 1e-6, "le"),
    ("full_vs_sector_union", 1e-8, "le"),
    ("su11_commutators", 1e-10, "le"),
    ("tilted_su11_commutators", 1e-10, "le"),
    ("casimir_reduction", 1e-9, "le"),
    ("lowest_weight", 1e-8, "le"),
    ("stability_bounded", ("stability", "--tol"), "le"),
    ("instability_witness", ("stability", "--drop"), "ge"),
    ("similarity_hand_case", 1e-10, "le"),
    ("similarity_hand_nonunitary", 1.0, "ge"),
    ("similarity_random_batch", ("theorem1", "--sim-tol"), "le"),
    ("similarity_random_biorth", ("theorem1", "--biorth-tol"), "le"),
)


def _tolerance(source) -> float:
    """The tolerance of a `VERIFY_SUITES` source."""
    if isinstance(source, float):
        return source
    subs = next(a for a in _parser()._actions if a.dest == "command").choices
    return subs[source[0]].get_default(source[1][2:].replace("-", "_"))


def run_verify_all(args):
    """The `VERIFY_SUITES` as one fold: each run files its values under suites
    by one rule from check name to suite (the identity unless given; None
    drops a check; a check judged unlike its suite raises ValueError), and a
    suite is the `_worst` of its values. Subcommand runs take their parser's
    defaults save verify-all's --beta and --gamma and what it pins: sectors
    k -3..3 with --n-eigs 4 at its --depth, biorth at its --trunc, and the
    unbounded stability run at --lam 1.2 --depths 40 80."""
    if args.depth < 16:
        raise UsageError("--depth must be at least 16: the sector suites keep "
                         "4 levels at depth // 4")
    p = _params(args)
    parse = _parser().parse_args
    beta = f"--beta={args.beta!r}"
    point = [beta, f"--gamma={args.gamma!r}"]
    specs = [SectorSpec(k, 30) for k in range(-2, 3)]
    judged = {name: (_tolerance(source), mode) for name, source, mode in VERIFY_SUITES}
    grouped = {name: [] for name in judged}

    def file(checks, rule=lambda name: name):
        for check in checks:
            if (suite := rule(check.name)) is not None:
                if (check.tol, check.mode) != judged[suite]:
                    raise ValueError(f"check {check.name} disagrees with suite {suite}")
                grouped[suite].append(check.value)

    # equation-of-motion layer
    file(run_emm(parse(["emm", *point]))[3])

    # pseudo-boson algebra at small truncation (deviations are interior-exact)
    file(run_commutators(parse(["commutators", *point]))[3],
         lambda name: "hamiltonian_action" if name.startswith("[H,")
         else name if name == "diagonal_form" else "wh_commutators")

    # eigenvector families at deep truncation
    rows = eigen_residuals(p, TruncationSpec(args.trunc, args.trunc), 3, 3)
    grouped["eigen_residuals"] += [row["residual"] for row in rows]
    grouped["adjoint_residuals"] += [row["adjoint_residual"] for row in rows]
    file(run_biorth(parse(["biorth", *point, f"--trunc={args.trunc}"]))[3],
         lambda name: "biorthogonality")

    # similarity layer
    grouped["phase_similarity"].append(similarity_check(p, TruncationSpec(6, 6)))
    grouped["sector_transpose_similarity"] += [transpose_similarity_check(spec, p)
                                               for spec in specs]

    # sector spectra and the full-space cross-check
    sectors, _, _, sector_checks = _sector_report(parse(
        ["sectors", *point, "--k-range", "-3", "3", f"--depth={args.depth}",
         "--n-eigs", "4"]))
    file(sector_checks, lambda name: "sector_depth_step"
         if name.endswith("_depth_step") else "sector_closed_form")
    values = {sector["k"]: sector["values"] for sector in sectors["sectors"]}
    grouped["sector_energy_cross_check"] += [
        abs(energy(p, m, n) - values[m - n][min(m, n)]) for m in range(4) for n in range(4)]
    grouped["full_vs_sector_union"].append(full_vs_sector_check(p, TruncationSpec(10, 10)))

    # su(1,1) structure; at gamma = 0 the tilted triple is the self-adjoint one
    grouped["su11_commutators"] += [su11_commutation_check(su11_generators(spec, variant))
                                    for spec in specs for variant in ("lowest", "highest")]
    grouped["tilted_su11_commutators"] += [
        su11_commutation_check(pseudo_su11_generators(spec, p)) for spec in specs]
    for spec in specs:
        grouped["casimir_reduction"] += casimir_reduction_check(spec, p)
        grouped["lowest_weight"] += lowest_weight_residuals(spec, p)

    # stability contrast
    file(run_stability(parse(["stability", beta]))[3], lambda name: "stability_bounded")
    file(run_stability(parse(["stability", beta, "--lam", "1.2", "--depths", "40",
                              "80"]))[3], lambda name: "instability_witness")

    # similarity construction on general matrices
    hand = verify_similarity(np.array([[1.0, 1.0], [0.0, 2.0]]))
    target = np.array([[1.0, -1.0], [-1.0, 2.0]])
    grouped["similarity_hand_case"].append(float(np.abs(hand.transform - target).max()))
    grouped["similarity_hand_nonunitary"].append(hand.unitarity_defect)
    # the batch is built in memory: theorem1's required --input is never
    # read, and each matrix's spectrum_match reaches no suite
    flags = parse(["theorem1", "--input", "-"])
    file((c for m in _random_similarity_batch(5, 5)
          for c in _similarity_report(flags, m)[3]),
         {"similarity_error": "similarity_random_batch",
          "biorth_error": "similarity_random_biorth"}.get)

    suites = [Check(name, _worst(grouped[name], mode), tol, mode)
              for name, (tol, mode) in judged.items()]
    payload = {
        "beta": p.beta,
        "gamma": p.gamma,
        "trunc": args.trunc,
        "depth": args.depth,
        "suites": [c.as_json() for c in suites],
    }
    csv_rows = [[c.name, c.value, c.tol, "pass" if c.passed else "FAIL"]
                for c in suites]
    header = ["suite", "max_deviation", "tolerance", "status"]
    return payload, header, csv_rows, suites


# ---------------------------------------------------------------------------
# input parsing and the argument surface


class UsageError(Exception):
    """Flag combinations that argparse cannot catch on its own."""


class CheckFailure(Exception):
    """A check that fails before it yields a value, e.g. a violated precondition."""

    def __init__(self, check: str, reason):
        super().__init__(str(reason))
        self.check = check


def _read_matrix(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return _parse_csv_matrix(path, text)
    if not isinstance(obj, dict) or "n" not in obj or "re" not in obj:
        raise UsageError(f'{path}: JSON matrix needs "n" and "re" fields')
    n = obj["n"]
    # bool is an int subclass; a float n would be truncated or overflow
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise UsageError(f'{path}: "n" must be a JSON integer >= 1, got {json.dumps(n)}')
    # the parts are assigned, not summed as re + 1j * im, so an infinite
    # entry reaches the finiteness check instead of turning into 0 * inf
    matrix = np.zeros((n, n), dtype=complex)
    matrix.real = _json_grid(path, obj, "re", n)
    if "im" in obj and obj["im"] is not None:
        matrix.imag = _json_grid(path, obj, "im", n)
    return matrix


def _json_grid(path: str, obj: dict, key: str, n: int) -> np.ndarray:
    """obj[key] as an n x n float array: a list of n rows of n JSON numbers.
    numpy would read a bool as 1.0 and fail on a string or a ragged row with
    a message that names neither the file nor the field."""
    rows = obj[key]
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(row, list) and len(row) == n for row in rows)
            and {type(x) for row in rows for x in row} <= {int, float}):
        raise UsageError(f'{path}: "{key}" must be an {n} x {n} grid of numbers')
    try:
        return np.array(rows, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise UsageError(f"{path}: matrix entries must be finite") from exc


def _parse_csv_matrix(path: str, text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n = len(lines)
    if n == 0:
        raise UsageError(f"{path}: empty matrix input")
    out = np.zeros((n, n), dtype=complex)
    for i, line in enumerate(lines):
        try:
            tokens = [float(tok) for tok in line.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise UsageError(f"{path}: line {i + 1}: {exc}") from exc
        if len(tokens) != 2 * n:
            raise UsageError(
                f"{path}: line {i + 1} has {len(tokens)} numbers, expected "
                f"{2 * n} (re,im pairs for an {n} x {n} matrix)")
        out[i].real, out[i].imag = tokens[0::2], tokens[1::2]
    return out


def _add_common(sub, beta=True, gamma=True):
    if beta:
        sub.add_argument("--beta", type=float, default=0.5,
                         help="level-splitting parameter (default 0.5)")
    if gamma:
        sub.add_argument("--gamma", type=float, default=0.75,
                         help="coupling, must be nonnegative (default 0.75)")
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="report format (default json)")
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="write the report to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoboson",
        description="Construct, diagonalize, and verify the non-self-adjoint "
                    "two-boson model in truncated Fock spaces.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="closed-form eigenvalue grid and its "
                                          "block-diagonal layout")
    _add_common(sp)
    sp.add_argument("--m-max", type=int, default=3)
    sp.add_argument("--n-max", type=int, default=3)
    sp.set_defaults(runner=run_spectrum)

    sp = subs.add_parser("sectors", help="sector eigenvalues with depth-doubling "
                                         "convergence against the closed form")
    _add_common(sp)
    sp.add_argument("--k-range", type=int, nargs=2, default=[-2, 2],
                    metavar=("MIN", "MAX"))
    sp.add_argument("--depth", type=int, default=60,
                    help="final sector depth; depth/4 and depth/2 are sampled "
                         "on the way (default 60)")
    sp.add_argument("--n-eigs", type=int, default=3)
    sp.add_argument("--tol", type=float, default=1e-6,
                    help="closed-form agreement tolerance (default 1e-6)")
    sp.add_argument("--step-tol", type=float, default=1e-8,
                    help="depth-doubling agreement tolerance (default 1e-8)")
    sp.set_defaults(runner=run_sectors)

    sp = subs.add_parser("biorth", help="mutual Gram matrix of the two "
                                        "eigenvector families")
    _add_common(sp)
    sp.add_argument("--trunc", type=int, default=40,
                    help="occupation cutoff for both modes (default 40)")
    sp.add_argument("--m-max", type=int, default=4)
    sp.add_argument("--n-max", type=int, default=4)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.set_defaults(runner=run_biorth)

    sp = subs.add_parser("commutators", help="pseudo-boson commutation relations "
                                             "and the diagonal form of H")
    _add_common(sp)
    sp.add_argument("--trunc", type=int, default=8,
                    help="occupation cutoff (default 8; interior deviations "
                         "do not improve with depth)")
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="commutator deviation tolerance (default 1e-10)")
    sp.add_argument("--action-tol", type=float, default=1e-9,
                    help="[H, ladder] deviation tolerance (default 1e-9)")
    sp.set_defaults(runner=run_commutators)

    sp = subs.add_parser("emm", help="equation-of-motion matrix, closed-form "
                                     "eigenpairs, pairing, secular problem")
    _add_common(sp)
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="eigenvalue multiset tolerance (default 1e-10)")
    sp.set_defaults(runner=run_emm)

    sp = subs.add_parser("stability", help="lowest eigenvalue of the Hermitian "
                                           "cousin across depths")
    _add_common(sp, gamma=False)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--lam", type=float, default=0.6,
                    help="coupling of the Hermitian cousin (default 0.6)")
    sp.add_argument("--depths", type=int, nargs="+", default=[30, 60])
    sp.add_argument("--tol", type=float, default=1e-6,
                    help="convergence tolerance for |lam| < 1 (default 1e-6)")
    sp.add_argument("--drop", type=float, default=1.0,
                    help="required lowest-eigenvalue drop for the |lam| >= 1 "
                         "instability witness (default 1.0)")
    sp.set_defaults(runner=run_stability)

    sp = subs.add_parser("theorem1", help="similarity-to-adjoint construction "
                                          "for a matrix from a file")
    _add_common(sp, beta=False, gamma=False)
    sp.add_argument("--input", required=True, metavar="FILE",
                    help='JSON {"n", "re", "im"} or CSV of re,im pairs')
    sp.add_argument("--real-tol", type=float, default=1e-8,
                    help="largest |imag| of an eigenvalue, relative to the "
                         "matrix's Frobenius norm, that counts as real "
                         "(default 1e-8)")
    sp.add_argument("--sim-tol", type=float, default=1e-8)
    sp.add_argument("--biorth-tol", type=float, default=1e-10)
    sp.set_defaults(runner=run_theorem1)

    sp = subs.add_parser("verify-all", help="every invariant suite with its "
                                            "max deviation")
    _add_common(sp)
    sp.add_argument("--trunc", type=int, default=40)
    sp.add_argument("--depth", type=int, default=60)
    sp.set_defaults(runner=run_verify_all)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call and kept for the process;
    no runner changes a parsed list in place, so list defaults stay intact."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        for dest, value in vars(args).items():
            if not isinstance(value, float):
                continue
            flag = f"--{dest.replace('_', '-')}"
            if not math.isfinite(value):
                raise UsageError(f"{flag} must be finite")
            # a negative tolerance fails every check, and a drop of 0 is
            # witnessed by a scan that does not drop at all
            if dest.endswith("tol") and value < 0.0:
                raise UsageError(f"{flag} must be nonnegative")
            if dest == "drop" and value <= 0.0:
                raise UsageError(f"{flag} must be positive")
        payload, csv_header, csv_rows, checks = args.runner(args)
        report = {"schema": SCHEMA, "command": args.command, **payload}
        return _render(args, report, csv_header, csv_rows, checks)
    except (UsageError, ValueError) as exc:
        # Parameter combinations the library rejects (negative coupling,
        # truncation too shallow, a coupling whose square overflows, ...) are
        # usage errors, not check failures.
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 2
    except (CheckFailure, RuntimeError) as exc:
        # A check that yields no value: a violated precondition, or a solver
        # that did not converge (RuntimeError).
        name = exc.check if isinstance(exc, CheckFailure) else "solver"
        sys.stderr.write(f"first failing check: {name} ({exc})\n")
        return 1
    except SystemExit as exc:
        # argparse already wrote its message; fold its exit into the return
        # value so callers of main() never see the exception.
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
