"""Tests of the benchmark itself: tracing leaves the program alone, the
oracles have teeth, and a smoke-sized run prints the promised metrics.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import pseudoboson.cli as cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings() -> dict:
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "pseudoboson" or name.startswith("pseudoboson.")
            for attr, value in vars(mod).items()}


def _report(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return out.getvalue()


def test_tracer_patches_every_binding_and_restores_it():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = set(tracer.patched_names())
        # names cli imported directly are patched in cli's namespace too
        for attr in ("main", "eig_dense", "solve_matrix", "biorthogonality_matrix",
                     "converged_sector_spectrum", "verify_similarity"):
            assert ("pseudoboson.cli", attr) in patched
        assert ("pseudoboson.sectors", "eig_dense") in patched
        assert ("pseudoboson", "build_pseudoboson_ops") in patched
        # classes stay the same objects
        assert ("pseudoboson.cli", "ModelParams") not in patched
        for key in patched:
            assert _bindings()[key] is not before[key]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_reports_are_byte_identical(name, tmp_path):
    ops = workloads.build(name, 7, "smoke", str(tmp_path))
    plain = [_report(op["argv"]) for op in ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [_report(op["argv"]) for op in ops]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.errors == []
    metrics = tracing.per_layer(tracer.spans, 1)
    assert metrics["cli.self_s"] > 0
    assert set(metrics) | {"trace_overhead_ratio"} == set(tracing.PER_LAYER_UNITS)


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", 0.0, 10.0, -1, True, None],
             ["model.eigenstate", 1.0, 5.0, 0, True, None],
             ["fock.apply", 2.0, 3.0, 1, True, None],
             ["fock.apply", 6.0, 6.5, 0, True, None]]
    m = tracing.per_layer(spans, 1)
    assert m["cli.self_s"] == pytest.approx(5.5)
    assert m["model.self_s"] == pytest.approx(3.0)
    assert m["model.eigenstate.total_s"] == pytest.approx(4.0)
    assert m["fock.apply.calls"] == 2
    assert m["fock.apply.self_s"] == pytest.approx(1.5)


def test_workload_inputs_follow_the_seed(tmp_path):
    def build(seed, sub):
        (tmp_path / sub).mkdir()
        return workloads.build("plane_sweep", seed, "full", str(tmp_path / sub))

    a, b, c = build(3, "a"), build(3, "b"), build(4, "c")
    assert [op["key"] for op in a] == [op["key"] for op in b]
    assert [op["key"] for op in a] != [op["key"] for op in c]
    assert len(a) == 210
    gammas = [op["expect"]["gamma"] for op in a if op["expect"]["command"] == "emm"]
    assert gammas.count(0.0) == 4


@pytest.mark.parametrize("argv, expect, tamper", [
    (["sectors", "--k-range", "1", "1", "--depth", "60"],
     {"command": "sectors", "beta": 0.5, "gamma": 0.75, "k": 1, "depth": 60,
      "n_eigs": 3},
     lambda r: r["sectors"][0]["values"][1].update(re=r["sectors"][0]["values"][1]["re"] + 1e-5)),
    (["emm", "--beta", "0.3", "--gamma", "0.4"],
     {"command": "emm", "beta": 0.3, "gamma": 0.4},
     lambda r: r["eigenvectors"].reverse()),
    (["stability", "--beta", "0.3", "--lam", "0.6"],
     {"command": "stability", "beta": 0.3, "k": 0, "lam": 0.6, "depths": [30, 60]},
     lambda r: r["pairs"][0].update(lowest=r["pairs"][0]["lowest"] + 1e-6)),
])
def test_oracle_accepts_reports_and_refutes_tampered_ones(argv, expect, tamper):
    report = json.loads(_report(argv))
    assert oracle.check(report, expect) == []
    tamper(report)
    assert oracle.check(report, expect) != []


def test_theorem1_oracle_refutes_a_wrong_transform(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": [[1.0, 1.0], [0.0, 2.0]],
                                "im": [[0.0, 0.0], [0.0, 0.0]]}))
    expect = {"command": "theorem1", "input": str(path)}
    report = json.loads(_report(["theorem1", "--input", str(path)]))
    assert oracle.check(report, expect) == []
    report["transform"][0][1]["re"] += 0.1
    assert oracle.check(report, expect) != []


def _bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric(trace, kind):
    proc = _bench("--workload", "plane_sweep", "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # the gamma = 0 edge point fails emm at seed; each pass attempts 18 ops
    assert result["attempted"] % 18 == 0 and result["failed"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_deep_sector_op_runs_once_per_child_and_untimed():
    proc = _bench("--workload", "sector_deep", "--seed", "5", "--seconds", "3",
                  "--trace", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.stderr.count("untimed op sectors-k1-d60:") == 1
    passes = int(proc.stderr.split(" passes;")[0].split()[-1])
    # one timed op per pass, plus the deepest op once
    assert result["attempted"] == passes + 1
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "verify_all", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
