"""End-to-end and per-layer benchmark of the `pseudoboson` command line.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 42 --trace 0

Run from anywhere; the program under test is the `src/` next to this
directory. Each run builds the workload's op list from --seed, then starts a
fresh child process that drives `pseudoboson.cli.main(argv)` in-process, one
op after another (a closed loop with one client), for about --seconds. BLAS
is held to one thread, so the child computes on one core. Op times are
scaled to a reference host speed by a calibration timed between ops
(child.py). Every report is checked: exit 0 with all checks passing, the
same bytes as the first run of the same op, and an independent
`numpy.linalg` oracle (oracle.py).

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload twice,
plain and then under the tracer (tracing.py), each for half of --seconds,
and prints the per-layer metrics of the traced run with
trace_overhead_ratio = traced wall / plain wall. The last line of stdout is
one JSON object: correct, attempted, failed and metrics. Failed ops are
listed on stderr. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import child
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: set-up samples per run, each from a fresh probe process
SETUP_PROBES = 7
#: a run must end well inside the 180 s a caller allows it
RUN_BUDGET_S = 170.0

# after the set-up it times, a probe times calibrations as the child does,
# so that its set-up time can be scaled to the same reference speed
_PROBE = ("import time, pseudoboson.cli as cli; cli.build_parser(); "
          "built = time.monotonic(); import statistics, sys; "
          f"sys.path.insert(0, {str(HERE)!r}); import child; child.calibration(); "
          "print(repr(built)); print(cli.__file__); "
          "print(repr(statistics.median(child.calibration() for _ in range(5))))")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure about this long; at least one full pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="smoke: tiny op lists for the benchmark's own tests")
    return ap.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # a fixed hash seed fixes set and dict order, and with it the allocation
    # history that peak_rss_mb depends on: with random seeds, verify_all
    # peaked at 235 MB in most runs and at 300 MB in others
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _source_digest() -> str:
    """Names the hash store after the program's source, so an edited
    program starts a fresh record of report bytes."""
    h = hashlib.sha256()
    for path in sorted((SRC / "pseudoboson").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Launcher:
    """Starts the child processes of one run, all within one deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = _child_env()

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
        return left

    def _run(self, cmd: list) -> subprocess.CompletedProcess:
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=self._timeout())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child timed out: {cmd[:3]}") from exc
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()}")
        return proc

    def setup_probe(self) -> float:
        start = time.monotonic()
        proc = self._run([sys.executable, "-c", _PROBE])
        stamp, where, cal = proc.stdout.split("\n")[:3]
        if not os.path.realpath(where).startswith(os.path.realpath(SRC) + os.sep):
            raise BenchError(f"pseudoboson imported from {where}, not {SRC}")
        return (float(stamp) - start) * child.CAL_REF_S / float(cal)

    def workload(self, ops_path: str, work: str, seconds: float, trace: int,
                 store: Path, spans: Path | None = None) -> dict:
        result = os.path.join(work, f"result-{trace}.json")
        cmd = [sys.executable, str(HERE / "child.py"), "--ops", ops_path,
               "--src", str(SRC), "--seconds", repr(seconds),
               "--trace", str(trace), "--store", str(store), "--result", result]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self._run(cmd)
        with open(result) as fh:
            return json.load(fh)


def _median_ops(per_pass: list) -> list:
    """Each op at its median over the passes."""
    return [statistics.median(op) for op in zip(*per_pass)]


def _end_to_end(res: dict, setups: list) -> dict:
    ops = _median_ops(res["op_times"])
    p90 = statistics.quantiles(ops, n=10, method="inclusive")[8] \
        if len(ops) > 1 else ops[0]
    wall = sum(ops)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (sum(_median_ops(res["op_cpus"])), "s"),
        "ops_per_s": (len(ops) / wall, "1/s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "op_p90_s": (p90, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_ratio": (res["ok_ratio"], "ratio"),
        "max_tol_ratio": (res["max_tol_ratio"], "ratio"),
    }


def run(args) -> dict:
    if not (SRC / "pseudoboson" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'pseudoboson'}")
    launcher = Launcher(time.monotonic() + RUN_BUDGET_S)
    OUT.mkdir(exist_ok=True)
    store = OUT / f"hashes-{_source_digest()}.json"
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        ops = workloads.build(args.workload, args.seed, args.size, work)
        ops_path = os.path.join(work, "ops.json")
        with open(ops_path, "w") as fh:
            json.dump(ops, fh)
        if args.trace:
            # the plain and the traced child share --seconds between them
            half = args.seconds / 2
            plain = launcher.workload(ops_path, work, half, 0, store)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            traced = launcher.workload(ops_path, work, half, 1, store, spans)
            runs = [plain, traced]
            metrics = {name: (value, tracing.PER_LAYER_UNITS[name])
                       for name, value in traced["per_layer"].items()}
            overhead = (sum(_median_ops(traced["op_times"]))
                        / sum(_median_ops(plain["op_times"])))
            metrics["trace_overhead_ratio"] = (overhead, "ratio")
        else:
            setups = [launcher.setup_probe() for _ in range(SETUP_PROBES)]
            res = launcher.workload(ops_path, work, args.seconds, 0, store)
            runs = [res]
            metrics = _end_to_end(res, setups)
    for res in runs:
        for op_id, reason in sorted(res["failures"].items()):
            sys.stderr.write(f"failed op {op_id}: {reason}\n")
        for op_id, seconds in sorted(res["once_s"].items()):
            sys.stderr.write(f"untimed op {op_id}: {seconds:.3f} s\n")
        sys.stderr.write(f"{len(res['op_times'])} passes; unscaled wall "
                         f"{sum(_median_ops(res['raw_op_times'])):.4f} s; "
                         f"host scale {res['host_scale']:.4f}\n")
    return {
        "correct": all(r["incorrect"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
