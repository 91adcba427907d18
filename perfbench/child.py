"""Run one workload's op list in this (fresh) process and record what happened.

Started by run.py; not meant to be run by hand. It imports `pseudoboson.cli`
and builds its parser, then repeats the op list in passes, one op after
another on one thread, for about --seconds. Every report is hashed and
compared with the first report of the same op, from this run or from
earlier runs recorded in --store. A report the program declares passing
also goes through the oracle once.
With --trace 1 the op loop runs under the tracer and the spans are written
to --spans at the end.

Between ops the child times a fixed calibration mix (calibration()) and
scales each op's time and CPU time by CAL_REF_S over the calibrations
before and after it, so that a slow stretch of the shared host does not
read as a slow program.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import numpy as np


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ops", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--store", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    return ap.parse_args(argv)


#: seconds calibration() takes on the host of BASELINE.md when no other
#: tenant slows it; scaled times are seconds at that speed
CAL_REF_S = 0.02
#: calibrate again once the ops since the last calibration took this long
CAL_EVERY_S = 0.5
#: a calibration batch lasts about this share of the op time before it
CAL_SHARE = 0.2

_RNG = np.random.default_rng(0)
_CAL_V = _RNG.standard_normal(8)
_CAL_M = _RNG.standard_normal((160, 160)) + 1j * _RNG.standard_normal((160, 160))
_CAL_K = _RNG.standard_normal((300, 300)) + 1j * _RNG.standard_normal((300, 300))


def calibration() -> float:
    """Seconds for a fixed mix of the kinds of work the program does:
    interpreter loops, many small numpy calls, a Gaussian elimination that
    updates slices of a 160 x 160 complex matrix from a Python loop, as the
    program's LU and QR sweeps do, and a 300 x 300 complex matrix product
    in BLAS, as its dense operator algebra does.

    On a shared host, other tenants slow this work for stretches of ten
    seconds to minutes, by up to 1.9 times on the host of BASELINE.md, and
    the program's ops slow with it. An op's time divided by the calibration
    next to it therefore measures the program rather than the host."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(20000):
        acc += i * i % 7
        table[i & 255] = acc
    w = _CAL_V.copy()
    for _ in range(2000):
        w = np.abs(w * 0.5 + _CAL_V).clip(0.0, 3.0)
    a = _CAL_M.copy()
    for k in range(a.shape[0] - 1):
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    _CAL_K @ _CAL_K
    return time.perf_counter() - start


def _calibrate(op_seconds: float) -> float:
    """Median of a batch of calibrations lasting about CAL_SHARE of
    op_seconds: one calibration varies too much to scale a long op."""
    batch = [calibration()]
    while sum(batch) < CAL_SHARE * op_seconds:
        batch.append(calibration())
    return statistics.median(batch)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load_json(path, default):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def _write_json(path, obj):
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


class Runner:
    """Runs ops through `cli.main` and judges their reports."""

    def __init__(self, cli, oracle, known_hashes: dict):
        self.cli = cli
        self.oracle = oracle
        self.hashes = dict(known_hashes)
        self.judged = {}
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures = {}
        self.max_tol_ratio = 0.0

    def run(self, op: dict) -> tuple:
        """Run one op; return (seconds, cpu seconds). Judging is not timed."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        start, cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op["argv"])
        except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu
        self._judge(op, code, out.getvalue(), err.getvalue(), error)
        return elapsed, cpu

    def _judge(self, op, code, text, stderr, error):
        self.attempted += 1
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.hashes.setdefault(op["key"], digest)
        if first != digest:
            reason, wrong = "report bytes differ from the first run", True
        elif op["key"] in self.judged:
            reason, wrong = self.judged[op["key"]]
        else:
            reason, wrong = self._first_judgement(op, code, text, stderr, error)
            self.judged[op["key"]] = (reason, wrong)
        if reason is not None:
            self.failed += 1
            self.incorrect += wrong
            self.failures.setdefault(op["id"], reason)

    def _first_judgement(self, op, code, text, stderr, error):
        if error is not None:
            return error, False
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return f"exit {code} without a JSON report", code == 0
        for c in self.oracle.report_checks(report):
            self.max_tol_ratio = max(self.max_tol_ratio, self.oracle.tol_ratio(c))
        if code != 0 or not report.get("all_passed"):
            last = (stderr.strip().splitlines() or [""])[-1]
            return f"exit {code}: {last}", False
        problems = self.oracle.check(report, op["expect"])
        if problems:
            return "oracle: " + "; ".join(problems[:3]), True
        return None, False


def main(argv=None) -> int:
    args = _parse(argv)
    import pseudoboson.cli as cli
    cli.build_parser()
    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"pseudoboson imported from {cli.__file__}, not {src}\n")
        return 2

    import oracle
    import tracing

    with open(args.ops) as fh:
        ops = json.load(fh)
    runner = Runner(cli, oracle, _load_json(args.store, {}))
    tracer = tracing.Tracer() if args.trace else None
    timed = [op for op in ops if not op.get("once")]
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        # ops marked "once" run once, before the timed passes (workloads.py)
        once_s = {op["id"]: runner.run(op)[0] for op in ops if op.get("once")}
        calibration()  # first-use costs
        cals = [_calibrate(CAL_EVERY_S)]
        # per pass and op: (seconds, cpu seconds, index of the calibration before)
        samples, pass_rss, since_cal = [], [], 0.0
        passes_start = time.perf_counter()
        while True:
            samples.append([])
            for op in timed:
                dt, dc = runner.run(op)
                samples[-1].append((dt, dc, len(cals) - 1))
                since_cal += dt
                if since_cal >= CAL_EVERY_S:
                    cals.append(_calibrate(since_cal))
                    since_cal = 0.0
            pass_rss.append(_peak_rss_mb())
            now = time.perf_counter()
            pass_s = (now - passes_start) / len(samples)
            # start another pass only if it should end within --seconds
            if now - start + pass_s > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    if since_cal > 0.0:
        cals.append(_calibrate(since_cal))

    def scale(i: int) -> float:
        """Host speed around a sample: the calibrations before and after it."""
        return CAL_REF_S / ((cals[i] + cals[i + 1]) / 2)

    result = {
        "op_times": [[dt * scale(i) for dt, _, i in p] for p in samples],
        "op_cpus": [[dc * scale(i) for _, dc, i in p] for p in samples],
        "raw_op_times": [[dt for dt, _, _ in p] for p in samples],
        "host_scale": CAL_REF_S / statistics.median(cals),
        "once_s": once_s,
        "ok_ratio": 1.0 - len(runner.failures) / len(ops),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "incorrect": runner.incorrect,
        "failures": runner.failures,
        "max_tol_ratio": runner.max_tol_ratio,
        # the peak by the end of the first pass: the peak over the whole run
        # creeps up with the number of passes, which the host's speed sets
        "peak_rss_mb": pass_rss[0],
    }
    if tracer is not None:
        if tracer.errors:
            sys.stderr.write("tracer failed: " + "; ".join(tracer.errors[:3]) + "\n")
            return 1
        result["per_layer"] = tracing.per_layer(tracer.spans, len(samples))
        if args.spans:
            _write_json(args.spans, [s[:5] for s in tracer.spans])
    _write_json(args.store, runner.hashes)
    _write_json(args.result, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
