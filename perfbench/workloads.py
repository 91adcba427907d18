"""Seeded op lists for the three benchmark workloads.

An op is one `pseudoboson` command line, run in-process through
`pseudoboson.cli.main(argv)`. Each op carries the facts its oracle needs
(`expect`) and a `key` that names its inputs independently of where the
input files live, so report hashes can be compared across runs.

- verify_all: `verify-all` with every suite, at gamma 0.2, trunc 24 and
  depth 32 rather than the default flags, so that it repeats within a run.
- sector_deep: deep `sectors` runs, where sector QR and inverse iteration
  do all the work. The depth-240 op raises at seed and stays in the list;
  it runs once per run, before the timed passes.
- plane_sweep: `spectrum`, `emm` and `commutators` at 40 (beta, gamma)
  points. At the 30 points off the edges, also both `stability` runs and
  `theorem1` on a seeded real-spectrum matrix. The edge points skip these
  three ops because none of them reads gamma.

verify_all and sector_deep do not depend on the seed: they are fixed runs.
plane_sweep draws its interior points and its matrix entries from the seed;
the matrix sizes, the real/complex split and the edge points (gamma = 0,
beta = +-rho) are the same for every seed, so the amount of work per pass
does not drift with the seed. The op
mix keeps the median op latency inside one op class (`commutators`) rather
than on the step between two.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

WORKLOADS = ("verify_all", "sector_deep", "plane_sweep")
SIZES = ("full", "smoke")

# (beta, gamma) edge points that every plane_sweep grid holds: the gamma = 0
# edge and the points where beta = +-rho makes adjoint-action eigenvalues repeat
_GAMMA0_BETAS = (-1.0, -0.5, 0.5, 1.0)
_RHO_EDGE_GAMMAS = (0.3, 0.75, 1.5)


def _op(op_id: str, argv: list, expect: dict, files: dict | None = None) -> dict:
    """files maps a flag value in argv to the text of the input it names."""
    files = files or {}
    keyed = [hashlib.sha256(files[a].encode()).hexdigest() if a in files else a
             for a in argv]
    key = hashlib.sha256(json.dumps(keyed).encode()).hexdigest()
    return {"id": op_id, "argv": argv, "expect": expect, "key": key}


def _verify_all(size: str) -> list:
    # every suite at a size that repeats 8 to 15 times in a 42 s run;
    # one default-flag run takes 20-27 s on two shared vCPUs, too long for a
    # steady median over passes (README.md, "Workloads")
    if size == "smoke":
        argv = ["verify-all", "--gamma", "0.15", "--trunc", "20", "--depth", "30"]
    else:
        argv = ["verify-all", "--gamma", "0.2", "--trunc", "24", "--depth", "32"]
    return [_op("verify-all", argv, {"command": "verify-all"})]


def _sector_deep(size: str) -> list:
    runs = [(0, 60), (1, 60)] if size == "smoke" else \
        [(-1, 120), (0, 120), (1, 120), (1, 240)]
    ops = []
    for k, depth in runs:
        argv = ["sectors", "--k-range", str(k), str(k), "--depth", str(depth)]
        ops.append(_op(f"sectors-k{k}-d{depth}", argv,
                       {"command": "sectors", "beta": 0.5, "gamma": 0.75,
                        "k": k, "depth": depth, "n_eigs": 3}))
    # the deepest op runs once per run and is judged but not timed: it takes
    # 11-19 s, so a run holds at most two samples of it, and on two shared
    # vCPUs those do not give a steady time
    ops[-1]["once"] = True
    return ops


def _plane_points(rng: np.random.Generator, count: int, smoke: bool) -> list:
    points = [(b, 0.0) for b in _GAMMA0_BETAS]
    for g in _RHO_EDGE_GAMMAS:
        rho = math.sqrt(1.0 + g * g)
        points += [(rho, g), (-rho, g)]
    if smoke:
        points = [points[2], points[4]]
    while len(points) < count:
        beta = float(np.round(rng.uniform(-1.5, 1.5), 6))
        gamma = float(np.round(rng.uniform(0.05, 2.0), 6))
        points.append((beta, gamma))
    return points


def _real_spectrum_matrix(rng: np.random.Generator, n: int, complex_basis: bool):
    """V D V^-1 with distinct real D (gaps of order one) and a well
    conditioned V = I + 0.25 R / sqrt(n), R complex for complex_basis."""
    r = rng.uniform(-1.0, 1.0, size=(n, n))
    if complex_basis:
        r = r + 1j * rng.uniform(-1.0, 1.0, size=(n, n))
    v = np.eye(n) + 0.25 * r / math.sqrt(n)
    d = np.arange(n) + 0.2 * rng.uniform(0.0, 1.0, size=n)
    return np.linalg.solve(v.T, (v * d).T).T


def _matrix_json(m: np.ndarray) -> str:
    m = np.asarray(m, dtype=complex)
    return json.dumps({"n": m.shape[0], "re": m.real.tolist(),
                       "im": m.imag.tolist()})


def _plane_sweep(size: str, seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    count, matrices, lo, hi = (4, 2, 8, 12) if size == "smoke" else (40, 30, 8, 48)
    points = _plane_points(rng, count, size == "smoke")
    # one fixed multiset of (size, basis) pairs; the seed only permutes it
    sizes = np.round(np.linspace(lo, hi, matrices)).astype(int)
    shapes = [(int(n), i % 2 == 1) for i, n in enumerate(sizes)]
    shapes = [shapes[i] for i in rng.permutation(matrices)]
    ops = []
    for i, (beta, gamma) in enumerate(points):
        b, g = repr(beta), repr(gamma)
        params = {"beta": beta, "gamma": gamma}
        ops.append(_op(f"p{i}-spectrum", ["spectrum", "--beta", b, "--gamma", g],
                       {"command": "spectrum", **params}))
        ops.append(_op(f"p{i}-emm", ["emm", "--beta", b, "--gamma", g],
                       {"command": "emm", **params}))
        ops.append(_op(f"p{i}-commutators",
                       ["commutators", "--beta", b, "--gamma", g, "--trunc", "8"],
                       {"command": "commutators", **params}))
        if i < count - matrices:
            continue  # edge point: the remaining ops do not read gamma
        ops.append(_op(f"p{i}-stability-bounded",
                       ["stability", "--beta", b, "--lam", "0.6"],
                       {"command": "stability", "beta": beta, "k": 0,
                        "lam": 0.6, "depths": [30, 60]}))
        ops.append(_op(f"p{i}-stability-unbounded",
                       ["stability", "--beta", b, "--lam", "1.2",
                        "--depths", "40", "80"],
                       {"command": "stability", "beta": beta, "k": 0,
                        "lam": 1.2, "depths": [40, 80]}))
        n, complex_basis = shapes.pop()
        text = _matrix_json(_real_spectrum_matrix(rng, n, complex_basis))
        path = os.path.join(workdir, f"matrix-{i}.json")
        with open(path, "w") as fh:
            fh.write(text)
        ops.append(_op(f"p{i}-theorem1-n{n}{'c' if complex_basis else 'r'}",
                       ["theorem1", "--input", path],
                       {"command": "theorem1", "input": path}, {path: text}))
    return ops


def build(name: str, seed: int, size: str, workdir: str) -> list:
    """The op list of workload `name`; input files are written to workdir."""
    if name == "verify_all":
        return _verify_all(size)
    if name == "sector_deep":
        return _sector_deep(size)
    if name == "plane_sweep":
        return _plane_sweep(size, seed, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
