"""Spans around the public functions of `pseudoboson`, from outside the program.

`Tracer.install()` wraps every function named in the `__all__` of the seven
modules below, plus `cli.main` and `linalg.solve_matrix`, and rebinds each
wrapper in every `pseudoboson.*` namespace that holds the original, since
`cli` and the other modules import names directly. Classes in `__all__` are
left alone: replacing them would break `isinstance` and dataclass identity.
`uninstall()` puts every original back.

A span is [name, start, end, parent index, outermost flag, extras]; spans
stay in memory until the run ends. A span's self time is its duration minus
the durations of its direct children; calls are nested on one thread, so the
children never overlap. `per_layer` turns the spans into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("cli", "fock", "model", "sectors", "emm", "linalg", "similarity")
_EXTRA = {"cli": ("main",), "linalg": ("solve_matrix",)}

_NAME, _START, _END, _PARENT, _OUTER, _EXTRAS = range(6)


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._active: dict = defaultdict(int)
        self._patched: list = []
        self._seen_entries: dict = {}
        self._operator = None
        #: observer failures; a run that has any is not a valid measurement
        self.errors: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self._operator = importlib.import_module("pseudoboson.fock").Operator
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pseudoboson.{layer}")
            for name in tuple(getattr(mod, "__all__", ())) + _EXTRA.get(layer, ()):
                fn = getattr(mod, name)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "pseudoboson" and not modname.startswith("pseudoboson."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def patched_names(self) -> list:
        return [(mod.__name__, attr) for mod, attr, _ in self._patched]

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        observe = _OBSERVERS.get(name)
        if observe is None and name.split(".")[0] in ("fock", "model"):
            observe = _count_operators

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    active[name] == 0, None]
            spans.append(span)
            stack.append(idx)
            active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                span[_START] = start
                active[name] -= 1
                stack.pop()
            if observe is not None:
                try:
                    span[_EXTRAS] = observe(self, args, kwargs, result)
                except Exception as exc:  # never let a tracer bug change the op
                    self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return traced

    def _operator_bytes(self, obj, depth: int = 0) -> int:
        """Bytes of distinct Operator matrices in a return value."""
        if isinstance(obj, self._operator):
            seen = self._seen_entries.get(id(obj.entries))
            if seen is not None and seen() is obj.entries:
                return 0
            self._seen_entries[id(obj.entries)] = weakref.ref(obj.entries)
            return int(obj.entries.nbytes)
        if depth >= 2:
            return 0
        if isinstance(obj, (tuple, list)):
            return sum(self._operator_bytes(x, depth + 1) for x in obj)
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return sum(self._operator_bytes(getattr(obj, f.name), depth + 1)
                       for f in dataclasses.fields(obj))
        return 0


# -- per-function observers: extras recorded on the span ----------------------


def _count_operators(tracer, args, kwargs, result):
    nbytes = tracer._operator_bytes(result)
    return {"operator_bytes": nbytes} if nbytes else None


def _eig_dense(tracer, args, kwargs, result):
    dim = len(_arg(args, kwargs, 0, "M"))
    return {"dim": dim, "sweeps": result.iterations,
            "unconverged": 0 if result.converged else 1,
            "vectors": dim if _arg(args, kwargs, 1, "want_vectors", False) else 0}


def _eig_sym_tridiag(tracer, args, kwargs, result):
    return {"ql_iterations": result.iterations}


def _build_pseudoboson_ops(tracer, args, kwargs, result):
    extras = _count_operators(tracer, args, kwargs, result) or {}
    extras["key"] = (_arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "trunc"))
    return extras


def _sector_spectrum(tracer, args, kwargs, result):
    return {"kept": len(result.values)}


_OBSERVERS = {
    "linalg.eig_dense": _eig_dense,
    "linalg.eig_sym_tridiag": _eig_sym_tridiag,
    "model.build_pseudoboson_ops": _build_pseudoboson_ops,
    "sectors.sector_spectrum": _sector_spectrum,
}

# -- aggregation --------------------------------------------------------------

#: per-layer metric name -> unit, in the order the benchmark reports them
PER_LAYER_UNITS = {
    "fock.self_s": "s", "fock.calls": "count", "fock.apply.calls": "count",
    "fock.apply.self_s": "s", "fock.commutator.self_s": "s",
    "fock.build_ladder_ops.calls": "count", "fock.operator_mb_built": "MB",
    "model.self_s": "s", "model.calls": "count",
    "model.build_pseudoboson_ops.calls": "count",
    "model.build_pseudoboson_ops.reuse_ratio": "ratio",
    "model.build_hamiltonian.calls": "count", "model.eigenstate.total_s": "s",
    "model.eigen_residuals.total_s": "s",
    "model.biorthogonality_matrix.total_s": "s",
    "sectors.self_s": "s", "sectors.calls": "count",
    "sectors.sector_spectrum.calls": "count",
    "sectors.sector_spectrum.total_s": "s",
    "sectors.converged_sector_spectrum.total_s": "s",
    "sectors.full_vs_sector_check.total_s": "s",
    "linalg.self_s": "s", "linalg.calls": "count",
    "linalg.eig_dense.calls": "count", "linalg.eig_dense.self_s": "s",
    "linalg.eig_dense.vectors_s": "s", "linalg.eig_dense.qr_sweeps": "count",
    "linalg.eig_dense.dim_max": "rows", "linalg.eig_dense.unconverged": "count",
    "linalg.eig_dense.vectors_used_ratio": "ratio",
    "linalg.eig_sym_tridiag.self_s": "s",
    "linalg.eig_sym_tridiag.ql_iterations": "count",
    "linalg.solve_matrix.self_s": "s", "linalg.multiset_distance.self_s": "s",
    "emm.self_s": "s", "emm.calls": "count",
    "similarity.verify_similarity.calls": "count",
    "similarity.verify_similarity.total_s": "s",
    "cli.self_s": "s",
    "trace_overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when the layer was never reached (den = 0)."""
    return num / den if den else 0.0


def per_layer(spans: list, passes: int) -> dict:
    """Per-pass layer metrics from the spans of `passes` identical passes.

    Counts and times are totals divided by `passes`; ratios are taken over
    the totals. trace_overhead_ratio is left to the caller, which knows the
    untraced wall time.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            child[span[_PARENT]] += span[_END] - span[_START]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    extra = defaultdict(float)
    keys = set()
    kept = vectors_for_kept = 0
    dim_max = 0
    vectors_self = 0.0
    for idx, span in enumerate(spans):
        name = span[_NAME]
        layer = name.split(".")[0]
        dur = span[_END] - span[_START]
        own = dur - child[idx]
        for key in (name, layer):
            calls[key] += 1
            self_s[key] += own
        if span[_OUTER]:
            total_s[name] += dur
        extras = span[_EXTRAS] or {}
        extra["operator_bytes"] += extras.get("operator_bytes", 0)
        if name == "linalg.eig_dense":
            extra["sweeps"] += extras["sweeps"]
            extra["unconverged"] += extras["unconverged"]
            dim_max = max(dim_max, extras["dim"])
            if extras["vectors"]:
                vectors_self += own
                owner = _ancestor(spans, idx, "sectors.sector_spectrum")
                if owner is not None:
                    vectors_for_kept += extras["vectors"]
        elif name == "linalg.eig_sym_tridiag":
            extra["ql_iterations"] += extras["ql_iterations"]
        elif name == "model.build_pseudoboson_ops":
            keys.add(extras["key"])
        elif name == "sectors.sector_spectrum":
            kept += extras.get("kept", 0)
    n = float(passes)
    return {
        "fock.self_s": self_s["fock"] / n,
        "fock.calls": calls["fock"] / n,
        "fock.apply.calls": calls["fock.apply"] / n,
        "fock.apply.self_s": self_s["fock.apply"] / n,
        "fock.commutator.self_s": self_s["fock.commutator"] / n,
        "fock.build_ladder_ops.calls": calls["fock.build_ladder_ops"] / n,
        "fock.operator_mb_built": extra["operator_bytes"] / 2**20 / n,
        "model.self_s": self_s["model"] / n,
        "model.calls": calls["model"] / n,
        "model.build_pseudoboson_ops.calls":
            calls["model.build_pseudoboson_ops"] / n,
        "model.build_pseudoboson_ops.reuse_ratio":
            _ratio(len(keys), calls["model.build_pseudoboson_ops"] / n),
        "model.build_hamiltonian.calls": calls["model.build_hamiltonian"] / n,
        "model.eigenstate.total_s": total_s["model.eigenstate"] / n,
        "model.eigen_residuals.total_s": total_s["model.eigen_residuals"] / n,
        "model.biorthogonality_matrix.total_s":
            total_s["model.biorthogonality_matrix"] / n,
        "sectors.self_s": self_s["sectors"] / n,
        "sectors.calls": calls["sectors"] / n,
        "sectors.sector_spectrum.calls": calls["sectors.sector_spectrum"] / n,
        "sectors.sector_spectrum.total_s": total_s["sectors.sector_spectrum"] / n,
        "sectors.converged_sector_spectrum.total_s":
            total_s["sectors.converged_sector_spectrum"] / n,
        "sectors.full_vs_sector_check.total_s":
            total_s["sectors.full_vs_sector_check"] / n,
        "linalg.self_s": self_s["linalg"] / n,
        "linalg.calls": calls["linalg"] / n,
        "linalg.eig_dense.calls": calls["linalg.eig_dense"] / n,
        "linalg.eig_dense.self_s": self_s["linalg.eig_dense"] / n,
        "linalg.eig_dense.vectors_s": vectors_self / n,
        "linalg.eig_dense.qr_sweeps": extra["sweeps"] / n,
        "linalg.eig_dense.dim_max": dim_max,
        "linalg.eig_dense.unconverged": extra["unconverged"] / n,
        "linalg.eig_dense.vectors_used_ratio": _ratio(kept, vectors_for_kept),
        "linalg.eig_sym_tridiag.self_s": self_s["linalg.eig_sym_tridiag"] / n,
        "linalg.eig_sym_tridiag.ql_iterations": extra["ql_iterations"] / n,
        "linalg.solve_matrix.self_s": self_s["linalg.solve_matrix"] / n,
        "linalg.multiset_distance.self_s": self_s["linalg.multiset_distance"] / n,
        "emm.self_s": self_s["emm"] / n,
        "emm.calls": calls["emm"] / n,
        "similarity.verify_similarity.calls":
            calls["similarity.verify_similarity"] / n,
        "similarity.verify_similarity.total_s":
            total_s["similarity.verify_similarity"] / n,
        "cli.self_s": self_s["cli"] / n,
    }


def _ancestor(spans: list, idx: int, name: str):
    parent = spans[idx][_PARENT]
    while parent >= 0:
        if spans[parent][_NAME] == name:
            return parent
        parent = spans[parent][_PARENT]
    return None
