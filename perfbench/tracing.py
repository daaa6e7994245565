"""Span tracing for the benchmark's traced run, applied from outside the package.

`Tracer.install` replaces every public function and method of the layer
modules (the names in each module's `__all__`) with a wrapper, in every
`plrf` module that binds it, so calls between modules are traced too and no
file under `src/` changes.  A wrapper records a span (name, start, end,
parent, job id) only while a job is open, so oracle calls between jobs run
untraced.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("simulate", "spectral", "combinatorics", "population", "lattice", "data")

# Called about a million times per theory job, a few hundred nanoseconds each:
# a span per call would cost more than the call, so these are only counted.
COUNT_ONLY = frozenset({"population.CountingCurve.evaluate"})


def _mc_hook(c: Counter, args, result) -> None:
    cfg = args[0]
    c["simulate.mc.samples"] += cfg.m
    c["simulate.mc.xw_flop"] += 2.0 * cfg.m * cfg.v * cfg.d
    # the library materialises the m x d feature matrix below this size
    cap = getattr(sys.modules["plrf.simulate"], "_DENSE_FEATURE_CAP", 0)
    dense = 8.0 * cfg.m * cfg.d if cfg.m * cfg.d <= cap else 0.0
    c["simulate.mc.dense_feature_bytes"] = max(c["simulate.mc.dense_feature_bytes"], dense)


def _eig_dim_hook(c: Counter, args, result) -> None:
    c["spectral.eig_dim_max"] = max(c["spectral.eig_dim_max"], len(result))


def _lattice_hook(c: Counter, args, result) -> None:
    c["lattice.points"] += result.count


def _csv_hook(c: Counter, args, result) -> None:
    c["data.write_spectrum_csv.bytes"] += os.path.getsize(args[1])


HOOKS = {
    "simulate.mc_covariance": _mc_hook,
    "spectral.sym_eigenvalues": _eig_dim_hook,
    "spectral.gram_spectrum": _eig_dim_hook,
    "lattice.count_unordered": _lattice_hook,
    "data.write_spectrum_csv": _csv_hook,
}

# (name, unit, better).  Times, call counts, bytes and flops are per round
# (one job of each kind in the workload); rates and maxima are over the run.
# A layer the workload never enters reports 0.
PER_LAYER = (
    ("simulate.self_s", "s", "lower"),
    ("simulate.mc_covariance.self_s", "s", "lower"),
    ("simulate.mc.xw_gflop", "GFLOP", "lower"),
    ("simulate.mc.samples_per_s", "1/s", "higher"),
    ("simulate.mc.dense_feature_mb", "MB", "lower"),
    ("simulate.DataDistribution.draw_unit.busy_s", "s", "lower"),
    ("simulate.DataDistribution.draw_unit.calls", "count", "lower"),
    ("simulate.Activation.apply.busy_s", "s", "lower"),
    ("simulate.sample_sketch.busy_s", "s", "lower"),
    ("simulate.iterated_sketch.self_s", "s", "lower"),
    ("simulate.propagate_layers.self_s", "s", "lower"),
    ("simulate.exact_population_covariance.busy_s", "s", "lower"),
    ("spectral.self_s", "s", "lower"),
    ("spectral.sym_eigenvalues.busy_s", "s", "lower"),
    ("spectral.sym_eigenvalues.calls", "count", "lower"),
    ("spectral.gram_spectrum.busy_s", "s", "lower"),
    ("spectral.gram_spectrum.calls", "count", "lower"),
    ("spectral.eig_dim_max", "count", "lower"),
    ("spectral.slope_fit.busy_s", "s", "lower"),
    ("combinatorics.self_s", "s", "lower"),
    ("combinatorics.pairing_class_counts.busy_s", "s", "lower"),
    ("population.self_s", "s", "lower"),
    ("population.hpi_top_k.self_s", "s", "lower"),
    ("population.hpi_count_above.busy_s", "s", "lower"),
    ("population.hpi_count_above.calls", "count", "lower"),
    ("population.predicted_spectrum.busy_s", "s", "lower"),
    ("population.CountingCurve.evaluate.calls", "count", "lower"),
    ("lattice.self_s", "s", "lower"),
    ("lattice.count_unordered.busy_s", "s", "lower"),
    ("lattice.points_per_s", "1/s", "higher"),
    ("data.self_s", "s", "lower"),
    ("data.write_spectrum_csv.busy_s", "s", "lower"),
    ("data.write_spectrum_csv.bytes", "B", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.coverage_frac", "frac", "higher"),
    ("trace.root_mismatch_max", "frac", "lower"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None, job id]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._job: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"plrf.{layer}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for name, member in list(vars(obj).items()):
                        if not name.startswith("_") and inspect.isfunction(member):
                            self._restore.append((obj, name, member))
                            setattr(obj, name, self._wrap(f"{layer}.{attr}.{name}", member))
        for modname, mod in list(sys.modules.items()):
            if modname != "plrf" and not modname.startswith("plrf."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replaced:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, replaced[val])

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer._job is not None:
                    tracer.counters[name + ".calls"] += 1
                return fn(*args, **kwargs)

            return counted
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1], tracer._job]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return traced

    @contextmanager
    def job(self, job_id: int, kind: str):
        """Open the root span `bench.<kind>` of one job; layer spans nest under it."""
        span = [f"bench.{kind}", 0.0, 0.0, None, job_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._job = job_id
        span[1] = perf_counter()
        try:
            yield span
        finally:
            span[2] = perf_counter()
            self._job = None
            self._stack.pop()

    # -- accounting --------------------------------------------------------

    def totals(self) -> dict[str, Counter]:
        """busy (outermost spans of a name), self and call totals per name and per module."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy, own, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            own[name] += dur - child[i]
            own[name.split(".", 1)[0]] += dur - child[i]
            calls[name] += 1
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                busy[name] += dur
        return {"busy": busy, "self": own, "calls": calls}

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Every PER_LAYER metric except the trace.* ones, which need the untraced run."""
        t = self.totals()
        c = self.counters
        busy, own, calls = t["busy"], t["self"], t["calls"]
        mc_busy = busy["simulate.mc_covariance"]
        lat_busy = busy["lattice.count_unordered"]
        special = {
            "simulate.mc.xw_gflop": c["simulate.mc.xw_flop"] / 1e9 / rounds,
            "simulate.mc.samples_per_s": c["simulate.mc.samples"] / mc_busy if mc_busy else 0.0,
            "simulate.mc.dense_feature_mb": c["simulate.mc.dense_feature_bytes"] / 1e6,
            "spectral.eig_dim_max": float(c["spectral.eig_dim_max"]),
            "lattice.points_per_s": c["lattice.points"] / lat_busy if lat_busy else 0.0,
            "data.write_spectrum_csv.bytes": c["data.write_spectrum_csv.bytes"] / rounds,
            "population.CountingCurve.evaluate.calls": c["population.CountingCurve.evaluate.calls"] / rounds,
        }
        out = {}
        for name, _, _ in PER_LAYER:
            if name.startswith("trace."):
                continue
            if name in special:
                out[name] = float(special[name])
                continue
            base, _, stat = name.rpartition(".")
            table = {"busy_s": busy, "self_s": own, "calls": calls}[stat]
            out[name] = float(table[base]) / rounds
        return out

    def write(self, path, t0: float) -> None:
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counters": dict(self.counters)}, fh)
