"""Spans around tchlab's public functions, installed from the benchmark.

Each wrapper replaces a function at the attribute where callers look it up
(``tchlab.cli.run_gate`` and ``tchlab.gate.run_gate`` both become the same
wrapper), so no file under ``src/`` changes.  Spans are kept in memory as
(name, start, end, parent span, run id, counts) and written out by the
caller when the run ends.  The numpy and scipy entry points ``eigh``,
``eigvalsh`` and ``expm`` are spans too, attributed to the tchlab module
span that encloses them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict

NATIVE = {"eigh", "eigvalsh", "expm"}


def _pairs(bound):
    return {"gate.resonance_table.pairs": bound.arguments["n_max"] ** 2}


def _rk4_steps(bound):
    a = bound.arguments
    t_start, t_end, settings = a["t_start"], a["t_end"], a.get("settings")
    if settings is not None:
        dt = settings.dt
    else:  # evolve_pulsed's own default step
        dt = min(p.sigma for _, p in a["pulses"]) / 50.0
    steps = max(1, math.ceil((t_end - t_start) / dt)) if t_end > t_start else 0
    return {"evolution.rk4_steps": steps}


def _samples(bound):
    return {"darkstates.samples": bound.arguments["n_trials"]}


class _CountedRows:
    def __init__(self, rows):
        self.rows, self.n = rows, 0

    def __iter__(self):
        for row in self.rows:
            self.n += 1
            yield row


def _csv_rows(bound):
    counted = _CountedRows(bound.arguments["rows"])
    bound.arguments["rows"] = counted
    return lambda path: {"reports.rows": counted.n, "reports.bytes_written": os.path.getsize(path)}


def _json_bytes(bound):
    return lambda path: {"reports.bytes_written": os.path.getsize(path)}


def _states(bound):
    space = bound.arguments["self"]
    return lambda _: {"basis.states_enumerated": space.dim}


def _hops(bound):
    return lambda network: {"walk.hops": len(network.hops)}


# (span name, module, attribute, counts hook).  A hook receives the bound
# arguments and returns either counts or a function of the result giving
# counts.  "operators.build" groups the four operator builders.
TARGETS = [
    ("cli.main", "tchlab.cli", "main", None),
    ("gate.resonance_table", "tchlab.gate", "resonance_table", _pairs),
    ("gate.run_gate", "tchlab.gate", "run_gate", None),
    ("gate.sweep", "tchlab.gate", "sweep", None),
    ("evolution.evolve_pulsed", "tchlab.evolution", "evolve_pulsed", _rk4_steps),
    ("evolution.evolve_const", "tchlab.evolution", "evolve_const", None),
    ("operators.build", "tchlab.operators", "build_tch", None),
    ("operators.build", "tchlab.operators", "build_tc", None),
    ("operators.build", "tchlab.operators", "jump_operator", None),
    ("operators.build", "tchlab.operators", "photon_number_operator", None),
    ("operators.eigensystem", "tchlab.operators", "OperatorMatrix.eigensystem", None),
    ("basis.HilbertSpace", "tchlab.basis", "HilbertSpace.__init__", _states),
    ("walk.simulate_walk", "tchlab.walk", "simulate_walk", None),
    ("walk.coupling_network", "tchlab.walk", "coupling_network", _hops),
    ("walk.distance_profile", "tchlab.walk", "CouplingNetwork.distance_profile", None),
    ("darkstates.emission_density", "tchlab.darkstates", "emission_density", None),
    ("darkstates.sample_emission_times", "tchlab.darkstates", "sample_emission_times", _samples),
    ("darkstates.classify_dark", "tchlab.darkstates", "classify_dark", None),
    ("reports.write_csv", "tchlab.reports", "write_csv", _csv_rows),
    ("reports.write_json", "tchlab.reports", "write_json", _json_bytes),
    ("eigh", "numpy.linalg", "eigh", None),
    ("eigvalsh", "numpy.linalg", "eigvalsh", None),
    ("expm", "scipy.linalg", "expm", None),
]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = None
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = hook(bound)
                args, kwargs = bound.args, bound.kwargs
            idx = len(self.spans)
            span = {"name": name, "start": 0.0, "end": 0.0, "run_id": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if callable(counts):
                counts = counts(result)
            if counts:
                span["counts"] = counts
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target at each attribute that holds it."""
        for name, module_name, attr, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, fn_name = attr.rpartition(".")
            if owner:  # a method: wrapping the class attribute covers every caller
                cls = getattr(module, owner)
                setattr(cls, fn_name, self.wrap(name, getattr(cls, fn_name), hook))
                continue
            original = getattr(module, fn_name)
            wrapped = self.wrap(name, original, hook)
            if module_name.startswith("tchlab"):
                sites = [m for key, m in list(sys.modules.items())
                         if m is not None and (key == "tchlab" or key.startswith("tchlab."))]
            else:
                sites = [module]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapped)

    def root(self, name: str):
        """Open a span that encloses the whole repetition; returns a closer."""
        idx = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": 0.0,
                           "run_id": self.run_id, "parent": None})
        self._stack.append(idx)

        def close():
            self.spans[idx]["end"] = time.perf_counter()
            self._stack.pop()

        return close


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[dict]) -> dict:
    """Self time, call counts and summed counts per metric name.

    Self time is a span's duration minus the time its child spans cover.
    A native span (eigh, eigvalsh, expm) is keyed by the layer of its
    nearest enclosing tchlab span, e.g. ``walk.eigh``."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]

    def key_of(i: int) -> str:
        name = spans[i]["name"]
        if name not in NATIVE:
            return name
        parent = spans[i]["parent"]
        while parent is not None and (spans[parent]["name"] in NATIVE
                                      or spans[parent]["name"].startswith("bench.")):
            parent = spans[parent]["parent"]
        layer = _layer(spans[parent]["name"]) if parent is not None else "bench"
        return f"{layer}.{name}"

    out = defaultdict(int)
    sector_dim_max = 0
    for i, span in enumerate(spans):
        if span["name"].startswith("bench."):
            continue
        key = key_of(i)
        out[f"{key}.s"] += span["end"] - span["start"] - child_time[i]
        out[f"{key}.calls"] += 1
        for count, value in span.get("counts", {}).items():
            out[count] += value
        if span["name"] == "basis.HilbertSpace":
            parent = span["parent"]
            if parent is not None and _layer(spans[parent]["name"]) == "darkstates":
                sector_dim_max = max(sector_dim_max, span["counts"]["basis.states_enumerated"])
    out["basis.spaces_built"] = out["basis.HilbertSpace.calls"]
    out["darkstates.sector_dim_max"] = sector_dim_max
    return dict(out)
