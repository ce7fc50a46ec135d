"""Span tracing of spq's public layer functions, installed from outside the
package.

Each traced function is replaced, in every ``spq.*`` namespace that holds
it, by a wrapper that times the call and charges the time to a named span.
A span's self time is its duration minus the time covered by the traced
calls made inside it.  Hooks add counters (gates, shots, bytes) and record
an input key per call, so a layer's ``useful_ratio`` -- distinct inputs
divided by calls -- shows work recomputed for inputs it has already seen.

Hooks run after the span has closed; their time is booked as tracer
overhead and taken out of the enclosing span's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import os
import sys
import time

import numpy as np


# -- input keys ----------------------------------------------------------

def input_key(obj) -> str:
    """sha256 over the full content of ``obj``.

    Dataclass fields declared with ``compare=False`` are included: ``Gate``
    equality ignores ``matrix``, so two different dense gates compare equal
    while their keys differ.
    """
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"nd:{arr.dtype.str}:{arr.shape};".encode())
        h.update(arr.data)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"dc:{type(obj).__qualname__}(".encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode() + b"=")
            _feed(h, getattr(obj, f.name))
        h.update(b")")
    elif isinstance(obj, (tuple, list)):
        h.update(f"seq:{len(obj)}(".encode())
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(f"map:{len(obj)}(".encode())
        for k in sorted(obj, key=repr):
            _feed(h, k)
            _feed(h, obj[k])
        h.update(b")")
    elif obj is None or isinstance(obj, (bool, int, float, complex, str, bytes,
                                         np.generic)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    else:
        raise TypeError(f"no input key for {type(obj).__name__}")


# -- statistics ------------------------------------------------------------

@dataclasses.dataclass
class LayerStat:
    """Accumulated calls, times, counters and input keys of one span name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = dataclasses.field(default_factory=dict)
    keys: dict = dataclasses.field(default_factory=dict)  # input key -> calls

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def record_key(self, key: str) -> None:
        self.keys[key] = self.keys.get(key, 0) + 1


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _matrix_bytes(seq) -> int:
    return sum(g.matrix.nbytes for g in seq.gates if g.matrix is not None)


# -- hooks: (stat, own_self_s, args, kwargs, result) -> None ---------------

def _hook_apply(stat, own, args, kwargs, result):
    # called for every gate, so kept to plain dict updates
    gate = args[1] if len(args) > 1 else kwargs["gate"]
    counters = stat.counters
    if gate.controls:
        calls, self_s = "controlled.calls", "controlled.self_s"
    elif gate.kind == "dense":
        calls, self_s = "dense.calls", "dense.self_s"
        state = args[0] if args else kwargs["state"]
        # computed, not measured: state read and written once, matrix read once
        counters["dense.bytes_computed"] = (counters.get("dense.bytes_computed", 0)
                                            + 2 * state.amplitudes.nbytes
                                            + gate.matrix.nbytes)
    else:
        calls, self_s = "other.calls", "other.self_s"
    counters[calls] = counters.get(calls, 0) + 1
    counters[self_s] = counters.get(self_s, 0.0) + own


def _hook_sample_register(stat, own, args, kwargs, result):
    stat.add("shots", int(_arg(args, kwargs, 2, "shots")))


def _hook_cost_diagonal(stat, own, args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    layout = _arg(args, kwargs, 1, "layout")
    stat.record_key(input_key((problem, layout)))


def _hook_run_dqa_fast(stat, own, args, kwargs, result):
    model, x = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "x")
    dist, schedule = _arg(args, kwargs, 2, "dist"), _arg(args, kwargs, 3, "schedule")
    stat.add("amp_layers",
             math.comb(model.n_y, model.d - x) * 2 ** dist.n_xi * schedule.T)


def _hook_build_dqa(stat, own, args, kwargs, result):
    stat.add("gates", len(result))


def _hook_matrix_bytes(stat, own, args, kwargs, result):
    stat.add("matrix_bytes", _matrix_bytes(result))


def _hook_qpe_state(stat, own, args, kwargs, result):
    a_seq = _arg(args, kwargs, 0, "A_seq")
    config, layout = _arg(args, kwargs, 1, "config"), _arg(args, kwargs, 2, "layout")
    stat.add("grover_applications", config.M - 1)
    # rng_seed and repetitions do not enter the phase-estimation state
    stat.record_key(input_key((a_seq, config.m, layout)))


def _hook_write_csv(stat, own, args, kwargs, result):
    path, rows = _arg(args, kwargs, 0, "path"), _arg(args, kwargs, 2, "rows")
    stat.add("rows", len(rows))
    stat.add("bytes", os.path.getsize(path))


# (module, function, span name, hook).  Functions sharing a span name add
# into one span.
LAYERS = (
    ("statevector", "apply", "statevector.apply", _hook_apply),
    ("statevector", "apply_sequence", "statevector.apply_sequence", None),
    ("statevector", "sample_register", "statevector.sample_register",
     _hook_sample_register),
    ("model", "cost_diagonal", "model.cost_diagonal", _hook_cost_diagonal),
    ("model", "expected_value_exact", "model.expected_value_exact", None),
    ("dqa", "run_dqa_fast", "dqa.run_dqa_fast", _hook_run_dqa_fast),
    ("dqa", "expectation_HQ", "dqa.expectation_HQ", None),
    ("dqa", "build_dqa", "dqa.build_dqa", _hook_build_dqa),
    ("dqa", "prepare_per_scenario_optimal", "dqa.prepare_per_scenario_optimal",
     _hook_matrix_bytes),
    ("dqa", "run_dqa", "dqa.run_dqa", None),
    ("oracle", "build_oracle", "oracle.build_oracle", _hook_matrix_bytes),
    ("qae", "qpe_state", "qae.qpe_state", _hook_qpe_state),
    ("qae", "build_grover", "qae.build_grover", None),
    ("qae", "build_A", "qae.build_A", None),
    ("qae", "run_qae", "qae.run_qae", None),
    ("qae", "mc_estimate_batch", "qae.mc_estimate_batch", None),
    ("harness", "outer_loop", "harness.outer_loop", None),
    ("harness", "experiment_fig3", "harness.experiment", None),
    ("harness", "experiment_fig4", "harness.experiment", None),
    ("harness", "experiment_fig5", "harness.experiment", None),
    ("harness", "write_csv", "harness.write_csv", _hook_write_csv),
)

SPANS = tuple(dict.fromkeys(span for _, _, span, _ in LAYERS))

# counters each span reports, with their units
COUNTERS = {
    "statevector.apply": (("dense.calls", "count"), ("dense.self_s", "s"),
                          ("dense.bytes_computed", "B"),
                          ("controlled.calls", "count"), ("controlled.self_s", "s"),
                          ("other.calls", "count"), ("other.self_s", "s")),
    "statevector.sample_register": (("shots", "count"),),
    "dqa.run_dqa_fast": (("amp_layers", "count"),),
    "dqa.build_dqa": (("gates", "count"),),
    "dqa.prepare_per_scenario_optimal": (("matrix_bytes", "B"),),
    "oracle.build_oracle": (("matrix_bytes", "B"),),
    "qae.qpe_state": (("grover_applications", "count"),),
    "harness.write_csv": (("rows", "count"), ("bytes", "B")),
}

KEYED_SPANS = ("model.cost_diagonal", "qae.qpe_state")


def spq_namespaces() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "spq" or name.startswith("spq."))]


class Tracer:
    """Wraps the LAYERS functions and accumulates per-span statistics."""

    def __init__(self):
        self.stats: dict[str, LayerStat] = {span: LayerStat() for span in SPANS}
        self.bookkeeping_s = 0.0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, span: str, fn, hook=None):
        stat = self.stats.setdefault(span, LayerStat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - frame[0]
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += own
            if hook is not None:
                hook_start = clock()
                hook(stat, own, args, kwargs, result)
                spent = clock() - hook_start
                self.bookkeeping_s += spent
                if stack:
                    stack[-1][0] += spent
            return result

        return traced

    def install(self) -> None:
        """Patch every spq namespace holding a LAYERS function object, so a
        function imported by name elsewhere (``harness`` imports
        ``run_dqa_fast``, ``qae`` imports ``apply_sequence``) is traced too."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        namespaces = spq_namespaces()
        for module, func, span, hook in LAYERS:
            original = getattr(sys.modules[f"spq.{module}"], func)
            wrapper = self.wrap(span, original, hook)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patches.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def untraced_references(self) -> list[str]:
        """``module.attr`` names in spq namespaces still bound to an
        unwrapped LAYERS function; empty when installation is complete."""
        originals = {id(original) for _, _, original in self._patches}
        return [f"{ns.__name__}.{attr}" for ns in spq_namespaces()
                for attr, value in vars(ns).items() if id(value) in originals]

    def self_time_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())


def layer_metrics(stats: dict[str, LayerStat]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from a tracer's stats."""
    out: dict[str, tuple[float, str]] = {}
    for span in SPANS:
        stat = stats.get(span, LayerStat())
        out[f"{span}.calls"] = (stat.calls, "count")
        out[f"{span}.self_s"] = (stat.self_s, "s")
        for counter, unit in COUNTERS.get(span, ()):
            out[f"{span}.{counter}"] = (stat.counters.get(counter, 0), unit)
        if span in KEYED_SPANS:
            # distinct inputs per call; 1.0 (nothing recomputed) when unused
            ratio = len(stat.keys) / stat.calls if stat.calls else 1.0
            out[f"{span}.useful_ratio"] = (ratio, "ratio")
    apply = stats.get("statevector.apply", LayerStat())
    out["statevector.apply.us_per_call"] = (
        1e6 * apply.self_s / apply.calls if apply.calls else 0.0, "us")
    fast = stats.get("dqa.run_dqa_fast", LayerStat())
    out["dqa.run_dqa_fast.amp_layers_per_s"] = (
        fast.counters.get("amp_layers", 0) / fast.self_s if fast.self_s else 0.0, "1/s")
    return out
