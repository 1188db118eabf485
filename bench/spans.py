"""Span tracing around twobox's public functions, and the per-layer metrics derived from it.

The tracer wraps, in every twobox module namespace, each public function
defined in the package, plus the public classmethods and staticmethods of
its classes (the alternate constructors and ``CountTable.from_records``).
A module binds the names it imports, so each namespace gets its own
wrapper, named after the lookup path (``twobox.cli.sweep_metric``); the
layer is the module that defines the function. Instance methods,
properties and constructors stay unwrapped: they are per-point accessors,
and their time counts as self time of the calling span.

Spans are kept in typed arrays and written once, when the traced round
ends. Each span has a name, start, end, parent span and round id, an
error flag and, for sweeps and samplers, a work count.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from array import array

import numpy as np

LAYERS = ("cli", "analysis", "quantum", "classical", "contextual", "montecarlo")
MODULES = ("twobox",) + tuple(f"twobox.{m}" for m in LAYERS)


def _total(result):
    return result.total


def _length(result):
    return len(result)


# Work counts recorded on spans, keyed by the function's own name.
COUNTERS = {
    "sweep_metric": _length,
    "sample_classical_trace": _length,
    "sample_quantum_trace": _length,
    "sample_joint": _total,
    "sample_classical_sweep": _length,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.layers: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.error = array("b")
        self._stack = [-1]
        self.round_id = -1

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.round.append(self.round_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.count.append(0)
        self.error.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _intern(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def wrap(self, fn, name: str, layer: str):
        nid = self._intern(name, layer)
        counter = COUNTERS.get(fn.__name__)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.error[idx] = 1
                raise
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer.count[idx] = counter(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every twobox namespace in place."""
        classes = {}
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not (getattr(obj, "__module__", None) or "").startswith("twobox."):
                    continue
                layer = obj.__module__.split(".")[1]
                if layer not in LAYERS:
                    continue
                if inspect.isfunction(obj):
                    setattr(mod, attr, self.wrap(obj, f"{modname}.{attr}", layer))
                elif inspect.isclass(obj):
                    classes[id(obj)] = (obj, layer)
        for cls, layer in classes.values():
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") or not isinstance(raw, (classmethod, staticmethod)):
                    continue
                name = f"{cls.__module__}.{cls.__qualname__}.{attr}"
                setattr(cls, attr, type(raw)(self.wrap(raw.__func__, name, layer)))

    @contextlib.contextmanager
    def root(self, round_id: int):
        """The root span of one round; every traced call inside it is a descendant."""
        self.round_id = round_id
        idx = self._open(self._intern("round", "round"))
        try:
            yield
        finally:
            self._close(idx)

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(json.dumps({"names": self.names, "layers": self.layers})),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            round=np.frombuffer(self.round, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            count=np.frombuffer(self.count, dtype=np.int64),
            error=np.frombuffer(self.error, dtype=np.int8),
        )


class Spans:
    """Spans loaded back from a saved trace, with self times and per-span layers."""

    def __init__(self, path: str):
        with np.load(path) as z:
            meta = json.loads(str(z["names"]))
            self.names = meta["names"]
            self.layer_names = meta["layers"]
            for key in ("name_id", "parent", "round", "start", "end", "count", "error"):
                setattr(self, key, z[key].copy())
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child_sum = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size)
        self.self_time = self.dur - child_sum[: self.dur.size]
        self._bases = [n.rsplit(".", 1)[-1] for n in self.names]
        # Spans are stored in the order they opened, so the descendants of
        # span i are exactly the spans i+1 .. subtree_end[i]-1.
        self.subtree_end = np.searchsorted(self.start, self.end, side="left")

    def in_layer(self, layer: str) -> np.ndarray:
        """Mask of the spans whose function is defined in ``layer``."""
        return np.isin(self.name_id, [i for i, name in enumerate(self.layer_names) if name == layer])

    def named(self, *functions: str) -> np.ndarray:
        """Mask of the spans of the given functions, whatever namespace they were called through."""
        return np.isin(self.name_id, [i for i, base in enumerate(self._bases) if base in functions])

    def contains(self, spans, mask) -> np.ndarray:
        """For each span index in ``spans``, whether its subtree holds a span in ``mask``."""
        cum = np.concatenate(([0], np.cumsum(mask)))
        return cum[self.subtree_end[spans]] > cum[spans + 1]

    def top(self, mask) -> np.ndarray:
        """The spans in ``mask`` that have no ancestor in ``mask`` (no double counting)."""
        idx = np.flatnonzero(mask)
        # Subtrees nest or are disjoint, so a masked span lies inside an
        # earlier masked one exactly when an earlier subtree reaches past it.
        reach = np.maximum.accumulate(np.concatenate(([0], self.subtree_end[idx][:-1])))
        out = np.zeros(mask.size, dtype=bool)
        out[idx[reach <= idx]] = True
        return out

    def check_links(self) -> list:
        """Problems with parent links and nesting; empty when the trace is well formed."""
        problems = []
        n = self.dur.size
        idx = np.arange(n)
        p = self.parent
        if np.any((p >= n) | ((p >= 0) & (p >= idx))):
            problems.append("a parent index does not precede its child")
        ok = p >= 0
        if np.any(self.round[ok] != self.round[p[ok]]):
            problems.append("a child span belongs to another round than its parent")
        if np.any(self.start[ok] < self.start[p[ok]]) or np.any(self.end[ok] > self.end[p[ok]]):
            problems.append("a child span is not inside its parent")
        if np.any(self.dur < 0):
            problems.append("a span ends before it starts")
        if any(self.names[i] != "round" for i in self.name_id[~ok]):
            problems.append("a span without parent is not a round root")
        return problems

    def rounds(self) -> dict:
        """Per round: wall time (root duration) and the sum of all self times in it."""
        roots = np.flatnonzero(self.parent < 0)
        out = {}
        for r in roots:
            in_round = self.round == self.round[r]
            out[int(self.round[r])] = (float(self.dur[r]), float(self.self_time[in_round].sum()))
        return out

    def layer_self(self, lo: int = 0, hi: int | None = None) -> dict:
        """Self time in seconds per layer over spans lo..hi-1."""
        ids = self.name_id[lo:hi]
        seconds = np.bincount(ids, weights=self.self_time[lo:hi], minlength=len(self.names))
        out = {}
        for i in np.unique(ids).tolist():
            layer = self.layer_names[i]
            out[layer] = out.get(layer, 0.0) + float(seconds[i])
        return dict(sorted(out.items()))

    def calls(self) -> list:
        """(name, wall, self seconds per layer) for each top-level call of a round, in order."""
        p = self.parent
        tops = np.flatnonzero((p >= 0) & (p[np.maximum(p, 0)] < 0))
        return [
            (self.names[self.name_id[i]], float(self.dur[i]), self.layer_self(i, self.subtree_end[i]))
            for i in tops.tolist()
        ]

    def layer_metrics(self) -> dict:
        """Per-layer metrics of all traced rounds together (the benchmark traces one round)."""
        top, named = self.top, self.named
        in_layer = {name: self.in_layer(name) for name in LAYERS}

        def busy(mask) -> float:
            return float(self.dur[top(mask)].sum())

        m = {}
        cli = in_layer["cli"]
        validate = cli & named("validate_result_document")
        m["cli.run_s"] = busy(cli & named("run"))
        m["cli.validate_s"] = busy(validate)
        m["cli.self_s"] = float(self.self_time[cli & ~validate].sum())

        an = in_layer["analysis"]
        sweeps = top(an & named("sweep_metric"))
        m["analysis.sweep_s"] = float(self.dur[sweeps].sum())
        m["analysis.self_s"] = float(self.self_time[an].sum())
        m["analysis.points"] = int(self.count[sweeps].sum())
        m["analysis.fit_s"] = busy(an & named("fit_power_law", "weak_limit_extrapolate", "richardson_extrapolate"))

        for layer in ("quantum", "classical", "contextual"):
            m[f"{layer}.calls"] = int(in_layer[layer].sum())
        m["quantum.busy_s"] = busy(in_layer["quantum"])
        sweep_idx = np.flatnonzero(sweeps)
        quantum_points = int(self.count[sweep_idx[self.contains(sweep_idx, in_layer["quantum"])]].sum())
        m["quantum.us_per_point"] = m["quantum.busy_s"] / quantum_points * 1e6 if quantum_points else 0.0
        m["classical.busy_s"] = busy(in_layer["classical"])
        m["classical.min_disturbance_s"] = busy(in_layer["classical"] & named("min_disturbance_for_value"))

        mc = in_layer["montecarlo"]
        traces = top(mc & named("sample_classical_trace", "sample_quantum_trace"))
        m["montecarlo.trace_s"] = float(self.dur[traces].sum())
        m["montecarlo.records"] = int(self.count[traces].sum())
        m["montecarlo.count_s"] = busy(mc & named("from_records"))
        m["montecarlo.sample_s"] = busy(mc & named("sample_joint", "sample_classical", "sample_quantum", "sample_classical_sweep"))
        m["montecarlo.draws"] = int(self.count[mc & named("sample_joint")].sum())
        keyed = top(mc & named("sample_classical_sweep"))
        keyed_s = float(self.dur[keyed].sum())
        m["montecarlo.keyed_points_per_s"] = float(self.count[keyed].sum()) / keyed_s if keyed_s > 0 else 0.0
        m["montecarlo.gof_s"] = busy(mc & named("gof_test"))

        for layer in LAYERS:
            m[f"{layer}.errors"] = int(self.error[in_layer[layer]].sum())
        return m
