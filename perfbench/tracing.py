"""Span tracing of the ecloner package from outside it.

`Tracer.install` wraps every public function of each traced module (plus a
few named private ones) and binds the wrapper on every package module that
holds the function, so calls through ``from .gaussian import apply`` in
`circuits` are caught as well as calls inside `gaussian` itself.  No package
file is edited; `Tracer.uninstall` restores the originals.

A span is (name, start, end, parent, invocation).  Spans stay in memory in
flat arrays until `Tracer.write` stores them at the end of a run.
"""

import functools
import gzip
import inspect
import json
import sys
import time
import tracemalloc
from array import array

import numpy as np

# Layer name -> module.  The layer is what per-layer metrics are named by.
LAYERS = {
    "gaussian": "ecloner.gaussian",
    "circuits": "ecloner.circuits",
    "criteria": "ecloner.criteria",
    "fidelity": "ecloner.fidelity",
    "montecarlo": "ecloner.montecarlo",
    "kernels": "ecloner._kernels",
    "cli": "ecloner.cli",
}
PRIVATE = {"cli": ("_bisect_crossing",)}
# Functions whose tracemalloc peak a memory tracer records.  tracemalloc
# doubles the cost of a 5k-shot call, so timed tracers leave it off.
MEMORY_TRACED = {"montecarlo.sample_circuit"}
# Functions whose result is kept with the span, reduced to one number.
NOTES = {
    "gaussian.symplectic_eigenvalues": lambda r: float(np.min(r)),
    "montecarlo.sample_circuit": lambda r: r.shots,
    "kernels.propagate": lambda r: r.shape[0],
}
CRITERIA = (
    "criteria.correlation_matrix",
    "criteria.correlation_matrix_from_cov",
    "criteria.inseparability",
    "criteria.epr_paradox",
)
# Every function a per-layer metric reads; missing ones are reported absent.
USED = (
    "gaussian.symplectic_eigenvalues",
    "gaussian.apply",
    "circuits.epr_source",
    "circuits.local_ecloner",
    "circuits.global_ecloner",
    "circuits.linear_cloner",
    *CRITERIA,
    "fidelity.pure_mixed_fidelity",
    "montecarlo.sample_circuit",
    "montecarlo.estimate_criteria",
    "kernels.propagate",
    "kernels.active_backend",
    "cli.main",
    "cli._bisect_crossing",
)
MB = 1e6


class Tracer:
    def __init__(self, memory=False):
        self.memory = memory
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_invocation = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.notes = {}
        self.peaks = {}
        self.invocation = -1
        self._stack = []
        self._patches = []

    def install(self):
        """Wrap the traced functions; returns the USED names that are absent."""
        package = [m for n, m in sys.modules.items() if n == "ecloner" or n.startswith("ecloner.")]
        for layer, module_name in LAYERS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module_name:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                for holder in package:
                    for bound_name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, bound_name, fn))
                            setattr(holder, bound_name, wrapper)
        return [name for name in USED if name not in self.name_ids]

    def uninstall(self):
        for holder, bound_name, fn in reversed(self._patches):
            setattr(holder, bound_name, fn)
        self._patches.clear()

    def begin_invocation(self):
        self.invocation += 1

    def _wrap(self, fn, name):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        note = NOTES.get(name)
        memory = self.memory and name in MEMORY_TRACED
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_invocation.append(tracer.invocation)
            tracer.span_end.append(0)
            stack.append(sid)
            if memory:
                tracemalloc.start()
            tracer.span_start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[sid] = time.perf_counter_ns()
                stack.pop()
                if memory:
                    tracer.peaks[sid] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if note is not None:
                tracer.notes[sid] = note(result)
            return result

        return traced

    def write(self, path, meta):
        payload = {
            **meta,
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "invocation"],
            "spans": list(
                zip(
                    self.span_name,
                    self.span_start,
                    self.span_end,
                    self.span_parent,
                    self.span_invocation,
                )
            ),
        }
        with gzip.open(path, "wt") as stream:
            json.dump(payload, stream, separators=(",", ":"))

    def metrics(self, spectral_tol):
        """Per-layer metrics: per-invocation figures are medians over invocations."""
        name = np.frombuffer(self.span_name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32).astype(np.int64)
        inv = np.frombuffer(self.span_invocation, dtype=np.int32).astype(np.int64)
        dur = (
            np.frombuffer(self.span_end, dtype=np.int64)
            - np.frombuffer(self.span_start, dtype=np.int64)
        ) / 1e9
        n_inv = self.invocation + 1
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        span_layer = np.array([n.split(".")[0] for n in self.names], dtype=object)[name]
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def ids(*wanted):
            return [self.name_ids[w] for w in wanted if w in self.name_ids]

        def select(*wanted):
            return np.isin(name, ids(*wanted))

        def outermost(*wanted):
            """Spans of ``wanted`` not nested directly in another of ``wanted``."""
            return select(*wanted) & ~np.isin(parent_name, ids(*wanted))

        def per_invocation(mask, values):
            totals = np.bincount(inv[mask], weights=values[mask], minlength=n_inv)
            return float(np.median(totals)) if n_inv else 0.0

        def total_s(*wanted):
            return per_invocation(outermost(*wanted), dur)

        def calls(*wanted):
            return per_invocation(outermost(*wanted), np.ones_like(dur))

        def median_call_s(wanted):
            picked = dur[select(wanted)]
            return float(np.median(picked)) if len(picked) else 0.0

        def noted(wanted):
            return [self.notes[int(s)] for s in np.flatnonzero(select(wanted))]

        def rate(wanted):
            mask = select(wanted)
            seconds = dur[mask].sum()
            return sum(noted(wanted)) / 1e6 / seconds if seconds > 0 else 0.0

        eigen_minima = noted("gaussian.symplectic_eigenvalues")
        out = {
            "gaussian.validations": calls("gaussian.symplectic_eigenvalues"),
            "gaussian.validate_s": total_s("gaussian.symplectic_eigenvalues"),
            "gaussian.apply_calls": calls("gaussian.apply"),
            "gaussian.apply_s": total_s("gaussian.apply"),
            "gaussian.min_margin": (
                min(eigen_minima) - (1.0 - spectral_tol) if eigen_minima else 0.0
            ),
            "circuits.epr_source_s": median_call_s("circuits.epr_source"),
            "circuits.local_ecloner_s": median_call_s("circuits.local_ecloner"),
            "circuits.global_ecloner_s": median_call_s("circuits.global_ecloner"),
            "circuits.global_ecloner_calls": calls("circuits.global_ecloner"),
            "circuits.linear_cloner_calls": calls("circuits.linear_cloner"),
            "criteria.calls": calls(*CRITERIA),
            "criteria.s": total_s(*CRITERIA),
            "fidelity.calls": calls("fidelity.pure_mixed_fidelity"),
            "fidelity.pure_mixed_fidelity_s": total_s("fidelity.pure_mixed_fidelity"),
            "montecarlo.sample_circuit_s": median_call_s("montecarlo.sample_circuit"),
            "montecarlo.sample_self_s": per_invocation(
                select("montecarlo.sample_circuit"), self_time
            ),
            "montecarlo.estimate_criteria_s": total_s("montecarlo.estimate_criteria"),
            "montecarlo.mshots_per_s": rate("montecarlo.sample_circuit"),
            "kernels.propagate_s": total_s("kernels.propagate"),
            "kernels.propagate_mshots_per_s": rate("kernels.propagate"),
            "cli.bisect_s": total_s("cli._bisect_crossing"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = per_invocation(span_layer == layer, self_time)
        out["trace.spans"] = per_invocation(np.ones_like(dur, dtype=bool), np.ones_like(dur))
        self_sums = np.bincount(inv, weights=self_time, minlength=n_inv)
        return out, [float(s) for s in self_sums]

    def peak_mb_per_mshot(self):
        """Largest tracemalloc peak of a memory-traced call, per million shots."""
        return max(
            (peak / MB / (self.notes[sid] / 1e6) for sid, peak in self.peaks.items()),
            default=0.0,
        )
