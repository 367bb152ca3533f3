"""Per-layer spans and work counters, recorded from outside ddlab.

The layers of ddlab call each other through module attributes (`from .x
import f` binds f in the caller's module).  `Tracer.installed()` swaps a
recording wrapper into each of those attributes and puts the originals
back on exit, so ddlab's own code is never edited.  Each wrapper records
a span (name, start, end, parent, op id) in memory and bumps the counters
of its layer.  A layer's self time is the time of its spans minus the time
covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name, layer): the attribute is the name through
# which the caller reaches the callee, so the span belongs to the callee
SEAMS = (
    ("ddlab.cli", "storage_time", "analysis.storage_time", "analysis"),
    ("ddlab.cli", "min_pulses", "analysis.min_pulses", "analysis"),
    ("ddlab.cli", "compare_schemes", "analysis.compare_schemes", "analysis"),
    ("ddlab.analysis", "storage_time", "analysis.storage_time", "analysis"),
    ("ddlab.analysis", "_chi_raw", "decoherence.chi_raw", "decoherence"),
    ("ddlab.analysis", "signal", "decoherence.signal", "decoherence"),
    ("ddlab.decoherence", "integrate_adaptive", "quadrature.integrate", "quadrature"),
    ("ddlab.decoherence", "y_abs_sq_array", "filters.y_abs_sq", "filters"),
    ("ddlab.decoherence", "x_factor_array", "filters.x", "filters"),
    ("ddlab.decoherence", "integrand_weight", "bath.integrand_weight", "bath"),
    ("ddlab.decoherence", "spectral_density", "bath.spectral_density", "bath"),
    ("ddlab.filters", "y_factor_array", "filters.y", "filters"),
    ("ddlab.filters", "bessel_approx", "filters.bessel_approx", "filters"),
    ("ddlab.filters", "bessel_j", "special.bessel_j", "special"),
    ("ddlab.montecarlo", "_draw_amplitudes", "montecarlo.draw", "montecarlo"),
    ("ddlab.montecarlo", "_segment_layout", "montecarlo.segment_layout", "montecarlo"),
)

# spans opened by the benchmark around its own calls into ddlab, and the
# integrand span that the integrate_adaptive wrapper opens around f
ENTRY_LAYERS = {
    "bench.op": "bench",
    "cli.main": "cli",
    "decoherence.signal": "decoherence",
    "decoherence.chi": "decoherence",
    "decoherence.integrand": "decoherence",
    "montecarlo.mc_signal": "montecarlo",
}
LAYER_OF = {**ENTRY_LAYERS, **{name: layer for _, _, name, layer in SEAMS}}

# (name, unit, better) of every per-layer metric, in report order
METRICS = (
    ("analysis.solves", "count", "lower"),
    ("analysis.chi_per_solve", "count", "lower"),
    ("analysis.min_pulses.solves", "count", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("quadrature.calls", "count", "lower"),
    ("quadrature.rounds_per_call", "count", "lower"),
    ("quadrature.nodes_per_call", "count", "lower"),
    ("quadrature.self_s", "s", "lower"),
    ("quadrature.failures", "count", "lower"),
    ("filters.y.nodes", "count", "lower"),
    ("filters.y.terms", "count", "lower"),
    ("filters.y.self_s", "s", "lower"),
    ("filters.x.terms", "count", "lower"),
    ("filters.x.self_s", "s", "lower"),
    ("filters.ns_per_term", "ns", "lower"),
    ("filters.bessel_nodes", "count", "lower"),
    ("filters.delegated_fraction", "ratio", "higher"),
    ("special.bessel_j.nodes", "count", "lower"),
    ("special.bessel_j.self_s", "s", "lower"),
    ("bath.nodes", "count", "lower"),
    ("bath.self_s", "s", "lower"),
    ("decoherence.chi.calls", "count", "lower"),
    ("decoherence.phase.calls", "count", "lower"),
    ("decoherence.self_s", "s", "lower"),
    ("montecarlo.trajectories", "count", "lower"),
    ("montecarlo.draw_s", "s", "lower"),
    ("montecarlo.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# counters that depend only on the inputs and must repeat exactly
EXACT = (
    "analysis.solves", "analysis.chi_per_solve", "analysis.min_pulses.solves",
    "quadrature.calls", "quadrature.rounds_per_call", "quadrature.nodes_per_call",
    "quadrature.failures", "filters.y.nodes", "filters.y.terms", "filters.x.terms",
    "filters.bessel_nodes", "filters.delegated_fraction", "special.bessel_j.nodes",
    "bath.nodes", "decoherence.chi.calls", "decoherence.phase.calls",
    "montecarlo.trajectories", "cli.bytes_out",
)


def _size(a) -> int:
    return int(np.size(a))


class Tracer:
    """Spans and counters of one traced pass; `reset()` starts the next."""

    def __init__(self):
        self._originals = []
        self.reset()

    def reset(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self._stack = []
        self.op_id = -1
        self.counts = defaultdict(int)
        self._y_pairs = []       # (y from the direct sum, |y|^2 returned)
        self._last_y = None

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def call(self, name, fn, *args, **kwargs):
        """The traced `call`: fn(*args) inside a span of the given name."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    @contextlib.contextmanager
    def op(self, op_id: int):
        self.op_id = op_id
        index = self._open("bench.op")
        try:
            yield
        finally:
            self._close(index)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _before_analysis_storage_time(self, args, kwargs):
        self.counts["analysis.solves"] += 1
        if self._inside("analysis.min_pulses"):
            self.counts["analysis.min_pulses.solves"] += 1

    def _before_decoherence_chi_raw(self, args, kwargs):
        if self._inside("analysis.storage_time"):
            self.counts["chi_in_solves"] += 1

    _before_decoherence_signal = _before_decoherence_chi_raw

    def _before_bath_integrand_weight(self, args, kwargs):
        self.counts["bath.nodes"] += _size(args[1])

    _before_bath_spectral_density = _before_bath_integrand_weight

    def _before_filters_y(self, args, kwargs):
        nodes = _size(args[1])
        self.counts["filters.y.nodes"] += nodes
        self.counts["filters.y.terms"] += nodes * (args[0].n + 2)

    def _after_filters_y(self, args, result):
        self._last_y = result

    def _before_filters_y_abs_sq(self, args, kwargs):
        self._last_y = None

    def _after_filters_y_abs_sq(self, args, result):
        if self._last_y is not None:
            self._y_pairs.append((self._last_y, result))

    def _before_filters_x(self, args, kwargs):
        self.counts["filters.x.terms"] += _size(args[1]) * (args[0].n + 1)

    def _before_filters_bessel_approx(self, args, kwargs):
        self.counts["filters.bessel_nodes"] += _size(args[1])

    def _before_special_bessel_j(self, args, kwargs):
        self.counts["special.bessel_j.nodes"] += _size(args[1])

    def _before_montecarlo_draw(self, args, kwargs):
        self.counts["montecarlo.trajectories"] += 1

    def _integrate(self, fn):
        """integrate_adaptive, with the integrand f wrapped in its own span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            kind = "chi" if "_chi_raw" in f.__qualname__ else "phase"
            tracer.counts[f"decoherence.{kind}.calls"] += 1
            tracer.counts["quadrature.calls"] += 1

            def integrand(w):
                tracer.counts["quadrature.rounds"] += 1
                tracer.counts["quadrature.nodes"] += _size(w)
                return tracer.call("decoherence.integrand", f, w)

            index = tracer._open("quadrature.integrate")
            try:
                return fn(integrand, *args, **kwargs)
            except Exception:
                tracer.counts["quadrature.failures"] += 1
                raise
            finally:
                tracer._close(index)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in; on exit put every original back."""
        self._originals = []
        try:
            for module_name, attr, name, _ in SEAMS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                if attr == "integrate_adaptive":
                    setattr(module, attr, self._integrate(original))
                else:
                    setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(self._originals):
                setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every seam holds its original function again."""
        return all(getattr(m, a) is o for m, a, o in self._originals)

    # -- per-layer numbers ----------------------------------------------------

    def self_times(self):
        """Self time of every span, summed per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def layer_metrics(self) -> dict:
        c = self.counts
        by_name = self.self_times()
        by_layer = defaultdict(float)
        for name, seconds in by_name.items():
            by_layer[LAYER_OF[name]] += seconds
        draw_s = sum(e - s for name, s, e, _, _ in self.spans if name == "montecarlo.draw")
        delegated = sum(int(np.count_nonzero(np.abs(y) ** 2 != ysq)) for y, ysq in self._y_pairs)
        ysq_nodes = sum(_size(ysq) for _, ysq in self._y_pairs)
        terms = c["filters.y.terms"] + c["filters.x.terms"]
        calls = c["quadrature.calls"]
        return {
            "analysis.solves": c["analysis.solves"],
            "analysis.chi_per_solve": c["chi_in_solves"] / c["analysis.solves"]
            if c["analysis.solves"] else 0.0,
            "analysis.min_pulses.solves": c["analysis.min_pulses.solves"],
            "analysis.self_s": by_layer["analysis"],
            "quadrature.calls": calls,
            "quadrature.rounds_per_call": c["quadrature.rounds"] / calls if calls else 0.0,
            "quadrature.nodes_per_call": c["quadrature.nodes"] / calls if calls else 0.0,
            "quadrature.self_s": by_layer["quadrature"],
            "quadrature.failures": c["quadrature.failures"],
            "filters.y.nodes": c["filters.y.nodes"],
            "filters.y.terms": c["filters.y.terms"],
            "filters.y.self_s": by_name["filters.y"],
            "filters.x.terms": c["filters.x.terms"],
            "filters.x.self_s": by_name["filters.x"],
            "filters.ns_per_term": 1e9 * (by_name["filters.y"] + by_name["filters.x"]) / terms
            if terms else 0.0,
            "filters.bessel_nodes": c["filters.bessel_nodes"],
            "filters.delegated_fraction": delegated / ysq_nodes if ysq_nodes else 0.0,
            "special.bessel_j.nodes": c["special.bessel_j.nodes"],
            "special.bessel_j.self_s": by_layer["special"],
            "bath.nodes": c["bath.nodes"],
            "bath.self_s": by_layer["bath"],
            "decoherence.chi.calls": c["decoherence.chi.calls"],
            "decoherence.phase.calls": c["decoherence.phase.calls"],
            "decoherence.self_s": by_layer["decoherence"],
            "montecarlo.trajectories": c["montecarlo.trajectories"],
            "montecarlo.draw_s": draw_s,
            "montecarlo.self_s": by_layer["montecarlo"],
            "cli.self_s": by_layer["cli"],
        }

    def write_spans(self, path) -> None:
        """Write the spans as CSV, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,layer,start_s,end_s\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{parent},{op},{name},{LAYER_OF[name]},"
                         f"{start - t0:.9f},{end - t0:.9f}\n")
