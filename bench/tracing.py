"""In-memory span tracing of fiberdd layers, installed from outside.

The tracer wraps public functions of the package and records one span
per call: (name, start, end, parent, task).  ``from .x import y`` copies
a binding, so each function is replaced in *every* ``fiberdd.*``
namespace that binds it, and ``uninstall`` puts the originals back.  A
listed name that the package no longer has is skipped.  The integrand
handed to ``integrate_panels`` is wrapped as well, so quadrature points
are counted exactly where they are evaluated.

A layer's self time is the duration of its spans minus the time covered
by their direct child spans.  Spans are recorded only while a task is
running, never during output checks.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

_clock = time.perf_counter


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters of the traced tasks of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.task_costs: list[list] = []
        self.task = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def begin_task(self, index: int) -> None:
        self.task = index
        self.task_costs.append([])

    def end_task(self) -> None:
        self.task = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, _clock(), None, parent, self.task])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    def _call(self, name: str, fn, args, kwargs):
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every namespace binding it."""
        for module_name, attr, span, hook in _TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module else None
            if original is None:
                continue
            self._rebind(original, self._wrap(span, original, hook))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _rebind(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "fiberdd"
                                      or module_name.startswith("fiberdd.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _wrap(self, span: str, fn, hook):
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            if hook is None:
                return self._call(span, fn, args, kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return hook(self, span, fn, bound)

        return wrapper

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span durations minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[_layer(name)] += (end - start) - child[i]
        return dict(out)

    def inclusive(self, name: str) -> tuple[int, float]:
        """(calls, total duration) of the spans with this name."""
        spans = [s for s in self.spans if s[0] == name]
        return len(spans), sum(end - start for _, start, end, _, _ in spans)

    def calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if _layer(s[0]) == layer)

    def dump(self, path) -> None:
        """Write spans and per-task cost records as JSON."""
        payload = {
            "span_fields": ["name", "start", "end", "parent", "task"],
            "spans": self.spans,
            "task_costs": [
                [{"L": L, "N": n, "uv": uv, "cost_units": L * uv * (n + 1)}
                 for L, n, uv in costs]
                for costs in self.task_costs],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- per-function hooks ----------------------------------------------------
# Each hook receives the bound arguments, runs the call inside a span and
# records the counters of its layer.

def _filter_hook(tracer: Tracer, span, fn, bound):
    points = int(np.size(bound.arguments["omega"]))
    segments = int(np.size(bound.arguments["positions"])) + 1
    tracer.counts["filters.points"] += points
    tracer.counts["filters.segment_points"] += points * segments
    return tracer._call(span, fn, bound.args, bound.kwargs)


def _quadrature_hook(tracer: Tracer, span, fn, bound):
    integrand = bound.arguments["fn"]
    # The integrand's own work belongs to the layer that defined it.
    integrand_span = integrand.__module__.rsplit(".", 1)[-1] + ".integrand"
    rounds = 0

    def counted(x):
        nonlocal rounds
        rounds += 1
        tracer.counts["quadrature.integrand_points"] += int(np.size(x))
        return tracer._call(integrand_span, integrand, (x,), {})

    bound.arguments["fn"] = counted
    try:
        result = tracer._call(span, fn, bound.args, bound.kwargs)
    except Exception as exc:
        tracer.counts["quadrature.panels"] += int(getattr(exc, "panels", 0))
        raise
    finally:
        tracer.counts["quadrature.refine_rounds"] += max(rounds - 1, 0)
    tracer.counts["quadrature.panels"] += int(result.panels)
    return result


def _overlap_hook(tracer: Tracer, span, fn, bound):
    length = float(bound.arguments["length"])
    pulses = int(np.size(bound.arguments["positions"]))
    uv = float(bound.arguments["spectrum"].uv_cutoff)
    tracer.task_costs[-1].append((length, pulses, uv))
    tracer.counts["cost.units"] += length * uv * (pulses + 1)
    quadrature_error = sys.modules["fiberdd.quadrature"].QuadratureError
    try:
        return tracer._call(span, fn, bound.args, bound.kwargs)
    except quadrature_error:
        tracer.counts["dephasing.unconverged"] += 1
        raise


def _mc_hook(tracer: Tracer, span, fn, bound):
    settings = bound.arguments["settings"]
    tracer.counts["montecarlo.trials"] += int(settings.trials)
    return tracer._call(span, fn, bound.args, bound.kwargs)


_EVOLUTION = ("decoherence_curve", "esd_length", "refine_esd",
              "min_pulses_for_target", "coherence_at", "concurrence_at")

# (module, function, span name, hook); hook None records the span only.
_TARGETS = [
    ("fiberdd.filters", "filter_generic", "filters.filter_generic",
     _filter_hook),
    ("fiberdd.quadrature", "integrate_panels", "quadrature.integrate_panels",
     _quadrature_hook),
    ("fiberdd.dephasing", "overlap_from_positions", "dephasing.overlap",
     _overlap_hook),
    ("fiberdd.dephasing", "coherence_factor", "dephasing.coherence_factor",
     None),
    *(("fiberdd.evolution", name, f"evolution.{name}", None)
      for name in _EVOLUTION),
    ("fiberdd.states", "concurrence", "states.concurrence", None),
    ("fiberdd.montecarlo", "mc_coherence", "montecarlo.mc_coherence",
     _mc_hook),
    ("fiberdd.cli", "main", "cli.main", None),
]


def layer_metrics(tracer: Tracer, tasks: int) -> dict[str, float]:
    """Per-layer numbers of the traced tasks (totals unless named per-)."""
    counts = tracer.counts
    selfs = tracer.self_times()
    filter_calls, filter_s = tracer.inclusive("filters.filter_generic")
    quad_calls, _ = tracer.inclusive("quadrature.integrate_panels")
    overlap_calls, overlap_s = tracer.inclusive("dephasing.overlap")
    coherence_calls, _ = tracer.inclusive("dephasing.coherence_factor")
    conc_calls, conc_s = tracer.inclusive("states.concurrence")
    mc_calls, mc_s = tracer.inclusive("montecarlo.mc_coherence")
    cli_calls, _ = tracer.inclusive("cli.main")
    points = counts["quadrature.integrand_points"]
    panels = counts["quadrature.panels"]
    seg_points = counts["filters.segment_points"]
    cost = counts["cost.units"]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "filters.calls": filter_calls,
        "filters.points": counts["filters.points"],
        "filters.segment_points": seg_points,
        "filters.s": filter_s,
        "filters.ns_per_segment_point": ratio(filter_s * 1e9, seg_points),
        "filters.segment_points_per_cost_unit": ratio(seg_points, cost),
        "quadrature.calls": quad_calls,
        "quadrature.panels": panels,
        "quadrature.integrand_points": points,
        "quadrature.refine_rounds": counts["quadrature.refine_rounds"],
        "quadrature.self_s": selfs.get("quadrature", 0.0),
        "quadrature.points_per_panel": ratio(points, panels),
        "quadrature.points_per_cost_unit": ratio(points, cost),
        "cost.units": cost,
        "dephasing.overlap_calls": overlap_calls,
        "dephasing.overlap_s": overlap_s,
        "dephasing.self_s": selfs.get("dephasing", 0.0),
        "dephasing.unconverged": counts["dephasing.unconverged"],
        "dephasing.coherence_calls": coherence_calls,
        "evolution.calls": tracer.calls("evolution"),
        "evolution.self_s": selfs.get("evolution", 0.0),
        "evolution.overlaps_per_task": ratio(overlap_calls, tasks),
        "states.concurrence_calls": conc_calls,
        "states.s": conc_s,
        "montecarlo.calls": mc_calls,
        "montecarlo.trials": counts["montecarlo.trials"],
        "montecarlo.s": mc_s,
        "cli.calls": cli_calls,
        "cli.self_s": selfs.get("cli", 0.0),
    }
