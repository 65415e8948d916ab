"""Spans around the public entry points of each ``repro`` layer.

The traced run patches each entry point at the module where it is
*called*: ``from x import y`` binds the name early, so wrapping the
definition would miss every caller that imported it.  Methods and
class methods are patched on their class.  Spans live in memory and
are reduced to per-layer figures (or written as JSON by the traced
server launcher) when the run ends.

Span names are ``<layer>.<what>``.  Every span counts towards the
layer self time that ``unattributed_s`` subtracts from the wall.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import Counter

from arith import Span, self_time_by_name


class Tracer:
    """In-memory span and counter recorder, one span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._local.stack.pop()

    def rename(self, index: int, name: str) -> None:
        self.spans[index].name = name

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def dump(self, path: str) -> None:
        payload = {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream)

    @staticmethod
    def load(path: str) -> tuple[list[Span], Counter]:
        with open(path, encoding="utf-8") as stream:
            payload = json.load(stream)
        spans = [Span(name, start, end, parent)
                 for name, start, end, parent in payload["spans"]]
        return spans, Counter(payload["counts"])


# -- per-call hooks: (tracer, span index, args, result) -> replacement ---
# A hook that returns something other than None replaces the result.

def _on_execute(tracer, index, args, result):
    tracer.count("workloads.synth_calls")
    tracer.count("workloads.branches_generated", len(result))


def _on_fast(tracer, index, args, result):
    if result is None:
        tracer.rename(index, "kernels.probe")
        return
    tracer.count("kernels.fast_calls")
    tracer.count("kernels.fast_branches", len(args[0]))


def _on_simulate(tracer, index, args, result):
    tracer.count("core.simulate_calls")
    tracer.count("core.branches", result.branches)


def _counter(name):
    def hook(tracer, index, args, result):
        tracer.count(name)
    return hook


def _on_get(name):
    def hook(tracer, index, args, result):
        tracer.count(f"{name}.calls")
        if result is not None:
            tracer.count(f"{name}.hits")
    return hook


def _on_get_experiment(tracer, index, args, result):
    return _wrap(tracer, "experiments.serial", result, None)


#: (module, attribute or "Class.method", span name, hook).  Each row is
#: one call site binding; the experiment context imports most layer
#: entry points, the simulator calls its own ``simulate`` from
#: ``run_combined`` and reaches kernels through ``try_fast_simulate``.
TARGETS = [
    ("repro.workloads.generator", "SyntheticWorkload.execute",
     "workloads.synth", _on_execute),
    ("repro.experiments.common", "build_workload", "workloads.build", None),
    ("repro.experiments.table1", "characterize", "workloads.characterize", None),
    ("repro.profiling.profile", "ProgramProfile.from_trace",
     "profiling.profile", _counter("profiling.calls")),
    ("repro.experiments.common", "measure_accuracy",
     "profiling.accuracy", _counter("profiling.calls")),
    ("repro.experiments.common", "measure_collision_involvement",
     "profiling.collision", _counter("profiling.calls")),
    ("repro.experiments.common", "select_static_95", "staticpred.select", None),
    ("repro.experiments.common", "select_static_acc", "staticpred.select", None),
    ("repro.experiments.common", "select_static_fac", "staticpred.select", None),
    ("repro.experiments.common", "select_static_collision",
     "staticpred.select", None),
    ("repro.experiments.common", "select_static_iterative",
     "staticpred.select", None),
    ("repro.runner.cells", "select_static_95", "staticpred.select", None),
    ("repro.experiments.common", "simulate", "core.simulate", _on_simulate),
    ("repro.core.simulator", "simulate", "core.simulate", _on_simulate),
    ("repro.experiments.common", "run_combined", "core.combined",
     _counter("core.combined_calls")),
    ("repro.core.simulator", "try_fast_simulate", "kernels.fast", _on_fast),
    ("repro.runner.cache", "ResultCache.get_result", "runner.cache_get",
     _on_get("runner.results")),
    ("repro.runner.cache", "ResultCache.get_hints", "runner.cache_get",
     _on_get("runner.hints")),
    ("repro.runner.cache", "ResultCache.put_result", "runner.cache_put", None),
    ("repro.runner.cache", "ResultCache.put_hints", "runner.cache_put", None),
    ("repro.runner.engine", "execute_cell", "runner.cell",
     _counter("runner.cells_simulated")),
    ("repro.runner.engine", "CellExecutor.execute", "runner.execute", None),
    ("repro.experiments.registry", "synthesize", "experiments.synthesize", None),
    ("repro.experiments.registry", "get_experiment", "experiments.lookup",
     _on_get_experiment),
    ("repro.experiments.extras", "classify_branches", "analysis.classify", None),
]


def _wrap(tracer, name, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if hook is not None:
            replaced = hook(tracer, index, args, result)
            if replaced is not None:
                return replaced
        return result
    return traced


def install(tracer: Tracer):
    """Patch every target; returns a function that restores them all."""
    restore = []
    for module_name, attribute, name, hook in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, leaf)
        if isinstance(original, classmethod):
            method = _wrap(tracer, name, original.__func__, hook)
            # The class-method hook sees (cls, trace) as its arguments.
            patched = classmethod(method)
        else:
            patched = _wrap(tracer, name, original, hook)
        setattr(owner, leaf, patched)
        restore.append((owner, leaf, original))

    def uninstall():
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)
    return uninstall


# -- reduction to per-layer metrics ---------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list[Span], counts: Counter
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer self times and counts from one traced pass, plus the
    self time per span name they were summed from.  ``serial_s`` is
    inclusive: its runners' work is attributed to the layers below."""
    own = self_time_by_name(spans)

    def s(name):
        return own.get(name, 0.0)

    simulate_calls = counts["core.simulate_calls"]
    return {
        "workloads.synth_s": s("workloads.synth"),
        "workloads.synth_calls": counts["workloads.synth_calls"],
        "workloads.branches_generated": counts["workloads.branches_generated"],
        "workloads.build_s": s("workloads.build"),
        "workloads.characterize_s": s("workloads.characterize"),
        "profiling.profile_s": s("profiling.profile"),
        "profiling.accuracy_s": s("profiling.accuracy"),
        "profiling.collision_s": s("profiling.collision"),
        "profiling.calls": counts["profiling.calls"],
        "staticpred.select_s": s("staticpred.select"),
        "core.simulate_s": s("core.simulate"),
        "core.simulate_calls": simulate_calls,
        "core.combined_calls": counts["core.combined_calls"],
        "core.reference_branches":
            counts["core.branches"] - counts["kernels.fast_branches"],
        "kernels.fast_s": s("kernels.fast"),
        "kernels.fast_calls": counts["kernels.fast_calls"],
        "kernels.fast_branches": counts["kernels.fast_branches"],
        "kernels.fast_ratio": _ratio(counts["kernels.fast_calls"], simulate_calls),
        "runner.cache_put_s": s("runner.cache_put"),
        "runner.cache_get_s": s("runner.cache_get"),
        "runner.cache_hit_ratio": _ratio(counts["runner.results.hits"],
                                         counts["runner.results.calls"]),
        "runner.hint_hit_ratio": _ratio(counts["runner.hints.hits"],
                                        counts["runner.hints.calls"]),
        "runner.cells_simulated": counts["runner.cells_simulated"],
        "experiments.synthesize_s": s("experiments.synthesize"),
        "experiments.serial_s": sum(span.duration for span in spans
                                    if span.name == "experiments.serial"),
        "analysis.classify_s": s("analysis.classify"),
    }, own
