"""Span recorder and the layer wrappers of the traced run.

:func:`install` replaces each layer's public function with a wrapper that
records a span (name, start, end, parent) in memory.  A wrapper goes on the
name the caller looks up: the engine and runner import ``technology_map``,
``run_flow``, ``cut_set_for``, ``build_library`` and ``render_*`` by name,
so those are patched in the importing module, methods on their class.
Nothing under ``src/`` changes.

A layer's self time is its spans' duration minus the time their child
spans cover.  Spans nest strictly (the wrapped calls all run on the main
thread), so the self times of all spans add up to the time covered by the
top-level spans, and ``trace.unattributed_s`` is the traced wall minus
that sum.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Recorder:
    """In-memory spans and counts of one traced run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: Netlists returned by ``technology_map``, for :mod:`perfbench.gate`.
        self.netlists: list = []
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        # Memoized results (cut sets, function and match tables) are counted
        # once per object, however many callers fetch them.  Keyed by id with
        # a weak reference to tell a reused id from the same object: the
        # results are unhashable dataclasses over arrays.
        self._seen: dict[int, weakref.ref] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def first_sighting(self, obj) -> bool:
        seen = self._seen.get(id(obj))
        if seen is not None and seen() is obj:
            return False
        self._seen[id(obj)] = weakref.ref(obj)
        return True

    def wrap(self, name: str, function, after=None):
        """``function`` recording a ``name`` span per call.

        ``after(recorder, result, args, kwargs)`` runs once the span has
        ended, to derive counts from the call.
        """

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = Span(name, self.clock(), 0.0, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return wrapper


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        totals[span.name] = totals.get(span.name, 0.0) + (
            span.end - span.start - covered[index]
        )
    return totals


def total_duration(spans: list[Span], name: str) -> float:
    """Summed wall duration (children included) of the ``name`` spans."""
    return sum(span.end - span.start for span in spans if span.name == name)


# -- counts derived from the wrapped calls -----------------------------------


def _calls(counter: str):
    def after(recorder, result, args, kwargs):
        recorder.count(counter)

    return after


def _cache_get(recorder, result, args, kwargs):
    recorder.count("engine.cache_get_n")
    if result is not None:
        recorder.count("engine.cache_hits")


def _flow(recorder, result, args, kwargs):
    subject = args[1] if len(args) > 1 else kwargs["aig"]
    recorder.count("flow.ands_in_n", subject.num_ands)
    recorder.count("flow.ands_out_n", result.aig.num_ands)


def _cuts(recorder, result, args, kwargs):
    if recorder.first_sighting(result):
        recorder.count("cuts.cuts_n", int(result.count.sum()))


def _function_table(recorder, result, args, kwargs):
    if recorder.first_sighting(result):
        recorder.count("matcher.unique_functions_n", result.num_distinct)


def _match_table(recorder, result, args, kwargs):
    if recorder.first_sighting(result):
        recorder.count("matcher.matched_rows", int(result.matched.sum()))
        recorder.count("matcher.distinct_rows", int(result.matched.shape[0]))


def _technology_map(recorder, result, args, kwargs):
    from perfbench.gate import MappedNetlist

    recorder.count("mapper.gates_n", len(result.gates))
    subject = args[0] if args else kwargs["aig"]
    recorder.netlists.append(MappedNetlist.capture(subject, result))


#: (module, attribute path, span name, count hook).  The span name plus
#: ``_s`` is the per-layer self-time metric.
WRAPPERS = (
    ("repro.bench.registry", "BenchmarkCase.build", "bench.build", _calls("bench.build_n")),
    ("repro.experiments.engine", "build_library", "core.build_library", None),
    ("repro.experiments.engine", "characterize_family", "core.characterize_family", None),
    ("repro.experiments.engine", "library_fingerprint", "engine.library_fingerprint", None),
    ("repro.experiments.engine", "ExperimentEngine.map_job_key", "engine.job_key", None),
    ("repro.experiments.engine", "ExperimentEngine.characterization_job_key", "engine.job_key", None),
    ("repro.experiments.engine", "ResultCache.get", "engine.cache_get", _cache_get),
    ("repro.experiments.engine", "ResultCache.put", "engine.cache_put", _calls("engine.cache_put_n")),
    ("repro.experiments.engine", "run_flow", "flow.run_flow", _flow),
    ("repro.experiments.engine", "cut_set_for", "cuts.cut_set", _cuts),
    ("repro.synthesis.mapper", "cut_set_for", "cuts.cut_set", _cuts),
    ("repro.synthesis.matcher", "cut_function_table", "matcher.function_table", _function_table),
    ("repro.experiments.shm", "cut_function_table", "matcher.function_table", _function_table),
    ("repro.synthesis.matcher", "LibraryMatcher.match_table", "matcher.match_table", _match_table),
    ("repro.experiments.engine", "matcher_for", "matcher.matcher_for", None),
    ("repro.experiments.engine", "technology_map", "mapper.technology_map", _technology_map),
    ("repro.experiments.engine", "compute_activities", "analysis.activity", None),
    ("repro.experiments.engine", "analyze_power", "analysis.power", None),
    ("repro.experiments.engine", "ExperimentEngine.run_map_jobs", "engine.prelude", None),
    ("repro.experiments.resilience", "run_resilient", "engine.pool", None),
    ("repro.experiments.shm", "publish_subject", "shm.publish", _calls("shm.publish_n")),
    ("repro.experiments.runner", "render_table2", "report.render", None),
    ("repro.experiments.runner", "render_table3", "report.render", None),
    ("repro.experiments.runner", "render_figure6", "report.render", None),
    ("repro.experiments.runner", "render_comparison", "report.render", None),
    ("repro.experiments.engine", "ExperimentEngine.write_artifacts", "report.write_artifacts", None),
)

SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span, _ in WRAPPERS))


def install(recorder: Recorder) -> None:
    """Put every wrapper of :data:`WRAPPERS` in place."""
    for module_name, path, span, after in WRAPPERS:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        setattr(owner, attribute, recorder.wrap(span, getattr(owner, attribute), after))


def layer_metrics(spans: list[Span], counts: dict[str, float], wall: float) -> dict[str, float]:
    """Self time per layer, the unattributed rest and the derived counts."""
    selfs = self_times(spans)
    metrics = {f"{name}_s": selfs.get(name, 0.0) for name in SPAN_NAMES}
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - sum(selfs.values())
    for name in (
        "bench.build_n",
        "engine.cache_get_n",
        "engine.cache_put_n",
        "flow.ands_in_n",
        "flow.ands_out_n",
        "cuts.cuts_n",
        "matcher.unique_functions_n",
        "mapper.gates_n",
        "shm.publish_n",
    ):
        metrics[name] = counts.get(name, 0)
    gets = counts.get("engine.cache_get_n", 0)
    metrics["engine.cache_hit_ratio"] = counts.get("engine.cache_hits", 0) / gets if gets else 0.0
    rows = counts.get("matcher.distinct_rows", 0)
    metrics["matcher.matched_ratio"] = counts.get("matcher.matched_rows", 0) / rows if rows else 0.0
    return metrics
