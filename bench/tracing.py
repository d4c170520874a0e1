"""Span tracing from outside the package.

``Tracer.install`` replaces the package's public functions with wrappers
that record one span per call -- name, start, end and parent -- in every
module that imported them, so calls made from inside the package are seen
too. ``uninstall`` puts the originals back. Spans stay in memory until the
run writes them out. The CLI verbs are traced by the benchmark itself,
around each ``cli.main`` call, with ``Tracer.span``.
"""
from __future__ import annotations

import json
import math
import statistics
import sys
import time
from contextlib import contextmanager

# Span name -> (module, function) pairs it wraps.
WRAPPED = {
    "dataset.load": [("dataset", "load_baskets"), ("dataset", "load_categories"),
                     ("dataset", "load_targets")],
    "dataset.filter": [("dataset", "filter_min_activity")],
    "dataset.split": [("dataset", "split_leave_last")],
    "scorer.import": [("scorer", "import_scores")],
    "scorer.repeat": [("scorer", "score_repeat_topfreq")],
    "scorer.explore": [("scorer", "score_explore_popularity")],
    "scorer.blend": [("scorer", "make_unified")],
    "scorer.save": [("scorer", "save_scores")],
    "objective.build": [("objective", "build_unified_problem"),
                        ("objective", "build_combined_problem")],
    "solver.rerank": [("solver", "rerank_all")],
    "solver.solve": [("solver", "solve")],
    "metrics.evaluate": [("metrics", "evaluate")],
    "tuner.run_grid": [("tuner", "run_grid")],
    "tuner.write": [("tuner", "write_sweep_csv"), ("tuner", "write_chosen_config")],
}
CLI_VERBS = ("ingest", "score", "rerank", "evaluate")

# Per-layer metric -> unit, in the order the benchmark reports them.
PER_LAYER = {
    **{f"cli.{verb}_s": "s" for verb in CLI_VERBS},
    "cli.self_s": "s",
    "dataset.load_s": "s", "dataset.filter_s": "s", "dataset.split_s": "s",
    "scorer.import_s": "s", "scorer.repeat_s": "s", "scorer.explore_s": "s",
    "scorer.blend_s": "s", "scorer.save_s": "s", "scorer.pairs": "count",
    "objective.build_s": "s", "objective.problems_built": "count",
    "objective.build_us_per_problem": "us",
    "solver.rerank_s": "s", "solver.solves": "count",
    "solver.solve_p50_ms": "ms", "solver.solve_p99_ms": "ms",
    "solver.solve_max_ms": "ms", "solver.tail_share": "ratio",
    "metrics.evaluate_s": "s", "metrics.evaluations": "count",
    "tuner.run_grid_s": "s", "tuner.self_s": "s", "tuner.points": "count",
    "tuner.ms_per_point": "ms", "tuner.write_s": "s",
    "trace.overhead_s": "s",
}


def _pairs(result) -> int:
    return sum(len(rows) for table in (result.unified, result.repeat_list,
                                       result.explore_list)
               for rows in table.values())


# Span name -> the metric counting its spans, or holding its self time.
_SPAN_COUNTS = {"objective.build": "objective.problems_built",
                "metrics.evaluate": "metrics.evaluations",
                "solver.solve": "solver.solves"}
_SELF_TIME = {"tuner.run_grid": "tuner.self_s",
              **{f"cli.{verb}": "cli.self_s" for verb in CLI_VERBS}}

# Span name -> function of the wrapped call's result giving a count.
_COUNTS = {
    "scorer.import": ("scorer.pairs", _pairs),
    "scorer.blend": ("scorer.pairs", _pairs),
    "tuner.run_grid": ("tuner.points", lambda result: len(result.results)),
}


class Tracer:
    def __init__(self) -> None:
        # (id, name, start, end, parent id, phase); parent id -1 is the root
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self.counts: list[tuple[str, int, str]] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, name, 0.0, 0.0, parent, self.phase))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.phase)

    def _wrap(self, name: str, fn):
        count = _COUNTS.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts.append((count[0], count[1](result), self.phase))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "basket_rerank" or key.startswith("basket_rerank.")]
        for name, targets in WRAPPED.items():
            for module_name, attr in targets:
                fn = getattr(sys.modules[f"basket_rerank.{module_name}"], attr)
                wrapper = self._wrap(name, fn)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._saved.append((module, key, fn))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._saved):
            setattr(module, key, fn)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, phase in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "phase": phase}) + "\n")

    def layer_metrics(self, phase: str) -> dict[str, float]:
        """Per-layer totals over the spans of one phase.

        The self time of a tuner or CLI span is its duration minus its
        direct children's, which never overlap in this single-threaded
        program.
        """
        spans = [s for s in self.spans if s[5] == phase]
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _ in spans:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
        totals: dict[str, float] = {}
        solves: list[float] = []
        for sid, name, start, end, _, _ in spans:
            totals[name] = totals.get(name, 0.0) + end - start
            if name in _SELF_TIME:
                key = _SELF_TIME[name]
                totals[key] = totals.get(key, 0.0) + end - start - child_time.get(sid, 0.0)
            if name in _SPAN_COUNTS:
                key = _SPAN_COUNTS[name]
                totals[key] = totals.get(key, 0) + 1
            if name == "solver.solve":
                solves.append(end - start)
        for key, value, ph in self.counts:
            if ph == phase:
                totals[key] = totals.get(key, 0) + value

        out = {metric: 0.0 for metric in PER_LAYER}
        for name, value in totals.items():
            metric = name if name in out else f"{name}_s"
            if metric in out:
                out[metric] = value
        built = out["objective.problems_built"]
        out["objective.build_us_per_problem"] = (
            out["objective.build_s"] / built * 1e6 if built else 0.0)
        points = out["tuner.points"]
        out["tuner.ms_per_point"] = out["tuner.run_grid_s"] / points * 1e3 if points else 0.0
        if solves:
            solves.sort()
            out["solver.solve_p50_ms"] = statistics.median(solves) * 1e3
            out["solver.solve_p99_ms"] = _percentile(solves, 0.99) * 1e3
            out["solver.solve_max_ms"] = solves[-1] * 1e3
            tail = solves[-math.ceil(len(solves) / 100):]
            out["solver.tail_share"] = sum(tail) / sum(solves)
        return out


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
