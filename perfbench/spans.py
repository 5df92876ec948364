"""In-memory span tracer for the traced benchmark run.

The tracer replaces public semec functions by wrappers, at the module
attributes through which the benchmark and the package's own modules call
them (``semec.bench.solve`` is the name ``run_sweep`` calls, for example).
Each call records one span: name, start, end, parent span and op label.
Nothing is patched until :meth:`Tracer.install` runs, so an untraced run
executes the program exactly as shipped.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict


def _iterations(args, kwargs, report):
    return {"outer_iters": report.iterations}


def _certified(args, kwargs, ok):
    return {"passed": int(bool(ok))}


def _csv_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"csv_bytes": os.path.getsize(path)}


# (module, attribute, span name, counter) for every wrapped call site. A
# public function appears once per module that calls it by name.
_CALL_SITES = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_scenario", "bench.load_scenario", None),
    ("bench", "load_scenario", "bench.load_scenario", None),
    ("bench", "scenario_from_dict", "bench.scenario_from_dict", None),
    ("bench", "generate_channel_gains", "model.generate_channel_gains", None),
    ("cli", "run_sweep", "bench.run_sweep", None),
    ("cli", "emit_csv", "bench.emit_csv", _csv_bytes),
    ("bench", "delay_breakdown", "model.delay_breakdown", None),
    ("bench", "solve", "solver.solve", _iterations),
    ("solver", "solve", "solver.solve", _iterations),
    ("bench", "solve_no_semantic", "baselines.solve_no_semantic", None),
    ("baselines", "solve_no_semantic", "baselines.solve_no_semantic", None),
    ("bench", "solve_local_only", "baselines.solve_local_only", None),
    ("baselines", "solve_local_only", "baselines.solve_local_only", None),
    ("bench", "perturbation_certify", "oracle.perturbation_certify", _certified),
    ("oracle", "perturbation_certify", "oracle.perturbation_certify", _certified),
    ("solver", "transmit_bisection", "solver.transmit_bisection", None),
    ("solver", "remote_rate_bisection", "solver.remote_rate_bisection", None),
    ("solver", "optimal_beta", "solver.optimal_beta", None),
    ("solver", "optimal_local_rate", "solver.optimal_local_rate", None),
    ("solver", "log_domain_residuals", "solver.log_domain_residuals", None),
)


class Tracer:
    """Records spans around wrapped calls and keeps the last op's solves."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, op, counts]
        self.op = "setup"
        self.solves: list = []  # (devices, config, report) of the current op
        self._stack: list = []
        self._patches: list = []

    def begin_op(self, label) -> None:
        self.op = label
        self.solves = []

    def seen(self, name: str) -> bool:
        return any(span[0] == name for span in self.spans)

    def install(self, semec_modules: dict) -> None:
        for module_name, attr, name, counter in _CALL_SITES:
            module = semec_modules[module_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, counter))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, original, name, counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, 0.0, 0.0, parent, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            if name == "solver.solve":
                tracer.solves.append((args[0], args[1], result))
            return result

        return traced

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, counts in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(end - start) - child_time[i]
                for i, (name, start, end, *_rest) in enumerate(self.spans)]

    def per_op(self, name: str, self_time: bool = False) -> list:
        """Time spent in ``name`` summed over each op (or set-up, census call)."""
        selfs = self.self_times() if self_time else None
        totals = defaultdict(float)
        for i, (span_name, start, end, parent, op, counts) in enumerate(self.spans):
            if span_name == name:
                totals[op] += selfs[i] if self_time else end - start
        return list(totals.values())

    def per_op_counts(self, name: str, key=None) -> list:
        """Per-op number of ``name`` calls, or per-op sum of one counter."""
        totals = defaultdict(int)
        for span_name, start, end, parent, op, counts in self.spans:
            if span_name == name:
                totals[op] += 1 if key is None else counts[key]
        return list(totals.values())

    def median(self, name: str, self_time: bool = False) -> float:
        return statistics.median(self.per_op(name, self_time))

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = [
            {"name": name, "start": start, "end": end, "parent": parent,
             "op": op, "counts": counts}
            for name, start, end, parent, op, counts in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
