"""In-memory spans around cvpulse's public functions, installed from outside.

The tracer replaces each listed function in every cvpulse module namespace
that holds it, so calls made inside the package (``sample_pulses`` calling
``detected_variance``) are recorded as well as the benchmark's own calls.
Spans stay in a list until the run ends; nothing is written while timing.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict


def _pulses(args, kwargs, result):
    return len(args[0].schedule)


def _written_bytes(args, kwargs, result):
    sidecar = result.with_suffix(".json")
    return os.path.getsize(result) + (os.path.getsize(sidecar) if sidecar.exists() else 0)


def _read_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _points(args, kwargs, result):
    return len(result[0])


def _blocks(args, kwargs, result):
    return len(args[0])


def _one(args, kwargs, result):
    return 1


# (module, attribute, span name, counter); a dotted attribute is a method.
LAYERS = (
    ("cvpulse.cli", "main", "cli.main", None),
    ("cvpulse.scenario", "load_scenario", "scenario.load_scenario", None),
    ("cvpulse.simulate", "PhaseSchedule.values", "simulate.schedule_values", None),
    ("cvpulse.simulate", "detected_covariance", "simulate.detected_covariance", _one),
    ("cvpulse.simulate", "detected_variance", "simulate.detected_variance", None),
    ("cvpulse.simulate", "sample_pulses", "simulate.sample_pulses", _pulses),
    ("cvpulse.simulate", "block_variance_trace", "simulate.block_variance_trace", None),
    ("cvpulse.simulate", "theta_scan", "simulate.theta_scan", _points),
    ("cvpulse.simulate", "write_records", "simulate.write_records", _written_bytes),
    ("cvpulse.simulate", "read_records", "simulate.read_records", _read_bytes),
    ("cvpulse.analysis", "fit_variance_curve", "analysis.fit_variance_curve", _blocks),
    ("cvpulse.analysis", "reconstruct_covariance", "analysis.reconstruct_covariance", None),
    ("cvpulse.analysis", "end_to_end_report", "analysis.end_to_end_report", None),
    ("cvpulse.entanglement", "entropy_of_formation", "entanglement.entropy_of_formation", None),
)


class Tracer:
    """Records (op, name, parent, start, end, child time, count) spans while ``op`` is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [tracer.op, name, parent, time.perf_counter(), 0.0, 0.0, 0]
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    tracer.spans[parent][5] += span[4] - span[3]
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYERS function wherever a cvpulse module refers to it."""
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "cvpulse"]
        for module_name, attr, name, counter in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(name, original, counter), original)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, counter)
            for module in namespaces:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapped, original)

    def _patch(self, target, attr, wrapped, original) -> None:
        setattr(target, attr, wrapped)
        self._patches.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def begin(self, op: int) -> None:
        self.op = op
        self._stack = [len(self.spans)]
        self.spans.append([op, "op", None, time.perf_counter(), 0.0, 0.0, 0])

    def end(self) -> None:
        root = self.spans[self._stack[0]]
        root[4] = time.perf_counter()
        self.op = None
        self._stack = []

    def per_op(self) -> dict[str, list[float]]:
        """Per traced op: ``<name>.ms``, ``<name>.self_ms`` and ``<name>.count`` totals."""
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for op, name, _, start, end, child, count in self.spans:
            row = totals[op]
            row[f"{name}.ms"] += 1e3 * (end - start)
            row[f"{name}.self_ms"] += 1e3 * (end - start - child)
            row[f"{name}.count"] += count
        keys = {k for row in totals.values() for k in row}
        return {k: [row.get(k, 0.0) for row in totals.values()] for k in keys}

    def medians(self) -> dict[str, float]:
        return {k: statistics.median(v) for k, v in self.per_op().items()}

    def dump(self) -> dict:
        fields = ("op", "name", "parent", "start_s", "end_s", "child_s", "count")
        return {"fields": fields, "spans": self.spans}
