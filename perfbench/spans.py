"""In-memory span tracer for the per-layer run of the benchmark.

The tracer wraps public entry points of the package at the attribute
each caller looks up (``adiasearch.cli.propagate``, ``Schedule.couplings``,
``adiasearch.schedules.cost`` ...), so the package itself is not edited.
Every call through a wrapper records one span: layer name, start, end,
parent span, the id of the CLI command that caused it, and the work
counts of that call.  A call into a layer from inside the same layer
(``eigenvalues`` -> ``reduced_terms``) stays inside the outer span.

Spans stay in memory until the run ends; `layer_totals` then reduces
them to a time, a self time and summed counts per layer.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import time

# Layers measured by the traced run: one name per public entry point.
LAYERS = (
    "cli.main",
    "propagate.propagate",
    "propagate.propagate_full",
    "propagate.write_trajectory_csv",
    "schedules.couplings",
    "schedules.cost",
    "analytics.loss_prediction",
    "model.kernels",
)

# Counts recorded per layer, besides the time and self time.
LAYER_COUNTS = {
    "cli.main": ("calls",),
    "propagate.propagate": ("calls", "steps"),
    "propagate.propagate_full": ("calls", "steps"),
    "propagate.write_trajectory_csv": ("rows", "bytes"),
    "schedules.couplings": ("calls", "points"),
    "schedules.cost": ("calls",),
    "analytics.loss_prediction": ("calls",),
    "model.kernels": ("calls", "points"),
}

MODEL_KERNELS = ("reduced_terms", "eigenvalues", "energy_gap", "mixing_angle",
                 "coupling_rate")


class Tracer:
    """Collects spans from wrapped callables; single-threaded use only."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, command id, counts]
        self.spans: list[list] = []
        self.command = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        """Return `fn` wrapped so that each call records a span named `name`.

        `counter(args, kwargs, result)` returns the work counts of one
        call; it runs after the span has ended.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, None]
            spans.append(span)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = start
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch each (owner, attribute, layer, counter) target; restore on exit."""
        saved = []
        try:
            for owner, attr, layer, counter in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _steps_counter(fn):
    default = inspect.signature(fn).parameters["steps"].default

    def count(args, kwargs, _result):
        steps = kwargs.get("steps", args[2] if len(args) > 2 else default)
        return {"steps": int(steps)}

    return count


def _csv_counter(args, kwargs, _result):
    trajectory = args[0]
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"rows": len(trajectory), "bytes": os.path.getsize(path)}


def package_targets():
    """The entry points to wrap, at the attribute each caller looks up.

    The CLI calls `propagate`, `propagate_full` and `write_trajectory_csv`
    through its own module globals; `propagate` calls `schedules.cost`,
    `analytics.loss_prediction` and the model kernels through their
    modules, and the model kernels call each other through theirs.
    """
    import adiasearch.analytics as analytics
    import adiasearch.cli as cli
    import adiasearch.model as model
    import adiasearch.schedules as schedules

    def points(args, _kwargs, _result):
        return {"points": _size(args[0])}

    def coupling_points(args, _kwargs, _result):
        return {"points": _size(args[1])}

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "propagate", "propagate.propagate", _steps_counter(cli.propagate)),
        (cli, "propagate_full", "propagate.propagate_full",
         _steps_counter(cli.propagate_full)),
        (cli, "write_trajectory_csv", "propagate.write_trajectory_csv", _csv_counter),
        (schedules.Schedule, "couplings", "schedules.couplings", coupling_points),
        (schedules, "cost", "schedules.cost", None),
        (analytics, "loss_prediction", "analytics.loss_prediction", None),
    ]
    targets += [(model, name, "model.kernels", points) for name in MODEL_KERNELS]
    return targets


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent >= 0:
            children.setdefault(parent, []).append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        out.append((end - start) - _covered(children.get(index, ()), start, end))
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per layer: summed time `s`, summed self time `self_s`, `calls` and counts."""
    totals = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in LAYERS}
    for name in LAYERS:
        for key in LAYER_COUNTS[name]:
            totals[name].setdefault(key, 0)
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += span[2] - span[1]
        entry["self_s"] += own
        entry["calls"] += 1
        for key, value in (span[5] or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals
