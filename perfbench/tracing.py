"""Spans around evfeeder's module boundaries, recorded from outside the package.

The tracer replaces module attributes with timing wrappers while it is
installed. It patches the name each caller looks up: ``scenario`` imports
``load_topology``, ``household_frame``, ``build_schedule``, ``solve_horizon``
and ``write_report_files`` into its own namespace, but reaches ``loads``,
``charging``, ``powerflow`` and ``metrics`` through the module. Nothing inside
``src/`` is traced.

Each span is ``(name, start, end, parent index, call id)``; all spans of one
API call share the call id. Spans stay in memory until :func:`layer_metrics`
reduces them.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from evfeeder import charging, loads, metrics, powerflow, scenario

# (layer name, module holding the looked-up attribute, attribute)
LAYERS = (
    ("network.load_topology", scenario, "load_topology"),
    ("loads.sample_household_loads", loads, "sample_household_loads"),
    ("loads.sample_fleet", loads, "sample_fleet"),
    ("scenario.household_frame", scenario, "household_frame"),
    ("charging.build_schedule", scenario, "build_schedule"),
    ("charging.ev_power_frame", charging, "ev_power_frame"),
    ("scenario.solve_horizon", scenario, "solve_horizon"),
    ("powerflow.solve_sweep", powerflow, "solve_sweep"),
    ("metrics.reduce_horizon", metrics, "reduce_horizon"),
    ("scenario.write_report_files", scenario, "write_report_files"),
)
LAYER_FIELDS = ("calls", "busy_s", "self_s", "busy_frac")
EXTRA_METRICS = {
    "powerflow.iterations": "count",
    "powerflow.iterations_p50": "count",
    "powerflow.iterations_max": "count",
    "powerflow.iteration_headroom": "count",
    "powerflow.us_per_iteration": "us",
    "powerflow.failed_slots": "count",
    "scenario.bytes_written": "B",
    "scenario.write_mb_per_s": "MB/s",
    "scenario.other_s": "s",
    "trace.call_s_p50": "s",
    "trace.untraced_call_s_p50": "s",
    "trace.overhead_s": "s",
    # filled in by worker.py from the untraced calls
    "probe.inside_over_boundary": "ratio",
}
FIELD_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "busy_frac": "fraction"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{name}.{field}": FIELD_UNITS[field] for name, _, _ in LAYERS for field in LAYER_FIELDS
    }
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.iterations: dict[int, list[int]] = {}
        self.bytes_written: dict[int, int] = {}
        self.failed_slots = 0
        self._stack: list[int] = []
        self._call_id = -1
        self._saved: list[tuple] = []

    def _open(self, name: str) -> tuple[int, float]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self._call_id))
        self._stack.append(index)
        return index, time.perf_counter()

    def _close(self, index: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, _, _, parent, call_id = self.spans[index]
        self.spans[index] = (name, start, end, parent, call_id)

    @contextmanager
    def call(self, call_id: int, name: str):
        """Root span of one API call."""
        self._call_id = call_id
        index, start = self._open(name)
        try:
            yield
        finally:
            self._close(index, start)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except scenario.SimulationError:
                if name == "scenario.solve_horizon":
                    self.failed_slots += 1
                raise
            finally:
                self._close(index, start)
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "scenario.solve_horizon":
            per_slot = [state.iterations for state in result]
            self.iterations.setdefault(self._call_id, []).extend(per_slot)
        elif name == "scenario.write_report_files":
            written = sum(p.stat().st_size for p in Path(args[0]).iterdir() if p.is_file())
            self.bytes_written[self._call_id] = self.bytes_written.get(self._call_id, 0) + written

    def install(self) -> None:
        for name, module, attr in LAYERS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def layer_metrics(
    tracer: Tracer, speed: list[float], untraced_s: list[float], max_iterations: int
) -> dict[str, float]:
    """Reduce the spans to the per-layer metrics named by :func:`metric_units`.

    `speed[call_id]` scales that call's spans to reference machine speed (see
    ``speed.py``); `untraced_s` holds the scaled times of the untraced calls.
    Counts (``.calls``, iterations, bytes) come from the first traced call,
    whose inputs are fixed by the workload seed, so they repeat exactly.
    Times are means per traced call; ``busy_frac`` is a layer's busy time over
    the summed call time.
    """
    durations = [(end - start) * speed[call] for _, start, end, _, call in tracer.spans]
    self_time = list(durations)
    for span, duration in zip(tracer.spans, durations):
        if span[3] >= 0:
            self_time[span[3]] -= duration
    roots = [k for k, span in enumerate(tracer.spans) if span[3] < 0]
    first_call = tracer.spans[roots[0]][4]
    n_calls = len(roots)
    wall_total = sum(durations[k] for k in roots)

    busy = {name: 0.0 for name, _, _ in LAYERS}
    own = dict(busy)
    first_calls = {name: 0 for name in busy}
    for k, (name, _, _, parent, call) in enumerate(tracer.spans):
        if parent >= 0:
            busy[name] += durations[k]
            own[name] += self_time[k]
            first_calls[name] += call == first_call

    out: dict[str, float] = {}
    for name in busy:
        out[f"{name}.calls"] = first_calls[name]
        out[f"{name}.busy_s"] = busy[name] / n_calls
        out[f"{name}.self_s"] = own[name] / n_calls
        out[f"{name}.busy_frac"] = busy[name] / wall_total

    first_iterations = tracer.iterations.get(first_call, [])
    all_iterations = sum(sum(v) for v in tracer.iterations.values())
    out["powerflow.iterations"] = sum(first_iterations)
    out["powerflow.iterations_p50"] = statistics.median(first_iterations) if first_iterations else 0
    out["powerflow.iterations_max"] = max(first_iterations, default=0)
    out["powerflow.iteration_headroom"] = max_iterations - out["powerflow.iterations_max"]
    horizon_busy = busy["scenario.solve_horizon"]
    out["powerflow.us_per_iteration"] = 1e6 * horizon_busy / all_iterations if all_iterations else 0.0
    out["powerflow.failed_slots"] = tracer.failed_slots

    write_busy = busy["scenario.write_report_files"]
    out["scenario.bytes_written"] = tracer.bytes_written.get(first_call, 0)
    total_bytes = sum(tracer.bytes_written.values())
    out["scenario.write_mb_per_s"] = total_bytes / write_busy / 1e6 if write_busy else 0.0
    out["scenario.other_s"] = sum(self_time[k] for k in roots) / n_calls

    traced_p50 = statistics.median(durations[k] for k in roots)
    untraced_p50 = statistics.median(untraced_s)
    out["trace.call_s_p50"] = traced_p50
    out["trace.untraced_call_s_p50"] = untraced_p50
    out["trace.overhead_s"] = traced_p50 - untraced_p50
    return out
