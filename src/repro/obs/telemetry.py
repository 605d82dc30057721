"""The telemetry facade: one metrics registry + one tracer + the summary.

A :class:`Telemetry` object is everything one campaign run observes about
itself.  :meth:`Telemetry.summary` folds it into the ``telemetry.json``
shape (schema below, validated by :mod:`repro.obs.schema`): raw counters,
gauges and histograms, plus the derived figures operators actually look
at — samples/sec, worker utilization, LRU and memory-hierarchy hit rates
— plus, optionally, the raw trace events so ``repro-campaign trace`` can
export a Chrome trace later without having kept the process alive.

Spans recorded through :meth:`Telemetry.span` are double-booked by
design: a trace event for the timeline *and* an observation in the
``time.<name>`` histogram for the aggregate view, one clock read each.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs.metrics import MetricsRegistry, deterministic_counters
from repro.obs.tracing import Tracer, _Span, chrome_trace

#: Version stamp of the ``telemetry.json`` shape.
TELEMETRY_SCHEMA = 1


class _HistogramSpan(_Span):
    """A span that also feeds the ``time.<name>`` histogram on exit."""

    __slots__ = ("_metrics",)

    def __init__(self, tracer, name, args, metrics: MetricsRegistry) -> None:
        super().__init__(tracer, name, args)
        self._metrics = metrics

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        self._tracer.record(self.name, self._begin, end, self.args)
        self._metrics.histogram("time." + self.name).observe(end - self._begin)
        return False


class Telemetry:
    """Metrics + tracing for one campaign run (or one worker process)."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self._started = time.perf_counter()

    def span(self, name: str, **args) -> _HistogramSpan:
        """Trace span that also lands in the ``time.<name>`` histogram."""
        return _HistogramSpan(self.tracer, name, args, self.metrics)

    def wall_seconds(self) -> float:
        return time.perf_counter() - self._started

    # -- summary -------------------------------------------------------------

    def _derived(self, wall: float) -> dict:
        counters = {k: c.value for k, c in self.metrics.counters.items()}
        histograms = self.metrics.histograms

        def rate(hits_name: str, misses_name: str) -> float | None:
            hits = counters.get(hits_name, 0)
            misses = counters.get(misses_name, 0)
            total = hits + misses
            return round(hits / total, 6) if total else None

        samples = counters.get("sim.samples", 0)
        workers = counters.get("exec.workers_spawned", 0)
        busy = histograms.get("time.worker-batch")
        utilization = None
        if workers and busy is not None and wall > 0:
            utilization = round(min(1.0, busy.sum / (wall * workers)), 4)
        mem_rates = {}
        for component in ("l1d", "l1i", "l2", "itlb", "dtlb"):
            mem_rates[component] = rate(
                f"sim.mem.{component}.hits", f"sim.mem.{component}.misses"
            )
        # Pruning hit rate is pruned/samples (not pruned/(pruned+undecided)):
        # the fraction of the campaign's samples that skipped simulation.
        pruned = counters.get("sim.pruned.total", 0)
        undecided = counters.get("sim.undecided.total", 0)
        pruning_rate = None
        if (pruned + undecided) and samples:
            pruning_rate = round(pruned / samples, 6)
        # Distributed-fabric health (socket coordinator): absent
        # entirely for runs that never touched that machinery.
        fabric_keys = {
            "joins": "exec.fabric.joins",
            "rejoins": "exec.fabric.rejoins",
            "stale_joins": "exec.fabric.stale_joins",
            "corrupt_frames": "exec.fabric.corrupt_frames",
            "stale_frames": "exec.fabric.stale_frames",
        }
        fabric = None
        if any(counter in counters for counter in fabric_keys.values()):
            fabric = {
                name: counters.get(counter, 0)
                for name, counter in fabric_keys.items()
            }
        return {
            "samples_per_sec": (
                round(samples / wall, 3) if samples and wall > 0 else None
            ),
            "worker_utilization": utilization,
            "pruning_hit_rate": pruning_rate,
            "lru_hit_rates": {
                "golden": rate(
                    "exec.lru.golden.hits", "exec.lru.golden.misses"
                ),
                "checkpoint": rate(
                    "exec.lru.checkpoint.hits", "exec.lru.checkpoint.misses"
                ),
                "liveness": rate(
                    "exec.lru.liveness.hits", "exec.lru.liveness.misses"
                ),
            },
            "mem_hit_rates": mem_rates,
            "fabric": fabric,
        }

    def summary(self, include_trace: bool = True) -> dict:
        wall = self.wall_seconds()
        data = {
            "schema": TELEMETRY_SCHEMA,
            "kind": "repro-telemetry",
            "wall_seconds": round(wall, 6),
            **self.metrics.as_dict(),
            "derived": self._derived(wall),
            "deterministic_counters": deterministic_counters(
                self.metrics.as_dict()
            ),
            "dropped_trace_events": self.tracer.dropped,
        }
        if include_trace:
            data["trace_events"] = list(self.tracer.events)
        return data

    def write(self, path: str | Path, include_trace: bool = True) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.summary(include_trace), sort_keys=True, indent=1)
            + "\n"
        )
        return path


def load_summary(path: str | Path) -> dict:
    """Read a ``telemetry.json`` back (no validation — see obs.schema)."""
    return json.loads(Path(path).read_text())


def summary_chrome_trace(summary: dict) -> dict:
    """The Chrome trace embedded in a telemetry summary (may be empty)."""
    return chrome_trace(
        summary.get("trace_events", []),
        dropped=int(summary.get("dropped_trace_events", 0)),
    )
