"""Spans around the public entry points of each layer, for traced runs.

:class:`LayerProbe` is a context manager that swaps timing wrappers onto
module and class attributes of the program and puts the originals back
on exit.  A wrapper records nothing unless telemetry is enabled
(``repro.obs.active()``); when it is, the span goes to that telemetry's
tracer and its duration to the ``bench.<span>`` histogram.  Worker
processes forked from a traced parent inherit the wrappers and re-enable
a fresh telemetry of their own, so their spans and counts reach the
parent over the channel the program already uses for telemetry.  Workers
started as fresh interpreters (the socket backend) carry no wrappers:
only the program's own ``time.*`` and ``sim.*`` telemetry comes back
from them.

Spans recorded (name: entry point):

* ``sample``: ``run_one_injection``.  The sample id, ``w/c/k#n``, names
  the cell and the sample's position in it; every span opened inside a
  sample carries it.
* inside a sample only: ``restore`` (``CheckpointedWorkload.system_at``,
  ``build_system``), ``prefix`` (``System.run_until``,
  ``SMPSystem.run_until``), ``inject``, ``faulty`` (``System.run``,
  ``SMPSystem.run``), ``classify`` and ``liveness-classify``
  (``LivenessTrace.classify``).  ``prefix`` and ``faulty`` also count
  simulated cycles in ``bench.cycles.<phase>.<machine class>`` and host
  seconds in ``bench.sim_s.<machine class>``.
* outside samples: ``golden`` (``golden_run``), ``checkpoint-build``
  (``CheckpointedWorkload.__init__``), ``liveness-build``
  (``liveness_for``) and ``store-write`` (``CampaignStore.put`` and
  ``put_partial``).

Each span's args hold its parent span's name, so self time can be
recovered from the exported Chrome trace.
"""

from __future__ import annotations

import functools
import time

from repro import obs
from repro.core import campaign, liveness, supervisor
from repro.cpu.smp import SMPSystem
from repro.cpu.system import System

#: Spans that only mean something inside an injection sample.
_SAMPLE_PHASES = frozenset(
    {"restore", "prefix", "inject", "faulty", "classify", "liveness-classify"}
)


class LayerProbe:
    """Install span wrappers on entry; restore the originals on exit."""

    def __init__(self) -> None:
        self._open: list[str] = []
        self._sample: str | None = None
        self._cell: tuple | None = None
        self._cell_samples = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs, system=None):
        tel = obs.active()
        inside_sample = bool(self._open) and self._open[-1] == "sample"
        if tel is None or (name in _SAMPLE_PHASES) != inside_sample:
            return fn(*args, **kwargs)
        parent = self._open[-1] if self._open else None
        cycle = system.cycle if system is not None else 0
        self._open.append(name)
        begin = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            tel.tracer.record(
                name, begin, end, {"parent": parent, "sample": self._sample}
            )
            tel.metrics.histogram("bench." + name).observe(end - begin)
            if system is not None:
                machine = type(system).__name__
                tel.metrics.counter(f"bench.cycles.{name}.{machine}").inc(
                    system.cycle - cycle
                )
                tel.metrics.histogram("bench.sim_s." + machine).observe(
                    end - begin
                )

    def _sample_call(self, fn, args, kwargs):
        workload, component, _generator, cardinality = args[:4]
        cell = (workload.name, component, cardinality)
        if cell != self._cell:
            self._cell, self._cell_samples = cell, 0
        self._sample = f"{cell[0]}/{component}/{cardinality}#{self._cell_samples}"
        self._cell_samples += 1
        try:
            return self._call("sample", fn, args, kwargs)
        finally:
            self._sample = None

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span(self, owner, attr: str, name: str) -> None:
        self._patch(
            owner, attr,
            lambda fn: lambda *a, **k: self._call(name, fn, a, k),
        )

    def _simulate(self, owner, attr: str, phase: str) -> None:
        self._patch(
            owner, attr,
            lambda fn: lambda system, *a, **k: self._call(
                phase, fn, (system, *a), k, system=system
            ),
        )

    def __enter__(self) -> "LayerProbe":
        sample = lambda fn: lambda *a, **k: self._sample_call(fn, a, k)  # noqa: E731
        # run_cell looks run_one_injection up in campaign; the supervisor
        # imported its own reference.
        self._patch(campaign, "run_one_injection", sample)
        self._patch(supervisor, "run_one_injection", sample)
        self._span(campaign.CheckpointedWorkload, "system_at", "restore")
        self._span(campaign, "build_system", "restore")
        for machine in (System, SMPSystem):
            self._simulate(machine, "run_until", "prefix")
            self._simulate(machine, "run", "faulty")
        self._span(campaign, "inject", "inject")
        self._span(campaign, "classify", "classify")
        self._span(liveness.LivenessTrace, "classify", "liveness-classify")
        self._span(campaign, "golden_run", "golden")
        self._span(campaign.CheckpointedWorkload, "__init__", "checkpoint-build")
        self._span(liveness, "liveness_for", "liveness-build")
        self._span(campaign.CampaignStore, "put", "store-write")
        self._span(campaign.CampaignStore, "put_partial", "store-write")
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
