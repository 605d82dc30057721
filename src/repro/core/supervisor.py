"""Fault-contained campaign execution: the supervisor layer.

A fault injector deliberately corrupts machine state, so it tickles code
paths no test suite ever visited — and a single unexpected Python exception
must not abort a 540k-simulation campaign.  Following the monitor design of
production injectors (DAVOS's SBFI tool runs every injection as an
untrusted job under a retry/quarantine monitor), every injection here runs
inside an isolation boundary:

* a deliberate :class:`~repro.errors.SimAssertion` is the paper's *Assert*
  fault-effect class and is classified normally;
* any other exception is an **incident**: an infra failure whose full repro
  bundle (workload, component, cardinality, cell seed, sample index,
  injection cycle, fault mask, traceback) is appended to a JSONL incident
  journal, after which the campaign continues without that sample;
* a step-count watchdog bounds every faulty run, so an infra livelock with
  a stuck cycle counter surfaces as a :class:`~repro.errors.WatchdogTimeout`
  incident instead of hanging the campaign;
* a ``--max-incidents`` budget aborts the campaign once too many samples
  have been lost for its statistics to mean anything, and ``--strict``
  escalates the first incident immediately (for CI and debugging).

:meth:`Supervisor.record` is the one incident policy: the supervisor's
own contained injections, those a pool worker contains and forwards, and
the executor fabric's worker crashes, stalls and poison cells all end
there.  Every sample runs under a supervisor; without one, campaign code
uses ``Supervisor(strict=True)``.

Incidents are *not* fault effects: they never enter a cell's
:class:`~repro.core.avf.ClassCounts`.  See DESIGN.md §6 for the containment
model.
"""

from __future__ import annotations

import json
import traceback as traceback_module
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.campaign import InjectionPlan, run_one_injection
from repro.core.classify import FaultClass
from repro.core.faults import FaultMask
from repro.errors import (
    IncidentBudgetExceeded,
    InjectionIncident,
    SimAssertion,
    WatchdogTimeout,
)
from repro import obs
from repro.workloads.base import Workload

#: Every incident kind any layer journals — the supervisor's contained
#: injection failures plus the executor fabric's (see
#: :class:`Incident` and ``repro-campaign incidents --type``), and
#: ``lease-expired``, which only older journals hold.
INCIDENT_KINDS = (
    "exception",
    "watchdog",
    "worker-crash",
    "worker-hang",
    "retry",
    "lease-expired",
    "poison-cell",
    "degraded",
)


@dataclass
class Incident:
    """One contained infra failure, with everything needed to reproduce it.

    ``kind`` is ``"exception"`` for an unexpected Python error,
    ``"watchdog"`` for a step-budget trip (simulator livelock), and for
    the parallel executor fabric (see :mod:`repro.core.parallel`):
    ``"worker-crash"`` (a worker process died outright),
    ``"worker-hang"`` (a worker holding cells made no CPU progress for
    the hang timeout — wedged, or on the wrong side of a network
    partition — and was killed, its cells reclaimed), ``"retry"`` (a
    cell was rescheduled — pure bookkeeping, never counted against the
    incident budget), ``"lease-expired"`` (written only by older
    versions, whose cell leases stall detection replaced; kept so their
    journals still filter), ``"poison-cell"`` (a cell exhausted its
    attempt budget and was quarantined) and ``"degraded"`` (the worker
    pool shrank to nothing and the scheduler fell back to in-process
    serial execution).
    Fabric incidents carry ``sample_index``/``inject_cycle`` of ``-1``
    and machine-readable context in ``details`` (attempt number, backoff
    delay, cause, lost telemetry deltas...).  ``mask`` is the serialised
    :class:`~repro.core.faults.FaultMask` when the failure happened after
    mask generation, else ``None`` (the cell seed + sample index still
    reproduce it deterministically).
    """

    kind: str
    workload: str
    component: str
    cardinality: int
    cell_seed: str
    sample_index: int
    inject_cycle: int
    mask: dict | None
    error_type: str
    message: str
    traceback: str
    details: dict | None = None

    def as_dict(self) -> dict:
        data = {
            "kind": self.kind,
            "workload": self.workload,
            "component": self.component,
            "cardinality": self.cardinality,
            "cell_seed": self.cell_seed,
            "sample_index": self.sample_index,
            "inject_cycle": self.inject_cycle,
            "mask": self.mask,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }
        if self.details is not None:
            data["details"] = self.details
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Incident":
        return cls(
            kind=data["kind"],
            workload=data["workload"],
            component=data["component"],
            cardinality=int(data["cardinality"]),
            cell_seed=data["cell_seed"],
            sample_index=int(data["sample_index"]),
            inject_cycle=int(data["inject_cycle"]),
            mask=data.get("mask"),
            error_type=data["error_type"],
            message=data["message"],
            traceback=data.get("traceback", ""),
            details=data.get("details"),
        )

    def cell_label(self) -> str:
        return f"{self.workload}/{self.component}/{self.cardinality}-bit"


def _mask_as_dict(mask: FaultMask | None) -> dict | None:
    if mask is None:
        return None
    return {
        "component": mask.component,
        "bits": [list(bit) for bit in mask.bits],
        "origin": list(mask.origin),
        "cluster": list(mask.cluster),
    }


class IncidentJournal:
    """Append-only JSONL journal of incidents.

    With a *path*, every append lands on disk immediately (one flushed
    line), so the journal survives the very crash it is documenting.  With
    ``path=None`` it is memory-only — useful for library callers and tests.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.incidents: list[Incident] = []

    def append(self, incident: Incident) -> None:
        self.incidents.append(incident)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as journal:
                journal.write(json.dumps(incident.as_dict()) + "\n")
                journal.flush()

    def __len__(self) -> int:
        return len(self.incidents)

    @classmethod
    def load(cls, path: str | Path) -> "IncidentJournal":
        """Read a journal back; torn or corrupt lines are skipped.

        The returned journal keeps *path* attached, so appending to a
        loaded journal continues the same file.
        """
        journal = cls(path)
        journal_path = Path(path)
        if not journal_path.exists():
            return journal
        for line in journal_path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                journal.incidents.append(Incident.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                continue
        return journal


@dataclass
class Supervisor:
    """Isolation boundary around injections, and the one incident policy.

    Every incident of a campaign ends in :meth:`record`, whichever layer
    contained it: an injection this supervisor ran, one a pool worker
    contained and forwarded, or a failure of the executor fabric.  That
    is the one place incidents are journalled, counted and escalated.
    ``max_incidents=None`` means unlimited containment; ``strict=True``
    re-raises the first incident as :class:`InjectionIncident` (after
    journalling it).  The cells it supervises plan a step budget for
    every faulty run (the watchdog).  ``incident_count`` and the budget
    count over the supervisor's lifetime at every job count, so one
    supervisor is one campaign (adaptive waves included); a resumed
    campaign's journal may hold more incidents from earlier runs.
    """

    journal: IncidentJournal = field(default_factory=IncidentJournal)
    max_incidents: int | None = None
    strict: bool = False
    incident_count: int = 0

    def run_injection(
        self,
        workload: Workload,
        component: str,
        generator,
        cardinality: int,
        inject_cycle: int,
        plan: InjectionPlan | None = None,
        *,
        cell_seed: str = "",
        sample_index: int = 0,
    ) -> FaultClass | None:
        """One injection inside the containment boundary.

        Returns the fault class, or ``None`` when the sample was lost to a
        contained incident.  *plan* is forwarded to
        :func:`~repro.core.campaign.run_one_injection`; its step budget
        arms the watchdog (derived from the cell's own golden run, so a
        slower multi-core schedule never trips it spuriously).  A failed
        verify cross-check (a :class:`~repro.errors.VerificationError`,
        including a pruner audit failure) is contained like any other
        platform bug — journalled with a full repro bundle, and escalated
        in ``--strict`` mode.
        """
        trace: dict = {}
        try:
            fault_class, _, _ = run_one_injection(
                workload, component, generator, cardinality, inject_cycle,
                plan, trace,
            )
            return fault_class
        except SimAssertion:
            # A simulator assertion that escapes the run loop (e.g. raised
            # while applying the mask) is still the deliberate Assert class.
            return FaultClass.ASSERT
        except Exception as exc:  # noqa: BLE001 - containment is the point
            self.record(Incident(
                kind=(
                    "watchdog" if isinstance(exc, WatchdogTimeout)
                    else "exception"
                ),
                workload=workload.name,
                component=component,
                cardinality=cardinality,
                cell_seed=cell_seed,
                sample_index=sample_index,
                inject_cycle=inject_cycle,
                mask=_mask_as_dict(trace.get("mask")),
                error_type=type(exc).__name__,
                message=str(exc),
                traceback="".join(traceback_module.format_exception(
                    type(exc), exc, exc.__traceback__
                )),
            ), exc)
            return None

    def record(
        self, incident: Incident, cause: BaseException | None = None
    ) -> None:
        """Journal and count *incident*; escalate under strict or past
        the budget.

        Each incident emits ``exec.incidents`` and
        ``exec.incidents.<kind>`` once, plus an ``"incident"`` instant on
        the trace timeline.  An escalation is an
        :class:`InjectionIncident` (or its
        :class:`IncidentBudgetExceeded`) raised from *cause*, the
        exception that was contained, when there is one.
        """
        self.journal.append(incident)
        self.incident_count += 1
        tel = obs.active()
        if tel is not None:
            # Incidents are rare by definition; each one is worth a point
            # on the trace timeline next to its counters.
            tel.metrics.counter("exec.incidents").inc()
            tel.metrics.counter("exec.incidents." + incident.kind).inc()
            tel.tracer.instant(
                "incident",
                kind=incident.kind,
                cell=incident.cell_label(),
                sample=incident.sample_index,
                error=incident.error_type,
            )
        if self.strict:
            where = incident.cell_label() + (
                f" sample {incident.sample_index}"
                if incident.sample_index >= 0 else ""
            )
            raise InjectionIncident(
                f"[strict] incident in {where}: {incident.error_type}: "
                f"{incident.message}"
            ) from cause
        if (
            self.max_incidents is not None
            and self.incident_count > self.max_incidents
        ):
            raise IncidentBudgetExceeded(
                f"{self.incident_count} incidents exceed the budget of "
                f"{self.max_incidents}; campaign statistics are no longer "
                f"trustworthy (last: {incident.error_type} in "
                f"{incident.cell_label()})"
            ) from cause
