"""Parallel campaign execution: resilient cell scheduler, deterministic merge.

The campaign grid (15 workloads × 6 components × 3 cardinalities in the
paper's setup) is embarrassingly parallel at cell granularity: every cell
seeds its own fault generator and injection-cycle RNG from
``f"{seed}:{workload}:{component}:{cardinality}"``, so no cell's outcome
depends on any other cell's execution, and a parallel run is bit-identical
to the serial one *by construction* — the scheduler only has to merge
results back into the canonical ``config.cells()`` order.

Architecture (one parent, N workers behind a pluggable backend):

* **Pluggable execution backends.**  The scheduler speaks to workers only
  through the :class:`~repro.core.executor.ExecutorBackend` seam — the
  in-process multiprocessing pool and the multi-host socket coordinator
  (CRC-checked frames over TCP) are interchangeable behind the same two
  methods (``spawn``/``recv``).
* **Tasks, not grids.**  The scheduler runs a list of
  :class:`~repro.core.campaign.CellTask` objects — whole cells of a campaign
  (:func:`run_campaign_parallel`) or the batches of an adaptive wave
  (:func:`run_wave`) — and hands back each task's end state; every task
  runs through :func:`~repro.core.campaign.run_cell` on a worker.
* **Sharding with workload affinity.**  Cells are grouped by workload and
  groups are handed to workers whole, so a worker fills a workload's
  :class:`~repro.core.campaign.CheckpointedWorkload` snapshot set once
  instead of once per cell.
* **Single-writer store.**  Workers never touch the
  :class:`~repro.core.campaign.CampaignStore`; they stream end states
  and mid-cell checkpoints to the parent, which is the only process
  appending to the store journal and the incident journal.
* **Heartbeats and derived deadlines.**  Workers heartbeat from the
  per-sample stop probe; a worker with in-flight cells that goes silent
  past the policy's hang timeout — or blows through a per-task wall-clock
  deadline derived from golden-run cycle counts and the samples the task
  will run — is escalated:
  soft-cancel (stop at the next sample, flush a final checkpoint), then
  kill after a grace period of continued silence, then reschedule from
  the last streamed checkpoint.
* **Lease-based cell ownership.**  Every started cell is leased to its
  worker for a duration calibrated from golden-run cycles
  (``lease_factor`` × predicted wall, floored); any message from the
  owner renews its leases.  An expired lease — a partitioned or
  half-open connection whose heartbeats stopped arriving — forfeits
  ownership: the cell is reclaimed, journalled as a ``lease-expired``
  incident, and rescheduled from its last acked checkpoint, while a
  late duplicate result from the old owner is suppressed by the
  first-canonical-result-wins rule.  See DESIGN.md §12.
* **Bounded retry with backoff.**  Every reschedule (crash, hang, lost
  result) is journalled as a structured ``retry`` incident — attempt
  number, backoff delay, cause — and re-dispatched after an exponential
  backoff with deterministic jitter.  A cell that fails
  ``max_attempts`` times is **quarantined** as a ``poison-cell``
  incident: its last streamed checkpoint becomes its (short) result, the
  missing samples count as lost, and the campaign survives — aborting
  only under ``--strict``/``--max-incidents``.
* **Straggler speculation.**  When workers idle and one in-flight cell
  exceeds a multiple of the observed mean cell time, an idle worker
  re-executes it from the same checkpoint; the first completion wins and
  duplicates are discarded before the merge (cells are deterministic, so
  either copy carries the same bytes).
* **Graceful degradation.**  Worker deaths beyond the restart budget stop
  the respawning: the pool shrinks, and when it reaches zero the parent
  finishes the remaining (non-quarantined) cells serially in-process —
  a failing backend degrades a campaign's speed, never its answer.
* **Incident forwarding, telemetry streaming, graceful Ctrl-C/SIGTERM**
  — the parent enforces the global ``--max-incidents``/``--strict``
  budget, merges per-cell metric deltas in canonical order, reports each
  finished task to its caller (which fires progress in canonical order),
  and on SIGINT/SIGTERM drains final checkpoints so ``--resume``
  continues bit-identically.

The deterministic chaos harness (:mod:`repro.core.chaos`,
``repro-campaign chaos``) injects worker kills, stalls, dropped and
duplicated queue messages and torn checkpoint writes into this fabric
and asserts the byte-identical-to-serial guarantee survives all of it.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from collections import deque
from typing import Callable

from repro import obs

from repro.core.campaign import (
    DEFAULT_CHECKPOINT_EVERY,
    CampaignCells,
    CampaignConfig,
    CampaignResult,
    CampaignStore,
    CellCheckpoint,
    CellTask,
    ProgressFn,
    golden_run,
    run_tasks,
)
from repro.core.avf import ClassCounts
from repro.core.chaos import ChaosEvent, ChaosSpec
from repro.core.executor import (
    ExecutorBackend,
    ResiliencePolicy,
    WorkerHandle,
    WorkerSpec,
    create_backend,
)
from repro.cpu.config import DEFAULT_CONFIG, CoreConfig
from repro.errors import (
    IncidentBudgetExceeded,
    InjectionIncident,
    WorkerCrash,
)
from repro.workloads import get_workload

#: How long the parent waits on the backend before running its liveness /
#: escalation / retry tick.  Small enough that a crashed worker is noticed
#: promptly, large enough not to busy-wait.
_POLL_INTERVAL = 0.1


def _affinity_batches(tasks: list[CellTask], jobs: int) -> list[list[CellTask]]:
    """Group tasks by workload, splitting large groups to feed all workers.

    Whole-workload batches maximise checkpoint-cache reuse; splitting only
    kicks in when there are fewer workloads than workers, and the split
    halves still share a workload.
    """
    by_workload: dict[str, list[CellTask]] = {}
    for task in tasks:
        by_workload.setdefault(task.workload, []).append(task)
    batches = list(by_workload.values())
    while len(batches) < min(jobs, len(tasks)):
        largest = max(range(len(batches)), key=lambda i: len(batches[i]))
        if len(batches[largest]) < 2:
            break
        group = batches.pop(largest)
        half = len(group) // 2
        batches.insert(largest, group[half:])
        batches.insert(largest, group[:half])
    # Longest batches first: better tail latency under dynamic dispatch.
    batches.sort(key=len, reverse=True)
    return batches


class _DeadlineModel:
    """Wall-clock deadlines derived from golden-run cycle counts.

    The scheduler cannot know cycles-per-second a priori, so it
    calibrates from completed tasks: a task's simulation budget — its
    *units* — is proportional to ``golden_cycles × samples it runs``, and
    the observed units-per-second rate turns the budget of an in-flight
    task into a predicted wall time.  The deadline is ``deadline_factor``
    times that prediction (floored) — generous enough for cache-cold
    workers, tight enough to catch a livelocked cell that keeps
    heartbeating.
    """

    def __init__(self, policy: ResiliencePolicy) -> None:
        self._policy = policy
        self._units = 0.0
        self._wall = 0.0
        self._count = 0

    def record(self, units: float | None, wall: float) -> None:
        if units is None or wall <= 0:
            return
        self._units += units
        self._wall += wall
        self._count += 1

    def predict_wall(self, units: float) -> float | None:
        """Predicted wall seconds for a task, or ``None`` (uncalibrated)."""
        if self._wall <= 0 or self._units <= 0:
            return None
        return units * self._wall / self._units

    def predict(self, units: float) -> float | None:
        """Allowed wall seconds for a task, or ``None`` (uncalibrated)."""
        predicted = self.predict_wall(units)
        if predicted is None:
            return None
        return max(
            self._policy.deadline_floor,
            self._policy.deadline_factor * predicted,
        )

    def mean_wall(self) -> float | None:
        if self._count == 0:
            return None
        return self._wall / self._count


def _samples_to_run(task: CellTask) -> int:
    return max(1, task.samples - (task.start.samples_done if task.start else 0))


class _Scheduler:
    """One list of cell tasks' resilient parent loop over an executor
    backend; :meth:`run` returns every task's end state by index."""

    def __init__(
        self,
        tasks: list[CellTask],
        config: CampaignConfig,
        jobs: int,
        store,
        core_cfg: CoreConfig,
        supervisor,
        checkpoint_every: int | None,
        verify: bool,
        prune: bool,
        backend_name: str,
        policy: ResiliencePolicy,
        chaos: ChaosSpec | None,
        backend_options: dict | None = None,
        done: Callable[[CellTask, CellCheckpoint], None] | None = None,
    ) -> None:
        self.config = config
        self.jobs = jobs
        self.store = store
        self.core_cfg = core_cfg
        self.supervisor = supervisor
        self.checkpoint_every = checkpoint_every
        self.verify = verify
        self.prune = prune
        self.backend_name = backend_name
        self.backend_options = backend_options
        self.policy = policy
        self.chaos = chaos
        self.done = done

        self.tasks: dict[int, CellTask] = {task.index: task for task in tasks}
        self.results: dict[int, CellCheckpoint] = {}

        # Supervisor-derived knobs (duck-typed, like the serial path).
        self.strict = bool(getattr(supervisor, "strict", False))
        self.watchdog = bool(getattr(supervisor, "watchdog", True))
        self.max_incidents = getattr(supervisor, "max_incidents", None)
        self.journal = getattr(supervisor, "journal", None)

        # Pool / dispatch state.
        self.backend: ExecutorBackend | None = None
        self.handles: dict[int, WorkerHandle] = {}
        self.assigned: dict[int, list[CellTask]] = {}
        self.retired: set[int] = set()
        self.cancelled: dict[int, float] = {}
        self.idle: set[int] = set()
        self.last_seen: dict[int, float] = {}
        self.batches: deque[list[CellTask]] = deque()
        self.retry_heap: list[tuple[float, int, list[CellTask]]] = []
        self._retry_seq = 0
        self.attempts: dict[int, int] = {}
        self.speculated: set[int] = set()
        self.restarts = 0
        self.max_restarts = jobs * policy.restarts_per_worker
        self.degraded = False
        self.global_stop = False

        # Per-task progress state.  ``live`` holds each pending task's
        # freshest acked checkpoint — where a retry resumes.
        self.pending_done = set(self.tasks)
        self.live: dict[int, CellCheckpoint | None] = {
            task.index: task.start for task in tasks
        }
        self.cell_golden: dict[int, int] = {}
        self.units: dict[int, float] = {}
        self.start_times: dict[int, float] = {}
        self.deadlines: dict[int, float | None] = {}
        self.running: dict[int, int] = {}
        # Lease-based cell ownership (the distributed-fabric invariant):
        # a started cell is *leased* to its worker, the lease renewed by
        # every message from that worker.  An expired lease — a worker
        # on the wrong side of a partition, or one whose heartbeats stopped
        # reaching us — forfeits ownership: the cell is reclaimed and
        # rescheduled from its last acked checkpoint, and any late result
        # from the old owner is dropped by first-canonical-result-wins.
        self.leases: dict[int, float] = {}
        self.lease_durations: dict[int, float] = {}
        self.model = _DeadlineModel(policy)

        # Accounting.
        self.total_incidents = 0
        self.lost_sample_incidents = 0
        self.abort_exc: Exception | None = None

        # Telemetry.
        self.parent_tel = obs.active()
        self.cell_deltas: dict[int, dict] = {}
        self.worker_deltas: list[dict] = []

        # Chaos (parent side): counters over droppable / duplicable
        # message streams.
        self._chaos_droppable = 0
        self._chaos_dupable = 0

    # -- small helpers -----------------------------------------------------

    def _counter(self, name: str, amount: int = 1) -> None:
        if self.parent_tel is not None and amount:
            self.parent_tel.metrics.counter(name).inc(amount)

    def _instant(self, name: str, **args) -> None:
        if self.parent_tel is not None:
            self.parent_tel.tracer.instant(name, **args)

    def _cell_label(self, index: int) -> str:
        task = self.tasks[index]
        return f"{task.workload}/{task.component}/{task.cardinality}-bit"

    def _record_incident(self, incident) -> None:
        if self.journal is not None:
            self.journal.append(incident)
        if self.supervisor is not None:
            self.supervisor.incident_count += 1

    def _journal_only(self, incident) -> None:
        """Bookkeeping incidents (retries, degradation notes): journalled
        for the audit trail, never counted against the incident budget —
        the originating failure already was."""
        if self.journal is not None:
            self.journal.append(incident)

    def _fabric_incident(self, kind, index, error_type, message, details):
        from repro.core.supervisor import Incident

        task = self.tasks.get(index)
        workload, component, cardinality = (
            (task.workload, task.component, task.cardinality)
            if task is not None else ("-", "-", 0)
        )
        return Incident(
            kind=kind,
            workload=workload,
            component=component,
            cardinality=cardinality,
            cell_seed=(
                f"{self.config.seed}:{workload}:{component}:{cardinality}"
                if index is not None else ""
            ),
            sample_index=-1,
            inject_cycle=-1,
            mask=None,
            error_type=error_type,
            message=message,
            traceback="",
            details=details,
        )

    def _retry_task(self, index: int) -> CellTask:
        """*index*'s task, resuming from its freshest acked checkpoint."""
        return dataclasses.replace(
            self.tasks[index], start=self.live.get(index),
            attempt=self.attempts.get(index, 0),
        )

    def _finish(self, index: int, state: CellCheckpoint) -> None:
        """Record a task's end state and report it to the caller."""
        self.results[index] = state
        self.pending_done.discard(index)
        self.live.pop(index, None)
        if self.done is not None:
            self.done(self.tasks[index], state)

    def _alive_ids(self) -> list[int]:
        return [
            wid for wid, handle in self.handles.items()
            if wid not in self.retired and handle.alive()
        ]

    def _budget_abort(self, last_message: str) -> None:
        if (
            self.max_incidents is not None
            and self.total_incidents > self.max_incidents
        ):
            self.abort_exc = IncidentBudgetExceeded(
                f"{self.total_incidents} incidents exceed the budget of "
                f"{self.max_incidents} (last: {last_message})"
            )

    # -- pool management ---------------------------------------------------

    def _spawn(self) -> None:
        try:
            handle = self.backend.spawn()
        except Exception as exc:  # noqa: BLE001 - backend failure → degrade
            self._mark_degraded(f"backend spawn failed: {exc}")
            return
        self.handles[handle.worker_id] = handle
        self.assigned[handle.worker_id] = []
        self.last_seen[handle.worker_id] = time.monotonic()
        self._counter("exec.workers_spawned")

    def _mark_degraded(self, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        self._journal_only(self._fabric_incident(
            "degraded", None, "WorkerCrash",
            f"worker pool degraded — no further replacements will be "
            f"spawned ({reason}); remaining cells finish on the shrinking "
            f"pool, serially in-process if it empties",
            {"restarts": self.restarts, "reason": reason},
        ))
        if self.parent_tel is not None:
            self.parent_tel.metrics.gauge("exec.degraded").set_max(1.0)
        self._instant("degraded", reason=reason)

    def _replace_worker(self) -> None:
        if self.degraded or self.global_stop:
            return
        if self.restarts >= self.max_restarts:
            self._mark_degraded(
                f"restart budget of {self.max_restarts} exhausted"
            )
            return
        self.restarts += 1
        self._spawn()

    def _retire(self, worker_id: int) -> None:
        self.retired.add(worker_id)
        self.idle.discard(worker_id)
        self.cancelled.pop(worker_id, None)

    # -- failure handling --------------------------------------------------

    def _worker_death(self, worker_id: int, kind: str, cause: str) -> None:
        """A worker died (or was killed after hanging): journal, count,
        reschedule its in-flight cells, and replace it within budget."""
        handle = self.handles[worker_id]
        handle.kill()
        handle.join(timeout=1.0)  # reap, so exitcode is real in the record
        self._retire(worker_id)
        remaining = [
            task for task in self.assigned[worker_id]
            if task.index in self.pending_done
        ]
        self.assigned[worker_id] = []
        for task in remaining:
            self.running.pop(task.index, None)
            self._drop_lease(task.index)
        label = self._cell_label(remaining[0].index) if remaining else "idle"
        # The telemetry a worker accumulated since its last per-cell ship
        # dies with it — count the loss instead of silently absorbing it.
        lost_deltas = len(remaining)
        self._counter("exec.lost_deltas", lost_deltas)
        verb = (
            f"died with exit code {handle.exitcode()}" if kind == "worker-crash"
            else "hung (no heartbeat) and was killed"
        )
        incident = self._fabric_incident(
            kind,
            remaining[0].index if remaining else None,
            "WorkerCrash" if kind == "worker-crash" else "WorkerHang",
            f"worker {worker_id} (pid {handle.pid()}) {verb} while running "
            f"{label}; {len(remaining)} cell(s) rescheduled"
            + (f"; {lost_deltas} telemetry delta(s) lost" if lost_deltas
               else ""),
            {"worker": worker_id, "exitcode": handle.exitcode(),
             "cause": cause, "lost_deltas": lost_deltas,
             "rescheduled": [task.index for task in remaining]},
        )
        self._record_incident(incident)
        self.total_incidents += 1
        self._counter("exec.incidents")
        self._counter("exec.incidents." + kind)
        self._instant(
            kind, worker=worker_id, exitcode=handle.exitcode(),
            rescheduled=len(remaining),
        )
        if self.strict:
            self.abort_exc = InjectionIncident(f"[strict] {incident.message}")
            return
        self._budget_abort(incident.message)
        if self.abort_exc is not None:
            return
        self._reschedule(remaining, cause=kind, worker=worker_id)
        self._replace_worker()

    def _reschedule(
        self, tasks: list[CellTask], cause: str, worker: int | None
    ) -> None:
        """Queue failed cells for retry with backoff; quarantine cells
        that exhausted their attempt budget.  Never silent: every retry
        is a journalled ``retry`` incident."""
        now = time.monotonic()
        for task in tasks:
            if self.abort_exc is not None:
                return
            index = task.index
            attempt = self.attempts.get(index, 0) + 1
            self.attempts[index] = attempt
            if attempt >= self.policy.max_attempts:
                self._quarantine(task, cause)
                continue
            delay = self.policy.backoff(task.cell_key, attempt)
            heapq.heappush(
                self.retry_heap,
                (now + delay, self._retry_seq, [self._retry_task(index)]),
            )
            self._retry_seq += 1
            self._journal_only(self._fabric_incident(
                "retry", index, "Reschedule",
                f"attempt {attempt + 1} of {self._cell_label(index)} "
                f"scheduled after {delay:.3f}s backoff (cause: {cause})",
                {"attempt": attempt, "backoff": round(delay, 4),
                 "cause": cause, "worker": worker},
            ))
            self._counter("exec.retries")
            self._instant(
                "retry", cell=self._cell_label(index), attempt=attempt,
                backoff=round(delay, 4), cause=cause,
            )

    def _quarantine(self, task: CellTask, cause: str) -> None:
        """A poison cell: salvage its last checkpoint as its (short) end
        state, count the missing samples as lost, and move on."""
        index = task.index
        state = self.live.get(index)
        if state is None:
            golden = self.cell_golden.get(index)
            if golden is None:
                # Fault-free golden run in the parent: safe (the poison is
                # in the cell's *injections*) and cached.
                golden = golden_run(
                    get_workload(task.workload), self.core_cfg,
                    cores=self.config.cores,
                ).cycles
            # No RNG state to carry: a quarantined cell is never resumed.
            state = CellCheckpoint(
                samples_done=0, counts=ClassCounts(), cycle_rng_state=None,
                generator_rng_state=None, golden_cycles=golden,
            )
        done = state.samples_done
        lost = max(0, task.samples - done)
        self.lost_sample_incidents += lost
        attempts = self.attempts.get(index, 0)
        incident = self._fabric_incident(
            "poison-cell", index, "PoisonCell",
            f"cell {self._cell_label(index)} failed {attempts} "
            f"attempt(s) (last cause: {cause}) and was quarantined; "
            f"{done} sample(s) salvaged from its last checkpoint, "
            f"{lost} lost",
            {"attempts": attempts, "cause": cause,
             "samples_kept": done, "samples_lost": lost},
        )
        self._record_incident(incident)
        self.total_incidents += 1
        self._counter("exec.incidents")
        self._counter("exec.incidents.poison-cell")
        self._counter("exec.quarantined")
        self._instant(
            "poison-cell", cell=self._cell_label(index), attempts=attempts,
            lost=lost,
        )
        self.deadlines.pop(index, None)
        self.running.pop(index, None)
        self._drop_lease(index)
        self._finish(index, state)
        if self.strict:
            self.abort_exc = InjectionIncident(f"[strict] {incident.message}")
            return
        self._budget_abort(incident.message)

    # -- lease-based cell ownership ----------------------------------------

    def _lease_duration(self, units: float | None) -> float:
        """How long a worker may own a cell without the parent hearing
        from it, calibrated (like deadlines) from golden-run cycles.

        ``lease_factor`` is deliberately generous next to
        ``deadline_factor``: a lease expiry accuses the *transport*
        (partition, half-open connection), not the cell, so it should
        fire only when heartbeats that would have renewed it stopped
        arriving for many predicted cell-lifetimes.
        """
        predicted = (
            self.model.predict_wall(units) if units is not None else None
        )
        if predicted is None:
            return self.policy.lease_floor
        return max(
            self.policy.lease_floor, self.policy.lease_factor * predicted
        )

    def _grant_lease(self, index: int, now: float) -> None:
        duration = self._lease_duration(self.units.get(index))
        self.lease_durations[index] = duration
        self.leases[index] = now + duration

    def _renew_leases(self, worker_id: int, now: float) -> None:
        """Any message from a worker renews the leases it holds — a
        heartbeating owner keeps its cells no matter how slow they are
        (the deadline machinery, not the lease, polices slowness)."""
        for index, owner in self.running.items():
            if owner == worker_id and index in self.leases:
                self.leases[index] = now + self.lease_durations.get(
                    index, self.policy.lease_floor
                )

    def _drop_lease(self, index: int) -> None:
        self.leases.pop(index, None)
        self.lease_durations.pop(index, None)

    def _reclaim_expired_leases(self, now: float) -> None:
        for index in [
            index for index, expiry in self.leases.items() if now > expiry
        ]:
            if self.abort_exc is not None:
                return
            if index not in self.pending_done:
                self._drop_lease(index)
                continue
            self._reclaim_lease(index, now)

    def _reclaim_lease(self, index: int, now: float) -> None:
        """An expired lease: take the cell back from its unreachable
        owner and reschedule it from the last acked checkpoint.

        The old owner is soft-cancelled (escalating to a kill if it
        stays silent through the grace period); a duplicate result from
        it racing the retry is suppressed because the first canonical
        result already cleared ``pending_done``.
        """
        owner = self.running.get(index)
        duration = self.lease_durations.get(index, self.policy.lease_floor)
        age = now - self.start_times.get(index, now)
        self._drop_lease(index)
        self.running.pop(index, None)
        self.deadlines.pop(index, None)
        task = self._retry_task(index)
        if owner is not None:
            # Strip the cell from the owner's assignment so its eventual
            # death (or next "ready") cannot reschedule it a second time.
            self.assigned[owner] = [
                t for t in self.assigned.get(owner, []) if t.index != index
            ]
            handle = self.handles.get(owner)
            if handle is not None and owner not in self.retired:
                handle.soft_cancel()
                self.cancelled.setdefault(owner, now)
        self._journal_only(self._fabric_incident(
            "lease-expired", index, "LeaseExpired",
            f"lease on {self._cell_label(index)} expired after "
            f"{age:.1f}s (duration {duration:.1f}s; owner "
            f"{'worker %d' % owner if owner is not None else 'unknown'} "
            f"unreachable); ownership reclaimed and the cell rescheduled "
            f"from its last acked checkpoint",
            {"worker": owner, "age": round(age, 3),
             "lease": round(duration, 3)},
        ))
        self._counter("exec.lease_expired")
        self._instant(
            "lease-expired", cell=self._cell_label(index), worker=owner,
            age=round(age, 3),
        )
        self._reschedule([task], cause="lease-expired", worker=owner)

    # -- dispatch ----------------------------------------------------------

    def _next_batch(self, now: float) -> list[CellTask] | None:
        if self.batches:
            return self.batches.popleft()
        if self.retry_heap and self.retry_heap[0][0] <= now:
            return heapq.heappop(self.retry_heap)[2]
        return None

    def _dispatch(self, worker_id: int) -> None:
        if self.global_stop or worker_id in self.retired:
            return
        batch = self._next_batch(time.monotonic())
        if batch is None:
            self.idle.add(worker_id)
            return
        batch = [
            task for task in batch if task.index in self.pending_done
        ]
        if not batch:
            self._dispatch(worker_id)
            return
        self.assigned[worker_id] = batch
        self.idle.discard(worker_id)
        self.handles[worker_id].send(batch)

    def _speculate(self, now: float) -> None:
        """Re-execute the worst straggler on an idle worker."""
        if not (self.policy.speculate and self.idle):
            return
        if self.batches or self.retry_heap:
            return
        mean = self.model.mean_wall()
        if mean is None:
            return
        threshold = self.policy.straggler_factor * mean
        candidates = [
            (now - started, index)
            for index, started in self.start_times.items()
            if index in self.pending_done
            and index not in self.speculated
            and now - started > threshold
        ]
        if not candidates:
            return
        _, index = max(candidates)
        worker_id = min(self.idle)
        task = self._retry_task(index)
        self.speculated.add(index)
        self.idle.discard(worker_id)
        self.assigned[worker_id] = [task]
        self.handles[worker_id].send([task])
        self._counter("exec.speculative")
        self._instant(
            "speculate", cell=self._cell_label(index), worker=worker_id,
        )

    # -- escalation & liveness ---------------------------------------------

    def _reap_dead(self) -> None:
        for worker_id in list(self.handles):
            if worker_id in self.retired:
                continue
            if not self.handles[worker_id].alive():
                self._worker_death(
                    worker_id,
                    "worker-hang" if worker_id in self.cancelled
                    else "worker-crash",
                    "exit",
                )
                if self.abort_exc is not None:
                    return

    def _tick(self, now: float) -> None:
        self._reclaim_expired_leases(now)
        if self.abort_exc is not None:
            return
        # Hang / deadline escalation: only workers with in-flight cells
        # owe us heartbeats; idle workers are silent by design.
        for worker_id in list(self.handles):
            if worker_id in self.retired:
                continue
            handle = self.handles[worker_id]
            in_flight = [
                task.index for task in self.assigned[worker_id]
                if task.index in self.pending_done
            ]
            if worker_id in self.cancelled:
                if now - self.cancelled[worker_id] > self.policy.grace_period:
                    self._worker_death(worker_id, "worker-hang", "grace")
                    if self.abort_exc is not None:
                        return
                continue
            if not in_flight:
                continue
            silent = now - self.last_seen.get(worker_id, now)
            over_deadline = any(
                self.deadlines.get(index) is not None
                and now > self.deadlines[index]
                and self.running.get(index) == worker_id
                for index in in_flight
            )
            if silent > self.policy.hang_timeout or over_deadline:
                handle.soft_cancel()
                self.cancelled[worker_id] = now
                self._counter("exec.soft_cancels")
                self._instant(
                    "soft-cancel", worker=worker_id,
                    silent=round(silent, 3), deadline=over_deadline,
                )
        # Due retries → idle workers.
        while (
            self.idle and self.retry_heap and self.retry_heap[0][0] <= now
        ):
            self._dispatch(self.idle.pop())
        self._speculate(now)

    # -- message handling --------------------------------------------------

    def _recv_with_chaos(self, timeout: float) -> list[tuple]:
        message = self.backend.recv(timeout)
        if message is None:
            return []
        if self.chaos is None:
            return [message]
        kind = message[0]
        copies = 1
        if kind in ("partial", "telemetry", "cell"):
            if self._chaos_droppable in self.chaos.drop_ordinals:
                self._chaos_droppable += 1
                self._counter("exec.chaos.dropped")
                return []
            self._chaos_droppable += 1
        if kind in ("cell", "partial"):
            if self._chaos_dupable in self.chaos.dup_ordinals:
                copies = 2
                self._counter("exec.chaos.duplicated")
            self._chaos_dupable += 1
        return [message] * copies

    def _handle(self, message: tuple) -> None:
        kind = message[0]
        worker_id = message[1]
        self.last_seen[worker_id] = time.monotonic()
        self._renew_leases(worker_id, self.last_seen[worker_id])
        if worker_id in self.cancelled:
            # Still responsive: postpone the kill — a cancelled worker
            # that keeps talking will stop at its next sample boundary.
            self.cancelled[worker_id] = self.last_seen[worker_id]
        if kind == "ready":
            if worker_id in self.retired:
                return
            # Per-worker FIFO means every result of the finished batch
            # already arrived — anything still pending was lost in flight
            # (dropped message, torn transport) and must be re-executed.
            lost = [
                task for task in self.assigned[worker_id]
                if task.index in self.pending_done
                and not self.global_stop
            ]
            self.assigned[worker_id] = []
            for task in lost:
                self.running.pop(task.index, None)
                self._drop_lease(task.index)
            if lost:
                self._counter("exec.lost_results", len(lost))
                self._reschedule(
                    lost, cause="lost-result", worker=worker_id
                )
                if self.abort_exc is not None:
                    return
            if worker_id in self.cancelled:
                return  # it is about to stop; don't race a new batch
            self._dispatch(worker_id)
        elif kind == "start":
            _, _, index, golden_cycles = message
            self.cell_golden[index] = golden_cycles
            task = next(
                (t for t in self.assigned[worker_id] if t.index == index),
                self.tasks[index],
            )
            self.units[index] = float(golden_cycles) * _samples_to_run(task)
            now = time.monotonic()
            self.start_times[index] = now
            self.running[index] = worker_id
            predicted = self.model.predict(self.units[index])
            self.deadlines[index] = (
                now + predicted if predicted is not None else None
            )
            self._grant_lease(index, now)
        elif kind == "heartbeat":
            self._counter("exec.heartbeats")
        elif kind == "partial":
            _, _, index, key, state = message
            if index in self.pending_done:
                self.live[index] = state
                if self.store is not None:
                    self.store.put_partial(key, state)
        elif kind == "cell":
            _, _, index, state = message
            if index not in self.pending_done:
                return  # duplicate from a reschedule or speculation
            started = self.start_times.pop(index, None)
            if started is not None:
                self.model.record(
                    self.units.get(index), time.monotonic() - started
                )
            self.deadlines.pop(index, None)
            self.running.pop(index, None)
            self._drop_lease(index)
            if self.store is not None:
                task = self.tasks[index]
                self.store.put(task.cell_key, task.result(state))
            self._finish(index, state)
            if self.parent_tel is not None and self.pending_done:
                # Finished cells waiting on an earlier one — how far ahead
                # of canonical order the schedule ran.
                first = min(self.pending_done)
                self.parent_tel.metrics.gauge(
                    "exec.scheduler.reorder_depth"
                ).set_max(float(sum(1 for i in self.results if i > first)))
        elif kind == "telemetry":
            self._absorb_telemetry(message)
        elif kind == "incident":
            _, _, data = message
            from repro.core.supervisor import Incident

            self._record_incident(Incident.from_dict(data))
            self.total_incidents += 1
            self.lost_sample_incidents += 1
            self._budget_abort("worker-contained incident")
        elif kind == "fatal":
            _, _, index, error_type, detail = message
            self._retire(worker_id)
            self.abort_exc = InjectionIncident(
                f"worker {worker_id} aborted on cell "
                f"{self._cell_label(index)}: {error_type}: {detail}"
            )
        elif kind == "stopped":
            was_cancelled = worker_id in self.cancelled
            self._retire(worker_id)
            if self.global_stop:
                return
            remaining = [
                task for task in self.assigned[worker_id]
                if task.index in self.pending_done
            ]
            self.assigned[worker_id] = []
            for task in remaining:
                self.running.pop(task.index, None)
                self._drop_lease(task.index)
            if remaining:
                self._reschedule(
                    remaining,
                    cause="cancelled" if was_cancelled else "stopped",
                    worker=worker_id,
                )
            if was_cancelled and self.abort_exc is None:
                self._replace_worker()
        elif kind == "bye":
            self._retire(worker_id)

    # -- degradation -------------------------------------------------------

    def _serial_fallback(self) -> None:
        """The pool is gone: finish the remaining cells in-process.

        Cells that already exhausted their attempt budget are quarantined
        first — a cell that killed every worker it touched must not take
        the parent down with it.  The rest resume from their freshest
        acked checkpoint.
        """
        self._mark_degraded("no live workers remain")
        remaining = sorted(self.pending_done)
        self._instant("serial-fallback", cells=len(remaining))
        self._counter("exec.serial_fallback_cells", len(remaining))
        for index in remaining:
            if self.abort_exc is not None:
                return
            task = self._retry_task(index)
            if task.attempt >= self.policy.max_attempts:
                self._quarantine(task, "degraded")
                continue
            before = (
                self.supervisor.incident_count
                if self.supervisor is not None else 0
            )
            try:
                run_tasks(
                    [task], self.config, self.core_cfg, store=self.store,
                    done=lambda task, state: self._finish(task.index, state),
                    supervisor=self.supervisor,
                    checkpoint_every=self.checkpoint_every,
                    verify=self.verify, prune=self.prune,
                )
            except InjectionIncident as exc:
                self.abort_exc = exc
                return
            if self.supervisor is not None:
                contained = self.supervisor.incident_count - before
                self.total_incidents += contained
                self.lost_sample_incidents += contained

    # -- shutdown paths ----------------------------------------------------

    def _drain_for_checkpoints(self, timeout: float = 10.0) -> None:
        """Absorb in-flight messages while stopping workers wind down.

        Everything durable that arrives during the drain — final mid-cell
        checkpoints, cells that completed in the shutdown window — is
        written to the store, so an interrupted run loses at most the
        unsampled remainder of each worker's current injection.
        """
        deadline = time.monotonic() + timeout
        while self._alive_ids() and time.monotonic() < deadline:
            message = self.backend.recv(_POLL_INTERVAL)
            if message is None:
                continue
            if message[0] == "ready":
                # Shut finished workers down instead of dispatching.
                if message[1] not in self.retired:
                    self.handles[message[1]].send(None)
            elif message[0] in ("partial", "cell", "telemetry", "stopped",
                                "bye"):
                self._handle(message)

    def _absorb_telemetry(self, message: tuple) -> None:
        """Keep a worker's metric delta and adopt its trace events.

        A cell keeps the delta of the completion that is merged, like its
        first "cell" message.  Deltas for cells that were already merged
        (raced duplicates from reschedules or speculation) are counted as
        ``exec.lost_deltas`` rather than silently dropped — the
        serial/parallel ``sim.*`` equality contract only holds for
        incident-free runs, and the counter is how an operator sees why.
        """
        if self.parent_tel is None:
            return
        _, worker_id, index, delta, events = message
        if index is None:
            self.worker_deltas.append(delta)
        elif index in self.pending_done:
            self.cell_deltas[index] = delta
        else:
            self._counter("exec.lost_deltas")
        self.parent_tel.tracer.adopt(events, tid=worker_id + 1)

    def _shutdown(self) -> None:
        for worker_id, handle in self.handles.items():
            if worker_id in self.retired:
                continue
            handle.soft_cancel()
            handle.send(None)
        for handle in self.handles.values():
            handle.join(timeout=5.0)
        for handle in self.handles.values():
            if handle.alive():
                handle.kill()
                handle.join(timeout=1.0)
        if self.parent_tel is not None:
            # Telemetry still queued after every worker has exited.
            while (message := self.backend.recv(0.2)) is not None:
                if message[0] == "telemetry":
                    self._absorb_telemetry(message)
            # Canonical-order merge: same input order every run, and the
            # merge operators themselves are order-independent — either
            # property alone makes merged counters deterministic.
            for index in sorted(self.cell_deltas):
                self.parent_tel.metrics.merge_dict(self.cell_deltas[index])
            for delta in self.worker_deltas:
                self.parent_tel.metrics.merge_dict(delta)
        self.backend.close()

    # -- the main loop -----------------------------------------------------

    def run(self) -> dict[int, CellCheckpoint]:
        if not self.tasks:
            return self.results
        jobs = max(1, min(self.jobs, len(self.tasks)))
        batches = _affinity_batches(list(self.tasks.values()), jobs)
        self.batches = deque(batches)
        self.max_restarts = jobs * self.policy.restarts_per_worker
        spec = WorkerSpec(
            config=self.config, core_cfg=self.core_cfg,
            supervised=self.supervisor is not None, strict=self.strict,
            watchdog=self.watchdog, checkpoint_every=self.checkpoint_every,
            telemetry_enabled=self.parent_tel is not None,
            verify=self.verify,
            prune=self.prune,
            heartbeat_interval=self.policy.heartbeat_interval,
            chaos=self.chaos,
        )
        self.backend = create_backend(
            self.backend_name, spec, self.backend_options
        )
        if self.parent_tel is not None:
            self.parent_tel.metrics.gauge("exec.scheduler.batches").set_max(
                len(batches)
            )
        for _ in range(min(jobs, len(batches))):
            self._spawn()
        try:
            while self.pending_done and self.abort_exc is None:
                self._reap_dead()
                if self.abort_exc is not None:
                    break
                if not self._alive_ids():
                    if self.policy.degrade_to_serial and not self.global_stop:
                        self._serial_fallback()
                    elif self.abort_exc is None:
                        self.abort_exc = WorkerCrash(
                            f"all workers died ({self.restarts} restart(s) "
                            f"used of {self.max_restarts}) and serial "
                            f"degradation is disabled"
                        )
                    break
                for message in self._recv_with_chaos(_POLL_INTERVAL):
                    self._handle(message)
                    if self.abort_exc is not None:
                        break
                if self.abort_exc is None:
                    self._tick(time.monotonic())
        except KeyboardInterrupt:
            # Graceful drain (SIGINT and SIGTERM both land here): let
            # every worker finish its current sample, flush its final
            # mid-cell checkpoint, and exit; persist whatever arrives so
            # --resume continues bit-identically.
            self.global_stop = True
            for worker_id, handle in self.handles.items():
                if worker_id not in self.retired:
                    handle.soft_cancel()
            self._drain_for_checkpoints()
            if self.store is not None:
                self.store.compact()
            raise
        finally:
            self.global_stop = True
            self._shutdown()

        if self.abort_exc is not None:
            if self.store is not None:
                self.store.compact()
            raise self.abort_exc
        return self.results


def run_campaign_parallel(
    config: CampaignConfig,
    jobs: int,
    progress: ProgressFn | None = None,
    store: CampaignStore | None = None,
    core_cfg: CoreConfig = DEFAULT_CONFIG,
    *,
    supervisor=None,
    checkpoint_every: int | None = DEFAULT_CHECKPOINT_EVERY,
    resume: bool = True,
    verify: bool = False,
    prune: bool = False,
    backend: str = "multiprocessing",
    backend_options: dict | None = None,
    policy: ResiliencePolicy | None = None,
    chaos: ChaosSpec | None = None,
    _crash_spec: dict | None = None,
) -> CampaignResult:
    """Run a campaign across *jobs* workers behind an executor backend.

    Drop-in equivalent of the serial :func:`~repro.core.campaign.run_campaign`
    body: same store semantics (cached cells are served without
    simulation, new cells are persisted as they finish), same supervisor
    contract (*supervisor*'s journal receives every incident and its
    ``incident_count`` grows), same result — byte-identical JSON.

    *backend* names the executor backend (see
    :data:`repro.core.executor.ALL_BACKEND_NAMES`) and *backend_options*
    are passed to its constructor (e.g. ``{"host": ..., "port": ...,
    "autospawn": False}`` for a listening socket coordinator); *policy*
    tunes the resilience protocol; *chaos* injects deterministic faults
    into the fabric (see
    :mod:`repro.core.chaos`).  *_crash_spec* is the legacy test hook:
    ``{"cell": [w, c, k], "flag": path}`` makes the first worker that
    reaches that cell die unannounced (now sugar for a one-kill chaos
    spec).
    """
    if _crash_spec is not None and chaos is None:
        workload, component, cardinality = _crash_spec["cell"]
        chaos = ChaosSpec(events=(ChaosEvent(
            "kill", workload, component, cardinality, ordinal=0,
            exit_code=_crash_spec.get("exit_code", 64),
            flag=_crash_spec["flag"],
        ),))
    cells = CampaignCells(config, store, core_cfg, resume, progress)
    tel = obs.active()
    if tel is not None and cells.tasks:
        tel.metrics.counter("exec.scheduler.cells_cached").inc(
            len(cells.results)
        )
    scheduler = _Scheduler(
        cells.tasks, config, jobs, store, core_cfg, supervisor,
        checkpoint_every, verify, prune, backend,
        policy if policy is not None else ResiliencePolicy(), chaos,
        backend_options, done=cells.done,
    )
    scheduler.run()
    return cells.result(scheduler.lost_sample_incidents)


def run_wave(
    tasks: list[CellTask],
    config: CampaignConfig,
    core_cfg: CoreConfig = DEFAULT_CONFIG,
    *,
    jobs: int = 1,
    supervisor=None,
    verify: bool = False,
    prune: bool = False,
    backend: str = "multiprocessing",
    backend_options: dict | None = None,
    policy: ResiliencePolicy | None = None,
) -> tuple[dict[int, CellCheckpoint], int]:
    """Run one wave of storeless *tasks*: serially in-process at
    ``jobs=1``, else on the scheduler.

    Returns every task's end state by index and the samples the wave lost
    to contained incidents.  The end states do not depend on *jobs* or
    *backend*: every task runs through
    :func:`~repro.core.campaign.run_cell` either way.
    """
    if jobs <= 1:
        states: dict[int, CellCheckpoint] = {}

        def done(task: CellTask, state: CellCheckpoint) -> None:
            states[task.index] = state

        before = supervisor.incident_count if supervisor is not None else 0
        run_tasks(
            tasks, config, core_cfg, done=done,
            supervisor=supervisor, checkpoint_every=None,
            verify=verify, prune=prune,
        )
        after = supervisor.incident_count if supervisor is not None else 0
        return states, after - before
    scheduler = _Scheduler(
        tasks, config, jobs, None, core_cfg, supervisor, None, verify,
        prune, backend,
        policy if policy is not None else ResiliencePolicy(), None,
        backend_options,
    )
    return scheduler.run(), scheduler.lost_sample_incidents
