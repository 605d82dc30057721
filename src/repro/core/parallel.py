"""Parallel campaign execution: resilient cell scheduler, deterministic merge.

The campaign grid (15 workloads × 6 components × 3 cardinalities in the
paper's setup) is embarrassingly parallel at cell granularity: every cell
seeds its own fault generator and injection-cycle RNG from
``f"{seed}:{workload}:{component}:{cardinality}"``, so no cell's outcome
depends on any other cell's execution, and a parallel run is bit-identical
to the serial one *by construction* — the scheduler only has to merge
results back into the canonical ``config.cells()`` order.

Architecture (one parent, N workers, one session each):

* **One worker session, two launchers.**  The scheduler speaks to
  workers only through the coordinator
  (:class:`~repro.core.coordinator.SocketBackend`, which it builds
  itself): ``spawn`` a worker, ``recv`` its next message.  Every worker
  speaks the same CRC-checked, epoch-stamped frames; ``--backend`` only
  picks whether it is forked from the parent (``multiprocessing``) or
  starts a fresh interpreter that dials in over TCP (``socket``).
* **One work queue, one message pump.**  Initial batches and retries
  wait in one heap ordered by when they are due; every message, while
  running and while stopping, goes through :meth:`_Scheduler._handle`.
* **Tasks, not grids.**  The scheduler runs a list of
  :class:`~repro.core.campaign.CellTask` objects — whole cells of a campaign
  or the batches of an adaptive wave — for
  :func:`~repro.core.campaign.run_tasks`, the one executor of cell tasks,
  which picks this pool at ``jobs > 1``; each task runs through
  :func:`~repro.core.campaign.run_cell` on a worker and its end state goes
  back to the caller.  The scheduler is built from the
  :class:`~repro.core.executor.WorkerSpec` it ships to its workers.
* **Sharding with workload affinity.**  Cells are grouped by workload and
  groups are handed to workers whole, so a worker fills a workload's
  :class:`~repro.core.campaign.CheckpointedWorkload` snapshot set once
  instead of once per cell.
* **Single-writer store.**  Workers never touch the
  :class:`~repro.core.campaign.CampaignStore`; they stream end states
  and mid-cell checkpoints to the parent, which is the only process
  appending to the store journal and the incident journal.
* **Progress-based failure detection.**  Every worker reports its CPU
  time from a reporter thread; the value advances whenever the worker
  computes, in any phase, and stays flat while it sleeps, blocks or is
  cut off.  One rule covers hangs, wedged workers and partitioned or
  half-open connections alike: a worker with in-flight cells whose
  progress has not advanced for the policy's ``hang_timeout`` is
  stalled — its cells are reclaimed from their last streamed
  checkpoint, a ``worker-hang`` incident is journalled, and the worker
  is killed (a socket worker's connection severed) and replaced within
  the restart budget.  A slow worker that keeps making progress keeps
  its cells.  A late duplicate result from the old owner is suppressed
  by the first-canonical-result-wins rule (cells are deterministic, so
  every copy carries the same bytes).  See DESIGN.md §12.4.
* **Bounded retry with backoff.**  Every reschedule (crash, stall, lost
  result) is journalled as a structured ``retry`` incident — attempt
  number, backoff delay, cause — and re-dispatched after an exponential
  backoff with deterministic jitter.  A cell that fails
  ``max_attempts`` times is **quarantined** as a ``poison-cell``
  incident: its last streamed checkpoint becomes its (short) result, the
  missing samples count as lost, and the campaign survives — unless the
  supervisor escalates the incident (``--strict``/``--max-incidents``).
* **Graceful degradation.**  Worker deaths beyond the restart budget stop
  the respawning: the pool shrinks, and when it reaches zero the parent
  finishes the remaining (non-quarantined) cells serially in-process
  through :func:`~repro.core.campaign.run_tasks` — a failing backend
  degrades a campaign's speed, never its answer.
* **Incident forwarding, telemetry streaming, graceful Ctrl-C/SIGTERM**
  — the parent hands every incident a worker forwards, and every fabric
  incident (worker crash, stall, poison cell), to the campaign's one
  :class:`~repro.core.supervisor.Supervisor`, which journals, counts and
  escalates it; its raise becomes the scheduler's abort.  The parent
  also merges per-cell metric deltas in canonical order and reports each
  finished task to its caller (which fires progress in canonical order).
  SIGINT/SIGTERM, an abort and the end of the run stop the pool alike:
  every worker is handed its shutdown at once, and the pump persists
  the final checkpoints until every worker has said goodbye (or
  ``_DRAIN_TIMEOUT`` passes), so a rerun on the same store continues
  bit-identically.

The deterministic chaos harness (:mod:`repro.core.chaos`,
``repro-campaign chaos``) injects worker kills, stalls, dropped and
duplicated queue messages and torn checkpoint writes into this fabric
and asserts the byte-identical-to-serial guarantee survives all of it.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import time
from typing import Callable

from repro import obs

from repro.core.campaign import (
    CellCheckpoint,
    CellTask,
    golden_run,
    run_tasks,
)
from repro.core.avf import ClassCounts
from repro.core.coordinator import SocketBackend, _SocketHandle
from repro.core.executor import ResiliencePolicy, WorkerSpec
from repro.core.supervisor import Incident
from repro.errors import InjectionIncident
from repro.workloads import get_workload

#: How long the parent waits on the backend before running its liveness /
#: stall / retry tick.  Small enough that a crashed worker is noticed
#: promptly, large enough not to busy-wait.
_POLL_INTERVAL = 0.1

#: How long a stopping pool may take to wind down — finish the current
#: sample, flush its checkpoint and say goodbye — before the workers
#: still running are killed.
_DRAIN_TIMEOUT = 10.0

#: CPU seconds a progress report must add to the worker's last accepted
#: one to count as progress.  Far above the reporter's own measurement
#: jitter (microseconds while the worker sleeps), far below what any
#: computing worker adds within a hang timeout.
_MIN_PROGRESS_CPU = 0.001

#: Replacement workers the scheduler may spawn per worker it started with
#: before it stops respawning and lets the pool shrink.
_WORKER_RESTARTS = 2


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


@dataclasses.dataclass
class _Worker:
    """The scheduler's record of one pool worker: the batch it holds
    (finished cells stay in it until it is taken), whether it sent its
    last message or was killed (*retired*) and whether it asked for work
    when none was due (*idle*); then the failure detector's state, when
    it last made CPU progress (or was handed work) and how much CPU that
    was."""

    handle: _SocketHandle
    batch: list[CellTask] = dataclasses.field(default_factory=list)
    retired: bool = False
    idle: bool = False
    last_progress: float = 0.0
    progress_cpu: float = 0.0


class _Scheduler:
    """One list of cell tasks' resilient parent loop over an executor
    backend, running every task as *spec* describes under *supervisor*;
    :meth:`run` reports each end state to *done* and returns the samples
    lost to contained incidents."""

    def __init__(
        self,
        tasks: list[CellTask],
        spec: WorkerSpec,
        jobs: int,
        *,
        store,
        supervisor,
        backend: str,
        backend_options: dict | None,
        policy: ResiliencePolicy,
        done: Callable[[CellTask, CellCheckpoint], None] | None,
    ) -> None:
        self.spec = spec
        self.jobs = max(1, min(jobs, len(tasks)))
        self.store = store
        self.supervisor = supervisor
        self.backend_name = backend
        self.backend_options = backend_options
        self.policy = policy
        self.done = done

        self.tasks: dict[int, CellTask] = {task.index: task for task in tasks}

        # Pool / dispatch state.  ``queue`` holds every batch waiting for
        # a worker — initial ones due at once, retries after their
        # backoff — as ``(due, seq, batch)``.
        self.backend: SocketBackend | None = None
        self.workers: dict[int, _Worker] = {}
        self.queue: list[tuple[float, int, list[CellTask]]] = []
        self._seq = itertools.count()
        self.attempts: dict[int, int] = {}
        self.restarts = 0
        self.max_restarts = self.jobs * _WORKER_RESTARTS
        self.degraded = False
        self.global_stop = False

        # A task is pending until it has an end state; ``pending`` holds
        # its freshest acked checkpoint — where a retry resumes.
        self.pending: dict[int, CellCheckpoint | None] = {
            task.index: task.start for task in tasks
        }

        # Accounting.
        self.lost_samples = 0
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

    def _incident(self, incident, cause=None) -> None:
        """Hand *incident* to the supervisor, which journals, counts and
        escalates it; an escalation aborts the run.  Bookkeeping records
        (retries, degradation notes) skip this and go to the journal
        alone: the failure behind them was already counted."""
        try:
            self.supervisor.record(incident, cause)
        except InjectionIncident as exc:
            self._abort(exc)

    def _fabric_incident(self, kind, index, error_type, message, details):
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
                f"{self.spec.config.seed}:{workload}:{component}:"
                f"{cardinality}"
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
            self.tasks[index], start=self.pending.get(index),
            attempt=self.attempts.get(index, 0),
        )

    def _finish(self, index: int, state: CellCheckpoint) -> None:
        """Record a task's end state, count the samples it lost, and
        report it to the caller."""
        task = self.tasks[index]
        # From end states alone, as in-process runs count them: a sample
        # that a retry reran and lost again is lost once.
        self.lost_samples += (
            task.samples - state.counts.total
            - (task.start.lost if task.start else 0)
        )
        self.pending.pop(index, None)
        if self.done is not None:
            self.done(task, state)

    def _live_workers(self) -> list[_Worker]:
        return [
            worker for worker in self.workers.values()
            if not worker.retired and worker.handle.alive()
        ]

    # -- pool management ---------------------------------------------------

    def _spawn(self) -> None:
        try:
            handle = self.backend.spawn()
        except Exception as exc:  # noqa: BLE001 - backend failure → degrade
            self._mark_degraded(f"backend spawn failed: {exc}")
            return
        self.workers[handle.worker_id] = _Worker(handle)
        self._counter("exec.workers_spawned")

    def _mark_degraded(self, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        self.supervisor.journal.append(self._fabric_incident(
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
        if self.degraded:
            return
        if self.restarts >= self.max_restarts:
            self._mark_degraded(
                f"restart budget of {self.max_restarts} exhausted"
            )
            return
        self.restarts += 1
        self._spawn()

    def _take_in_flight(self, worker: _Worker) -> list[CellTask]:
        """Unassign *worker*'s batch; return its still-pending cells."""
        remaining = [
            task for task in worker.batch if task.index in self.pending
        ]
        worker.batch = []
        return remaining

    # -- failure handling --------------------------------------------------

    def _abort(self, exc: Exception) -> None:
        """Fail the run with *exc* once the pool has stopped."""
        self.abort_exc = exc
        self._stop()

    def _worker_death(self, worker: _Worker, kind: str, cause: str) -> None:
        """A worker died (or was killed for stalling): report the incident,
        reschedule its in-flight cells, and replace it within budget."""
        handle = worker.handle
        worker_id = handle.worker_id
        handle.kill()
        handle.join(timeout=1.0)  # reap, so exitcode is real in the record
        worker.retired = True
        remaining = self._take_in_flight(worker)
        label = self._cell_label(remaining[0].index) if remaining else "idle"
        # The telemetry a worker accumulated since its last per-cell ship
        # dies with it — count the loss instead of silently absorbing it.
        lost_deltas = len(remaining)
        self._counter("exec.lost_deltas", lost_deltas)
        verb = (
            f"died with exit code {handle.exitcode()}" if kind == "worker-crash"
            else f"made no CPU progress for {self.policy.hang_timeout:g}s "
            f"and was killed"
        )
        self._incident(self._fabric_incident(
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
        ))
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
                self.queue,
                (now + delay, next(self._seq), [self._retry_task(index)]),
            )
            self.supervisor.journal.append(self._fabric_incident(
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
        state = self.pending.get(index)
        if state is None:
            # Fault-free golden run in the parent: safe (the poison is in
            # the cell's *injections*) and cached.  No RNG state to carry:
            # a quarantined cell is never resumed.
            state = CellCheckpoint(
                samples_done=0, counts=ClassCounts(), cycle_rng_state=None,
                generator_rng_state=None, golden_cycles=golden_run(
                    get_workload(task.workload), self.spec.core_cfg,
                    cores=self.spec.config.cores,
                ).cycles,
            )
        done = state.samples_done
        lost = max(0, task.samples - done)
        attempts = self.attempts.get(index, 0)
        self._counter("exec.quarantined")
        self._finish(index, state)
        self._incident(self._fabric_incident(
            "poison-cell", index, "PoisonCell",
            f"cell {self._cell_label(index)} failed {attempts} "
            f"attempt(s) (last cause: {cause}) and was quarantined; "
            f"{done} sample(s) salvaged from its last checkpoint, "
            f"{lost} lost",
            {"attempts": attempts, "cause": cause,
             "samples_kept": done, "samples_lost": lost},
        ))

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, worker: _Worker) -> None:
        """Hand *worker* the first due batch that still has pending
        cells, or mark it idle if none is due."""
        now = time.monotonic()
        while self.queue and self.queue[0][0] <= now:
            batch = [
                task for task in heapq.heappop(self.queue)[2]
                if task.index in self.pending
            ]
            if batch:
                worker.batch = batch
                worker.idle = False
                worker.last_progress = now  # its progress clock starts
                worker.handle.send(batch)
                return
        worker.idle = True

    # -- failure detection -----------------------------------------------

    def _tick(self, now: float) -> None:
        for worker in list(self.workers.values()):
            if not worker.retired and not worker.handle.alive():
                self._worker_death(worker, "worker-crash", "exit")
                if self.abort_exc is not None:
                    return
        # The one failure rule: a worker holding in-flight cells whose
        # CPU progress has not advanced for hang_timeout is stalled.
        # Idle workers owe no progress.  At most one verdict per tick, so
        # every verdict is taken on a freshly drained inbox.
        for worker in list(self.workers.values()):
            if worker.retired or not any(
                task.index in self.pending for task in worker.batch
            ):
                continue
            if now - worker.last_progress > self.policy.hang_timeout:
                self._worker_death(worker, "worker-hang", "stall")
                return
        # Due retries → idle workers.
        for worker in list(self.workers.values()):
            if not (self.queue and self.queue[0][0] <= now):
                return
            if worker.idle and not worker.retired:
                self._dispatch(worker)

    # -- message handling --------------------------------------------------

    def _recv_with_chaos(self, timeout: float) -> list[tuple]:
        message = self.backend.recv(timeout)
        if message is None:
            return []
        chaos = self.spec.chaos
        if chaos is None:
            return [message]
        kind = message[0]
        copies = 1
        if kind in ("partial", "telemetry", "cell"):
            if self._chaos_droppable in chaos.drop_ordinals:
                self._chaos_droppable += 1
                self._counter("exec.chaos.dropped")
                return []
            self._chaos_droppable += 1
        if kind in ("cell", "partial"):
            if self._chaos_dupable in chaos.dup_ordinals:
                copies = 2
                self._counter("exec.chaos.duplicated")
            self._chaos_dupable += 1
        return [message] * copies

    def _pump(self, timeout: float) -> None:
        """Handle every message queued, waiting up to *timeout* for the
        first: reports that piled up while the parent was busy are not
        silence."""
        while messages := self._recv_with_chaos(timeout):
            for message in messages:
                self._handle(message)
            timeout = 0

    def _handle(self, message: tuple) -> None:
        kind = message[0]
        worker = self.workers[message[1]]
        if self.global_stop and kind in ("ready", "progress", "incident"):
            # A stopping pool: every worker already holds its shutdown,
            # and its reports change nothing.
            return
        if kind == "ready":
            if worker.retired:
                return
            # Per-worker FIFO means every result of the finished batch
            # already arrived — anything still pending was lost in flight
            # (dropped message, torn transport) and must be re-executed.
            lost = self._take_in_flight(worker)
            if lost:
                self._counter("exec.lost_results", len(lost))
                self._reschedule(
                    lost, cause="lost-result", worker=worker.handle.worker_id
                )
                if self.abort_exc is not None:
                    return
            self._dispatch(worker)
        elif kind == "progress":
            cpu = message[2]
            if cpu > worker.progress_cpu + _MIN_PROGRESS_CPU:
                worker.progress_cpu = cpu
                worker.last_progress = time.monotonic()
        elif kind == "partial":
            _, _, index, key, state = message
            if index in self.pending:
                self.pending[index] = state
                if self.store is not None:
                    self.store.put_partial(key, state)
        elif kind == "cell":
            _, _, index, state = message
            if index not in self.pending:
                return  # duplicate from a reschedule
            if self.store is not None:
                task = self.tasks[index]
                self.store.put(task.cell_key, task.result(state))
            self._finish(index, state)
            if self.parent_tel is not None and self.pending:
                # Finished cells waiting on an earlier one — how far ahead
                # of canonical order the schedule ran.
                first = min(self.pending)
                self.parent_tel.metrics.gauge(
                    "exec.scheduler.reorder_depth"
                ).set_max(float(sum(
                    i > first and i not in self.pending for i in self.tasks
                )))
        elif kind == "telemetry":
            self._absorb_telemetry(message)
        elif kind == "incident":
            _, _, data, cause = message
            self._incident(Incident.from_dict(data), cause)
        elif kind == "fatal":
            _, worker_id, index, error_type, detail, exc = message
            worker.retired = True
            if not self.global_stop:
                self._abort(exc if exc is not None else InjectionIncident(
                    f"worker {worker_id} aborted on cell "
                    f"{self._cell_label(index)}: {error_type}: {detail}"
                ))
        elif kind == "stopped":
            worker.retired = True
            remaining = self._take_in_flight(worker)
            if remaining and not self.global_stop:
                self._reschedule(
                    remaining, cause="stopped", worker=worker.handle.worker_id
                )
        elif kind == "bye":
            worker.retired = True

    def _absorb_telemetry(self, message: tuple) -> None:
        """Keep a worker's metric delta and adopt its trace events.

        A cell keeps the delta of the completion that is merged, like its
        first "cell" message.  Deltas for cells that were already merged
        (raced duplicates from reschedules) are counted as
        ``exec.lost_deltas`` rather than silently dropped — the
        serial/parallel ``sim.*`` equality contract only holds for
        incident-free runs, and the counter is how an operator sees why.
        """
        if self.parent_tel is None:
            return
        _, worker_id, index, delta, events = message
        if index is None:
            self.worker_deltas.append(delta)
        elif index in self.pending:
            self.cell_deltas[index] = delta
        else:
            self._counter("exec.lost_deltas")
        self.parent_tel.tracer.adopt(events, tid=worker_id + 1)

    # -- degradation -------------------------------------------------------

    def _serial_fallback(self) -> None:
        """The pool is gone: finish the remaining cells in-process.

        Cells that already exhausted their attempt budget are quarantined
        first — a cell that killed every worker it touched must not take
        the parent down with it.  The rest resume from their freshest
        acked checkpoint.
        """
        self._mark_degraded("no live workers remain")
        remaining = sorted(self.pending)
        self._instant("serial-fallback", cells=len(remaining))
        self._counter("exec.serial_fallback_cells", len(remaining))
        for index in remaining:
            if self.abort_exc is not None:
                return
            task = self._retry_task(index)
            if task.attempt >= self.policy.max_attempts:
                self._quarantine(task, "degraded")
                continue
            try:
                run_tasks(
                    [task], self.spec.config, self.spec.core_cfg,
                    store=self.store, supervisor=self.supervisor,
                    done=lambda task, state: self._finish(task.index, state),
                    checkpoint_every=self.spec.checkpoint_every,
                    verify=self.spec.verify, prune=self.spec.prune,
                )
            except InjectionIncident as exc:
                self._abort(exc)
                return

    # -- stopping ----------------------------------------------------------

    def _stop(self) -> None:
        """Stop dispatching and hand every live worker its shutdown at
        once: a busy one flushes a final checkpoint at its next sample
        boundary and stops, an idle one says goodbye."""
        if self.global_stop:
            return
        self.global_stop = True
        for worker in self._live_workers():
            worker.handle.send(None)

    def _shutdown(self, drain: bool) -> None:
        """Stop the pool and, if *drain*, pump its last messages until
        every worker has said goodbye or ``_DRAIN_TIMEOUT`` has passed.

        Everything durable that arrives — final mid-cell checkpoints,
        cells that completed in the shutdown window — is written to the
        store, so an interrupted run loses at most the unsampled
        remainder of each worker's current injection.  Whatever still
        runs after the deadline is killed.
        """
        self._stop()
        deadline = time.monotonic() + _DRAIN_TIMEOUT
        try:
            while drain and self._live_workers() and (
                time.monotonic() < deadline
            ):
                self._pump(_POLL_INTERVAL)
        finally:
            self.backend.close()
        if self.parent_tel is not None:
            # Canonical-order merge: same input order every run, and the
            # merge operators themselves are order-independent — either
            # property alone makes merged counters deterministic.
            for index in sorted(self.cell_deltas):
                self.parent_tel.metrics.merge_dict(self.cell_deltas[index])
            for delta in self.worker_deltas:
                self.parent_tel.metrics.merge_dict(delta)

    # -- the main loop -----------------------------------------------------

    def run(self) -> int:
        if not self.tasks:
            return 0
        batches = _affinity_batches(list(self.tasks.values()), self.jobs)
        for batch in batches:  # due at once, longest first
            heapq.heappush(self.queue, (0.0, next(self._seq), batch))
        self.backend = SocketBackend(
            self.spec, fork=self.backend_name == "multiprocessing",
            **(self.backend_options or {}),
        )
        if self.parent_tel is not None:
            self.parent_tel.metrics.gauge("exec.scheduler.batches").set_max(
                len(batches)
            )
        ending = "failed"
        try:
            for _ in range(min(self.jobs, len(batches))):
                self._spawn()
            while self.pending and self.abort_exc is None:
                self._tick(time.monotonic())
                if self.abort_exc is None and not self._live_workers():
                    self._serial_fallback()
                    break
                self._pump(_POLL_INTERVAL)
            ending = "done"
        except KeyboardInterrupt:
            # SIGINT and SIGTERM both land here: the shutdown below drains
            # every worker's final checkpoint into the store, so a rerun
            # on it continues bit-identically.
            ending = "interrupted"
            raise
        finally:
            # A parent that failed (a store write, a caller's callback, a
            # simulated death) persists nothing more: its workers just go.
            self._shutdown(drain=ending != "failed")
            if self.store is not None and (
                ending == "interrupted" or self.abort_exc is not None
            ):
                self.store.compact()

        if self.abort_exc is not None:
            raise self.abort_exc
        return self.lost_samples
