"""Pluggable executor backends for the parallel campaign scheduler.

:mod:`repro.core.parallel` used to hard-wire one multiprocessing pool;
this module extracts the seam between *scheduling* (which cell runs
where, retries, quarantine — the parent's job) and *execution* (how a
worker process is spawned and spoken to — the backend's job), the same
dispatch abstraction DAVOS uses to run one campaign on either a
multicore PC or an SGE grid.

Two backends ship today:

* :class:`MultiprocessingBackend` — a ``multiprocessing`` pool (fork
  when available, spawn otherwise) with a task queue and a result pipe
  per worker.  Cheapest start-up, shares the parent's warm caches over
  fork.
* the socket backend (:mod:`repro.core.coordinator`) — workers in fresh
  interpreters, local or on other hosts, speaking CRC-checked frames
  (:mod:`repro.core.wire`) over TCP.  Nothing is shared with the parent
  but the byte stream.

Both backends run the same :func:`worker_loop`; a worker is defined by
the messages it exchanges, not by how its process was made:

parent → worker   ``batch`` (list of
                  :class:`~repro.core.campaign.CellTask`), ``None``
                  (shutdown), soft-cancel (per-worker stop flag)
worker → parent   ``("ready", wid)`` · ``("progress", wid, cpu_s)`` ·
                  ``("partial", wid, index, key, checkpoint)`` ·
                  ``("cell", wid, index, end_state)`` ·
                  ``("telemetry", wid, index|None, delta, events)`` ·
                  ``("incident", wid, data, cause)`` ·
                  ``("fatal", wid, index, type, detail)`` ·
                  ``("stopped", wid)`` · ``("bye", wid)``

A worker contains each injection in a forwarding supervisor that sends
the incident (with its exception, when that pickles) to the parent
instead of journalling it: the parent's supervisor is the only one that
journals, counts and escalates, so a worker needs no incident policy.

Every worker runs a progress reporter thread that sends its CPU time
(less the reporter's own) every ``report_interval``.  The value
advances whenever the worker computes — golden, checkpoint and liveness
builds, oracle runs, injections alike — and stays flat while it sleeps,
blocks or is partitioned away, so the scheduler's one failure rule
("no CPU progress for ``hang_timeout`` with cells in flight") needs no
simulator hook.  The :class:`ResiliencePolicy` dataclass holds the
tunables of the resilience protocol layered on top (see DESIGN.md §10).
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import pickle
import queue as queue_module
import signal
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.obs.metrics import subtract_snapshot

from repro.core.campaign import (
    CampaignConfig,
    CellCheckpoint,
    CellTask,
    run_task,
)
from repro.core.chaos import ChaosSpec
from repro.core.supervisor import Supervisor
from repro.cpu.config import CoreConfig
from repro.errors import CampaignInterrupted


#: Fraction of a retry's backoff added as deterministic jitter (at most).
RETRY_JITTER = 0.25


@dataclass(frozen=True)
class ResiliencePolicy:
    """The tunables of the executor fabric's failure handling.

    Failure detection is one rule (DESIGN.md §12.4): a worker with
    in-flight cells whose reported CPU progress has not advanced for
    ``hang_timeout`` seconds is stalled — its cells are reclaimed from
    their last acked checkpoint and the worker is killed (a socket
    worker's connection severed) and replaced within the restart budget.
    Workers report every :attr:`report_interval`.  A slow worker that is
    still progressing is never accused: it keeps its cells.
    """

    hang_timeout: float = 30.0
    max_attempts: int = 3
    retry_base_delay: float = 0.25
    retry_max_delay: float = 30.0

    @property
    def report_interval(self) -> float:
        """Seconds between a worker's progress reports: twenty per hang
        timeout, and at least two a second."""
        return min(0.5, self.hang_timeout / 20)

    def validate(self) -> None:
        """Reject self-contradictory knob combinations loudly.

        The CLI funnels user-supplied overrides through here so a typo'd
        ``--hang-timeout 0`` fails at argument time, not as a mysterious
        mid-campaign reclaim storm.
        """
        from repro.errors import ConfigError

        positive = {
            "hang_timeout": self.hang_timeout,
            "retry_base_delay": self.retry_base_delay,
            "retry_max_delay": self.retry_max_delay,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be > 0 (got {value})")
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1 (got {self.max_attempts})"
            )
        if self.retry_max_delay < self.retry_base_delay:
            raise ConfigError(
                f"retry_max_delay ({self.retry_max_delay}) must be >= "
                f"retry_base_delay ({self.retry_base_delay})"
            )

    def backoff(self, cell_key: str, attempt: int) -> float:
        """Exponential backoff with deterministic jitter.

        The jitter fraction is drawn from a hash of (cell key, attempt),
        so two schedulers retrying the same cell spread out identically —
        reproducible schedules, no thundering herd.
        """
        base = min(
            self.retry_max_delay,
            self.retry_base_delay * (2 ** max(0, attempt - 1)),
        )
        digest = hashlib.sha256(f"{cell_key}:{attempt}".encode()).digest()
        return base * (1.0 + RETRY_JITTER * digest[0] / 255.0)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to run cell batches, picklable."""

    config: CampaignConfig
    core_cfg: CoreConfig
    checkpoint_every: int | None
    telemetry_enabled: bool
    verify: bool
    prune: bool = False
    report_interval: float = 0.5
    chaos: ChaosSpec | None = None


# ---------------------------------------------------------------------------
# The shared worker loop (backend-independent)
# ---------------------------------------------------------------------------


class _ForwardingSupervisor(Supervisor):
    """Worker-side supervisor: contains each injection like any other,
    but forwards its incident to the parent, whose supervisor alone
    journals, counts and escalates it.  The contained exception travels
    along as the escalation's cause when it survives pickling."""

    def __init__(self, send: Callable, worker_id: int) -> None:
        super().__init__()
        self._send = send
        self._worker_id = worker_id

    def record(self, incident, cause=None) -> None:
        self._send((
            "incident", self._worker_id, incident.as_dict(), _portable(cause)
        ))


def _portable(exc: BaseException | None) -> BaseException | None:
    """*exc* if it survives a pickle round trip to the parent, else None."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - an unpicklable exception stays here
        return None
    return exc


class _SendStore:
    """Worker-side store proxy: streams checkpoints to the parent.

    Duck-types the one method :func:`~repro.core.campaign.run_cell` writes
    through; the parent is the single real-store writer.
    """

    def __init__(self, send: Callable, worker_id: int, index: int) -> None:
        self._send = send
        self._worker_id = worker_id
        self._index = index

    def put_partial(self, key: str, checkpoint: CellCheckpoint) -> None:
        self._send(("partial", self._worker_id, self._index, key, checkpoint))


class _TelemetryShipper:
    """Worker-side telemetry outbox: per-cell metric deltas + trace events.

    After every finished cell the worker snapshots its local registry,
    ships the delta since the previous snapshot (tagged with the cell's
    canonical index, so the parent can merge in canonical cell order) and
    drains its trace buffer into the same message; a cell interrupted by
    a soft-cancel ships its partial delta under its index too.
    Worker-scoped activity between cells ships with ``index=None`` at
    batch boundaries and shutdown.
    """

    def __init__(self, send: Callable, worker_id: int, telemetry) -> None:
        self._send = send
        self._worker_id = worker_id
        self._telemetry = telemetry
        self._base = (
            telemetry.metrics.as_dict() if telemetry is not None else None
        )

    def ship(self, index: int | None = None) -> None:
        if self._telemetry is None:
            return
        snapshot = self._telemetry.metrics.as_dict()
        delta = subtract_snapshot(snapshot, self._base)
        self._base = snapshot
        events = self._telemetry.tracer.drain()
        if index is None and not events and not any(
            delta[kind] for kind in ("counters", "histograms")
        ):
            return
        self._send(("telemetry", self._worker_id, index, delta, events))


def _make_probe(
    task: CellTask, spec: WorkerSpec, stop_flag: Callable[[], bool]
) -> Callable[[], bool]:
    """The per-sample stop probe: chaos hook + stop check.

    Probed once before every sample by :func:`run_cell`; the ordinal
    passed to the chaos hook counts probes within this dispatch (it
    restarts at 0 when a rescheduled cell resumes from a checkpoint).
    """
    ordinals = itertools.count()
    chaos = spec.chaos

    def probe() -> bool:
        ordinal = next(ordinals)
        if chaos is not None:
            chaos.worker_event(
                task.workload, task.component, task.cardinality, ordinal,
            )
        return stop_flag()

    return probe


def _serialised(send: Callable[[tuple], None]) -> Callable[[tuple], None]:
    """*send* behind a lock: the worker's main thread and its progress
    reporter share one transport, and a pipe ``Connection`` is not
    thread-safe."""
    lock = threading.Lock()

    def locked_send(message: tuple) -> None:
        with lock:
            send(message)

    return locked_send


def _report_progress(
    send: Callable[[tuple], None], worker_id: int, interval: float,
    finished: threading.Event,
) -> None:
    """Send this process's CPU time, less the reporter's own, every
    *interval* until *finished* — the scheduler's progress signal."""
    while not finished.wait(interval):
        send(("progress", worker_id,
              time.process_time() - time.thread_time()))


def worker_loop(
    worker_id: int,
    spec: WorkerSpec,
    recv_batch: Callable[[float], object],
    send: Callable[[tuple], None],
    stop_flag: Callable[[], bool],
) -> None:
    """Backend-independent worker body: batches in, messages out.

    *recv_batch* blocks up to its timeout and raises ``queue.Empty`` on
    expiry; it returns a list of :class:`CellTask` or ``None`` for
    shutdown.  *stop_flag* is the soft-cancel probe — polled between
    samples, so a cancelled worker flushes one final mid-cell checkpoint
    before exiting.  SIGINT/SIGTERM are ignored here: shutdown is the
    parent's job, delivered through the stop flag.  A daemon thread
    reports CPU progress for as long as the loop runs.
    """
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    send = _serialised(send)
    finished = threading.Event()
    threading.Thread(
        target=_report_progress,
        args=(send, worker_id, spec.report_interval, finished),
        name=f"repro-worker-{worker_id}-progress", daemon=True,
    ).start()
    try:
        _serve_batches(worker_id, spec, recv_batch, send, stop_flag)
    finally:
        finished.set()


def _serve_batches(
    worker_id: int,
    spec: WorkerSpec,
    recv_batch: Callable[[float], object],
    send: Callable[[tuple], None],
    stop_flag: Callable[[], bool],
) -> None:
    # Fresh per-worker telemetry: anything inherited over fork belongs to
    # the parent and must not be double-reported from here.
    obs.disable()
    tel = obs.enable() if spec.telemetry_enabled else None
    shipper = _TelemetryShipper(send, worker_id, tel)
    supervisor = _ForwardingSupervisor(send, worker_id)
    send(("ready", worker_id))
    while True:
        wait_begin = time.perf_counter() if tel is not None else 0.0
        try:
            batch = recv_batch(60.0)
        except queue_module.Empty:
            if stop_flag():  # pragma: no cover - parent gave up
                return
            continue  # pragma: no cover - parent merely busy
        if tel is not None:
            tel.metrics.histogram("time.worker.task_wait").observe(
                time.perf_counter() - wait_begin
            )
        if batch is None:
            shipper.ship()
            send(("bye", worker_id))
            return
        with obs.span("worker-batch", worker=worker_id, cells=len(batch)):
            for task in batch:
                if stop_flag():
                    shipper.ship()
                    send(("stopped", worker_id))
                    return
                try:
                    state = run_task(
                        task, spec.config, spec.core_cfg,
                        supervisor=supervisor,
                        store=_SendStore(send, worker_id, task.index),
                        checkpoint_every=spec.checkpoint_every,
                        stop=_make_probe(task, spec, stop_flag),
                        verify=spec.verify,
                        prune=spec.prune,
                    )
                except CampaignInterrupted:
                    # Tagged with the cell: a soft-cancelled duplicate of a
                    # cell that is already merged then counts as lost, not
                    # as extra simulation.
                    shipper.ship(task.index)
                    send(("stopped", worker_id))
                    return
                except Exception as exc:  # noqa: BLE001 - must not hang the pool
                    # The parent re-raises the exception itself, as serial
                    # execution would; the text covers an unpicklable one.
                    shipper.ship()
                    send(("fatal", worker_id, task.index, type(exc).__name__,
                          f"{exc}\n{traceback_module.format_exc()}",
                          _portable(exc)))
                    return
                # Telemetry first, completion second: messages from one
                # worker arrive in order, so the parent still holds the
                # cell as pending when its metric delta arrives.
                shipper.ship(task.index)
                send(("cell", worker_id, task.index, state))
        shipper.ship()
        send(("ready", worker_id))


# ---------------------------------------------------------------------------
# Backend interface
# ---------------------------------------------------------------------------


class WorkerHandle:
    """Parent-side view of one worker, whatever its transport."""

    worker_id: int

    def send(self, batch: list[CellTask] | None) -> None:
        """Dispatch a task batch (or ``None`` = shut down politely)."""
        raise NotImplementedError

    def soft_cancel(self) -> None:
        """Ask the worker to stop at the next sample boundary."""
        raise NotImplementedError

    def kill(self) -> None:
        """Terminate the worker immediately (SIGKILL-hard)."""
        raise NotImplementedError

    def alive(self) -> bool:
        raise NotImplementedError

    def exitcode(self) -> int | None:
        raise NotImplementedError

    def pid(self) -> int | None:
        raise NotImplementedError

    def join(self, timeout: float) -> None:
        raise NotImplementedError


class ExecutorBackend:
    """Spawns workers and multiplexes their message streams.

    The scheduler sees exactly this surface: ``spawn()`` a worker,
    ``recv()`` the next message from any worker (``None`` on timeout),
    ``close()`` when done.  Everything else — transport, serialisation,
    process lifecycle — is the backend's private business, which is what
    lets a multi-host backend slot in without touching the scheduler.
    """

    name: str = "abstract"

    def spawn(self) -> WorkerHandle:
        raise NotImplementedError

    def recv(self, timeout: float) -> tuple | None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Multiprocessing backend (queues, fork/spawn)
# ---------------------------------------------------------------------------


def _context() -> multiprocessing.context.BaseContext:
    """Fork when the platform offers it (cheap, inherits warm caches);
    spawn otherwise.  Determinism is identical either way — workers
    re-derive everything from the cell seed."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _mp_worker_main(
    worker_id: int, spec: WorkerSpec, task_queue, results, stop_event
) -> None:
    worker_loop(
        worker_id, spec,
        recv_batch=lambda timeout: task_queue.get(timeout=timeout),
        send=results.send,
        stop_flag=stop_event.is_set,
    )


class _MpHandle(WorkerHandle):
    def __init__(self, worker_id, proc, task_queue, stop_event) -> None:
        self.worker_id = worker_id
        self._proc = proc
        self._task_queue = task_queue
        self._stop_event = stop_event

    def send(self, batch) -> None:
        try:
            self._task_queue.put(batch)
        except (ValueError, OSError):  # pragma: no cover - queue torn down
            pass

    def soft_cancel(self) -> None:
        self._stop_event.set()

    def kill(self) -> None:
        if self._proc.is_alive():
            self._proc.kill()

    def alive(self) -> bool:
        return self._proc.is_alive()

    def exitcode(self) -> int | None:
        return self._proc.exitcode

    def pid(self) -> int | None:
        return self._proc.pid

    def join(self, timeout: float) -> None:
        self._proc.join(timeout=timeout)


class MultiprocessingBackend(ExecutorBackend):
    """Forked (or spawned) workers, each with its own channels.

    A worker gets a task queue, a stop event (the graceful-drain
    soft-cancel) and a result pipe its main thread and progress reporter
    write under one lock; a parent-side reader
    thread per pipe feeds one inbox.  Nothing on the result path is
    shared between workers: a worker killed mid-send tears only its own
    stream, which then reads as EOF.  (A shared multiprocessing queue
    serialises its writers with a cross-process lock, and a worker that
    dies holding it silences every other worker for good.)
    """

    name = "multiprocessing"

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.ctx = _context()
        self.inbox: queue_module.Queue = queue_module.Queue()
        self._next_id = 0

    def spawn(self) -> _MpHandle:
        worker_id = self._next_id
        self._next_id += 1
        task_queue = self.ctx.Queue()
        stop_event = self.ctx.Event()
        reader, writer = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=_mp_worker_main,
            args=(worker_id, self.spec, task_queue, writer, stop_event),
            daemon=True,
        )
        proc.start()
        # The worker now holds the only write end, so its exit is EOF.
        writer.close()
        threading.Thread(
            target=self._pump, args=(reader,),
            name=f"repro-worker-{worker_id}-reader", daemon=True,
        ).start()
        return _MpHandle(worker_id, proc, task_queue, stop_event)

    def _pump(self, reader) -> None:
        with reader:
            while True:
                try:
                    message = reader.recv()
                except (EOFError, OSError):
                    return
                self.inbox.put(message)

    def recv(self, timeout: float) -> tuple | None:
        try:
            return self.inbox.get(timeout=timeout)
        except queue_module.Empty:
            return None

    def close(self) -> None:
        """Nothing to release: each reader ends with its worker."""


#: Every backend ``--backend`` may name.  The socket backend's module
#: (:mod:`repro.core.coordinator`) is imported on demand, so pool workers
#: never pay for the TCP machinery they do not use.
ALL_BACKEND_NAMES: tuple[str, ...] = (MultiprocessingBackend.name, "socket")


def create_backend(
    name: str, spec: WorkerSpec, options: dict | None = None
) -> ExecutorBackend:
    """Instantiate a backend by name.

    *options* are backend-specific constructor keywords (the socket
    backend's listen address, accept timeout, autospawn switch...); the
    multiprocessing backend accepts none.
    """
    if name == MultiprocessingBackend.name:
        return MultiprocessingBackend(spec, **(options or {}))
    if name == "socket":
        from repro.core.coordinator import SocketBackend

        return SocketBackend(spec, **(options or {}))
    raise ValueError(
        f"unknown executor backend {name!r} "
        f"(available: {', '.join(ALL_BACKEND_NAMES)})"
    )
