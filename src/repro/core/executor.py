"""The worker side of the parallel campaign scheduler.

:mod:`repro.core.parallel` decides which cell runs where and handles
retries and quarantine; this module holds what runs *inside* a worker
and the parent's view of what a worker is:

* :class:`WorkerSpec` — everything a worker needs to run cell batches,
  shipped to it once at the start of its session;
* :func:`worker_loop` — the worker body, batches in and messages out;
* :class:`ResiliencePolicy` — the tunables of the failure handling
  layered on top (see DESIGN.md §10);
* :data:`ALL_BACKEND_NAMES` — the ways a worker process can start.

Every worker runs :func:`worker_loop` inside the one framed session of
:mod:`repro.core.coordinator`: CRC-checked, epoch-stamped frames
(:mod:`repro.core.wire`) over a stream socket of its own.  ``--backend``
only picks how the worker process starts — ``multiprocessing`` forks it
from the parent (cheap, inherits the parent's warm caches) and hands it
one end of a ``socketpair``; ``socket`` starts a fresh interpreter,
local or on another host, that dials in over TCP.

The messages a worker exchanges define it:

parent → worker   ``batch`` (list of
                  :class:`~repro.core.campaign.CellTask`) or ``None``
                  (shutdown, which also raises the session's stop flag;
                  a worker reads it too once its stream ends)
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
simulator hook.  The reporter and the main thread share the session's
send, which holds a lock around every frame.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
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
    their last acked checkpoint and the worker is killed (its session
    severed, a forked one SIGKILLed) and replaced within the restart
    budget.
    Workers report every :attr:`report_interval`.  A slow worker that is
    still progressing is never accused: it keeps its cells.  The retry
    backoff is derived from ``hang_timeout`` too (:meth:`backoff`).

    A policy checks itself when it is built: a zero, negative or NaN
    ``hang_timeout`` would accuse every worker at its first tick (and
    spin its progress reporter), so it raises
    :class:`~repro.errors.ConfigError` instead.
    """

    hang_timeout: float = 30.0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        from repro.errors import ConfigError

        if not self.hang_timeout > 0:
            raise ConfigError(
                f"hang_timeout must be > 0 (got {self.hang_timeout})"
            )
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1 (got {self.max_attempts})"
            )

    @property
    def report_interval(self) -> float:
        """Seconds between a worker's progress reports: twenty per hang
        timeout, and at least two a second."""
        return min(0.5, self.hang_timeout / 20)

    def backoff(self, cell_key: str, attempt: int) -> float:
        """Exponential backoff with deterministic jitter.

        The base delay is ``hang_timeout / 120`` and doubles per attempt
        up to a cap of ``hang_timeout`` — 0.25 s and 30 s at the default.
        The jitter fraction is drawn from a hash of (cell key, attempt),
        so two schedulers retrying the same cell spread out identically —
        reproducible schedules, no thundering herd.
        """
        base = min(
            self.hang_timeout,
            self.hang_timeout / 120 * 2 ** max(0, attempt - 1),
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
# The worker loop
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
    task: CellTask, spec: WorkerSpec, stop_flag: Callable[[], bool],
    sabotage: Callable[[str], None] | None,
) -> Callable[[], bool]:
    """The per-sample stop probe: chaos hook + stop check.

    Probed once before every sample by :func:`run_cell`; the ordinal
    passed to the chaos hook counts probes within this dispatch (it
    restarts at 0 when a rescheduled cell resumes from a checkpoint).
    *sabotage* is the session's transport saboteur for network chaos.
    """
    ordinals = itertools.count()
    chaos = spec.chaos

    def probe() -> bool:
        ordinal = next(ordinals)
        if chaos is not None:
            chaos.worker_event(
                task.workload, task.component, task.cardinality, ordinal,
                sabotage,
            )
        return stop_flag()

    return probe


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
    recv_batch: Callable[[], object],
    send: Callable[[tuple], None],
    stop_flag: Callable[[], bool],
    sabotage: Callable[[str], None] | None = None,
) -> None:
    """The worker body: batches in, messages out.

    *send* must be safe to call from two threads: the progress reporter
    shares it with this one.  *recv_batch* blocks until the next list of
    :class:`CellTask` arrives, or returns ``None`` for shutdown (which
    the session also delivers when its stream ends).  *stop_flag* is the
    stop probe, raised by the shutdown and polled between samples, so a
    stopped worker flushes one final mid-cell checkpoint before exiting.  *sabotage*,
    when given, is the session's transport saboteur that network chaos
    events act through.  SIGINT/SIGTERM are ignored here: shutdown is the
    parent's job, delivered through the stop flag.  A daemon thread
    reports CPU progress for as long as the loop runs.
    """
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    # Fresh per-worker telemetry: anything inherited over fork belongs to
    # the parent and must not be double-reported from here.
    obs.disable()
    tel = obs.enable() if spec.telemetry_enabled else None
    shipper = _TelemetryShipper(send, worker_id, tel)
    supervisor = _ForwardingSupervisor(send, worker_id)
    finished = threading.Event()
    threading.Thread(
        target=_report_progress,
        args=(send, worker_id, spec.report_interval, finished),
        name=f"repro-worker-{worker_id}-progress", daemon=True,
    ).start()
    try:
        send(("ready", worker_id))
        while True:
            wait_begin = time.perf_counter()
            batch = recv_batch()
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
                            stop=_make_probe(task, spec, stop_flag, sabotage),
                            verify=spec.verify,
                            prune=spec.prune,
                        )
                    except CampaignInterrupted:
                        # Tagged with the cell: a stopped duplicate of a
                        # cell that is already merged then counts as lost,
                        # not as extra simulation.
                        shipper.ship(task.index)
                        send(("stopped", worker_id))
                        return
                    except Exception as exc:  # noqa: BLE001 - must not hang the pool
                        # The parent re-raises the exception itself, as
                        # serial execution would; the text covers an
                        # unpicklable one.
                        shipper.ship()
                        send(("fatal", worker_id, task.index,
                              type(exc).__name__,
                              f"{exc}\n{traceback_module.format_exc()}",
                              _portable(exc)))
                        return
                    # Telemetry first, completion second: messages from
                    # one worker arrive in order, so the parent still
                    # holds the cell as pending when its metric delta
                    # arrives.
                    shipper.ship(task.index)
                    send(("cell", worker_id, task.index, state))
            shipper.ship()
            send(("ready", worker_id))
    finally:
        finished.set()


#: Every name ``--backend`` accepts.  The name picks how a worker process
#: starts, nothing else: ``multiprocessing`` forks it from the parent,
#: ``socket`` starts a fresh interpreter that dials in over TCP.
ALL_BACKEND_NAMES: tuple[str, ...] = ("multiprocessing", "socket")
