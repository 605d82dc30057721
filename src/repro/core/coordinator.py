"""The campaign coordinator: every worker's session, both launchers.

The parent (the *coordinator*) speaks to each worker over a stream of
its own, carrying CRC-checked, epoch-stamped frames
(:mod:`repro.core.wire`); the worker runs
:func:`~repro.core.executor.worker_loop` inside
:func:`_serve_session`.  There is one session and two ways to start the
process that serves it:

* ``--backend multiprocessing`` forks the worker from the parent and
  hands it one end of a ``socketpair`` — cheap, and the worker inherits
  the parent's warm caches;
* ``--backend socket`` starts a fresh interpreter — a local
  ``repro-campaign worker --connect`` subprocess, or one on another host
  with ``--listen`` — that dials in over TCP.

The scheduler in :mod:`repro.core.parallel` cannot tell the difference,
which is the point: stall detection, retries, quarantine and the
byte-identical-to-serial guarantee apply unchanged across a network
boundary.

Session protocol (all frames; handshake in epoch 0, the rest in the
coordinator's session epoch):

worker → parent   ``("join", {"pid", "host", "epoch"})``
parent → worker   ``("welcome", worker_id, epoch, WorkerSpec)`` or
                  ``("reject", reason)``
parent → worker   ``("task", batch|None)`` (``None``: stop at the next
                  sample boundary, or at once if idle, and shut down)
worker → parent   the :func:`worker_loop` stream (ready/progress/partial/
                  cell/telemetry/incident/fatal/stopped/bye)

Failure model — every path maps onto machinery the scheduler already
has:

* **Connection loss** (host death, TCP reset, corrupted or stale frame —
  the codec turns the last two into EOF) retires the worker exactly like
  a process crash: its in-flight cells are rescheduled from their last
  *acked* mid-cell checkpoint (the newest one the parent received — the
  parent's copy is the ack).
* **Reconnect-with-resume**: a ``--reconnect`` worker that loses its
  connection rejoins as a *new* worker in the same session epoch; the
  rescheduled cell task carries the acked checkpoint, so the rejoined
  worker resumes where the parent last saw it, bit-identically.  A
  forked worker never rejoins: it exits, and the scheduler forks a
  replacement that resumes from the same checkpoint.
* **Stale sessions**: a worker claiming a different session's epoch is
  rejected at handshake, and data frames from a stale epoch read as EOF
  — a campaign can never absorb another campaign's results.
* **Partition**: a silent-but-connected worker sends no progress
  reports, so the scheduler's stall rule reclaims its cells and severs
  the connection (see DESIGN.md §12.4); a full partition degrades the
  pool to the surviving hosts and ultimately to the in-parent serial
  fallback.
  Duplicate results from the far side of a healed partition are dropped
  by the first-canonical-result-wins rule.

There is no authentication layer: the coordinator trusts its network,
like the SGE dispatch in DAVOS trusts its cluster.  Bind to localhost
or a private network.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro import obs
from repro.core.executor import WorkerSpec, worker_loop
from repro.core.wire import (
    FRAME_CORRUPT,
    FRAME_STALE,
    HANDSHAKE_EPOCH,
    read_frame_ex,
    write_corrupt_frame,
    write_frame,
)

#: How long a connecting worker gets to present its join frame.
_HANDSHAKE_TIMEOUT = 10.0

#: How long a replacement spawn waits for a worker to join while live
#: workers remain (never longer than the accept timeout).
_REPLACEMENT_TIMEOUT = 5.0

#: The deliberately-bogus epoch the chaos harness claims on a stale
#: rejoin.  :func:`_fresh_epoch` never returns it.
STALE_CHAOS_EPOCH = 1


def _fresh_epoch() -> int:
    """A nonzero session epoch no other session plausibly shares."""
    return int.from_bytes(os.urandom(8), "big") % (2**63 - 3) + 2


def _counter(name: str, amount: int = 1) -> None:
    telemetry = obs.active()
    if telemetry is not None and amount:
        telemetry.metrics.counter(name).inc(amount)


def parse_address(text: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT``) → ``(host, port)``."""
    host, _, port_text = str(text).rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"invalid address {text!r}: expected HOST:PORT"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"invalid port {port} in {text!r}")
    return host or "127.0.0.1", port


def _close_quietly(*closables) -> None:
    for closable in closables:
        try:
            closable.close()
        except OSError:
            pass


class _SocketHandle:
    """Parent-side view of one worker: its session's stream, and its
    process when the worker was forked from this one."""

    def __init__(self, worker_id, conn, wfile, epoch, pid, proc=None) -> None:
        self.worker_id = worker_id
        self._conn = conn
        self._wfile = wfile
        self._epoch = epoch
        self._pid = pid
        self._proc = proc
        self._dead = threading.Event()
        self._lock = threading.Lock()

    def _write(self, message: tuple) -> None:
        try:
            with self._lock:
                write_frame(self._wfile, message, self._epoch)
        except (BrokenPipeError, ValueError, OSError):
            self._dead.set()  # the liveness poll turns this into a death

    def send(self, batch) -> None:
        """Dispatch a task batch, or ``None``: stop at the next sample
        boundary (flushing a final checkpoint) and shut down."""
        self._write(("task", batch))

    def sever(self) -> None:
        """End the session: the worker reads EOF and abandons its cell at
        the next sample boundary.

        ``shutdown`` comes first because closing is not enough: every
        worker forked after this one holds a copy of this end of the
        stream, and a close only drops this process's copy.
        """
        self._dead.set()
        try:
            self._conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        _close_quietly(self._wfile, self._conn)

    def kill(self) -> None:
        """Sever the session and SIGKILL a forked worker.  A worker that
        dialled in cannot be killed from here, only disowned."""
        self.sever()
        if self._proc is not None and self._proc.is_alive():
            self._proc.kill()

    def alive(self) -> bool:
        return not self._dead.is_set()

    def exitcode(self) -> int | None:
        """A forked worker's exit code; ``None`` for a worker that dialled
        in (exit codes do not cross the network)."""
        return self._proc.exitcode if self._proc is not None else None

    def pid(self) -> int | None:
        return self._pid

    def join(self, timeout: float) -> None:
        """Reap a forked worker; one that dialled in has no process here."""
        if self._proc is not None:
            self._proc.join(timeout=timeout)


def _context() -> multiprocessing.context.BaseContext:
    """Fork when the platform offers it (cheap, inherits warm caches);
    spawn otherwise.  Determinism is identical either way — workers
    re-derive everything from the cell seed."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class SocketBackend:
    """The parent's side of every worker session: start workers,
    handshake, pump frames.

    The scheduler builds one per run and sees ``spawn()`` a worker,
    ``recv()`` the next message from any worker (``None`` on timeout)
    and ``close()`` when done, which kills every worker and reaps every
    process it started.
    Every worker speaks the same framed session
    (:func:`_serve_session`) over a stream of its own; the launchers
    differ only in how the worker process starts and how its stream
    arrives:

    * **fork** (``fork=True``, ``--backend multiprocessing``) — each
      ``spawn()`` forks a worker and hands it one end of a
      ``socketpair``.  No listener is opened.  The forked worker shares
      the parent's warm caches, and its handle keeps the process, so a
      crash carries its real exit code and a kill is a SIGKILL.
    * **autospawn** (the ``--backend socket`` default) — each
      ``spawn()`` launches a local ``repro-campaign worker --connect``
      subprocess against an ephemeral localhost port, so every byte
      crosses a real TCP socket, exactly as on the multi-host path.
    * **listen** (``autospawn=False``) — ``spawn()`` adopts the next
      externally-connected worker (the ``--listen HOST:PORT`` flow).
      Initial spawns wait up to *accept_timeout* for the fleet to
      arrive; replacement spawns wait only ``_REPLACEMENT_TIMEOUT`` while
      live workers remain, so losing one host of many stalls the
      scheduler briefly instead of for the full accept window before it
      degrades to the survivors.

    A TCP worker that reconnects after a drop is handshaken by the accept
    thread and parked until the scheduler's next ``spawn()`` (triggered
    by the death of its previous incarnation) adopts it.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        *,
        fork: bool = False,
        host: str = "127.0.0.1",
        port: int = 0,
        autospawn: bool = True,
        accept_timeout: float = 30.0,
    ) -> None:
        self.spec = spec
        self.fork = fork
        self.autospawn = autospawn
        self.accept_timeout = accept_timeout
        self.epoch = _fresh_epoch()
        self.inbox: queue_module.Queue = queue_module.Queue()
        self._joined: queue_module.Queue = queue_module.Queue()
        self._next_id = 0
        self._closing = False
        self._handles: list[_SocketHandle] = []
        self._procs: list[subprocess.Popen] = []
        self._listener: socket.socket | None = None
        if fork:
            return
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept",
            daemon=True,
        ).start()

    # -- accept / handshake ------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed
                return
            threading.Thread(
                target=self._park, args=(conn,),
                name="repro-coordinator-handshake", daemon=True,
            ).start()

    def _park(self, conn: socket.socket) -> None:
        joined = self._handshake(conn)
        if joined is not None:
            self._joined.put(joined)

    def _handshake(self, conn: socket.socket) -> tuple | None:
        """Read a worker's join frame: ``(conn, rfile, wfile, info)`` if
        it is admitted, ``None`` (connection closed) if not."""
        conn.settimeout(_HANDSHAKE_TIMEOUT)
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        try:
            frame, _status = read_frame_ex(rfile)
        except (OSError, socket.timeout):
            frame = None
        message = frame.message if frame is not None else None
        if not (
            isinstance(message, tuple) and len(message) == 2
            and message[0] == "join" and isinstance(message[1], dict)
        ):
            _counter("exec.fabric.bad_joins")
            _close_quietly(rfile, wfile, conn)
            return None
        info = message[1]
        claimed = int(info.get("epoch", HANDSHAKE_EPOCH))
        if claimed not in (HANDSHAKE_EPOCH, self.epoch):
            # A worker from some other session's lifetime: refuse it
            # before it can pollute this campaign's result stream.
            _counter("exec.fabric.stale_joins")
            try:
                write_frame(
                    wfile,
                    ("reject", f"stale session epoch {claimed}"),
                    HANDSHAKE_EPOCH,
                )
            except OSError:
                pass
            _close_quietly(rfile, wfile, conn)
            return None
        _counter("exec.fabric.joins")
        if claimed == self.epoch:
            _counter("exec.fabric.rejoins")
        conn.settimeout(None)
        return conn, rfile, wfile, info

    # -- the surface the scheduler sees ------------------------------------

    def _spawn_timeout(self) -> float:
        if any(handle.alive() for handle in self._handles):
            return min(self.accept_timeout, _REPLACEMENT_TIMEOUT)
        return self.accept_timeout

    def _await_join(self) -> tuple:
        deadline = time.monotonic() + self._spawn_timeout()
        launched = False
        while True:
            try:
                return self._joined.get(timeout=0.2)
            except queue_module.Empty:
                if self._closing:
                    raise RuntimeError("socket backend is closing")
                if self.autospawn and not launched:
                    self._launch_local_worker()
                    launched = True
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"no worker joined {self.address[0]}:"
                        f"{self.address[1]} within the accept window"
                    )

    def _fork_worker(self) -> tuple[tuple, multiprocessing.Process]:
        """Fork a worker onto one end of a fresh ``socketpair`` and
        handshake it on the other."""
        parent_end, child_end = socket.socketpair()
        proc = _context().Process(
            target=_serve_session, args=(child_end, HANDSHAKE_EPOCH),
            daemon=True,
        )
        proc.start()
        # The worker now holds the only other copy of its end, so its
        # exit is EOF here.
        child_end.close()
        joined = self._handshake(parent_end)
        if joined is None:
            proc.kill()
            proc.join()
            raise RuntimeError(
                f"forked worker (pid {proc.pid}) failed its handshake"
            )
        return joined, proc

    def spawn(self) -> _SocketHandle:
        proc = None
        if self.fork:
            joined, proc = self._fork_worker()
        else:
            joined = self._await_join()
        conn, rfile, wfile, info = joined
        worker_id = self._next_id
        self._next_id += 1
        handle = _SocketHandle(
            worker_id, conn, wfile, self.epoch, info.get("pid"), proc
        )
        handle._write(("welcome", worker_id, self.epoch, self.spec))
        threading.Thread(
            target=self._pump, args=(rfile, handle),
            name=f"repro-worker-{worker_id}-reader", daemon=True,
        ).start()
        self._handles.append(handle)
        return handle

    def _pump(self, rfile, handle: _SocketHandle) -> None:
        """Funnel one worker's frames into the shared inbox.

        Any non-OK frame — EOF, torn, oversized, corrupt, stale — ends
        the session: the stream is severed and the scheduler's liveness
        poll reschedules the worker's cells.  A worker killed mid-frame
        tears only its own stream, which reads as EOF.  Corruption is
        counted so an operator can tell a flaky link from a dead host.
        """
        while True:
            frame, status = read_frame_ex(rfile, self.epoch)
            if frame is None:
                if status == FRAME_CORRUPT:
                    _counter("exec.fabric.corrupt_frames")
                elif status == FRAME_STALE:
                    _counter("exec.fabric.stale_frames")
                break
            self.inbox.put(frame.message)
        handle.sever()
        _close_quietly(rfile)

    def recv(self, timeout: float) -> tuple | None:
        try:
            return self.inbox.get(timeout=timeout)
        except queue_module.Empty:
            return None

    def close(self) -> None:
        """Release everything: no worker outlives its campaign."""
        self._closing = True
        if self._listener is not None:
            _close_quietly(self._listener)
        for handle in self._handles:
            handle.kill()
            handle.join(timeout=1.0)
        while True:
            try:
                conn, rfile, wfile, _info = self._joined.get_nowait()
            except queue_module.Empty:
                break
            _close_quietly(rfile, wfile, conn)
        for proc in self._procs:
            proc.kill()  # a no-op once the process has been reaped
        for proc in self._procs:
            try:
                proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - unkillable
                pass

    # -- local worker autospawn --------------------------------------------

    def _launch_local_worker(self) -> None:
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = package_root + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.core.cli", "worker",
                "--connect", f"{self.address[0]}:{self.address[1]}",
                "--reconnect", "--retry-delay", "0.2", "--max-retries", "25",
                "--quiet",
            ],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=None,
            env=env,
        )
        self._procs.append(proc)


# ---------------------------------------------------------------------------
# The worker client (``repro-campaign worker``)
# ---------------------------------------------------------------------------


def _connect_with_retries(
    host: str, port: int, retry_delay: float, max_retries: int
) -> socket.socket | None:
    """Dial the coordinator, retrying while it is not (yet) there.

    Workers are routinely started *before* the coordinator (that is the
    natural multi-host deployment order), so refusal is patience, not
    failure — until the retry budget runs out.
    """
    for attempt in range(max_retries + 1):
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.settimeout(None)
            return sock
        except OSError:
            if attempt == max_retries:
                return None
            time.sleep(retry_delay)
    return None  # pragma: no cover - loop always returns


def _serve_session(
    sock: socket.socket, claim_epoch: int
) -> tuple[str, int, WorkerSpec | None]:
    """One join → worker_loop → disconnect cycle: every worker's
    session, on a forked worker's ``socketpair`` end and a TCP worker's
    connection alike.

    One lock serialises every frame this side writes — the main
    thread's, the progress reporter's and a chaos corruption — so frames
    never interleave.  :func:`worker_loop` gets the session's transport
    saboteur for network chaos.  Returns ``(status, epoch, spec)`` where
    status is ``"shutdown"`` (parent said we are done), ``"lost"``
    (connection died — candidate for reconnect) or ``"rejected"``
    (handshake refused).
    """
    rfile = sock.makefile("rb")
    wfile = sock.makefile("wb")
    try:
        write_frame(
            wfile,
            ("join", {
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "epoch": claim_epoch,
            }),
            HANDSHAKE_EPOCH,
        )
    except OSError:
        _close_quietly(rfile, wfile, sock)
        return "lost", HANDSHAKE_EPOCH, None
    frame, _status = read_frame_ex(rfile)  # welcome arrives in its epoch
    message = frame.message if frame is not None else None
    if not isinstance(message, tuple) or not message:
        _close_quietly(rfile, wfile, sock)
        return "lost", HANDSHAKE_EPOCH, None
    if message[0] == "reject":
        _close_quietly(rfile, wfile, sock)
        return "rejected", HANDSHAKE_EPOCH, None
    if message[0] != "welcome" or len(message) != 4:
        _close_quietly(rfile, wfile, sock)
        return "lost", HANDSHAKE_EPOCH, None
    _, worker_id, epoch, spec = message

    stop_event = threading.Event()
    tasks: queue_module.Queue = queue_module.Queue()
    state = {"shutdown": False}
    write_lock = threading.Lock()

    def reader() -> None:
        # However the stream ends, the worker reads a shutdown next.
        try:
            while (incoming := read_frame_ex(rfile, epoch)[0]) is not None:
                body = incoming.message
                if body[0] == "task":
                    if body[1] is None:
                        state["shutdown"] = True
                        stop_event.set()
                    tasks.put(body[1])
        finally:
            stop_event.set()
            tasks.put(None)

    threading.Thread(
        target=reader, name="repro-worker-reader", daemon=True
    ).start()

    def send(message: tuple) -> None:
        try:
            with write_lock:
                write_frame(wfile, message, epoch)
        except (BrokenPipeError, ValueError, OSError):
            # The coordinator is unreachable: abandon the cell at the
            # next sample boundary; the parent reclaims and reschedules
            # it from the last checkpoint it acked.
            stop_event.set()

    def transport_chaos(kind: str) -> None:
        if kind == "disconnect":
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            _close_quietly(sock)
        elif kind == "corrupt":
            try:
                with write_lock:
                    write_corrupt_frame(wfile, epoch)
            except (BrokenPipeError, ValueError, OSError):
                pass

    try:
        worker_loop(
            worker_id, spec, recv_batch=tasks.get, send=send,
            stop_flag=stop_event.is_set, sabotage=transport_chaos,
        )
    finally:
        # Wake the reader thread first: closing the buffered reader it is
        # blocked in would wait for the coordinator to hang up.
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        _close_quietly(rfile, wfile, sock)
    return ("shutdown" if state["shutdown"] else "lost"), epoch, spec


def _wants_stale_rejoin(spec: WorkerSpec | None) -> bool:
    """Consume the chaos harness's one-shot stale-rejoin marker."""
    chaos = getattr(spec, "chaos", None)
    if chaos is None or not getattr(chaos, "stale_rejoin", False):
        return False
    flag = Path(chaos.flag_dir) / "chaos-stale-rejoin.fired"
    if flag.exists():
        return False
    try:
        flag.parent.mkdir(parents=True, exist_ok=True)
        flag.touch()
    except OSError:  # pragma: no cover - flag dir vanished
        return False
    return True


def run_worker(
    address: str,
    *,
    reconnect: bool = False,
    retry_delay: float = 0.5,
    max_retries: int = 20,
    log=None,
) -> int:
    """The ``repro-campaign worker`` body: serve sessions until done.

    Exit code 0 means a clean life (a completed campaign, or a lost
    coordinator after at least one served session); 1 means this worker
    never managed to serve anything, which an orchestrator should treat
    as a deployment problem.
    """
    host, port = parse_address(address)
    emit = log if log is not None else (lambda text: None)
    last_epoch = HANDSHAKE_EPOCH
    last_spec: WorkerSpec | None = None
    served = 0
    while True:
        sock = _connect_with_retries(host, port, retry_delay, max_retries)
        if sock is None:
            emit(f"coordinator {host}:{port} unreachable; giving up")
            return 0 if served else 1
        claim = last_epoch
        if served and _wants_stale_rejoin(last_spec):
            claim = STALE_CHAOS_EPOCH  # chaos: impersonate a stale session
        status, epoch, spec = _serve_session(sock, claim)
        if spec is not None:
            last_spec = spec
        if status == "rejected":
            emit(f"join rejected by {host}:{port} (claimed epoch {claim})")
            if claim != HANDSHAKE_EPOCH:
                # Our session knowledge is stale: rejoin from scratch.
                last_epoch = HANDSHAKE_EPOCH
                continue
            return 1
        served += 1
        last_epoch = epoch
        if status == "shutdown":
            emit("campaign complete; exiting")
            return 0
        if not reconnect:
            emit("connection lost; exiting (no --reconnect)")
            return 0
        emit("connection lost; reconnecting")
