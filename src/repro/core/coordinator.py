"""TCP campaign coordinator: the multi-host socket executor backend.

One campaign, many hosts.  The parent (the *coordinator*) listens on a
TCP port; each worker host runs ``repro-campaign worker --connect
HOST:PORT`` and speaks exactly the protocol the multiprocessing
backend's workers speak — the same
:func:`~repro.core.executor.worker_loop`, the same messages, now carried
as CRC-checked, epoch-stamped frames (:mod:`repro.core.wire`) over a
socket instead of a process queue.  The scheduler in
:mod:`repro.core.parallel` cannot tell the difference, which is the
point: leases, retries, quarantine and the byte-identical-to-serial
guarantee apply unchanged across a network boundary.

Session protocol (all frames; handshake in epoch 0, the rest in the
coordinator's session epoch):

worker → parent   ``("join", {"pid", "host", "epoch"})``
parent → worker   ``("welcome", worker_id, epoch, WorkerSpec)`` or
                  ``("reject", reason)``
parent → worker   ``("task", batch|None)`` · ``("stop",)``
worker → parent   the :func:`worker_loop` stream (ready/start/heartbeat/
                  partial/cell/telemetry/incident/fatal/stopped/bye)

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
  worker resumes where the parent last saw it, bit-identically.
* **Stale sessions**: a worker claiming a different session's epoch is
  rejected at handshake, and data frames from a stale epoch read as EOF
  — a campaign can never absorb another campaign's results.
* **Partition**: a silent-but-connected worker forfeits its cell leases
  (see DESIGN.md §12); a full partition degrades the pool to the
  surviving hosts and ultimately to the in-parent serial fallback.
  Duplicate results from the far side of a healed partition are dropped
  by the first-canonical-result-wins rule.

There is no authentication layer: the coordinator trusts its network,
like the SGE dispatch in DAVOS trusts its cluster.  Bind to localhost
or a private network.
"""

from __future__ import annotations

import os
import queue as queue_module
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro import obs
from repro.core import chaos as chaos_module
from repro.core.executor import (
    ExecutorBackend,
    WorkerHandle,
    WorkerSpec,
    worker_loop,
)
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


class _SocketHandle(WorkerHandle):
    """Parent-side view of one connected worker."""

    def __init__(self, worker_id, conn, wfile, epoch, pid) -> None:
        self.worker_id = worker_id
        self._conn = conn
        self._wfile = wfile
        self._epoch = epoch
        self._pid = pid
        self._dead = threading.Event()
        self._lock = threading.Lock()

    def _write(self, message: tuple) -> None:
        try:
            with self._lock:
                write_frame(self._wfile, message, self._epoch)
        except (BrokenPipeError, ValueError, OSError):
            self._dead.set()  # the liveness poll turns this into a death

    def send(self, batch) -> None:
        self._write(("task", batch))

    def soft_cancel(self) -> None:
        self._write(("stop",))

    def kill(self) -> None:
        """Sever the connection — the strongest "kill" a network allows.

        The worker notices at its next heartbeat send (or instantly via
        its reader thread) and abandons the cell; the parent has already
        reclaimed it.  A remote process cannot be SIGKILLed from here,
        only disowned.
        """
        self._dead.set()
        try:
            self._conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        _close_quietly(self._wfile, self._conn)

    def alive(self) -> bool:
        return not self._dead.is_set()

    def exitcode(self) -> int | None:
        return None  # exit codes do not cross the network boundary

    def pid(self) -> int | None:
        return self._pid

    def join(self, timeout: float) -> None:
        self._dead.wait(timeout=timeout)


class SocketBackend(ExecutorBackend):
    """Executor backend over TCP: accept, handshake, pump frames.

    Two modes share one implementation:

    * **autospawn** (default) — each ``spawn()`` launches a local
      ``repro-campaign worker --connect`` subprocess against an ephemeral
      localhost port.  This is how ``--backend socket`` behaves with no
      ``--listen``: single-host, but every byte crosses a real TCP
      socket, so tests and chaos runs exercise the exact multi-host
      path.
    * **listen** (``autospawn=False``) — ``spawn()`` adopts the next
      externally-connected worker (the ``--listen HOST:PORT`` flow).
      Initial spawns wait up to *accept_timeout* for the fleet to
      arrive; replacement spawns wait only *replacement_timeout* while
      live workers remain, so losing one host of many stalls the
      scheduler briefly instead of for the full accept window before it
      degrades to the survivors.

    A worker that reconnects after a drop is handshaken by the accept
    thread and parked until the scheduler's next ``spawn()`` (triggered
    by the death of its previous incarnation) adopts it.
    """

    name = "socket"

    def __init__(
        self,
        spec: WorkerSpec,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        autospawn: bool = True,
        accept_timeout: float = 30.0,
        replacement_timeout: float = 5.0,
    ) -> None:
        self.spec = spec
        self.autospawn = autospawn
        self.accept_timeout = accept_timeout
        self.replacement_timeout = min(accept_timeout, replacement_timeout)
        self.epoch = _fresh_epoch()
        self.inbox: queue_module.Queue = queue_module.Queue()
        self._joined: queue_module.Queue = queue_module.Queue()
        self._next_id = 0
        self._closing = False
        self._handles: list[_SocketHandle] = []
        self._procs: list[subprocess.Popen] = []
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept",
            daemon=True,
        ).start()

    # -- accept / handshake (listener threads) -----------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed
                return
            threading.Thread(
                target=self._handshake, args=(conn,),
                name="repro-coordinator-handshake", daemon=True,
            ).start()

    def _handshake(self, conn: socket.socket) -> None:
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
            return
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
            return
        _counter("exec.fabric.joins")
        if claimed == self.epoch:
            _counter("exec.fabric.rejoins")
        conn.settimeout(None)
        self._joined.put((conn, rfile, wfile, info))

    # -- the backend surface the scheduler sees ----------------------------

    def _spawn_timeout(self) -> float:
        if any(handle.alive() for handle in self._handles):
            return self.replacement_timeout
        return self.accept_timeout

    def spawn(self) -> _SocketHandle:
        deadline = time.monotonic() + self._spawn_timeout()
        launched = False
        while True:
            try:
                conn, rfile, wfile, info = self._joined.get(timeout=0.2)
                break
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
        worker_id = self._next_id
        self._next_id += 1
        handle = _SocketHandle(
            worker_id, conn, wfile, self.epoch, info.get("pid")
        )
        try:
            with handle._lock:
                write_frame(
                    wfile, ("welcome", worker_id, self.epoch, self.spec),
                    self.epoch,
                )
        except (BrokenPipeError, ValueError, OSError):
            handle._dead.set()
        threading.Thread(
            target=self._pump, args=(rfile, conn, handle),
            name=f"repro-worker-{worker_id}-reader", daemon=True,
        ).start()
        self._handles.append(handle)
        return handle

    def _pump(self, rfile, conn, handle: _SocketHandle) -> None:
        """Funnel one worker's frames into the shared inbox.

        Any non-OK frame — EOF, torn, oversized, corrupt, stale — ends
        the session: the connection is dropped and the scheduler's
        liveness poll reschedules the worker's cells.  Corruption is
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
        handle.kill()
        _close_quietly(rfile)

    def recv(self, timeout: float) -> tuple | None:
        try:
            return self.inbox.get(timeout=timeout)
        except queue_module.Empty:
            return None

    def close(self) -> None:
        self._closing = True
        _close_quietly(self._listener)
        for handle in self._handles:
            handle.kill()
        while True:
            try:
                conn, rfile, wfile, _info = self._joined.get_nowait()
            except queue_module.Empty:
                break
            _close_quietly(rfile, wfile, conn)
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()

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
    """One join → worker_loop → disconnect cycle.

    Returns ``(status, epoch, spec)`` where status is ``"shutdown"``
    (parent said we are done), ``"lost"`` (connection died — candidate
    for reconnect) or ``"rejected"`` (handshake refused).
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
        while True:
            incoming, _st = read_frame_ex(rfile, epoch)
            if incoming is None:
                stop_event.set()
                tasks.put(None)
                return
            body = incoming.message
            if body[0] == "stop":
                stop_event.set()
            elif body[0] == "task":
                if body[1] is None:
                    state["shutdown"] = True
                tasks.put(body[1])

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

    chaos_module.set_transport_hook(transport_chaos)
    try:
        worker_loop(
            worker_id, spec,
            recv_batch=lambda timeout: tasks.get(timeout=timeout),
            send=send,
            stop_flag=stop_event.is_set,
        )
    finally:
        chaos_module.set_transport_hook(None)
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
