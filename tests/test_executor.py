"""Backend conformance and unit tests for the executor fabric.

Every ``--backend`` launcher (forked workers, fresh interpreters over
TCP) must be interchangeable under the scheduler: same campaign, same
bytes, same crash containment.  The conformance tests below run each
backend through the scheduler and hold them to the serial reference; the
unit tests pin the worker session's framed send, the frame protocol and
the deterministic pieces of the resilience policy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import multiprocessing
import os
import socket
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core import coordinator
from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.chaos import ChaosEvent, ChaosSpec, chaos_policy
from repro.core.executor import (
    ALL_BACKEND_NAMES,
    RETRY_JITTER,
    ResiliencePolicy,
)
from repro.core.supervisor import IncidentJournal, Supervisor
from repro.core.wire import (
    HANDSHAKE_EPOCH,
    MAX_FRAME_BYTES,
    read_frame,
    write_frame,
)
from repro.errors import ConfigError

GRID = CampaignConfig(
    workloads=("crc32",),
    components=("regfile", "itlb"),
    cardinalities=(1, 2),
    samples=2,
    seed=0,
)


@pytest.fixture(scope="module")
def serial_reference():
    return run_campaign(GRID)


# ---------------------------------------------------------------------------
# Conformance: every backend (multiprocessing, socket) produces the
# serial bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", sorted(ALL_BACKEND_NAMES))
def test_backend_matches_serial_byte_identically(backend, serial_reference):
    result = run_campaign(GRID, jobs=2, backend=backend)
    assert result.to_json() == serial_reference.to_json()


@pytest.mark.parametrize("backend", sorted(ALL_BACKEND_NAMES))
def test_backend_contains_worker_crash(backend, serial_reference, tmp_path):
    supervisor = Supervisor(journal=IncidentJournal())
    result = run_campaign(
        GRID, jobs=2, backend=backend, supervisor=supervisor,
        chaos=ChaosSpec(events=(ChaosEvent(
            "kill", "crc32", "itlb", 2,
            flag=str(tmp_path / f"crashed-{backend}.flag"),
        ),)),
    )
    assert supervisor.incident_count == 1
    kinds = [incident.kind for incident in supervisor.journal.incidents]
    # One counted crash; every cell the dead worker held becomes a
    # bookkeeping retry record (how many it held depends on timing).
    assert kinds[0] == "worker-crash"
    assert set(kinds[1:]) == {"retry"}
    assert result.to_json() == serial_reference.to_json()
    # No worker outlives its campaign: the crashed one, its replacement
    # and the survivor were all joined or killed when the pool closed.
    assert multiprocessing.active_children() == []


def test_run_campaign_rejects_unknown_backend_before_spawning(monkeypatch):
    spawned = []
    monkeypatch.setattr(
        coordinator.SocketBackend, "spawn", lambda self: spawned.append(self)
    )
    with pytest.raises(ValueError, match="unknown executor backend"):
        run_campaign(GRID, jobs=2, backend="carrier-pigeon")
    assert spawned == []


def test_socket_backend_reaps_the_workers_it_launched(
    monkeypatch, serial_reference
):
    # close() must wait for the `worker --connect` processes it killed,
    # as forked workers are joined: a reaped Popen has a return code.
    launched = []
    real_close = coordinator.SocketBackend.close

    def close(self):
        real_close(self)
        launched.extend(self._procs)

    monkeypatch.setattr(coordinator.SocketBackend, "close", close)
    result = run_campaign(GRID, jobs=2, backend="socket")
    assert result.to_json() == serial_reference.to_json()
    assert len(launched) >= 2
    assert [proc.returncode is not None for proc in launched] == \
        [True] * len(launched)


def test_session_send_keeps_concurrent_frames_whole(monkeypatch):
    """A worker's main thread and progress reporter share one session
    stream; only the session's send lock keeps their frames from
    interleaving into an unreadable stream.

    Each frame goes out in 4 KiB pieces here, as it would over a stream
    that takes several writes per frame: a single ``write`` call to the
    socket's buffered writer happens to be atomic in CPython, which would
    hide a missing lock."""
    senders, per_sender = 4, 25

    def write_in_pieces(stream, message, epoch=HANDSHAKE_EPOCH):
        frame = io.BytesIO()
        write_frame(frame, message, epoch)
        data = frame.getvalue()
        for start in range(0, len(data), 4096):
            stream.write(data[start:start + 4096])
            stream.flush()

    def burst_loop(worker_id, spec, recv_batch, send, stop_flag, sabotage):
        def burst(sender):
            for ordinal in range(per_sender):
                send(("partial", sender, ordinal, bytes([sender]) * 40_000))

        threads = [
            threading.Thread(target=burst, args=(sender,), daemon=True)
            for sender in range(senders)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

    monkeypatch.setattr(coordinator, "worker_loop", burst_loop)
    monkeypatch.setattr(coordinator, "write_frame", write_in_pieces)
    parent_end, child_end = socket.socketpair()
    parent_end.settimeout(60)
    session = threading.Thread(
        target=coordinator._serve_session,
        args=(child_end, HANDSHAKE_EPOCH), daemon=True,
    )
    rfile = parent_end.makefile("rb")
    wfile = parent_end.makefile("wb")
    epoch = 7
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        session.start()
        assert read_frame(rfile)[0] == "join"
        write_frame(wfile, ("welcome", 0, epoch, None), epoch)
        received = [
            read_frame(rfile, epoch) for _ in range(senders * per_sender)
        ]
        session.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
        parent_end.close()
    assert not session.is_alive()
    assert None not in received
    assert sorted(message[1:3] for message in received) == [
        (sender, ordinal)
        for sender in range(senders) for ordinal in range(per_sender)
    ]
    assert all(
        message[3] == bytes([message[1]]) * 40_000 for message in received
    )


# ---------------------------------------------------------------------------
# Frame protocol
# ---------------------------------------------------------------------------


def test_frame_roundtrip_preserves_messages():
    stream = io.BytesIO()
    messages = [
        ("ready", 3),
        ("heartbeat", 0, 7),
        ("cell", 1, 4, {"counts": [1, 2, 3]}, 0.25),
        ("bye", 2),
    ]
    for message in messages:
        write_frame(stream, message)
    stream.seek(0)
    assert [read_frame(stream) for _ in messages] == messages
    assert read_frame(stream) is None  # clean EOF


def test_torn_frame_reads_as_eof():
    stream = io.BytesIO()
    write_frame(stream, ("cell", 0, 0, {"x": 1}, 0.0))
    torn = stream.getvalue()[:-3]  # kill mid-payload
    assert read_frame(io.BytesIO(torn)) is None
    # Torn mid-header is EOF too, not a struct error.
    assert read_frame(io.BytesIO(torn[:2])) is None


def test_absurd_frame_length_reads_as_eof():
    header = struct.pack(">I", MAX_FRAME_BYTES + 1)
    assert read_frame(io.BytesIO(header + b"x" * 64)) is None


def test_garbage_payload_reads_as_eof():
    payload = b"not a pickle"
    stream = io.BytesIO(struct.pack(">I", len(payload)) + payload)
    assert read_frame(stream) is None


# ---------------------------------------------------------------------------
# Resilience policy units
# ---------------------------------------------------------------------------


def test_backoff_is_deterministic_per_cell_and_attempt():
    policy = ResiliencePolicy()
    first = policy.backoff("crc32/regfile/1", 1)
    assert first == policy.backoff("crc32/regfile/1", 1)
    # Different cells jitter differently (with overwhelming probability
    # over the cells used here), but stay within the jitter envelope.
    for attempt in (1, 2, 3):
        for key in ("crc32/regfile/1", "crc32/itlb/2", "stringsearch/l1d/4"):
            delay = policy.backoff(key, attempt)
            base = min(30.0, 0.25 * 2 ** (attempt - 1))
            assert base <= delay <= base * (1 + RETRY_JITTER)


def test_backoff_grows_then_caps():
    """Base ``hang_timeout / 120``, doubling up to ``hang_timeout``."""
    policy = ResiliencePolicy(hang_timeout=4.0)
    delays = [policy.backoff("cell", attempt) for attempt in range(1, 10)]
    bases = [4 / 120 * 2 ** n for n in range(7)] + [4.0, 4.0]
    for delay, base in zip(delays, bases):
        assert base <= delay <= base * (1 + RETRY_JITTER)


def test_default_backoff_is_unchanged_by_its_derivation():
    """At the default 30 s hang timeout the derived base (0.25 s) and
    cap (30 s) are the old fixed knobs' defaults, so the schedule of a
    default campaign is exactly what it was with those knobs."""
    policy = ResiliencePolicy()
    for attempt in range(1, 9):
        base = min(30.0, 0.25 * 2 ** (attempt - 1))
        digest = hashlib.sha256(f"cell:{attempt}".encode()).digest()
        expected = base * (1.0 + RETRY_JITTER * digest[0] / 255.0)
        assert policy.backoff("cell", attempt) == expected


def test_policy_defaults_validate():
    ResiliencePolicy()


@pytest.mark.parametrize("overrides,fragment", [
    ({"hang_timeout": -1.0}, "hang_timeout"),
    ({"hang_timeout": 0.0}, "hang_timeout"),
    ({"hang_timeout": float("nan")}, "hang_timeout"),
    ({"max_attempts": 0}, "max_attempts"),
])
def test_policy_validate_rejects_bad_knobs(overrides, fragment):
    """The policy checks itself as it is built, so no caller can run a
    campaign under a zero hang timeout (every worker accused at its first
    tick, its progress reporter spinning)."""
    with pytest.raises(ConfigError, match=fragment):
        ResiliencePolicy(**overrides)
    with pytest.raises(ConfigError, match=fragment):
        dataclasses.replace(ResiliencePolicy(), **overrides)


@pytest.mark.parametrize("hang_timeout", ["0", "-1"])
def test_cli_rejects_a_nonpositive_hang_timeout(tmp_path, hang_timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "repro.core.cli", "run",
         "--workloads", "crc32", "--components", "regfile",
         "--cardinalities", "1", "--samples", "1", "--jobs", "2",
         "--hang-timeout", hang_timeout, "--out", str(tmp_path / "r.json")],
        env=env, capture_output=True, timeout=60,
    )
    assert out.returncode == 2
    assert "hang_timeout must be > 0" in out.stderr.decode()
    assert not (tmp_path / "r.json").exists()


def test_report_interval_is_derived_from_the_hang_timeout():
    """Twenty progress reports per hang timeout, at most every 0.5 s: the
    default 30 s timeout reports every 0.5 s, the chaos policy's 2 s one
    every 0.1 s, and no valid timeout can outrun its reports."""
    assert [field.name for field in dataclasses.fields(ResiliencePolicy)] \
        == ["hang_timeout", "max_attempts"]
    assert ResiliencePolicy().report_interval == 0.5
    assert chaos_policy().report_interval == pytest.approx(0.1)
    for hang_timeout in (0.01, 0.4, 2.0, 10.0, 30.0, 600.0):
        interval = ResiliencePolicy(hang_timeout=hang_timeout).report_interval
        assert 0 < interval <= hang_timeout / 20
