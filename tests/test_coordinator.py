"""Coordinator and worker-client tests for the socket backend.

The conformance suite in ``test_executor.py`` already proves the socket
backend's autospawn mode lands on the serial bytes; the tests here pin
the distributed-specific surfaces — address parsing, the handshake's
stale-session rejection, the worker CLI's exit-code contract, and the
``--listen`` flow with externally launched ``worker --connect``
processes.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.coordinator import (
    SocketBackend,
    parse_address,
    run_worker,
)
from repro.core.executor import WorkerSpec
from repro.core.wire import HANDSHAKE_EPOCH, read_frame, write_frame

CONFIG = CampaignConfig(
    workloads=("crc32",),
    components=("regfile", "itlb"),
    cardinalities=(1,),
    samples=3,
    seed=0,
)


def _spec() -> WorkerSpec:
    return WorkerSpec(
        config=CONFIG, core_cfg=None,
        checkpoint_every=None, telemetry_enabled=False,
        verify=False,
    )


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ---------------------------------------------------------------------------
# Address parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text,expected", [
    ("127.0.0.1:9000", ("127.0.0.1", 9000)),
    ("example.org:80", ("example.org", 80)),
    (":9000", ("127.0.0.1", 9000)),
    ("9000", ("127.0.0.1", 9000)),
    ("0.0.0.0:0", ("0.0.0.0", 0)),
])
def test_parse_address_accepts(text, expected):
    assert parse_address(text) == expected


@pytest.mark.parametrize("text", [
    "", "host:", "host:notaport", "host:-1", "host:65536", "just-a-host",
])
def test_parse_address_rejects(text):
    with pytest.raises(ValueError):
        parse_address(text)


# ---------------------------------------------------------------------------
# Handshake: stale sessions die at the front door
# ---------------------------------------------------------------------------


def test_handshake_rejects_stale_epoch_and_admits_fresh_join():
    backend = SocketBackend(_spec(), autospawn=False, accept_timeout=5.0)
    try:
        host, port = backend.address

        # A worker claiming some other session's epoch is refused with a
        # reason, before it can touch the campaign's result stream.
        with socket.create_connection((host, port), timeout=5.0) as conn:
            wfile = conn.makefile("wb")
            rfile = conn.makefile("rb")
            write_frame(
                wfile,
                ("join", {"pid": 1, "host": "t", "epoch": 12345}),
                HANDSHAKE_EPOCH,
            )
            reply = read_frame(rfile)
            assert reply is not None and reply[0] == "reject"
            assert "stale" in reply[1]

        # Garbage instead of a join: the connection is simply dropped.
        with socket.create_connection((host, port), timeout=5.0) as conn:
            wfile = conn.makefile("wb")
            rfile = conn.makefile("rb")
            write_frame(wfile, ("definitely", "not", "a", "join"))
            assert read_frame(rfile) is None

        # A fresh join (epoch 0) is parked for the next spawn() to adopt.
        with socket.create_connection((host, port), timeout=5.0) as conn:
            wfile = conn.makefile("wb")
            write_frame(
                wfile,
                ("join", {"pid": 2, "host": "t", "epoch": HANDSHAKE_EPOCH}),
                HANDSHAKE_EPOCH,
            )
            deadline = time.monotonic() + 5.0
            while backend._joined.empty():
                assert time.monotonic() < deadline, "join was not parked"
                time.sleep(0.02)
    finally:
        backend.close()


def test_spawn_times_out_when_no_worker_arrives():
    backend = SocketBackend(
        _spec(), autospawn=False, accept_timeout=0.5,
    )
    try:
        with pytest.raises(TimeoutError, match="accept window"):
            backend.spawn()
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# Worker client exit codes
# ---------------------------------------------------------------------------


def test_run_worker_exits_1_when_coordinator_never_appears():
    # A port nothing listens on: the retry budget drains, nothing was
    # ever served, and the orchestrator sees a deployment problem.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    assert run_worker(
        f"127.0.0.1:{port}", retry_delay=0.01, max_retries=1,
    ) == 1


def test_run_worker_rejects_bad_address():
    with pytest.raises(ValueError, match="HOST:PORT"):
        run_worker("not-an-address")


def test_cli_rejects_listen_with_serial_jobs(tmp_path):
    # --jobs 1 runs serially: nothing would listen, remote workers
    # would wait forever. Refuse the combination up front.
    out = subprocess.run(
        [sys.executable, "-m", "repro.core.cli", "run",
         "--workloads", "crc32", "--components", "regfile",
         "--cardinalities", "1", "--samples", "1", "--seed", "0",
         "--backend", "socket", "--listen", "127.0.0.1:0",
         "--out", str(tmp_path / "x.json")],
        env=_worker_env(), capture_output=True, timeout=60,
    )
    assert out.returncode == 2
    assert "--jobs 2 or more" in out.stderr.decode()


# ---------------------------------------------------------------------------
# The --listen flow: externally launched workers, deployed before the
# coordinator even exists
# ---------------------------------------------------------------------------


def test_listen_mode_with_external_workers_matches_serial(tmp_path):
    serial = run_campaign(CONFIG)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = _worker_env()
    # Workers first, coordinator second — the natural multi-host order.
    # --connect retries until the listener appears.
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli", "worker",
             "--connect", f"127.0.0.1:{port}", "--reconnect",
             "--retry-delay", "0.2", "--max-retries", "100", "--quiet"],
            env=env, stdin=subprocess.DEVNULL,
        )
        for _ in range(2)
    ]
    try:
        result = run_campaign(
            CONFIG, jobs=2, backend="socket",
            backend_options={
                "host": "127.0.0.1", "port": port,
                "autospawn": False, "accept_timeout": 30.0,
            },
        )
        assert result.to_json() == serial.to_json()
        # The shutdown handshake reached both workers: clean exits.
        for proc in workers:
            assert proc.wait(timeout=30) == 0
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
