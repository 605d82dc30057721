"""The chaos matrix: injected faults must not move a single byte.

These tests drive :func:`repro.core.chaos.run_chaos` in-process over a
small grid and assert the fabric's headline guarantee — results and the
compacted store byte-identical to a serial run — under worker kills,
stalls, dropped/duplicated messages and torn checkpoint writes, plus the
quarantine contract for poison cells and the ``exec.lost_deltas``
telemetry accounting.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.chaos import ChaosEvent, ChaosSpec, build_spec, run_chaos
from repro.core.executor import ResiliencePolicy
from repro.core.supervisor import IncidentJournal, Supervisor
from repro.errors import ConfigError, IncidentBudgetExceeded

CONFIG = CampaignConfig(
    workloads=("crc32",),
    components=("regfile", "itlb"),
    cardinalities=(1,),
    samples=3,
    seed=0,
)

#: The harness default, minus sleeps: sub-second progress reports and
#: retries so stall detection happens in test time.
POLICY = ResiliencePolicy(hang_timeout=1.0)


def _kinds(outcome):
    return [incident.kind for incident in outcome.incidents]


def test_chaos_matrix_is_byte_identical(tmp_path):
    report = run_chaos(
        CONFIG,
        scenarios=("kill", "drop", "dup", "torn"),
        jobs=2, seed=0, workdir=tmp_path, policy=POLICY,
    )
    by_name = {outcome.scenario: outcome for outcome in report.outcomes}
    assert report.ok, {
        name: outcome.detail for name, outcome in by_name.items()
    }
    # The kill scenario must have actually exercised the recovery path:
    # journalled crashes, journalled retries, nothing swept under the rug.
    kill_kinds = _kinds(by_name["kill"])
    assert "worker-crash" in kill_kinds
    assert "retry" in kill_kinds
    retry = next(
        incident for incident in by_name["kill"].incidents
        if incident.kind == "retry"
    )
    assert retry.details["attempt"] >= 1
    assert retry.details["cause"] == "worker-crash"
    assert retry.details["backoff"] > 0
    # The torn scenario must have died mid-write and restarted at least
    # once; recovery went through journal replay on a torn journal.
    assert by_name["torn"].restarts >= 1
    # Incident journals land on disk for the operator.
    assert (tmp_path / "kill" / "incidents.jsonl").exists()


@pytest.mark.parametrize("backend", ["multiprocessing", "socket"])
def test_chaos_stall_escalates_and_stays_identical(tmp_path, backend):
    """A worker that stops making CPU progress mid-cell is killed and its
    cell rescheduled.  The socket row is the silent-but-connected worker:
    its connection stays up, only its progress stops."""
    report = run_chaos(
        CONFIG, scenarios=("stall",), jobs=2, seed=0,
        workdir=tmp_path, policy=POLICY, backend=backend,
    )
    outcome = report.outcomes[0]
    assert outcome.ok, outcome.detail
    kinds = _kinds(outcome)
    assert "worker-hang" in kinds  # the stall detector actually fired
    retry = next(
        incident for incident in outcome.incidents
        if incident.kind == "retry"
    )
    assert retry.details["cause"] == "worker-hang"


@pytest.mark.parametrize("backend", ["multiprocessing", "socket"])
def test_chaos_net_matrix_is_byte_identical(tmp_path, backend):
    """The session failure modes: stream cut mid-cell, partition during
    the checkpoint stream, corrupted frame and duplicate delivery — every
    one byte-identical to serial, on forked and TCP workers alike.  The
    socket row adds the stale-epoch rejoin; a forked worker never
    rejoins."""
    # Network faults surface as instant EOF, so stall detection is not
    # part of these scenarios; the long hang timeout proves it.
    scenarios = ("disconnect", "partition", "corrupt-frame", "dup-deliver")
    if backend == "socket":
        scenarios += ("stale-epoch",)
    report = run_chaos(
        CONFIG, scenarios=scenarios, jobs=2, seed=0, workdir=tmp_path,
        policy=ResiliencePolicy(hang_timeout=30.0), backend=backend,
    )
    by_name = {outcome.scenario: outcome for outcome in report.outcomes}
    assert report.ok, {
        name: outcome.detail for name, outcome in by_name.items()
    }
    # A severed connection looks like a crash to the scheduler and must
    # have gone through the reschedule path, not been silently absorbed.
    for scenario in ("disconnect", "partition"):
        kinds = _kinds(by_name[scenario])
        assert "worker-crash" in kinds, (scenario, kinds)
        assert "retry" in kinds, (scenario, kinds)
    if backend == "socket":
        # The stale rejoin actually happened: the worker consumed its
        # one-shot marker, so the coordinator saw (and rejected) a join
        # claiming a dead session's epoch before the clean retry
        # succeeded.
        stale_flag = (
            tmp_path / "stale-epoch" / "flags" / "chaos-stale-rejoin.fired"
        )
        assert stale_flag.exists()


def test_chaos_stale_epoch_refuses_forked_workers(tmp_path):
    """Only a TCP worker rejoins, so only it can claim a stale epoch."""
    with pytest.raises(ValueError, match="socket"):
        run_chaos(
            CONFIG, scenarios=("disconnect", "stale-epoch"), jobs=2, seed=0,
            workdir=tmp_path, policy=POLICY, backend="multiprocessing",
        )
    assert not (tmp_path / "reference-store.json").exists()


@pytest.mark.parametrize("backend", ["multiprocessing", "socket"])
def test_healthy_campaign_with_tight_hang_timeout_has_no_incidents(backend):
    """Slow is not dead: a hang timeout shorter than one sample of this
    grid must not accuse a worker that is computing, on either backend."""
    supervisor = Supervisor(journal=IncidentJournal())
    result = run_campaign(
        CONFIG, jobs=2, supervisor=supervisor, backend=backend,
        policy=ResiliencePolicy(hang_timeout=0.4),
    )
    assert supervisor.journal.incidents == []
    assert result.to_json() == run_campaign(CONFIG).to_json()


def test_chaos_cli_validates_its_policy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "repro.core.cli", "chaos",
         "--workdir", str(tmp_path), "--max-attempts", "0"],
        env=env, capture_output=True, timeout=60,
    )
    assert out.returncode == 2
    assert "max_attempts must be >= 1" in out.stderr.decode()
    assert not (tmp_path / "reference-store.json").exists()


def test_chaos_needs_a_pool(tmp_path):
    """At jobs=1 cells run in-process, where worker chaos events never
    fire: every scenario would pass without a fault injected."""
    with pytest.raises(ConfigError, match="jobs >= 2"):
        run_campaign(CONFIG, jobs=1, chaos=ChaosSpec(drop_ordinals=(0,)))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "repro.core.cli", "chaos",
         "--workdir", str(tmp_path), "--jobs", "1"],
        env=env, capture_output=True, timeout=60,
    )
    assert out.returncode == 2
    assert "--jobs 2" in out.stderr.decode()
    assert not (tmp_path / "reference-store.json").exists()


def test_chaos_poison_quarantines_then_strict_aborts(tmp_path):
    report = run_chaos(
        CONFIG, scenarios=("poison",), jobs=2, seed=0,
        workdir=tmp_path, policy=POLICY,
    )
    outcome = report.outcomes[0]
    assert outcome.ok, outcome.detail
    kinds = _kinds(outcome)
    assert "poison-cell" in kinds
    # Quarantine is noisy on purpose: each doomed attempt is journalled.
    assert kinds.count("worker-crash") == POLICY.max_attempts


def test_poison_cell_respects_incident_budget(tmp_path):
    spec = build_spec("poison", CONFIG, 0, tmp_path, max_attempts=2)
    supervisor = Supervisor(journal=IncidentJournal(), max_incidents=0)
    with pytest.raises(IncidentBudgetExceeded):
        run_campaign(
            CONFIG, jobs=2, supervisor=supervisor,
            policy=ResiliencePolicy(hang_timeout=2.0, max_attempts=2),
            chaos=spec,
        )


def test_worker_death_counts_lost_telemetry_deltas(tmp_path):
    obs.disable()
    telemetry = obs.enable()
    try:
        supervisor = Supervisor(journal=IncidentJournal())
        run_campaign(
            CONFIG, jobs=2, supervisor=supervisor,
            chaos=ChaosSpec(events=(ChaosEvent(
                "kill", "crc32", "itlb", 1,
                flag=str(tmp_path / "crashed.flag"),
            ),)),
        )
        crash = supervisor.journal.incidents[0]
        assert crash.kind == "worker-crash"
        assert crash.details["lost_deltas"] >= 1
        assert "telemetry delta(s) lost" in crash.message
        counter = telemetry.metrics.counter("exec.lost_deltas")
        assert counter.value >= crash.details["lost_deltas"]
    finally:
        obs.disable()


def test_retry_incidents_render_in_incidents_cli(tmp_path):
    """Satellite contract: every reschedule is a structured incident an
    operator can pull out of ``repro-campaign incidents --json``."""
    import json

    journal_path = tmp_path / "incidents.jsonl"
    supervisor = Supervisor(journal=IncidentJournal(journal_path))
    run_campaign(
        CONFIG, jobs=2, supervisor=supervisor,
        chaos=ChaosSpec(events=(ChaosEvent(
            "kill", "crc32", "regfile", 1, flag=str(tmp_path / "crashed.flag"),
        ),)),
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "repro.core.cli", "incidents",
         "--journal", str(journal_path), "--json"],
        env=env, capture_output=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr.decode()
    records = json.loads(out.stdout)
    retries = [r for r in records if r["kind"] == "retry"]
    assert retries and retries[0]["details"]["attempt"] == 1
    assert {r["kind"] for r in records} >= {"worker-crash", "retry"}


def test_incidents_cli_filters_by_type(tmp_path):
    """``incidents --type retry`` narrows both the table and the JSON
    feed to the requested kinds and says so in the summary line."""
    import json

    journal_path = tmp_path / "incidents.jsonl"
    supervisor = Supervisor(journal=IncidentJournal(journal_path))
    run_campaign(
        CONFIG, jobs=2, supervisor=supervisor,
        chaos=ChaosSpec(events=(ChaosEvent(
            "kill", "crc32", "regfile", 1, flag=str(tmp_path / "crashed.flag"),
        ),)),
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    base = [sys.executable, "-m", "repro.core.cli", "incidents",
            "--journal", str(journal_path)]

    out = subprocess.run(
        base + ["--type", "retry", "--json"],
        env=env, capture_output=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr.decode()
    records = json.loads(out.stdout)
    assert records and {r["kind"] for r in records} == {"retry"}

    out = subprocess.run(
        base + ["--type", "retry,lease-expired,poison-cell"],
        env=env, capture_output=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr.decode()
    text = out.stdout.decode()
    assert "showing types" in text
    assert "worker-crash" not in text

    out = subprocess.run(
        base + ["--type", "gremlins"],
        env=env, capture_output=True, timeout=60,
    )
    assert out.returncode == 2
    assert "gremlins" in out.stderr.decode()


@pytest.mark.parametrize("backend", ["multiprocessing", "socket"])
def test_cli_sigterm_drains_and_resume_completes(tmp_path, backend):
    """SIGTERM is the operator's Ctrl-C: graceful drain, checkpoint
    flush, exit 143, and a rerun on the same store lands on the reference
    bytes.

    The socket row is the satellite contract: a distributed coordinator
    drains its TCP workers exactly like local ones."""
    if os.name != "posix":  # pragma: no cover
        pytest.skip("signal delivery is POSIX-only")
    config_args = [
        "--workloads", "stringsearch",
        "--components", "regfile",
        "--cardinalities", "1",
        "--samples", "40",
        "--seed", "0",
        "--checkpoint-every", "2",
    ]
    store = tmp_path / "store.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.core.cli", "run", *config_args,
         "--jobs", "2", "--backend", backend, "--store", str(store),
         "--out", str(tmp_path / "ignored.json")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    # Signal once the first checkpoint is streamed: start-up is over.
    journal = Path(str(store) + ".journal")
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline and proc.poll() is None and not (
        journal.exists() and b"\n" in journal.read_bytes()
    ):
        time.sleep(0.05)
    proc.terminate()  # SIGTERM to the parent only, like a supervisor would
    proc.wait(timeout=60)
    if proc.returncode == 0:  # pragma: no cover - machine too fast
        pytest.skip("campaign finished before SIGTERM landed")
    assert proc.returncode == 143
    stderr = proc.stderr.read().decode()
    assert "SIGTERM" in stderr

    out = subprocess.run(
        [sys.executable, "-m", "repro.core.cli", "run", *config_args,
         "--jobs", "2", "--backend", backend, "--store", str(store),
         "--out", str(tmp_path / "resumed.json")],
        env=env, capture_output=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr.decode()

    reference = subprocess.run(
        [sys.executable, "-m", "repro.core.cli", "run", *config_args,
         "--out", str(tmp_path / "reference.json")],
        env=env, capture_output=True, timeout=300,
    )
    assert reference.returncode == 0, reference.stderr.decode()
    assert (tmp_path / "resumed.json").read_bytes() == \
        (tmp_path / "reference.json").read_bytes()
