"""The parallel campaign executor: equivalence, containment, scheduling.

The engine's contract is absolute: ``jobs=N`` produces the same
``CampaignResult.to_json()`` **bytes** as the serial path, for any N,
including when a worker process dies mid-campaign and its cells are
rescheduled.  Everything here runs on the two fastest workloads with tiny
sample counts; the properties under test do not depend on scale.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.campaign import (
    CampaignConfig,
    CampaignStore,
    CellTask,
    run_campaign,
    run_cell,
)
from repro.core import parallel as parallel_module
from repro.core.chaos import ChaosEvent, ChaosSpec
from repro.core.parallel import _affinity_batches
from repro.core.supervisor import IncidentJournal, Supervisor
from repro.errors import (
    CampaignInterrupted,
    IncidentBudgetExceeded,
    InjectionIncident,
)

#: ≥2 workloads × 2 components × 2 cardinalities, per the acceptance bar.
GRID = CampaignConfig(
    workloads=("stringsearch", "crc32"),
    components=("regfile", "itlb"),
    cardinalities=(1, 2),
    samples=2,
    seed=0,
)


@pytest.fixture(scope="module")
def serial_reference():
    return run_campaign(GRID)


def test_parallel_matches_serial_byte_identically(serial_reference):
    parallel = run_campaign(GRID, jobs=4)
    assert parallel.to_json() == serial_reference.to_json()


def test_parallel_progress_is_ordered_and_complete(serial_reference):
    calls = []
    run_campaign(
        GRID, jobs=3,
        progress=lambda done, total, cell: calls.append(
            (done, total, cell.workload, cell.component, cell.cardinality)
        ),
    )
    expected = [
        (i + 1, len(GRID.cells()), w, c, k)
        for i, (w, c, k) in enumerate(GRID.cells())
    ]
    assert calls == expected


def test_worker_crash_is_contained_rescheduled_and_identical(
    serial_reference, tmp_path
):
    supervisor = Supervisor(journal=IncidentJournal(tmp_path / "inc.jsonl"))
    store = CampaignStore(tmp_path / "store.json")
    result = run_campaign(
        GRID, jobs=3, store=store, supervisor=supervisor,
        chaos=ChaosSpec(events=(ChaosEvent(
            "kill", "crc32", "itlb", 2, flag=str(tmp_path / "crashed.flag"),
        ),)),
    )
    # The dead worker became an incident; the reschedule is journalled as
    # a bookkeeping "retry" record that never counts against the budget...
    assert supervisor.incident_count == 1
    kinds = [i.kind for i in supervisor.journal.incidents]
    # One counted crash; each cell the dead worker held becomes a
    # bookkeeping retry record (how many it held depends on timing).
    assert kinds[0] == "worker-crash"
    assert set(kinds[1:]) == {"retry"}
    retry = supervisor.journal.incidents[1]
    assert retry.details["attempt"] == 1
    assert retry.details["cause"] == "worker-crash"
    assert retry.details["backoff"] > 0
    # ...its journal lines are on disk...
    reloaded = IncidentJournal.load(tmp_path / "inc.jsonl")
    assert len(reloaded) == len(kinds)
    # ...no samples were lost (the cell was rescheduled, not dropped)...
    assert result.incidents == 0
    # ...and the merged result is still bit-identical to the serial run.
    assert result.to_json() == serial_reference.to_json()


def test_worker_crash_respects_strict(tmp_path):
    supervisor = Supervisor(journal=IncidentJournal(), strict=True)
    with pytest.raises(InjectionIncident, match=r"\[strict\].*died"):
        run_campaign(
            GRID, jobs=2, supervisor=supervisor,
            chaos=ChaosSpec(events=(ChaosEvent(
                "kill", "stringsearch", "regfile", 1,
                flag=str(tmp_path / "crashed.flag"),
            ),)),
        )


def test_worker_crash_respects_incident_budget(tmp_path):
    supervisor = Supervisor(journal=IncidentJournal(), max_incidents=0)
    with pytest.raises(IncidentBudgetExceeded):
        run_campaign(
            GRID, jobs=2, supervisor=supervisor,
            chaos=ChaosSpec(events=(ChaosEvent(
                "kill", "stringsearch", "regfile", 1,
                flag=str(tmp_path / "crashed.flag"),
            ),)),
        )


def test_rerun_samples_count_their_incidents_once(tmp_path, monkeypatch):
    """A worker killed after contained incidents: the retry reruns those
    samples and contains them again, but the result's lost-sample count
    (part of the result bytes) still equals the serial run's."""
    from repro.core import supervisor as supervisor_module

    def always(*args, **kwargs):
        raise RuntimeError("every sample is lost")

    monkeypatch.setattr(supervisor_module, "run_one_injection", always)
    config = CampaignConfig(
        workloads=("stringsearch",), components=("regfile",),
        cardinalities=(1,), samples=4, seed=0,
    )
    serial = run_campaign(config, supervisor=Supervisor())
    pooled = run_campaign(
        config, jobs=2, supervisor=Supervisor(),
        chaos=ChaosSpec(events=(ChaosEvent(
            "kill", "stringsearch", "regfile", 1, ordinal=2,
            flag=str(tmp_path / "crashed.flag"),
        ),)),
    )
    assert serial.incidents == 4
    assert pooled.to_json() == serial.to_json()


def test_parallel_store_matches_serial_store_after_compaction(
    serial_reference, tmp_path
):
    """Single-writer store: a --jobs run leaves the exact bytes a serial
    run would (snapshots are key-sorted), with no stray partials."""
    serial_store = CampaignStore(tmp_path / "serial.json")
    run_campaign(GRID, store=serial_store)
    serial_store.compact()

    parallel_store = CampaignStore(tmp_path / "parallel.json")
    run_campaign(GRID, jobs=4, store=parallel_store)
    parallel_store.compact()

    assert (tmp_path / "serial.json").read_bytes() == \
        (tmp_path / "parallel.json").read_bytes()
    assert parallel_store.partial_keys() == []


def test_parallel_run_on_warm_store_is_pure_cache_hit(
    serial_reference, tmp_path
):
    store = CampaignStore(tmp_path / "store.json")
    first = run_campaign(GRID, jobs=4, store=store)
    calls = []
    second = run_campaign(
        GRID, jobs=4, store=store,
        progress=lambda done, total, cell: calls.append(done),
    )
    assert second.to_json() == first.to_json() == serial_reference.to_json()
    assert calls == list(range(1, len(GRID.cells()) + 1))


def test_affinity_batches_group_by_workload_and_split_when_needed():
    tasks = [
        CellTask(i, w, c, k, 1, f"key{i}")
        for i, (w, c, k) in enumerate(
            (w, c, k)
            for w in ("a", "b")
            for c in ("regfile", "itlb")
            for k in (1, 2, 3)
        )
    ]
    # Two workloads, two workers: whole-workload batches, nothing split.
    batches = _affinity_batches(tasks, jobs=2)
    assert len(batches) == 2
    for batch in batches:
        assert len({task.workload for task in batch}) == 1
    # Four workers: splitting kicks in, but halves still share a workload.
    batches = _affinity_batches(tasks, jobs=4)
    assert len(batches) == 4
    for batch in batches:
        assert len({task.workload for task in batch}) == 1
    assert sorted(t.index for b in batches for t in b) == list(range(12))


def test_run_cell_stop_hook_flushes_checkpoint_and_resumes(tmp_path):
    config = CampaignConfig(
        workloads=("stringsearch",), components=("regfile",),
        cardinalities=(1,), samples=4, seed=0,
    )
    key = config.cell_key("stringsearch", "regfile", 1)
    reference = run_cell("stringsearch", "regfile", 1, config)

    store = CampaignStore(tmp_path / "store.json")
    fired = iter([False, False, True])  # stop before the 3rd sample
    with pytest.raises(CampaignInterrupted):
        run_cell(
            "stringsearch", "regfile", 1, config,
            store=store, cell_key=key, checkpoint_every=None,
            stop=lambda: next(fired, True),
        )
    checkpoint = store.get_partial(key)
    assert checkpoint is not None and checkpoint.samples_done == 2
    resumed = run_cell(
        "stringsearch", "regfile", 1, config,
        store=store, cell_key=key, checkpoint_every=None, start=checkpoint,
    )
    assert resumed.counts == reference.counts


def test_cli_sigint_drains_and_resume_completes(tmp_path):
    """End-to-end Ctrl-C: SIGINT a --jobs run, then rerun on the same store
    to the bytes an uninterrupted run produces."""
    if os.name != "posix":  # pragma: no cover
        pytest.skip("SIGINT delivery is POSIX-only")
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
         "--jobs", "2", "--store", str(store),
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
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGINT)
    proc.wait(timeout=60)
    if proc.returncode == 0:  # pragma: no cover - machine too fast
        pytest.skip("campaign finished before SIGINT landed")
    assert proc.returncode == 130

    out = subprocess.run(
        [sys.executable, "-m", "repro.core.cli", "run", *config_args,
         "--jobs", "2", "--store", str(store),
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


def test_interrupt_with_an_idle_worker_does_not_wait_out_the_drain(
    tmp_path, monkeypatch
):
    """Ctrl-C while one worker is idle and the other busy: the idle one
    is shut down at once, so the drain ends when the busy one has flushed
    its checkpoint, not at the drain deadline.  A rerun on the store is
    byte-identical to serial."""
    monkeypatch.setattr(parallel_module, "_DRAIN_TIMEOUT", 300.0)
    config = CampaignConfig(
        workloads=("stringsearch", "crc32"), components=("regfile", "itlb"),
        cardinalities=(1,), samples=8, seed=0,
    )
    store_path = tmp_path / "store.json"
    # With stringsearch/itlb cached, one worker gets the one short
    # stringsearch cell and goes idle long before the other finishes
    # crc32/regfile and starts crc32/itlb.
    run_campaign(
        dataclasses.replace(
            config, workloads=("stringsearch",), components=("itlb",)
        ),
        store=CampaignStore(store_path),
    )
    interrupted_at = []

    def progress(done, total, cell):
        if cell.workload == "crc32" and not interrupted_at:
            interrupted_at.append(time.monotonic())
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_campaign(
            config, progress, CampaignStore(store_path), jobs=2,
            checkpoint_every=1,
        )
    assert time.monotonic() - interrupted_at[0] < 30.0

    resumed = run_campaign(config, store=CampaignStore(store_path))
    assert resumed.to_json() == run_campaign(config).to_json()


def test_unsupervised_parallel_run_works(serial_reference):
    config = CampaignConfig(
        workloads=("stringsearch",), components=("regfile",),
        cardinalities=(1, 2), samples=2, seed=0,
    )
    serial = run_campaign(config)
    parallel = run_campaign(config, jobs=2)
    assert parallel.to_json() == serial.to_json()


_ONE_CELL = CampaignConfig(
    workloads=("crc32",), components=("regfile",), cardinalities=(1,),
    samples=2, seed=0,
)


class _Unpicklable(Exception):
    """An exception that cannot cross a process boundary."""

    def __reduce__(self):
        raise TypeError("not picklable")


@pytest.mark.parametrize("jobs", [1, 2])
def test_uncontained_error_reaches_the_caller_as_itself(jobs, monkeypatch):
    # Building a cell's InjectionPlan happens outside any sample's
    # containment: the caller sees the same exception at every job count.
    from repro.core import campaign

    def broken(*args, **kwargs):
        raise ValueError("plan build failed")

    monkeypatch.setattr(campaign.InjectionPlan, "build", broken)
    with pytest.raises(ValueError, match="plan build failed"):
        run_campaign(_ONE_CELL, jobs=jobs, supervisor=Supervisor())


def test_unpicklable_uncontained_error_is_reported_by_name(monkeypatch):
    from repro.core import campaign

    def broken(*args, **kwargs):
        raise _Unpicklable("plan build failed")

    monkeypatch.setattr(campaign.InjectionPlan, "build", broken)
    with pytest.raises(
        InjectionIncident, match=r"crc32/regfile/1-bit: _Unpicklable"
    ):
        run_campaign(_ONE_CELL, jobs=2, supervisor=Supervisor())
