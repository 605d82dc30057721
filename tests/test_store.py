"""CampaignStore hardening: journal, compaction, quarantine, mid-cell resume."""

import json
import random

import pytest

from repro.core import campaign
from repro.core import supervisor as supervisor_module
from repro.core.avf import ClassCounts
from repro.core.campaign import (
    CampaignConfig,
    CampaignStore,
    CellCheckpoint,
    CellResult,
    run_campaign,
    run_cell,
)

WORKLOAD = "stringsearch"  # the fastest workload: keeps these tests quick


def make_cell(tag: str, masked: int = 5) -> CellResult:
    return CellResult(
        workload=tag, component="regfile", cardinality=1,
        counts=ClassCounts(masked=masked, sdc=1), golden_cycles=1000,
    )


def make_checkpoint(samples_done: int = 4) -> CellCheckpoint:
    rng = random.Random("checkpoint-test")
    return CellCheckpoint(
        samples_done=samples_done,
        counts=ClassCounts(masked=3, crash=1),
        cycle_rng_state=rng.getstate(),
        generator_rng_state=random.Random("other").getstate(),
        golden_cycles=1234,
    )


# -- journal + compaction --------------------------------------------------------


def test_puts_are_journal_appends_and_survive_reload(tmp_path):
    path = tmp_path / "store.json"
    store = CampaignStore(path, compact_every=1000)
    store.put("k1", make_cell("a"))
    store.put("k2", make_cell("b"))
    # No compaction yet: everything lives in the write-ahead journal.
    assert not path.exists()
    assert store.journal_path.exists()
    reloaded = CampaignStore(path)
    assert len(reloaded) == 2
    assert reloaded.get("k1").workload == "a"


def test_compaction_truncates_journal_and_snapshot_holds_all(tmp_path):
    path = tmp_path / "store.json"
    store = CampaignStore(path, compact_every=3)
    for i in range(3):
        store.put(f"k{i}", make_cell(f"w{i}"))
    assert path.exists()
    assert store.journal_path.read_text() == ""
    snapshot = json.loads(path.read_text())
    assert snapshot["schema"] == campaign.STORE_SCHEMA
    assert len(snapshot["cells"]) == 3
    assert len(CampaignStore(path)) == 3


def test_journal_handle_is_persistent_and_reset_by_compaction(tmp_path):
    path = tmp_path / "store.json"
    store = CampaignStore(path, compact_every=3)
    store.put("k0", make_cell("w0"))
    handle = store._journal_handle
    assert handle is not None and not handle.closed
    store.put("k1", make_cell("w1"))
    assert store._journal_handle is handle  # no reopen per append
    store.put("k2", make_cell("w2"))  # triggers compaction
    assert handle.closed and store._journal_handle is None
    store.put("k3", make_cell("w3"))  # lazily reopens
    assert store._journal_handle is not None
    assert len(CampaignStore(path)) == 4


def test_close_releases_handle_and_appends_reopen(tmp_path):
    path = tmp_path / "store.json"
    store = CampaignStore(path, compact_every=1000)
    store.put("k0", make_cell("w0"))
    store.close()
    assert store._journal_handle is None
    store.put("k1", make_cell("w1"))
    assert len(CampaignStore(path)) == 2


def test_compacted_snapshots_are_key_sorted_and_order_independent(tmp_path):
    """Same cells in any arrival order → identical snapshot bytes (what
    lets CI cmp a parallel store against a serial reference)."""
    forward, backward = tmp_path / "a.json", tmp_path / "b.json"
    cells = [(f"k{i}", make_cell(f"w{i}")) for i in range(4)]
    store_a = CampaignStore(forward)
    for key, cell in cells:
        store_a.put(key, cell)
    store_a.compact()
    store_b = CampaignStore(backward)
    for key, cell in reversed(cells):
        store_b.put(key, cell)
    store_b.compact()
    assert forward.read_bytes() == backward.read_bytes()


def test_legacy_schema1_snapshot_loads(tmp_path):
    path = tmp_path / "store.json"
    path.write_text(json.dumps({"oldkey": make_cell("legacy").as_dict()}))
    store = CampaignStore(path)
    assert store.get("oldkey").workload == "legacy"
    # A compaction upgrades the file to the enveloped schema.
    store.compact()
    assert json.loads(path.read_text())["schema"] == campaign.STORE_SCHEMA


def test_corrupt_snapshot_is_quarantined_and_journal_replayed(tmp_path):
    path = tmp_path / "store.json"
    store = CampaignStore(path, compact_every=1000)
    store.put("k1", make_cell("a"))
    store.compact()
    store.put("k2", make_cell("b"))  # journal-only after the compaction
    path.write_text('{"schema": 2, "cells": {truncated garbage')
    recovered = CampaignStore(path)
    assert recovered.quarantined is not None
    assert recovered.quarantined.exists()  # evidence preserved
    # k1 lived only in the corrupted snapshot; k2 replays from the journal.
    assert recovered.get("k2").workload == "b"
    assert recovered.get("k1") is None


def test_torn_final_journal_line_is_skipped(tmp_path):
    path = tmp_path / "store.json"
    store = CampaignStore(path, compact_every=1000)
    store.put("k1", make_cell("a"))
    store.put("k2", make_cell("b"))
    with store.journal_path.open("a") as journal:
        journal.write('{"op": "cell", "key": "k3", "cel')  # kill mid-append
    recovered = CampaignStore(path)
    assert len(recovered) == 2
    assert recovered.get("k2").workload == "b"


def test_partial_checkpoint_round_trip(tmp_path):
    path = tmp_path / "store.json"
    store = CampaignStore(path, compact_every=1000)
    checkpoint = make_checkpoint()
    store.put_partial("cellkey", checkpoint)
    restored = CampaignStore(path).get_partial("cellkey")
    assert restored.samples_done == checkpoint.samples_done
    assert restored.counts == checkpoint.counts
    assert restored.golden_cycles == checkpoint.golden_cycles
    # The restored RNG state must continue the exact same stream.
    rng = random.Random()
    rng.setstate(restored.cycle_rng_state)
    reference = random.Random("checkpoint-test")
    assert [rng.randrange(10**6) for _ in range(5)] == [
        reference.randrange(10**6) for _ in range(5)
    ]


def test_final_put_clears_partial(tmp_path):
    path = tmp_path / "store.json"
    store = CampaignStore(path)
    store.put_partial("k", make_checkpoint())
    assert store.partial_keys() == ["k"]
    store.put("k", make_cell("done"))
    assert store.partial_keys() == []
    assert CampaignStore(path).partial_keys() == []


def test_partials_survive_compaction(tmp_path):
    path = tmp_path / "store.json"
    store = CampaignStore(path, compact_every=1)  # compact on every mutation
    store.put_partial("k", make_checkpoint(7))
    reloaded = CampaignStore(path)
    assert reloaded.get_partial("k").samples_done == 7


# -- mid-cell kill + resume ------------------------------------------------------


def interrupt_after(monkeypatch, n_samples):
    """Let *n_samples* injections finish, then simulate a SIGINT."""
    real = supervisor_module.run_one_injection
    calls = {"count": 0}

    def flaky(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] > n_samples:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(supervisor_module, "run_one_injection", flaky)
    return calls


def test_kill_mid_cell_then_resume_is_bit_identical(tmp_path, monkeypatch):
    config = CampaignConfig(
        workloads=(WORKLOAD,), components=("regfile",),
        cardinalities=(1,), samples=10, seed=3,
    )
    uninterrupted = run_cell(WORKLOAD, "regfile", 1, config)

    path = tmp_path / "store.json"
    key = config.cell_key(WORKLOAD, "regfile", 1)
    store = CampaignStore(path)
    calls = interrupt_after(monkeypatch, 7)
    with pytest.raises(KeyboardInterrupt):
        run_cell(
            WORKLOAD, "regfile", 1, config,
            store=store, cell_key=key, checkpoint_every=3,
        )
    monkeypatch.undo()
    # The kill landed between checkpoints: samples 1-6 are checkpointed,
    # 7 is lost and must be re-run.
    resumed_store = CampaignStore(path)
    assert resumed_store.get_partial(key).samples_done == 6
    calls = {"count": 0}
    real = supervisor_module.run_one_injection

    def counting(*args, **kwargs):
        calls["count"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(supervisor_module, "run_one_injection", counting)
    resumed = run_cell(
        WORKLOAD, "regfile", 1, config,
        store=resumed_store, cell_key=key, checkpoint_every=3,
        start=resumed_store.get_partial(key),
    )
    assert calls["count"] == 4  # resumed from sample 6, not from zero
    assert resumed.counts == uninterrupted.counts
    assert resumed.golden_cycles == uninterrupted.golden_cycles


def test_cell_without_start_checkpoint_opens_at_sample_0(tmp_path, monkeypatch):
    config = CampaignConfig(
        workloads=(WORKLOAD,), components=("regfile",),
        cardinalities=(1,), samples=6, seed=5,
    )
    uninterrupted = run_cell(WORKLOAD, "regfile", 1, config)
    path = tmp_path / "store.json"
    key = config.cell_key(WORKLOAD, "regfile", 1)
    store = CampaignStore(path)
    interrupt_after(monkeypatch, 4)
    with pytest.raises(KeyboardInterrupt):
        run_cell(
            WORKLOAD, "regfile", 1, config,
            store=store, cell_key=key, checkpoint_every=2,
        )
    monkeypatch.undo()
    # No start checkpoint: the cell opens at sample 0 despite the
    # partial the interrupted run left in the store.
    fresh = run_cell(
        WORKLOAD, "regfile", 1, config,
        store=CampaignStore(path), cell_key=key, checkpoint_every=2,
    )
    assert fresh.counts == uninterrupted.counts


def test_campaign_killed_and_resumed_matches_uninterrupted(tmp_path, monkeypatch):
    """The acceptance criterion, at campaign level, through run_campaign."""
    config = CampaignConfig(
        workloads=(WORKLOAD,), components=("regfile", "itlb"),
        cardinalities=(1,), samples=8, seed=11,
    )
    baseline = run_campaign(config)

    path = tmp_path / "store.json"
    interrupt_after(monkeypatch, 11)  # dies inside the second cell
    with pytest.raises(KeyboardInterrupt):
        run_campaign(
            config, store=CampaignStore(path), checkpoint_every=3,
        )
    monkeypatch.undo()
    # The store holds the first cell and a 3-sample checkpoint of the
    # second (its fourth sample died): a rerun continues from there.
    calls = {"count": 0}
    real = supervisor_module.run_one_injection

    def counting(*args, **kwargs):
        calls["count"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(supervisor_module, "run_one_injection", counting)
    resumed = run_campaign(
        config, store=CampaignStore(path), checkpoint_every=3,
    )
    assert calls["count"] == 8 - 3
    for cell in baseline.cells:
        other = resumed.cell(cell.workload, cell.component, cell.cardinality)
        assert other.counts == cell.counts
