"""CI-driven adaptive sampling: degeneracy, early stopping, invariance.

The driver's contracts: ``ci_target=0`` reproduces the exact-replay
campaign byte-for-byte (no cell can ever meet a zero half-width, so no
budget moves); a loose target stops cells early and never spends more
than the configured budget; and allocation depends only on merged counts,
so any ``jobs`` value produces identical bytes.
"""

import hashlib

import pytest

from repro import obs
from repro.core import supervisor as supervisor_module
from repro.core.adaptive import (
    ADAPTIVE_BATCH,
    AdaptiveReport,
    run_campaign_adaptive,
)
from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.supervisor import Supervisor
from repro.errors import ConfigError
from repro.obs.metrics import deterministic_counters


def _config(samples: int = 30, components=("regfile", "itlb")):
    return CampaignConfig(
        workloads=("crc32",), components=components, cardinalities=(1,),
        samples=samples, seed=7,
    )


def test_ci_target_zero_is_byte_identical_to_exact_replay():
    config = _config(samples=30)
    exact = run_campaign(config)
    adaptive = run_campaign_adaptive(config, ci_target=0.0)
    assert adaptive.result.to_json() == exact.to_json()
    assert adaptive.spent_samples == adaptive.baseline_samples
    assert not any(cell.early_stopped for cell in adaptive.cells)


def test_loose_target_stops_early_and_frees_budget():
    config = _config(samples=60)
    events = []
    report = run_campaign_adaptive(
        config, ci_target=0.5, events=events.append
    )
    assert isinstance(report, AdaptiveReport)
    # Every cell meets a +/-0.5 half-width within the first wave.
    for cell in report.cells:
        assert cell.early_stopped
        assert cell.samples == ADAPTIVE_BATCH
        assert cell.half_width <= 0.5
    assert report.spent_samples < report.baseline_samples
    assert report.saved_fraction > 0
    assert any("freed" in message for message in events)


def test_spent_never_exceeds_baseline():
    config = _config(samples=30)
    report = run_campaign_adaptive(config, ci_target=0.08)
    assert report.spent_samples <= report.baseline_samples
    total_counted = sum(
        cell.counts.total for cell in report.result.cells
    )
    assert total_counted == report.spent_samples


def test_jobs_do_not_change_bytes():
    config = _config(samples=30, components=("regfile",))
    serial = run_campaign_adaptive(config, ci_target=0.3)
    parallel = run_campaign_adaptive(config, ci_target=0.3, jobs=2)
    assert parallel.result.to_json() == serial.result.to_json()
    assert parallel.spent_samples == serial.spent_samples


def test_early_stop_prefix_matches_exact_replay_prefix():
    # An early-stopped cell's counts are the exact-replay cell's first n
    # samples — adaptive never changes the draw sequence, only its length.
    config = _config(samples=30, components=("regfile",))
    report = run_campaign_adaptive(config, ci_target=0.5)
    (cell,) = report.cells
    assert cell.early_stopped and cell.samples == ADAPTIVE_BATCH
    prefix_config = _config(samples=ADAPTIVE_BATCH, components=("regfile",))
    exact = run_campaign(prefix_config)
    assert (
        report.result.cell("crc32", "regfile", 1).counts
        == exact.cell("crc32", "regfile", 1).counts
    )


def test_progress_fires_once_per_cell_in_canonical_order():
    config = _config(samples=30)
    seen = []
    run_campaign_adaptive(
        config, ci_target=0.5,
        progress=lambda done, total, cell: seen.append(
            (done, total, cell.component)
        ),
    )
    assert [done for done, _, _ in seen] == [1, 2]
    assert all(total == 2 for _, total, _ in seen)
    assert [component for _, _, component in seen] == ["regfile", "itlb"]


def test_negative_ci_target_rejected():
    with pytest.raises(ConfigError):
        run_campaign_adaptive(_config(), ci_target=-0.1)


# -- pinned bytes -------------------------------------------------------------

#: SHA-256 of ``report.result.to_json()`` and ``spent_samples`` of
#: ``_config(samples=30)`` per CI target.  Any change to the wave
#: protocol, the cells' RNG streams or the allocation rule shows up here.
PINNED = {
    0.3: ("8a8325883100bf6241c00e246eb83ef3b50effdb629a153f75cbb996a4af7a35",
          50),
    0.08: ("975fb04e742079636db2f843da43318c48cafaf068d3f1b9d41bea07a06f6998",
           60),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("ci_target", sorted(PINNED))
def test_pinned_bytes_at_every_job_count(ci_target, jobs):
    report = run_campaign_adaptive(_config(), ci_target=ci_target, jobs=jobs)
    digest = hashlib.sha256(report.result.to_json().encode()).hexdigest()
    assert (digest, report.spent_samples) == PINNED[ci_target]


def test_socket_backend_matches_serial():
    config = _config(samples=30)
    serial = run_campaign_adaptive(config, ci_target=0.3)
    remote = run_campaign_adaptive(
        config, ci_target=0.3, jobs=2, backend="socket"
    )
    assert remote.result.to_json() == serial.result.to_json()
    assert remote.spent_samples == serial.spent_samples


def test_smp_ci_target_zero_is_exact_replay():
    config = CampaignConfig(
        workloads=("crc32_p",), components=("l2", "regfile"),
        cardinalities=(1,), samples=3, seed=7, cores=2,
    )
    adaptive = run_campaign_adaptive(config, ci_target=0.0)
    assert adaptive.result.to_json() == run_campaign(config).to_json()


def test_supervised_run_contains_an_incident_and_completes(monkeypatch):
    real = supervisor_module.run_one_injection
    calls = {"count": 0}

    def flaky(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == 3:
            raise RuntimeError("synthetic infra failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(supervisor_module, "run_one_injection", flaky)
    supervisor = Supervisor()
    config = _config(samples=30, components=("regfile",))
    report = run_campaign_adaptive(
        config, ci_target=0.3, supervisor=supervisor
    )
    assert [i.kind for i in supervisor.journal.incidents] == ["exception"]
    assert report.result.incidents == 1
    (cell,) = report.result.cells
    # The lost sample still advanced the cell's RNG streams.
    assert cell.counts.total == report.spent_samples - 1


#: ``deterministic_counters`` of ``_config(samples=30)`` at ``ci_target``
#: 0.08: two cells, each run to its budget in two waves (25 + 5 samples).
PINNED_COUNTERS = {
    "sim.cells": 2, "sim.class.crash": 4, "sim.class.masked": 55,
    "sim.class.sdc": 1, "sim.injections": 60,
    "sim.mem.dtlb.hits": 3018191, "sim.mem.dtlb.misses": 352,
    "sim.mem.itlb.hits": 3425026, "sim.mem.itlb.misses": 300,
    "sim.mem.l1d.hits": 957454, "sim.mem.l1d.misses": 641,
    "sim.mem.l1d.writebacks": 57, "sim.mem.l1i.hits": 3424485,
    "sim.mem.l1i.misses": 541, "sim.mem.l2.hits": 57,
    "sim.mem.l2.misses": 1182, "sim.samples": 60,
}


@pytest.mark.parametrize("jobs", [1, 2])
def test_deterministic_counters_count_cells_not_waves(jobs):
    telemetry = obs.enable()
    try:
        run_campaign_adaptive(_config(), ci_target=0.08, jobs=jobs)
        counters = deterministic_counters(telemetry.metrics.as_dict())
    finally:
        obs.disable()
    assert counters == PINNED_COUNTERS


def test_quarantined_cell_is_not_granted_again(monkeypatch):
    # A cell that kills every worker it touches comes back from its wave
    # short (quarantined); granting it again would loop forever.
    import os

    from repro.core import campaign
    from repro.core.executor import ResiliencePolicy

    parent = os.getpid()
    real = campaign.run_one_injection

    def poison(workload, component, *args, **kwargs):
        if component == "itlb":
            if os.getpid() != parent:
                os._exit(70)
            raise RuntimeError("poison cell reached the parent")
        return real(workload, component, *args, **kwargs)

    monkeypatch.setattr(campaign, "run_one_injection", poison)
    policy = ResiliencePolicy(
        retry_base_delay=0.01, retry_max_delay=0.05, restarts_per_worker=4,
    )
    report = run_campaign_adaptive(
        _config(samples=60), ci_target=0.3, jobs=2, policy=policy,
    )
    assert report.result.cell("crc32", "itlb", 1).counts.total == 0
    assert report.result.cell("crc32", "regfile", 1).counts.total > 0
    assert report.result.incidents == ADAPTIVE_BATCH  # the lost first wave
