"""Supervisor containment: incidents, watchdog, budgets, strict mode, CLI."""

import pytest

from repro.core import campaign
from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.classify import FaultClass
from repro.core.cli import main
from repro.core.supervisor import Incident, IncidentJournal, Supervisor
from repro.core import supervisor as supervisor_module
from repro.errors import (
    IncidentBudgetExceeded,
    InjectionIncident,
    SimAssertion,
    WatchdogTimeout,
)
from repro.cpu.system import System
from repro.workloads import get_workload

WORKLOAD = "stringsearch"  # the fastest workload: keeps these tests quick


def sabotage_inject(monkeypatch, every=None):
    """Make the injector raise RuntimeError (on every Nth call, or always)."""
    real = campaign.inject
    calls = {"count": 0}

    def boom(system, mask):
        calls["count"] += 1
        if every is None or calls["count"] % every == 0:
            raise RuntimeError(f"sabotaged injection #{calls['count']}")
        return real(system, mask)

    monkeypatch.setattr(campaign, "inject", boom)
    return calls


def tiny_config(samples=6, seed=3):
    return CampaignConfig(
        workloads=(WORKLOAD,), components=("regfile",),
        cardinalities=(1,), samples=samples, seed=seed,
    )


def test_sabotaged_campaign_runs_to_completion(monkeypatch):
    sabotage_inject(monkeypatch, every=3)  # samples 3 and 6 blow up
    supervisor = Supervisor()
    result = run_campaign(tiny_config(samples=6), supervisor=supervisor)
    cell = result.cell(WORKLOAD, "regfile", 1)
    assert supervisor.incident_count == 2
    assert result.incidents == 2
    assert cell.counts.total == 4  # lost samples are not fault effects
    incident = supervisor.journal.incidents[0]
    assert incident.kind == "exception"
    assert incident.error_type == "RuntimeError"
    assert incident.workload == WORKLOAD
    assert incident.component == "regfile"
    assert incident.mask is not None  # full repro bundle
    assert "RuntimeError" in incident.traceback
    assert incident.cell_seed.endswith(f"{WORKLOAD}:regfile:1")


@pytest.mark.parametrize("jobs", [1, 2])
def test_result_counts_only_this_runs_incidents(monkeypatch, jobs):
    """A supervisor shared by two campaigns: each result's ``incidents``
    counts the samples its own run lost, not the supervisor's total."""
    config = CampaignConfig(
        workloads=(WORKLOAD,), components=("regfile", "itlb"),
        cardinalities=(1,), samples=3, seed=3,
    )
    real = supervisor_module.run_one_injection
    fired = []

    def once(workload, component, *args, **kwargs):
        # Per process: at jobs=2 only the worker holding itlb fires.
        if component == "itlb" and not fired:
            fired.append(component)
            raise RuntimeError("one contained incident")
        return real(workload, component, *args, **kwargs)

    supervisor = Supervisor()
    monkeypatch.setattr(supervisor_module, "run_one_injection", once)
    first = run_campaign(config, supervisor=supervisor, jobs=jobs)
    monkeypatch.undo()
    second = run_campaign(config, supervisor=supervisor, jobs=jobs)
    assert first.incidents == 1
    assert supervisor.incident_count == 1
    assert second.incidents == 0
    assert sum(cell.counts.total for cell in second.cells) == 6


# -- one incident policy at every job count --------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_unsupervised_campaign_escalates_first_incident(monkeypatch, jobs):
    """No supervisor means a strict one: the first incident aborts the
    campaign as an InjectionIncident caused by the contained error."""
    sabotage_inject(monkeypatch, every=1)
    with pytest.raises(InjectionIncident, match="strict") as raised:
        run_campaign(tiny_config(samples=2), jobs=jobs)
    assert isinstance(raised.value.__cause__, RuntimeError)
    assert "sabotaged injection" in str(raised.value.__cause__)


@pytest.mark.parametrize("jobs", [1, 2])
def test_adaptive_waves_share_one_incident_budget(monkeypatch, jobs):
    """One supervisor is one campaign: three 25-sample waves with one
    incident each break a budget of two, however the waves are run."""
    from repro.core.adaptive import ADAPTIVE_BATCH, run_campaign_adaptive

    real = supervisor_module.run_one_injection
    calls = {"count": 0}

    def every_batch(*args, **kwargs):
        # Per process: a pooled wave forks a fresh worker, so each wave
        # fires once on either side.
        calls["count"] += 1
        if calls["count"] % ADAPTIVE_BATCH == 0:
            raise RuntimeError("one contained incident per wave")
        return real(*args, **kwargs)

    monkeypatch.setattr(supervisor_module, "run_one_injection", every_batch)
    supervisor = Supervisor(max_incidents=2)
    with pytest.raises(IncidentBudgetExceeded):
        run_campaign_adaptive(
            tiny_config(samples=3 * ADAPTIVE_BATCH), ci_target=0.0,
            jobs=jobs, supervisor=supervisor,
        )
    assert supervisor.incident_count == 3
    assert [i.kind for i in supervisor.journal.incidents] == ["exception"] * 3


@pytest.mark.parametrize("jobs", [1, 2])
def test_contained_incident_is_counted_once_in_telemetry(monkeypatch, jobs):
    """A worker forwards its incident to the parent's supervisor, and only
    that supervisor emits the exec.incidents counters."""
    from repro import obs

    config = CampaignConfig(
        workloads=(WORKLOAD,), components=("regfile", "itlb"),
        cardinalities=(1,), samples=3, seed=3,
    )
    real = supervisor_module.run_one_injection
    fired = []

    def once(workload, component, *args, **kwargs):
        if component == "itlb" and not fired:
            fired.append(component)
            raise RuntimeError("one contained incident")
        return real(workload, component, *args, **kwargs)

    monkeypatch.setattr(supervisor_module, "run_one_injection", once)
    supervisor = Supervisor()
    telemetry = obs.enable()
    try:
        result = run_campaign(config, supervisor=supervisor, jobs=jobs)
        counters = telemetry.metrics.as_dict()["counters"]
    finally:
        obs.disable()
    assert result.incidents == 1
    assert supervisor.incident_count == 1
    assert counters["exec.incidents"] == 1
    assert counters["exec.incidents.exception"] == 1
    assert counters["exec.samples_lost"] == 1


def test_strict_mode_escalates_first_incident(monkeypatch):
    sabotage_inject(monkeypatch, every=3)
    supervisor = Supervisor(strict=True)
    with pytest.raises(InjectionIncident, match="strict"):
        run_campaign(tiny_config(samples=6), supervisor=supervisor)
    assert len(supervisor.journal) == 1  # journalled before escalating


def test_incident_budget_aborts(monkeypatch):
    sabotage_inject(monkeypatch)  # every injection fails
    supervisor = Supervisor(max_incidents=2)
    with pytest.raises(IncidentBudgetExceeded):
        run_campaign(tiny_config(samples=6), supervisor=supervisor)
    assert supervisor.incident_count == 3  # the budget-breaking third


def test_escaped_sim_assertion_classifies_as_assert(monkeypatch):
    def assertion(system, mask):
        raise SimAssertion("synthetic invariant violation")

    monkeypatch.setattr(campaign, "inject", assertion)
    supervisor = Supervisor()
    result = run_campaign(tiny_config(samples=4), supervisor=supervisor)
    cell = result.cell(WORKLOAD, "regfile", 1)
    assert supervisor.incident_count == 0
    assert cell.counts.assertion == 4
    assert cell.counts.avf == 1.0


# -- watchdog --------------------------------------------------------------------


def test_step_watchdog_trips_on_stuck_cycle_counter():
    system = System()
    system.load(get_workload(WORKLOAD).program())
    system.core.step = lambda: None  # cycle counter frozen: infra livelock
    with pytest.raises(WatchdogTimeout, match="cycle counter"):
        system.run(max_cycles=100, max_steps=50)


def test_run_until_watchdog_trips_on_stuck_cycle_counter():
    system = System()
    system.load(get_workload(WORKLOAD).program())
    system.core.step = lambda: None
    with pytest.raises(WatchdogTimeout):
        system.run_until(10, 100, max_steps=5)


def test_watchdog_not_armed_means_cycle_budget_still_works():
    system = System()
    system.load(get_workload(WORKLOAD).program())
    result = system.run(max_cycles=50)  # no max_steps: normal path
    assert result is not None


def test_watchdog_incident_is_contained(monkeypatch):
    def livelock(*args, **kwargs):
        raise WatchdogTimeout("cycle counter stuck at 7")

    monkeypatch.setattr(supervisor_module, "run_one_injection", livelock)
    supervisor = Supervisor()
    outcome = supervisor.run_injection(
        get_workload(WORKLOAD), "regfile",
        None, 1, 100, cell_seed="s", sample_index=0,
    )
    assert outcome is None
    assert supervisor.journal.incidents[0].kind == "watchdog"


# -- journal ---------------------------------------------------------------------


def test_incident_journal_jsonl_round_trip(tmp_path):
    path = tmp_path / "incidents.jsonl"
    journal = IncidentJournal(path)
    for index in range(2):
        journal.append(Incident(
            kind="exception", workload="w", component="l1d", cardinality=2,
            cell_seed="0:w:l1d:2", sample_index=index, inject_cycle=123,
            mask={"component": "l1d", "bits": [[0, 1]],
                  "origin": [0, 0], "cluster": [3, 3]},
            error_type="ValueError", message="boom", traceback="tb",
        ))
    path.open("a").write("not json at all\n")  # torn line must be skipped
    loaded = IncidentJournal.load(path)
    assert len(loaded) == 2
    assert loaded.incidents[1].sample_index == 1
    assert loaded.incidents[0].mask["bits"] == [[0, 1]]


def test_loading_missing_journal_is_empty(tmp_path):
    assert len(IncidentJournal.load(tmp_path / "absent.jsonl")) == 0


# -- CLI -------------------------------------------------------------------------


def test_cli_contains_incidents_and_exits_zero(tmp_path, monkeypatch, capsys):
    sabotage_inject(monkeypatch, every=2)
    journal_path = tmp_path / "incidents.jsonl"
    code = main([
        "run", "--workloads", WORKLOAD, "--components", "regfile",
        "--cardinalities", "1", "--samples", "4", "--seed", "7",
        "--incident-journal", str(journal_path),
        "--out", str(tmp_path / "results.json"),
    ])
    assert code == 0
    assert "incident(s) contained" in capsys.readouterr().err
    assert len(IncidentJournal.load(journal_path)) == 2

    assert main(["incidents", "--journal", str(journal_path)]) == 0
    output = capsys.readouterr().out
    assert "2 incident(s)" in output
    assert "RuntimeError" in output

    assert main([
        "incidents", "--journal", str(journal_path), "--verbose",
    ]) == 0
    assert "sabotaged injection" in capsys.readouterr().out


def test_cli_strict_exits_nonzero(tmp_path, monkeypatch, capsys):
    sabotage_inject(monkeypatch, every=2)
    code = main([
        "run", "--workloads", WORKLOAD, "--components", "regfile",
        "--cardinalities", "1", "--samples", "4", "--seed", "7", "--strict",
        "--out", str(tmp_path / "results.json"),
    ])
    assert code == 1
    assert "campaign aborted" in capsys.readouterr().err


def test_cli_max_incidents_exits_nonzero(tmp_path, monkeypatch, capsys):
    sabotage_inject(monkeypatch)
    code = main([
        "run", "--workloads", WORKLOAD, "--components", "regfile",
        "--cardinalities", "1", "--samples", "6", "--seed", "7",
        "--max-incidents", "1",
        "--out", str(tmp_path / "results.json"),
    ])
    assert code == 1


def test_cli_incidents_on_missing_journal(tmp_path, capsys):
    assert main(["incidents", "--journal", str(tmp_path / "nope.jsonl")]) == 0
    assert "no incidents" in capsys.readouterr().out


def test_cli_store_resume_flag_round_trip(tmp_path, capsys):
    store = tmp_path / "store.json"
    argv = [
        "run", "--workloads", WORKLOAD, "--components", "regfile",
        "--cardinalities", "1", "--samples", "3", "--seed", "2",
        "--store", str(store), "--checkpoint-every", "2",
        "--out", str(tmp_path / "results.json"),
    ]
    assert main(argv) == 0
    first = (tmp_path / "results.json").read_text()
    assert main(argv) == 0  # second run is a pure cache hit
    assert (tmp_path / "results.json").read_text() == first
