"""Shared campaign configuration for the benchmark harness.

All per-table / per-figure benchmarks read from ONE fault-injection
campaign, cached incrementally on disk, so regenerating every artifact costs
one set of simulations.  Scale knobs (environment variables):

* ``REPRO_SAMPLES``   — injections per (workload, component, cardinality)
  cell; default 10 for a laptop-scale run, 2000 for the paper's setup.
* ``REPRO_WORKLOADS`` — comma-separated subset of the 15 workloads.
* ``REPRO_SEED``      — campaign seed (default 0).
* ``REPRO_JOBS``      — worker processes for the campaign (default 1;
  results are byte-identical at any value, see ``repro.core.parallel``).
* ``REPRO_MAX_INCIDENTS`` — infra-incident budget before aborting
  (default: unlimited; incidents land in ``benchmarks/.cache/incidents.jsonl``).
* ``REPRO_TELEMETRY`` — set to ``0`` to disable campaign telemetry
  (default on; the run's wall clock, samples/sec and metric summary are
  stamped into ``benchmarks/output/BENCH_campaign.json``).
* ``REPRO_PRUNE`` — set to ``1`` to enable liveness mask pruning
  (``repro.core.liveness``); results are byte-identical to an unpruned
  run — same store cache keys — only faster, and each bench record gains
  a ``pruned_fraction`` stamp.

The cell cache lives in ``benchmarks/.cache/campaign_store.json`` (snapshot
+ write-ahead journal) and is keyed by the exact cell parameters plus a
platform fingerprint, so changing any knob re-simulates only what changed.
Campaigns run under the supervisor: a killed run resumes mid-cell from the
store's partial checkpoints, bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro import obs
from repro.core.campaign import (
    CampaignConfig,
    CampaignResult,
    CampaignStore,
    run_campaign,
)
from repro.core.supervisor import IncidentJournal, Supervisor

CACHE_DIR = Path(__file__).resolve().parent / ".cache"
STORE_PATH = CACHE_DIR / "campaign_store.json"
INCIDENT_JOURNAL_PATH = CACHE_DIR / "incidents.jsonl"
OUTPUT_DIR = Path(__file__).resolve().parent / "output"

DEFAULT_SAMPLES = 10


def shared_config() -> CampaignConfig:
    samples = int(os.environ.get("REPRO_SAMPLES", DEFAULT_SAMPLES))
    workloads_env = os.environ.get("REPRO_WORKLOADS", "")
    workloads = tuple(
        name.strip() for name in workloads_env.split(",") if name.strip()
    )
    seed = int(os.environ.get("REPRO_SEED", "0"))
    return CampaignConfig(workloads=workloads, samples=samples, seed=seed)


def shared_campaign(progress: bool = True) -> CampaignResult:
    """Run (or load from cache) the shared campaign, fault-contained."""
    config = shared_config()
    store = CampaignStore(STORE_PATH)
    if store.quarantined is not None:
        print(
            f"warning: corrupt campaign store quarantined to "
            f"{store.quarantined}; rebuilt from its journal",
            file=sys.stderr,
        )
    max_incidents_env = os.environ.get("REPRO_MAX_INCIDENTS", "")
    supervisor = Supervisor(
        journal=IncidentJournal(INCIDENT_JOURNAL_PATH),
        max_incidents=int(max_incidents_env) if max_incidents_env else None,
    )

    def report(done: int, total: int, cell) -> None:
        print(
            f"\r[campaign {done}/{total}] {cell.workload}/{cell.component}/"
            f"{cell.cardinality}b",
            end="",
            file=sys.stderr,
            flush=True,
        )

    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    prune = os.environ.get("REPRO_PRUNE", "0") == "1"
    telemetry = None
    if os.environ.get("REPRO_TELEMETRY", "1") != "0":
        telemetry = obs.enable()
    begin = time.perf_counter()
    try:
        result = run_campaign(
            config, progress=report if progress else None, store=store,
            supervisor=supervisor, jobs=jobs, prune=prune,
        )
    finally:
        wall = time.perf_counter() - begin
        if telemetry is not None:
            obs.disable()
    if progress:
        print(file=sys.stderr)
    if supervisor.incident_count:
        print(
            f"warning: {supervisor.incident_count} infra incident(s) "
            f"contained; see {INCIDENT_JOURNAL_PATH}",
            file=sys.stderr,
        )
    if telemetry is not None:
        append_bench_record(
            "campaign",
            {
                "samples": config.samples,
                "cells": len(config.cells()),
                "jobs": jobs,
                "incidents": supervisor.incident_count,
            },
            wall_seconds=wall,
            telemetry=telemetry,
        )
    return result


def append_bench_record(
    name: str,
    record: dict,
    *,
    wall_seconds: float | None = None,
    telemetry=None,
) -> Path:
    """Append one record to the ``BENCH_<name>.json`` trajectory file.

    Each benchmark output is a trajectory — one record per invocation, so
    regressions stay visible across commits.  Every record is stamped with
    the wall clock and, when telemetry is active (explicitly passed or
    globally enabled via :func:`repro.obs.enable`), the campaign's metric
    summary (counters/derived rates, no trace events — traces belong in
    ``repro-campaign trace`` output, not a trajectory file).
    """
    record = dict(record)
    if telemetry is None:
        telemetry = obs.active()
    if wall_seconds is None and telemetry is not None:
        wall_seconds = telemetry.wall_seconds()
    if wall_seconds is not None:
        record.setdefault("wall_seconds", round(wall_seconds, 3))
    if telemetry is not None:
        summary = telemetry.summary(include_trace=False)
        if wall_seconds is not None:
            samples = summary["counters"].get("sim.samples", 0)
            if samples and wall_seconds > 0:
                record.setdefault(
                    "samples_per_sec", round(samples / wall_seconds, 2)
                )
        pruned = summary["counters"].get("sim.pruned.total", 0)
        undecided = summary["counters"].get("sim.undecided.total", 0)
        if pruned + undecided:
            record.setdefault(
                "pruned_fraction", round(pruned / (pruned + undecided), 4)
            )
        record.setdefault(
            "telemetry",
            {
                "counters": summary["counters"],
                "derived": summary["derived"],
            },
        )
    path = OUTPUT_DIR / f"BENCH_{name}.json"
    trajectory = []
    if path.exists():
        try:
            trajectory = json.loads(path.read_text())
        except ValueError:
            trajectory = []
    trajectory.append(record)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return path


def write_artifact(name: str, text: str) -> Path:
    """Persist a regenerated table/figure under benchmarks/output/."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path
