"""Statistical fault-injection campaigns.

A campaign sweeps the (workload × component × cardinality) grid; each cell
runs ``samples`` independent injections:

1. simulate the workload fault-free once (the *golden run*, cached);
2. per injection: re-simulate to a uniformly random cycle of the golden
   execution window, flip a freshly drawn fault mask in the live target
   structure, and run to termination with a 4× golden-cycles budget;
3. classify against the golden output (Masked / SDC / Crash / Timeout /
   Assert) and accumulate the cell's :class:`~repro.core.avf.ClassCounts`.

Everything is deterministic given the campaign seed.  Results serialise to
JSON; :class:`CampaignStore` provides an incremental disk cache keyed by
the exact cell parameters so interrupted campaigns resume and all benchmark
harnesses share one set of simulations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import random
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.avf import ClassCounts, weighted_avf
from repro.core.classify import TIMEOUT_FACTOR, FaultClass, classify
from repro.core.faults import FaultMask
from repro.core.generator import CLUSTERED, ClusterShape, MultiBitFaultGenerator
from repro.core.injector import inject
from repro.errors import CampaignInterrupted, ConfigError
from repro import obs
from repro.kernel.status import RunResult, RunStatus
from repro.cpu.config import DEFAULT_CONFIG, CoreConfig
from repro.cpu.system import COMPONENT_NAMES, System
from repro.workloads import get_workload, workload_names
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.core.liveness import LivenessTrace
    from repro.core.supervisor import Supervisor

DEFAULT_CARDINALITIES = (1, 2, 3)

#: Cycle budget for fault-free golden runs.  Every workload in the suite
#: finishes within a few hundred thousand cycles; this bound only exists so
#: a broken toolchain cannot hang the campaign before it starts.
GOLDEN_MAX_CYCLES = 50_000_000


class _BoundedCache:
    """A tiny LRU mapping: both campaign caches are instances of this.

    ``CoreConfig`` is a frozen dataclass (as is its ``MemoryLayout``
    field), so it hashes by value — two equal configs share one cache
    entry, where the old ``repr``-keyed golden cache and the
    equality-scanning checkpoint cache each had their own notion of
    platform identity.  The bound keeps long multi-config sessions (e.g.
    the protection-scheme ablations) from accumulating entries forever.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


#: Bound of both the golden-run and the checkpoint cache.  Golden results
#: are small (cycle counts + output bytes), and a checkpoint set holds a
#: few KB of compressed snapshots per grid point.
GOLDEN_CACHE_SIZE = 64

_GOLDEN_CACHE: _BoundedCache = _BoundedCache(GOLDEN_CACHE_SIZE)


def build_system(
    workload: Workload, core_cfg: CoreConfig, cores: int = 1
):
    """A fresh machine with *workload* loaded: ``System`` or ``SMPSystem``.

    Parallel workloads carry one program image for every core count (the
    spawn fallback makes placement architecture-invisible), so the same
    call works for serial workloads at ``cores=1`` and parallel ones at
    any count.  Both system classes expose the identical run / run_until /
    injectable_targets / publish_metrics surface the campaign needs.
    """
    if cores == 1:
        system = System(core_cfg)
        system.load(workload.program())
        return system
    from repro.cpu.smp import SMPSystem

    system = SMPSystem(core_cfg, cores)
    system.load(workload.program_for(cores))
    return system


def golden_run(
    workload: Workload,
    core_cfg: CoreConfig = DEFAULT_CONFIG,
    max_cycles: int = GOLDEN_MAX_CYCLES,
    cores: int = 1,
) -> RunResult:
    """Fault-free execution of *workload* (cached per workload + platform).

    The result is validated against the workload's independent reference
    output: a mismatch means the toolchain itself is broken, and no
    injection campaign on top of it would mean anything.  *cores* selects
    the SMP machine; parallel workloads produce the same architectural
    output at every core count, so the reference check is unchanged.  The
    single-core cache key is exactly the historical one, keeping every
    existing caller's hits (and bytes) identical.
    """
    cache_key = (workload.name, core_cfg)
    if cores != 1:
        cache_key += (cores,)
    cached = _cached_golden(cache_key)
    if cached is not None:
        return cached
    with obs.span("golden-run", workload=workload.name):
        system = build_system(workload, core_cfg, cores)
        result = system.run(max_cycles=max_cycles)
    return _keep_golden(workload, cache_key, result, max_cycles)


def _cached_golden(cache_key) -> RunResult | None:
    """The golden cache's entry for *cache_key*, counted as a hit or miss."""
    cached = _GOLDEN_CACHE.get(cache_key)
    tel = obs.active()
    if tel is not None:
        outcome = "misses" if cached is None else "hits"
        tel.metrics.counter(f"exec.lru.golden.{outcome}").inc()
    return cached


def _keep_golden(workload: Workload, cache_key, result: RunResult,
                 max_cycles: int = GOLDEN_MAX_CYCLES) -> RunResult:
    """Validate *result* as *workload*'s golden run and cache it; the
    liveness trace builder's instrumented pass can end here too."""
    if result.status is not RunStatus.FINISHED:
        raise ConfigError(
            f"golden run of {workload.name} did not finish within its "
            f"{max_cycles:,}-cycle budget: {result.status}"
        )
    if result.output != workload.expected_output:
        raise ConfigError(
            f"golden run of {workload.name} does not match its reference "
            f"output — toolchain bug"
        )
    _GOLDEN_CACHE.put(cache_key, result)
    return result


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one campaign (defaults follow the paper's setup)."""

    workloads: tuple[str, ...] = ()
    components: tuple[str, ...] = COMPONENT_NAMES
    cardinalities: tuple[int, ...] = DEFAULT_CARDINALITIES
    samples: int = 100
    seed: int = 0
    cluster: ClusterShape = field(default_factory=ClusterShape)
    placement: str = CLUSTERED
    #: Core count of the simulated machine.  1 (the default) is the
    #: paper's single-core setup and leaves every cell key, seed and
    #: result byte-identical to a config without the field.
    cores: int = 1

    def resolved_workloads(self) -> tuple[str, ...]:
        return self.workloads or tuple(workload_names())

    def cells(self) -> list[tuple[str, str, int]]:
        return [
            (w, c, k)
            for w in self.resolved_workloads()
            for c in self.components
            for k in self.cardinalities
        ]

    def cell_key(
        self,
        workload: str,
        component: str,
        cardinality: int,
        core_cfg: CoreConfig = DEFAULT_CONFIG,
    ) -> str:
        """Stable identity of one cell's simulation set (for caching).

        Includes a fingerprint of the simulated platform (the core config
        and the page size) so cached results are invalidated whenever the
        machine being injected changes.  Purely observational knobs
        (``check_invariants``) are canonicalised away first: a --verify
        campaign simulates the identical machine, so its results must
        share cache entries with — and stay byte-identical to — a plain
        run.
        """
        from repro.mem.paging import PAGE_SHIFT

        platform_cfg = dataclasses.replace(core_cfg, check_invariants=False)
        payload = {
            "workload": workload,
            "component": component,
            "cardinality": cardinality,
            "samples": self.samples,
            "seed": self.seed,
            "cluster": [self.cluster.rows, self.cluster.cols],
            "placement": self.placement,
            "platform": repr(platform_cfg) + f"/page{PAGE_SHIFT}",
            "version": 2,
        }
        if self.cores != 1:
            # The key blob gains a "cores" entry only off the single-core
            # default, so every pre-SMP store keeps its keys and a
            # --cores 1 campaign stays byte-identical to one predating
            # the flag.
            payload["cores"] = self.cores
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:24]


@dataclass
class CellResult:
    """Outcome histogram of one (workload, component, cardinality) cell."""

    workload: str
    component: str
    cardinality: int
    counts: ClassCounts
    golden_cycles: int

    @property
    def avf(self) -> float:
        return self.counts.avf

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "component": self.component,
            "cardinality": self.cardinality,
            "counts": self.counts.as_dict(),
            "golden_cycles": self.golden_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        return cls(
            workload=data["workload"],
            component=data["component"],
            cardinality=int(data["cardinality"]),
            counts=ClassCounts.from_dict(data["counts"]),
            golden_cycles=int(data["golden_cycles"]),
        )


#: Version stamp written into result blobs and store snapshots.  Bump when
#: the serialised shape changes; loaders accept every older version.
RESULT_SCHEMA = 2


class CampaignResult:
    """All cells of a campaign plus the analysis entry points.

    ``incidents`` counts the samples the run that produced these cells
    lost to contained incidents (0 for an incident-free run); it travels
    with the serialised result so downstream consumers can judge how many
    samples each cell is missing.
    """

    def __init__(
        self,
        cells: Iterable[CellResult],
        incidents: int = 0,
        schema: int = RESULT_SCHEMA,
    ) -> None:
        self._cells: dict[tuple[str, str, int], CellResult] = {}
        self.incidents = incidents
        self.schema = schema
        for cell in cells:
            self._cells[(cell.workload, cell.component, cell.cardinality)] = cell

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def cells(self) -> list[CellResult]:
        return list(self._cells.values())

    def cell(self, workload: str, component: str, cardinality: int) -> CellResult:
        return self._cells[(workload, component, cardinality)]

    def workloads(self) -> list[str]:
        return sorted({c.workload for c in self.cells})

    def components(self) -> list[str]:
        return sorted({c.component for c in self.cells})

    def cardinalities(self) -> list[int]:
        return sorted({c.cardinality for c in self.cells})

    def golden_cycles(self) -> dict[str, int]:
        return {c.workload: c.golden_cycles for c in self.cells}

    # -- analysis ------------------------------------------------------------

    def counts_by_workload(
        self, component: str, cardinality: int
    ) -> dict[str, ClassCounts]:
        return {
            c.workload: c.counts
            for c in self.cells
            if c.component == component and c.cardinality == cardinality
        }

    def avf_by_workload(
        self, component: str, cardinality: int
    ) -> dict[str, float]:
        return {
            name: counts.avf
            for name, counts in self.counts_by_workload(
                component, cardinality
            ).items()
        }

    def weighted_avf(self, component: str, cardinality: int) -> float:
        """Eq. 2 for one component and fault cardinality (Table V)."""
        return weighted_avf(
            self.avf_by_workload(component, cardinality), self.golden_cycles()
        )

    def weighted_avf_by_cardinality(self, component: str) -> dict[int, float]:
        return {
            card: self.weighted_avf(component, card)
            for card in self.cardinalities()
        }

    # -- serialisation ------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": RESULT_SCHEMA,
                "incidents": self.incidents,
                "cells": [c.as_dict() for c in self.cells],
            },
            indent=1,
        )

    @classmethod
    def from_json(cls, blob: str) -> "CampaignResult":
        # Schema 1 blobs carry only "cells"; default the newer fields.
        data = json.loads(blob)
        return cls(
            (CellResult.from_dict(c) for c in data["cells"]),
            incidents=int(data.get("incidents", 0)),
            schema=int(data.get("schema", 1)),
        )


class CheckpointedWorkload:
    """Golden-prefix snapshots of one workload, captured as samples pass them.

    The simulator is deterministic, so a machine restored from a snapshot
    of the golden run at cycle *c* behaves exactly like a fresh machine
    simulated to cycle *c*.  Campaigns exploit this to skip re-simulating
    the golden prefix of every injection: restoring a snapshot costs about
    a millisecond, simulating thousands of cycles costs tenths of a
    second.  Results are bit-identical to the unoptimised path, at every
    core count (*cores* > 1 snapshots an ``SMPSystem``).

    Snapshots sit on a fixed grid, one every ``golden.cycles // snapshots``
    cycles, and are taken lazily: nothing is simulated up front, and
    :meth:`system_at` captures each grid point the first sample to run
    past it reaches, so the golden prefix is simulated once in total.
    Each snapshot is a zlib-compressed pickle (a few KB, where a live
    deepcopy holds hundreds of KB); the simulator classes restore through
    :class:`~repro.restorable.Restorable`, so a restored machine
    simulates as fast as a fresh one.
    """

    def __init__(
        self,
        workload: Workload,
        core_cfg: CoreConfig = DEFAULT_CONFIG,
        cores: int = 1,
        snapshots: int = 24,
    ) -> None:
        self.workload = workload
        self.core_cfg = core_cfg
        self.cores = cores
        self.golden = golden_run(workload, core_cfg, cores=cores)
        step = max(1, self.golden.cycles // snapshots)
        #: Snapshot cycles; cycle 0 is not on it (a fresh build is cheaper
        #: than a restore).
        self.grid = range(step, self.golden.cycles, step)
        #: Snapshots of the first ``len(_snapshots)`` grid points: samples
        #: only ever capture the points past the last one taken.
        self._snapshots: list[bytes] = []

    @property
    def captured(self) -> list[int]:
        """The grid cycles whose snapshot has been taken so far."""
        return list(self.grid[:len(self._snapshots)])

    def system_at(self, cycle: int):
        """A machine in its golden state at the last grid point <= *cycle*.

        Restores the latest snapshot at or before *cycle* (or builds a
        fresh machine) and runs forward over any grid points up to
        *cycle* not captured yet, capturing each.  ``run_until(cycle)`` on
        the result equals a fresh machine's ``run_until(cycle)``: both
        stop at the first step reaching *cycle*, and an idle-cycle skip
        that carries a grid point past *cycle* lands on that same step.
        """
        due = min(max(cycle, 0) // self.grid.step, len(self.grid))
        taken = min(due, len(self._snapshots))
        if taken:
            system = pickle.loads(zlib.decompress(self._snapshots[taken - 1]))
        else:
            system = build_system(self.workload, self.core_cfg, self.cores)
        for target in self.grid[taken:due]:
            if not system.run_until(target, self.golden.cycles):
                break  # pragma: no cover - golden run is deterministic
            blob = zlib.compress(pickle.dumps(system, 5), 1)
            self._snapshots.append(blob)
            # Pickling exposes the live machine's __dict__, which slows
            # it down for good; carry on from the restored copy instead.
            system = pickle.loads(zlib.decompress(blob))
        return system


_CHECKPOINT_CACHE: _BoundedCache = _BoundedCache(GOLDEN_CACHE_SIZE)


def _checkpoints_for(
    workload: Workload, core_cfg: CoreConfig, cores: int = 1
) -> CheckpointedWorkload:
    # Keyed like the golden cache: by (workload, platform) value, plus the
    # core count when it is not 1.
    tel = obs.active()
    key = (workload.name, core_cfg)
    if cores != 1:
        key += (cores,)
    cached = _CHECKPOINT_CACHE.get(key)
    if cached is None:
        if tel is not None:
            tel.metrics.counter("exec.lru.checkpoint.misses").inc()
        with obs.span("checkpoint-build", workload=workload.name):
            cached = CheckpointedWorkload(workload, core_cfg, cores)
        _CHECKPOINT_CACHE.put(key, cached)
    elif tel is not None:
        tel.metrics.counter("exec.lru.checkpoint.hits").inc()
    return cached


#: Extra steps granted beyond the cycle budget before the watchdog trips.
#: Every legal pipeline step advances the cycle counter by at least one, so
#: steps can never legitimately exceed cycles; the slack absorbs the
#: bookkeeping steps around termination.
WATCHDOG_SLACK_STEPS = 10_000


@dataclass(frozen=True)
class InjectionPlan:
    """Everything one cell's injections share, fixed before its first sample.

    *golden* is the machine's fault-free run (the injection window and the
    classification reference); *checkpoints* (a
    :class:`CheckpointedWorkload` of the same machine) skip re-simulating
    most of each golden prefix; *liveness* (a
    :class:`~repro.core.liveness.LivenessTrace`) prunes provably-dead
    masks; *verify* adds the oracle cross-checks; *max_steps* is the
    step-count watchdog of the faulty run, which :meth:`build` always
    arms.  None of these changes a
    verdict, so every plan of one cell yields the same bytes.  Build plans
    with :meth:`build`, which enforces the rules between the options.
    """

    golden: RunResult
    core_cfg: CoreConfig = DEFAULT_CONFIG
    cores: int = 1
    checkpoints: "CheckpointedWorkload | None" = None
    liveness: "LivenessTrace | None" = None
    verify: bool = False
    max_steps: int | None = None

    @staticmethod
    def check(cores: int, prune: bool) -> None:
        """Reject option combinations no plan can honour."""
        if prune and cores != 1:
            raise ConfigError(
                "liveness pruning is a single-core service: it traces a "
                f"single-core golden run and cannot prune a {cores}-core "
                "campaign"
            )

    @classmethod
    def build(
        cls,
        workload: Workload,
        core_cfg: CoreConfig = DEFAULT_CONFIG,
        *,
        cores: int = 1,
        checkpoints: "CheckpointedWorkload | bool" = False,
        prune: bool = False,
        verify: bool = False,
    ) -> "InjectionPlan":
        """The plan of one cell of *workload* on a *cores*-core machine.

        *checkpoints* is a snapshot set of that machine, ``True`` for the
        shared cached one, or ``False`` for none.  *prune* builds (or
        fetches) the liveness trace; *verify* first cross-checks the
        fault-free run against the ISA-level reference oracle.  The
        watchdog's step budget derives from the golden run.
        """
        cls.check(cores, prune)
        if (
            isinstance(checkpoints, CheckpointedWorkload)
            and checkpoints.cores != cores
        ):
            raise ConfigError(
                f"checkpoints of a {checkpoints.cores}-core machine cannot "
                f"restore a {cores}-core injection"
            )
        liveness = None
        if prune:
            from repro.core.liveness import liveness_for

            # First: on a cold golden cache the traced pass is the golden
            # run, and golden_run below hits the cache.
            liveness = liveness_for(workload, core_cfg)
        golden = golden_run(workload, core_cfg, cores=cores)
        if verify:
            from repro.verify.differential import verify_workload

            verify_workload(workload, core_cfg, cores=cores)
        if checkpoints is True:
            checkpoints = _checkpoints_for(workload, core_cfg, cores)
        return cls(
            golden=golden,
            core_cfg=core_cfg,
            cores=cores,
            checkpoints=checkpoints or None,
            liveness=liveness,
            verify=verify,
            max_steps=TIMEOUT_FACTOR * golden.cycles + WATCHDOG_SLACK_STEPS,
        )

    def system_at(self, workload: Workload, cycle: int):
        """A machine to run forward to *cycle*: restored or fresh."""
        if self.checkpoints is not None:
            return self.checkpoints.system_at(cycle)
        return build_system(workload, self.core_cfg, self.cores)


#: One in this many pruned-Masked verdicts is cross-checked end-to-end by
#: full simulation under ``--verify`` (deterministically selected by mask
#: hash, so the audited subset is stable across runs and job counts).
PRUNE_AUDIT_ONE_IN = 8


def _prune_audit_selected(workload_name: str, mask: FaultMask,
                          inject_cycle: int) -> bool:
    blob = f"{workload_name}:{mask.component}:{mask.bits}:{inject_cycle}"
    digest = hashlib.sha256(blob.encode()).digest()
    return digest[0] % PRUNE_AUDIT_ONE_IN == 0


def _audit_pruned_sample(
    workload: Workload,
    component: str,
    mask: FaultMask,
    inject_cycle: int,
    plan: InjectionPlan,
) -> None:
    """Fully simulate a fault the pruner declared Masked; raise if not.

    The differential backstop of ``--verify`` campaigns: any unsound prune
    decision becomes a :class:`~repro.errors.VerificationError` (contained
    as an incident by the supervisor, fatal in --strict/CI).
    """
    from repro.errors import VerificationError

    max_cycles = TIMEOUT_FACTOR * plan.golden.cycles
    system = plan.system_at(workload, inject_cycle)
    system.run_until(inject_cycle, max_cycles, max_steps=plan.max_steps)
    inject(system, mask)
    result = system.run(max_cycles, max_steps=plan.max_steps)
    verdict = classify(result, plan.golden)
    if verdict is not FaultClass.MASKED:
        raise VerificationError(
            f"liveness pruner misclassified {workload.name}/{component} "
            f"mask {mask.bits} @ cycle {inject_cycle} as Masked; full "
            f"simulation says {verdict.value}"
        )


def run_one_injection(
    workload: Workload,
    component: str,
    generator: MultiBitFaultGenerator,
    cardinality: int,
    inject_cycle: int,
    plan: InjectionPlan | None = None,
    trace: dict | None = None,
) -> tuple[FaultClass, RunResult, FaultMask]:
    """One complete injection experiment; see the module docstring.

    *plan* (see :class:`InjectionPlan`; default: a plain single-core
    plan) fixes the machine and the services the experiment uses.  On an
    N-core plan the six standard component names alias core 0's private
    structures plus the shared L2, so a cell means the same thing at every
    core count.  Checkpoint restores, the watchdog and *verify*'s oracle
    cross-checks (mask-application accounting, and Masked outcomes
    compared against the ISA-level reference) consume no randomness and
    never touch simulation state, so the returned verdict/result/mask are
    bit-identical under every plan.  A plan's liveness trace enables mask
    pruning: a fault whose flipped bits are all provably dead during the
    golden run is classified Masked without simulating anything — the
    faulty run would be bit-identical to the golden run — and only
    undecided faults fall through to full simulation.  The mask is drawn
    from the same RNG stream against the recorded geometry, so pruned
    results are byte-identical to unpruned ones.
    *trace*, when a dict, receives intermediate artifacts (currently
    ``"mask"``) so a supervisor can build a repro bundle even when the run
    blows up later.
    """
    if plan is None:
        plan = InjectionPlan.build(workload)
    golden = plan.golden
    max_cycles = TIMEOUT_FACTOR * golden.cycles
    # Phase timing is guarded per site so the telemetry-off path costs one
    # attribute check; none of it touches RNGs or simulation state, so the
    # outcome is bit-identical with telemetry on or off.
    tel = obs.active()
    clock = time.perf_counter
    mask = None
    liveness = plan.liveness
    if liveness is not None:
        begin = clock() if tel is not None else 0.0
        mask = generator.generate(
            liveness.target_geometry(component), cardinality
        )
        if trace is not None:
            trace["mask"] = mask
        if liveness.classify(mask, inject_cycle):
            if tel is not None:
                tel.metrics.counter("sim.pruned." + component).inc()
                tel.metrics.counter("sim.pruned.total").inc()
                tel.metrics.histogram("time.phase.prune").observe(
                    clock() - begin
                )
                tel.metrics.counter("sim.injections").inc()
            if plan.verify and _prune_audit_selected(
                workload.name, mask, inject_cycle
            ):
                _audit_pruned_sample(
                    workload, component, mask, inject_cycle, plan
                )
            return FaultClass.MASKED, golden, mask
        if tel is not None:
            tel.metrics.counter("sim.undecided." + component).inc()
            tel.metrics.counter("sim.undecided.total").inc()
    begin = clock() if tel is not None else 0.0
    system = plan.system_at(workload, inject_cycle)
    if tel is not None:
        restored = clock()
        tel.metrics.histogram("time.phase.restore").observe(restored - begin)
    if mask is None:
        mask = generator.generate(
            system.injectable_targets()[component], cardinality
        )
        if trace is not None:
            trace["mask"] = mask
    reached = system.run_until(
        inject_cycle, max_cycles, max_steps=plan.max_steps
    )
    if not reached:  # pragma: no cover - golden prefix is deterministic
        raise ConfigError(
            f"injection cycle {inject_cycle} not reachable in "
            f"{workload.name} (golden={golden.cycles})"
        )
    if tel is not None:
        prefixed = clock()
        tel.metrics.histogram("time.phase.prefix").observe(prefixed - restored)
    if plan.verify:
        from repro.verify.invariants import (
            check_mask_applied, snapshot_mask_bits,
        )

        target = system.injectable_targets()[component]
        before = snapshot_mask_bits(target, mask)
        inject(system, mask)
        check_mask_applied(target, mask, before)
    else:
        inject(system, mask)
    result = system.run(max_cycles, max_steps=plan.max_steps)
    if tel is not None:
        ran = clock()
        tel.metrics.histogram("time.phase.faulty").observe(ran - prefixed)
    verdict = classify(result, golden)
    if plan.verify and verdict is FaultClass.MASKED:
        from repro.verify.differential import check_masked_run

        check_masked_run(workload, result, plan.core_cfg, cores=plan.cores)
    if tel is not None:
        tel.metrics.histogram("time.phase.classify").observe(clock() - ran)
        tel.metrics.counter("sim.injections").inc()
        system.publish_metrics(tel.metrics)
    return verdict, result, mask


def _rng_state_to_json(state: tuple) -> list:
    """``random.Random.getstate()`` → JSON-serialisable form."""
    version, internal, gauss = state
    return [version, list(internal), gauss]


def _rng_state_from_json(data: list) -> tuple:
    version, internal, gauss = data
    return (version, tuple(internal), gauss)


@dataclass
class CellCheckpoint:
    """A cell's progress: everything needed to continue at *samples_done*.

    Both RNG states are captured *after* the last counted sample, so a
    resumed cell draws exactly the injection cycles and fault masks the
    uninterrupted run would have drawn — the resumed `ClassCounts` is
    bit-identical, not merely statistically equivalent.  A finished cell's
    end state is a checkpoint too: :func:`run_cell` returns one, and
    :meth:`CellTask.result` turns it into the cell's :class:`CellResult`.
    """

    samples_done: int
    counts: ClassCounts
    cycle_rng_state: tuple
    generator_rng_state: tuple
    golden_cycles: int

    @property
    def lost(self) -> int:
        """Samples drawn but not counted: lost to contained incidents."""
        return self.samples_done - self.counts.total

    def as_dict(self) -> dict:
        return {
            "samples_done": self.samples_done,
            "counts": self.counts.as_dict(),
            "cycle_rng": _rng_state_to_json(self.cycle_rng_state),
            "generator_rng": _rng_state_to_json(self.generator_rng_state),
            "golden_cycles": self.golden_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellCheckpoint":
        return cls(
            samples_done=int(data["samples_done"]),
            counts=ClassCounts.from_dict(data["counts"]),
            cycle_rng_state=_rng_state_from_json(data["cycle_rng"]),
            generator_rng_state=_rng_state_from_json(data["generator_rng"]),
            golden_cycles=int(data["golden_cycles"]),
        )


@dataclass(frozen=True)
class CellTask:
    """One unit of cell work: run a cell from *start* up to *samples* samples.

    *index* is the cell's position in the caller's canonical cell order —
    the merge key of parallel runs — and *cell_key* names its store entry.
    A campaign's tasks run whole cells (*samples* is the configured
    budget, *start* a stored checkpoint when resuming); an adaptive wave's
    tasks advance cells by a batch from their previous end states.
    """

    index: int
    workload: str
    component: str
    cardinality: int
    samples: int
    cell_key: str
    start: CellCheckpoint | None = None
    attempt: int = 0  # 0 on first dispatch; >0 on retries

    def result(self, state: CellCheckpoint) -> CellResult:
        return CellResult(
            workload=self.workload,
            component=self.component,
            cardinality=self.cardinality,
            counts=state.counts,
            golden_cycles=state.golden_cycles,
        )


#: Persist a mid-cell checkpoint every this many samples when a store is
#: attached.  At the paper's 2,000 samples/cell this bounds lost work after
#: a kill to ~12% of one cell.
DEFAULT_CHECKPOINT_EVERY = 250


def run_cell(
    workload_name: str,
    component: str,
    cardinality: int,
    config: CampaignConfig,
    core_cfg: CoreConfig = DEFAULT_CONFIG,
    *,
    supervisor: "Supervisor | None" = None,
    store: "CampaignStore | None" = None,
    cell_key: str | None = None,
    checkpoint_every: int | None = DEFAULT_CHECKPOINT_EVERY,
    start: CellCheckpoint | None = None,
    stop: Callable[[], bool] | None = None,
    verify: bool = False,
    prune: bool = False,
) -> CellCheckpoint:
    """Run a cell's injections up to ``config.samples``; return its end state.

    This is the only sample loop: whole cells, resumed cells and adaptive
    waves all run through it.  The cell's :class:`InjectionPlan` is built
    first.  With *verify*, the workload's fault-free run is cross-checked
    in lock step against the ISA-level reference oracle (cached per
    workload + config), and every sample adds the oracle checks described
    under :func:`run_one_injection`.  Verification consumes no randomness,
    so a verified cell's counts are byte-identical to an unverified one's.

    With *prune*, a liveness trace of the golden run (cached per workload +
    platform, see :mod:`repro.core.liveness`) classifies provably-dead
    fault masks as Masked without simulating them; undecided masks take
    the ordinary path.  Pruning is conservative by construction, so the
    cell's counts are byte-identical to an unpruned run's — only faster.

    *start* (a checkpoint of this cell, e.g. ``store.get_partial(key)`` or
    an earlier call's end state) continues the cell where it left off,
    reproducing the uninterrupted run bit-for-bit; without it the cell
    opens at sample 0, which is when ``sim.cells`` counts it.  With
    *store* and *cell_key*, mid-cell progress is checkpointed every
    *checkpoint_every* samples.  Each injection runs inside
    *supervisor*'s isolation boundary (default ``Supervisor(strict=True)``:
    an in-memory journal that escalates the first incident) under the
    plan's step watchdog.  A contained infra failure becomes a journalled
    incident instead of aborting the cell; its sample is dropped from the
    histogram — it is not a fault effect, so ``counts.total`` may be less
    than ``samples_done``.
    *stop* is probed between samples; when it returns true the cell
    flushes one final checkpoint (so a later resume is bit-identical) and
    raises :class:`~repro.errors.CampaignInterrupted` — the graceful-drain
    hook of the parallel executor and of Ctrl-C handling.
    """
    if supervisor is None:
        supervisor = _strict_supervisor()
    tel = obs.active()
    workload = get_workload(workload_name)
    plan = InjectionPlan.build(
        workload, core_cfg, cores=config.cores, checkpoints=True,
        prune=prune, verify=verify,
    )
    cell_seed = f"{config.seed}:{workload_name}:{component}:{cardinality}"
    generator = MultiBitFaultGenerator(
        cluster=config.cluster, mode=config.placement, seed=cell_seed
    )
    cycle_rng = random.Random(f"repro-cycles:{cell_seed}")
    counts = ClassCounts()
    first = 0
    if start is None:
        if tel is not None:
            tel.metrics.counter("sim.cells").inc()
    else:
        counts = counts.merged(start.counts)
        first = start.samples_done
        cycle_rng.setstate(start.cycle_rng_state)
        generator.set_rng_state(start.generator_rng_state)
    persist = store is not None and cell_key is not None

    def state(samples_done: int) -> CellCheckpoint:
        # A copy of the counts: checkpoints may be sent on while the
        # loop keeps counting.
        return CellCheckpoint(
            samples_done=samples_done,
            counts=ClassCounts().merged(counts),
            cycle_rng_state=cycle_rng.getstate(),
            generator_rng_state=generator.rng_state(),
            golden_cycles=plan.golden.cycles,
        )

    with obs.span(
        "cell", workload=workload_name, component=component,
        cardinality=cardinality,
    ):
        for index in range(first, config.samples):
            if stop is not None and stop():
                if persist and index > first:
                    store.put_partial(cell_key, state(index))
                raise CampaignInterrupted(
                    f"stopped {workload_name}/{component}/{cardinality}-bit at "
                    f"sample {index}/{config.samples}"
                )
            inject_cycle = cycle_rng.randrange(plan.golden.cycles)
            fault_class = supervisor.run_injection(
                workload, component, generator, cardinality, inject_cycle,
                plan, cell_seed=cell_seed, sample_index=index,
            )
            if fault_class is not None:
                counts.add(fault_class)
                if tel is not None:
                    tel.metrics.counter("sim.class." + fault_class.value).inc()
            elif tel is not None:
                # Sample lost to a contained incident — schedule-dependent,
                # so it counts under exec.*, not sim.*.
                tel.metrics.counter("exec.samples_lost").inc()
            if tel is not None:
                tel.metrics.counter("sim.samples").inc()
            done = index + 1
            if (
                persist
                and checkpoint_every
                and done % checkpoint_every == 0
                and done < config.samples
            ):
                store.put_partial(cell_key, state(done))
                if tel is not None:
                    tel.metrics.counter("exec.checkpoints_written").inc()
    return state(config.samples)


def _strict_supervisor() -> "Supervisor":
    """The default supervisor: in-memory journal, first incident fatal."""
    from repro.core.supervisor import Supervisor

    return Supervisor(strict=True)


def run_task(
    task: CellTask, config: CampaignConfig,
    core_cfg: CoreConfig = DEFAULT_CONFIG, **options,
) -> CellCheckpoint:
    """:func:`run_cell` on *task*; *options* are its keyword arguments."""
    return run_cell(
        task.workload, task.component, task.cardinality,
        dataclasses.replace(config, samples=task.samples), core_cfg,
        cell_key=task.cell_key, start=task.start, **options,
    )


def run_tasks(
    tasks: list[CellTask],
    config: CampaignConfig,
    core_cfg: CoreConfig = DEFAULT_CONFIG,
    *,
    jobs: int = 1,
    store: "CampaignStore | None" = None,
    supervisor: "Supervisor | None" = None,
    done: Callable[[CellTask, CellCheckpoint], None] | None = None,
    checkpoint_every: int | None = DEFAULT_CHECKPOINT_EVERY,
    verify: bool = False,
    prune: bool = False,
    backend: str = "multiprocessing",
    backend_options: dict | None = None,
    policy=None,
    chaos=None,
) -> int:
    """Run *tasks*; return the samples this call lost to contained incidents.

    The one executor of cell tasks: at ``jobs <= 1`` they run in order,
    in-process; otherwise on the resilient scheduler of
    :mod:`repro.core.parallel`, over the executor backend *backend* (a
    name in :data:`~repro.core.executor.ALL_BACKEND_NAMES`, checked before
    any work; *backend_options* go to its constructor), with *policy* (a
    :class:`~repro.core.executor.ResiliencePolicy`) tuning its failure
    handling and *chaos* (a :class:`~repro.core.chaos.ChaosSpec`, pooled
    runs only) injecting faults into it.  Every task runs through
    :func:`run_cell` either way, so end states do not depend on *jobs* or
    *backend*.  Every incident, a worker's or the fabric's included, goes
    to the one *supervisor* (default ``Supervisor(strict=True)``), which
    journals, counts and escalates it; an escalation aborts the call.
    Each finished cell's result goes to *store* (under the task's cell
    key) before *done* hears of its end state; the remaining keywords are
    :func:`run_cell`'s.
    """
    if supervisor is None:
        supervisor = _strict_supervisor()
    if chaos is not None and jobs < 2:
        raise ConfigError(
            "chaos events fire in pool workers: they need jobs >= 2 "
            f"(got {jobs})"
        )
    if jobs > 1:
        from repro.core.executor import (
            ALL_BACKEND_NAMES, ResiliencePolicy, WorkerSpec,
        )
        from repro.core.parallel import _Scheduler

        if backend not in ALL_BACKEND_NAMES:
            raise ValueError(
                f"unknown executor backend {backend!r} "
                f"(available: {', '.join(ALL_BACKEND_NAMES)})"
            )
        policy = policy if policy is not None else ResiliencePolicy()
        spec = WorkerSpec(
            config=config, core_cfg=core_cfg,
            checkpoint_every=checkpoint_every,
            telemetry_enabled=obs.active() is not None,
            verify=verify, prune=prune,
            report_interval=policy.report_interval, chaos=chaos,
        )
        return _Scheduler(
            tasks, spec, jobs, store=store, supervisor=supervisor,
            backend=backend, backend_options=backend_options,
            policy=policy, done=done,
        ).run()
    lost = 0
    for task in tasks:
        state = run_task(
            task, config, core_cfg, supervisor=supervisor, store=store,
            checkpoint_every=checkpoint_every, verify=verify, prune=prune,
        )
        lost += state.lost - (task.start.lost if task.start else 0)
        if store is not None:
            store.put(task.cell_key, task.result(state))
        if done is not None:
            done(task, state)
    return lost


ProgressFn = Callable[[int, int, CellResult], None]


class CampaignCells:
    """One campaign's cells: the ones a store already holds, the tasks
    still to run, and in-order progress as their results arrive.

    Progress fires in canonical ``config.cells()`` order no matter in
    which order cells finish, so serial and parallel runs report alike.
    """

    def __init__(
        self,
        config: CampaignConfig,
        store: "CampaignStore | None",
        core_cfg: CoreConfig,
        progress: ProgressFn | None,
    ) -> None:
        self.progress = progress
        self.results: dict[int, CellResult] = {}
        self.tasks: list[CellTask] = []
        self.emitted = 0
        cells = config.cells()
        self.total = len(cells)
        for index, (workload, component, cardinality) in enumerate(cells):
            key = config.cell_key(workload, component, cardinality, core_cfg)
            cached = store.get(key) if store is not None else None
            if cached is not None:
                self.results[index] = cached
                continue
            self.tasks.append(CellTask(
                index, workload, component, cardinality, config.samples, key,
                start=store.get_partial(key) if store is not None else None,
            ))
        self._emit()

    def done(self, task: CellTask, state: CellCheckpoint) -> None:
        self.results[task.index] = task.result(state)
        self._emit()

    def _emit(self) -> None:
        while self.emitted in self.results:
            if self.progress is not None:
                self.progress(
                    self.emitted + 1, self.total, self.results[self.emitted]
                )
            self.emitted += 1

    def result(self, incidents: int) -> CampaignResult:
        return CampaignResult(
            [self.results[index] for index in range(self.total)],
            incidents=incidents,
        )


def run_campaign(
    config: CampaignConfig,
    progress: ProgressFn | None = None,
    store: "CampaignStore | None" = None,
    core_cfg: CoreConfig = DEFAULT_CONFIG,
    *,
    supervisor: "Supervisor | None" = None,
    checkpoint_every: int | None = DEFAULT_CHECKPOINT_EVERY,
    jobs: int = 1,
    verify: bool = False,
    prune: bool = False,
    backend: str = "multiprocessing",
    backend_options: dict | None = None,
    policy=None,
    chaos=None,
) -> CampaignResult:
    """Run a full campaign, continuing from whatever *store* holds.

    Cells the store holds are served without simulation; the others
    continue from the store's mid-cell checkpoint, if it has one, which
    is bit-identical to starting them over.  They run through
    :func:`run_tasks`, whose keywords these are: ``jobs > 1`` shards the
    cells across an executor backend, and since cells are independently
    seeded the merged result is byte-identical to the serial run.
    *verify* turns on the oracle cross-checks of :func:`run_cell` for
    every cell; results stay byte-identical to a non-verify run.  *prune*
    turns on liveness mask pruning (see :func:`run_cell`); results again
    stay byte-identical, which is why neither flag enters the cell cache
    key.  *supervisor* is :func:`run_tasks`'s: without one, the first
    incident aborts the campaign.  The result's ``incidents`` counts the
    samples this call lost to contained incidents.
    """
    cells = CampaignCells(config, store, core_cfg, progress)
    tel = obs.active()
    # Pooled runs only: serial telemetry has no exec.scheduler.* counters.
    if tel is not None and jobs > 1 and cells.tasks:
        tel.metrics.counter("exec.scheduler.cells_cached").inc(
            len(cells.results)
        )
    lost = run_tasks(
        cells.tasks, config, core_cfg, jobs=jobs, store=store,
        supervisor=supervisor, done=cells.done,
        checkpoint_every=checkpoint_every, verify=verify, prune=prune,
        backend=backend, backend_options=backend_options, policy=policy,
        chaos=chaos,
    )
    return cells.result(lost)


#: On-disk store schema.  Version 1 was a bare ``{key: cell}`` mapping
#: rewritten wholesale on every put; version 2 adds the envelope with
#: partial checkpoints and the write-ahead journal.
STORE_SCHEMA = 2


class CampaignStore:
    """Crash-safe incremental per-cell cache on disk.

    Layout: a compacted JSON snapshot at *path* plus a write-ahead JSONL
    journal at ``<path>.journal``.  Every mutation appends one line to the
    journal (O(1), flushed immediately); every *compact_every* puts the
    snapshot is rewritten atomically (tmp + rename) and the journal
    truncated, so the journal stays short and loads stay fast.  A corrupt
    or half-written snapshot is quarantined (renamed to
    ``<path>.corrupt-N``) and the store rebuilt from whatever the journal
    still holds; a torn final journal line (the signature of a kill mid
    append) is skipped.  Version-1 snapshots (plain ``{key: cell}``) load
    transparently.
    """

    def __init__(self, path: str | Path, compact_every: int = 64) -> None:
        self.path = Path(path)
        self.journal_path = Path(str(path) + ".journal")
        self.compact_every = compact_every
        self._data: dict[str, dict] = {}
        self._partials: dict[str, dict] = {}
        self._mutations_since_compact = 0
        self._journal_handle = None
        self.quarantined: Path | None = None
        self._load()

    # -- loading -----------------------------------------------------------

    def _load(self) -> None:
        if self.path.exists():
            try:
                raw = json.loads(self.path.read_text())
                if not isinstance(raw, dict):
                    raise ValueError("snapshot is not a JSON object")
            except (ValueError, OSError):
                self.quarantined = self._quarantine()
            else:
                if "schema" in raw and isinstance(raw.get("cells"), dict):
                    self._data = dict(raw["cells"])
                    self._partials = dict(raw.get("partials", {}))
                else:  # schema 1: bare key -> cell mapping
                    self._data = raw
        self._replay_journal()

    def _quarantine(self) -> Path:
        """Move a corrupt snapshot aside; never destroy evidence."""
        for attempt in range(1000):
            target = Path(f"{self.path}.corrupt-{attempt}")
            if not target.exists():
                self.path.replace(target)
                return target
        raise OSError(  # pragma: no cover - 1000 corruptions is operator error
            f"too many quarantined snapshots next to {self.path}"
        )

    def _replay_journal(self) -> None:
        if not self.journal_path.exists():
            return
        try:
            lines = self.journal_path.read_text().splitlines()
        except OSError:  # pragma: no cover - unreadable journal
            return
        replayed: list[str] = []
        torn = False
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                op = record["op"]
            except (ValueError, KeyError, TypeError):
                # Torn write: a kill landed mid-append.  Everything before
                # this line is intact; nothing after it can be trusted.
                torn = True
                break
            if op == "cell":
                self._data[record["key"]] = record["cell"]
                self._partials.pop(record["key"], None)
            elif op == "partial":
                self._partials[record["key"]] = record["state"]
            elif op == "clear_partial":  # written by older versions
                self._partials.pop(record["key"], None)
            # Unknown ops from a future schema are ignored, not fatal.
            replayed.append(line)
        if torn:
            # Drop the untrusted tail NOW (atomically), or the next append
            # would be glued onto the torn fragment — one missing newline
            # silently eating every record written after the restart.
            tmp = self.journal_path.with_suffix(
                self.journal_path.suffix + ".tmp"
            )
            tmp.write_text("".join(line + "\n" for line in replayed))
            tmp.replace(self.journal_path)

    # -- mutation ----------------------------------------------------------

    def _append(self, record: dict) -> None:
        # One persistent append handle instead of an open/close per record:
        # the journal is the hot path of a 540-cell campaign (every cell
        # result and every mid-cell checkpoint lands here).  O_APPEND keeps
        # concurrent stores on the same path line-atomic, as before.
        if self._journal_handle is None or self._journal_handle.closed:
            self.journal_path.parent.mkdir(parents=True, exist_ok=True)
            self._journal_handle = self.journal_path.open("a")
        self._journal_handle.write(json.dumps(record) + "\n")
        self._journal_handle.flush()
        self._mutations_since_compact += 1
        if self._mutations_since_compact >= self.compact_every:
            self.compact()

    def put(self, key: str, cell: CellResult) -> None:
        self._data[key] = cell.as_dict()
        self._partials.pop(key, None)
        self._append({"op": "cell", "key": key, "cell": self._data[key]})

    def put_partial(self, key: str, checkpoint: CellCheckpoint) -> None:
        self._partials[key] = checkpoint.as_dict()
        self._append({"op": "partial", "key": key, "state": self._partials[key]})

    def compact(self) -> None:
        """Fold the journal into an atomically-replaced snapshot.

        Snapshots are key-sorted, so two stores holding the same cells are
        byte-identical regardless of arrival order — this is what lets CI
        compare a parallel run's store against a serial reference with
        ``cmp`` after compaction.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps({
            "schema": STORE_SCHEMA,
            "cells": self._data,
            "partials": self._partials,
        }, sort_keys=True))
        tmp.replace(self.path)
        if self._journal_handle is not None and not self._journal_handle.closed:
            self._journal_handle.close()
        self._journal_handle = None
        self.journal_path.write_text("")
        self._mutations_since_compact = 0

    def close(self) -> None:
        """Release the journal handle (appends reopen it on demand)."""
        if self._journal_handle is not None and not self._journal_handle.closed:
            self._journal_handle.close()
        self._journal_handle = None

    # -- access ------------------------------------------------------------

    def get(self, key: str) -> CellResult | None:
        raw = self._data.get(key)
        return CellResult.from_dict(raw) if raw is not None else None

    def get_partial(self, key: str) -> CellCheckpoint | None:
        raw = self._partials.get(key)
        if raw is None:
            return None
        try:
            return CellCheckpoint.from_dict(raw)
        except (KeyError, ValueError, TypeError):
            # A checkpoint we cannot parse is worth less than a redo.
            return None

    def partial_keys(self) -> list[str]:
        return sorted(self._partials)

    def __len__(self) -> int:
        return len(self._data)
