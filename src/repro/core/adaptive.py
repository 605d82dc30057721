"""CI-driven adaptive sampling: the Wilson interval as a stopping rule.

Fixed-budget campaigns (the paper's 2,000 samples/cell) spend the same
effort on a cell whose AVF is pinned down after 200 samples as on one
that genuinely needs every draw.  This driver turns the Wilson-interval
helper of :mod:`repro.core.sampling` from a reporting tool into the
campaign loop's stopping rule:

* **Phase A** runs every cell toward ``config.samples`` in waves of
  :data:`ADAPTIVE_BATCH` injections.  After each wave, any cell whose
  AVF confidence-interval half-width has dropped to ``ci_target`` stops
  early; its unspent budget is freed into a shared pool.
* **Phase B** reallocates the pool to the cells that finished their full
  budget still *above* the target — widest interval first, sized by
  :func:`~repro.core.sampling.required_additional_samples` — until the
  pool is exhausted or every cell meets the target.

Determinism is preserved exactly as in :func:`~repro.core.campaign.run_cell`:
each cell owns an independently seeded mask generator and cycle RNG whose
states are carried across waves, so the first *n* samples of a cell are
identical to the first *n* samples of an exact-replay campaign no matter
how the waves were scheduled.  Allocation decisions depend only on merged
per-cell counts, never on timing or worker count, so ``--jobs N`` results
equal serial results byte-for-byte.  With ``ci_target=0`` the half-width
(strictly positive for any finite sample) never reaches the target: no
cell stops early, no budget moves, and the result is byte-identical to
the exact-replay campaign — the degeneracy the tests pin.

Adaptive cells intentionally have *no* fixed sample count, so they do not
fit the exact-parameter cache key of :class:`~repro.core.campaign.
CampaignStore`; the driver therefore runs storeless (the CLI rejects
``--store``/``--resume`` with ``--adaptive``) and unsupervised.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.core.avf import ClassCounts
from repro.core.campaign import (
    CampaignConfig,
    CampaignResult,
    CellResult,
    ProgressFn,
    _checkpoints_for,
    golden_run,
    run_one_injection,
)
from repro.core.generator import MultiBitFaultGenerator
from repro.core.sampling import required_additional_samples, wilson_half_width
from repro.errors import ConfigError
from repro import obs
from repro.cpu.config import DEFAULT_CONFIG, CoreConfig
from repro.workloads import get_workload

#: Samples per cell per wave.  Small enough that early stopping reacts
#: within a few percent of the paper's 2,000-sample budget, large enough
#: that the per-wave overhead (state shipping, pool scheduling) stays
#: negligible against the simulations themselves.
ADAPTIVE_BATCH = 25


@dataclass(frozen=True)
class _BatchSpec:
    """One picklable unit of work: *count* more samples of one cell."""

    workload: str
    component: str
    cardinality: int
    count: int
    config: CampaignConfig
    core_cfg: CoreConfig
    generator_state: tuple | None
    cycle_state: tuple | None
    verify: bool
    prune: bool
    telemetry: bool


def _run_batch(spec: _BatchSpec) -> dict:
    """Run one batch against the ambient telemetry (if any).

    Replicates :func:`~repro.core.campaign.run_cell`'s RNG protocol and
    ``sim.*`` accounting exactly: seeded generator + cycle RNG per cell,
    states restored when the batch continues an earlier wave and shipped
    back for the next one.
    """
    workload = get_workload(spec.workload)
    golden = golden_run(workload, spec.core_cfg)
    cell_seed = (
        f"{spec.config.seed}:{spec.workload}:{spec.component}:"
        f"{spec.cardinality}"
    )
    generator = MultiBitFaultGenerator(
        cluster=spec.config.cluster, mode=spec.config.placement,
        seed=cell_seed,
    )
    cycle_rng = random.Random(f"repro-cycles:{cell_seed}")
    if spec.generator_state is not None:
        generator.set_rng_state(spec.generator_state)
    if spec.cycle_state is not None:
        cycle_rng.setstate(spec.cycle_state)
    checkpoints = _checkpoints_for(workload, spec.core_cfg)
    liveness = None
    if spec.prune:
        from repro.core.liveness import liveness_for

        liveness = liveness_for(workload, spec.core_cfg)
    tel = obs.active()
    counts = ClassCounts()
    for _ in range(spec.count):
        inject_cycle = cycle_rng.randrange(golden.cycles)
        fault_class, _, _ = run_one_injection(
            workload, spec.component, generator, spec.cardinality,
            inject_cycle, spec.core_cfg, checkpoints=checkpoints,
            verify=spec.verify, liveness=liveness,
        )
        counts.add(fault_class)
        if tel is not None:
            tel.metrics.counter("sim.class." + fault_class.value).inc()
            tel.metrics.counter("sim.samples").inc()
    return {
        "counts": counts.as_dict(),
        "generator_state": generator.rng_state(),
        "cycle_state": cycle_rng.getstate(),
        "golden_cycles": golden.cycles,
    }


def _run_batch_worker(spec: _BatchSpec) -> dict:
    """Process-pool entry point: fresh telemetry, delta shipped back.

    Whatever telemetry the worker inherited over ``fork`` belongs to the
    parent's registry copy and must not double-count, so it is dropped
    and (when the parent has telemetry) replaced by a fresh instance
    whose full snapshot *is* the batch's delta.
    """
    obs.disable()
    tel = obs.enable() if spec.telemetry else None
    try:
        out = _run_batch(spec)
        if tel is not None:
            out["metrics"] = tel.metrics.as_dict()
        return out
    finally:
        obs.disable()


@dataclass
class _CellState:
    workload: str
    component: str
    cardinality: int
    counts: ClassCounts = field(default_factory=ClassCounts)
    samples_done: int = 0
    golden_cycles: int = 0
    generator_state: tuple | None = None
    cycle_state: tuple | None = None
    early_stopped: bool = False
    extra_granted: int = 0

    def label(self) -> str:
        return f"{self.workload}/{self.component}/{self.cardinality}-bit"

    def half_width(self, confidence: float) -> float:
        # Successes = non-masked outcomes, so the interval brackets the
        # AVF itself (1 − masked fraction) — the paper's reported number.
        return wilson_half_width(
            self.counts.total - self.counts.masked, self.counts.total,
            confidence,
        )

    def result(self) -> CellResult:
        return CellResult(
            workload=self.workload,
            component=self.component,
            cardinality=self.cardinality,
            counts=self.counts,
            golden_cycles=self.golden_cycles,
        )


@dataclass
class AdaptiveCellReport:
    """Per-cell accounting of one adaptive campaign."""

    workload: str
    component: str
    cardinality: int
    samples: int
    half_width: float
    early_stopped: bool
    extra_granted: int

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "component": self.component,
            "cardinality": self.cardinality,
            "samples": self.samples,
            "half_width": self.half_width,
            "early_stopped": self.early_stopped,
            "extra_granted": self.extra_granted,
        }


@dataclass
class AdaptiveReport:
    """An adaptive campaign's result plus its budget ledger."""

    result: CampaignResult
    cells: list[AdaptiveCellReport]
    baseline_samples: int
    spent_samples: int

    @property
    def saved_fraction(self) -> float:
        if self.baseline_samples == 0:
            return 0.0
        return 1.0 - self.spent_samples / self.baseline_samples


def run_campaign_adaptive(
    config: CampaignConfig,
    ci_target: float,
    confidence: float = 0.99,
    *,
    jobs: int = 1,
    progress: ProgressFn | None = None,
    events=None,
    core_cfg: CoreConfig = DEFAULT_CONFIG,
    verify: bool = False,
    prune: bool = False,
) -> AdaptiveReport:
    """Run a campaign with CI-driven early stopping and reallocation.

    *ci_target* is the AVF confidence-interval half-width at which a cell
    may stop (0 disables both early stopping and reallocation, making the
    run byte-identical to :func:`~repro.core.campaign.run_campaign`).
    *events*, when given, receives human-readable one-liners about
    early stops and budget grants.  *jobs* > 1 fans waves out over a
    process pool; allocation depends only on merged counts, so the result
    is identical for every job count.
    """
    if ci_target < 0:
        raise ConfigError(f"ci_target must be >= 0: {ci_target}")
    if config.cores != 1:
        # Waves run through this module's own batch runner, which carries
        # no core count; run SMP campaigns with exact replay.
        raise ConfigError(
            "adaptive sampling supports single-core campaigns only "
            f"(cores={config.cores})"
        )
    tel = obs.active()
    cells = [
        _CellState(workload=w, component=c, cardinality=k)
        for (w, c, k) in config.cells()
    ]
    total = len(cells)
    pool_budget = 0
    done = 0
    executor = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None

    def execute_wave(grants: list[tuple[_CellState, int]]) -> None:
        specs = [
            _BatchSpec(
                workload=cell.workload, component=cell.component,
                cardinality=cell.cardinality, count=count, config=config,
                core_cfg=core_cfg,
                generator_state=cell.generator_state,
                cycle_state=cell.cycle_state,
                verify=verify, prune=prune,
                telemetry=tel is not None,
            )
            for cell, count in grants
        ]
        if executor is None:
            outs = [_run_batch(spec) for spec in specs]
        else:
            outs = list(executor.map(_run_batch_worker, specs))
        # Merge in grant order — grants are built in canonical cell order,
        # so the merged registry is independent of worker scheduling.
        for (cell, count), out in zip(grants, outs):
            cell.counts = cell.counts.merged(
                ClassCounts.from_dict(out["counts"])
            )
            cell.samples_done += count
            cell.golden_cycles = out["golden_cycles"]
            cell.generator_state = out["generator_state"]
            cell.cycle_state = out["cycle_state"]
            if executor is not None and tel is not None:
                tel.metrics.merge_dict(out.get("metrics", {}))

    def close(cell: _CellState) -> None:
        nonlocal done
        done += 1
        if tel is not None:
            tel.metrics.counter("sim.cells").inc()
        if progress is not None:
            progress(done, total, cell.result())

    try:
        # -- Phase A: run toward the configured budget, stop early at the
        # target, free the unspent remainder into the pool.
        while True:
            grants = [
                (cell, min(ADAPTIVE_BATCH, config.samples - cell.samples_done))
                for cell in cells
                if not cell.early_stopped
                and cell.samples_done < config.samples
            ]
            if not grants:
                break
            execute_wave(grants)
            for cell, _ in grants:
                if (
                    ci_target > 0
                    and cell.samples_done < config.samples
                    and cell.half_width(confidence) <= ci_target
                ):
                    freed = config.samples - cell.samples_done
                    pool_budget += freed
                    cell.early_stopped = True
                    if events is not None:
                        events(
                            f"[adaptive] {cell.label()} reached "
                            f"±{ci_target:g} after {cell.samples_done}/"
                            f"{config.samples} samples; {freed} freed"
                        )
                    close(cell)

        # -- Phase B: grant the freed pool to the widest intervals.
        while ci_target > 0 and pool_budget > 0:
            unmet = [
                cell for cell in cells
                if not cell.early_stopped
                and cell.half_width(confidence) > ci_target
            ]
            if not unmet:
                break
            # Widest interval first; ties resolve by canonical cell order
            # (Python's sort is stable), keeping allocation deterministic.
            unmet.sort(key=lambda cell: -cell.half_width(confidence))
            grants = []
            for cell in unmet:
                if pool_budget <= 0:
                    break
                need = required_additional_samples(
                    cell.counts.total - cell.counts.masked,
                    cell.counts.total, ci_target, confidence,
                )
                grant = min(need, ADAPTIVE_BATCH, pool_budget)
                if grant > 0:
                    grants.append((cell, grant))
                    pool_budget -= grant
                    cell.extra_granted += grant
            if not grants:
                break
            if events is not None:
                granted = ", ".join(
                    f"{cell.label()}+{count}" for cell, count in grants
                )
                events(f"[adaptive] reallocating: {granted}")
            execute_wave(grants)
    finally:
        if executor is not None:
            executor.shutdown()

    for cell in cells:
        if not cell.early_stopped:
            close(cell)
    reports = []
    for cell in cells:
        half = cell.half_width(confidence)
        reports.append(AdaptiveCellReport(
            workload=cell.workload, component=cell.component,
            cardinality=cell.cardinality, samples=cell.samples_done,
            half_width=half, early_stopped=cell.early_stopped,
            extra_granted=cell.extra_granted,
        ))
        if tel is not None:
            tel.metrics.gauge("adaptive.ci." + cell.label()).set(half)
            tel.metrics.gauge(
                "adaptive.samples." + cell.label()
            ).set(cell.samples_done)
    result = CampaignResult(cell.result() for cell in cells)
    spent = sum(cell.samples_done for cell in cells)
    return AdaptiveReport(
        result=result,
        cells=reports,
        baseline_samples=total * config.samples,
        spent_samples=spent,
    )
