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

A wave is a list of :class:`~repro.core.campaign.CellTask` objects, each
advancing one cell from its previous end state to a new sample count, and
it runs exactly like a campaign's cells do: through
:func:`~repro.core.campaign.run_tasks`, in-process at ``jobs=1`` and on
the resilient scheduler of :mod:`repro.core.parallel` otherwise, over
either executor backend and at any core count.  A cell's end state
carries its counts and both RNG states into its next wave, so the first
*n* samples of a cell are identical to the first *n* samples of an
exact-replay campaign no matter how the waves were scheduled.  Allocation decisions
depend only on merged per-cell counts, never on timing or worker count,
so ``--jobs N`` results equal serial results byte-for-byte.  With
``ci_target=0`` the half-width (strictly positive for any finite sample)
never reaches the target: no cell stops early, no budget moves, and the
result is byte-identical to the exact-replay campaign — the degeneracy
the tests pin.  Waves are supervised like any campaign: contained
incidents are journalled and counted in the result, and every wave runs
under the one supervisor, so the incident budget spans the campaign.

Adaptive cells intentionally have *no* fixed sample count, so they do not
fit the exact-parameter cache key of :class:`~repro.core.campaign.
CampaignStore`, whose keys include the sample count; the driver therefore
runs storeless (the CLI rejects ``--store`` with ``--adaptive``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.avf import ClassCounts
from repro.core.campaign import (
    CampaignConfig,
    CampaignResult,
    CellCheckpoint,
    CellResult,
    CellTask,
    ProgressFn,
    run_tasks,
)
from repro.core.sampling import required_additional_samples, wilson_half_width
from repro.errors import ConfigError
from repro import obs
from repro.cpu.config import DEFAULT_CONFIG, CoreConfig

#: Samples per cell per wave.  Small enough that early stopping reacts
#: within a few percent of the paper's 2,000-sample budget, large enough
#: that the per-wave overhead (task shipping, pool scheduling) stays
#: negligible against the simulations themselves.
ADAPTIVE_BATCH = 25


@dataclass
class _CellState:
    task: CellTask  # the cell's identity, canonical index and key
    #: End state of the cell's last wave (nothing drawn yet at first).
    state: CellCheckpoint = field(default_factory=lambda: CellCheckpoint(
        samples_done=0, counts=ClassCounts(), cycle_rng_state=None,
        generator_rng_state=None, golden_cycles=0,
    ))
    early_stopped: bool = False
    #: A wave came back short (its cell was quarantined): never regrant.
    quarantined: bool = False
    extra_granted: int = 0

    @property
    def samples_done(self) -> int:
        return self.state.samples_done

    @property
    def counts(self) -> ClassCounts:
        return self.state.counts

    def label(self) -> str:
        task = self.task
        return f"{task.workload}/{task.component}/{task.cardinality}-bit"

    def half_width(self, confidence: float) -> float:
        if self.counts.total == 0:
            # Every sample lost to incidents: nothing narrows [0, 1].
            return 0.5
        # Successes = non-masked outcomes, so the interval brackets the
        # AVF itself (1 − masked fraction) — the paper's reported number.
        return wilson_half_width(
            self.counts.total - self.counts.masked, self.counts.total,
            confidence,
        )

    def result(self) -> CellResult:
        return self.task.result(self.state)


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
    supervisor=None,
    verify: bool = False,
    prune: bool = False,
    backend: str = "multiprocessing",
    backend_options: dict | None = None,
    policy=None,
) -> AdaptiveReport:
    """Run a campaign with CI-driven early stopping and reallocation.

    *ci_target* is the AVF confidence-interval half-width at which a cell
    may stop (0 disables both early stopping and reallocation, making the
    run byte-identical to :func:`~repro.core.campaign.run_campaign`).
    *events*, when given, receives human-readable one-liners about
    early stops and budget grants.  *jobs* > 1 runs each wave on the
    scheduler over *backend* (with *backend_options* and *policy*, as in
    :func:`~repro.core.campaign.run_campaign`); allocation depends only on
    merged counts, so the result is identical for every job count and
    backend.  *supervisor* contains infra failures as incidents, exactly
    as in a fixed-budget campaign; its budget spans every wave.
    """
    if ci_target < 0:
        raise ConfigError(f"ci_target must be >= 0: {ci_target}")
    # The stopping rule's normal quantile needs SciPy: compute it before
    # the first wave, so a missing SciPy costs no simulation.
    try:
        wilson_half_width(0, 1, confidence)
    except ImportError as exc:
        raise ConfigError(
            f"adaptive sampling needs SciPy for its stopping rule ({exc})"
        ) from None
    tel = obs.active()
    cells = [
        _CellState(CellTask(
            index, w, c, k, 0, config.cell_key(w, c, k, core_cfg),
        ))
        for index, (w, c, k) in enumerate(config.cells())
    ]
    total = len(cells)
    pool_budget = 0
    done = 0
    lost = 0

    def wave_done(task: CellTask, state: CellCheckpoint) -> None:
        cell = cells[task.index]
        cell.state = state
        cell.quarantined = state.samples_done < task.samples

    def execute_wave(grants: list[tuple[_CellState, int]]) -> None:
        nonlocal lost
        tasks = [
            dataclasses.replace(
                cell.task, samples=cell.samples_done + count,
                start=cell.state if cell.samples_done else None,
            )
            for cell, count in grants
        ]
        lost += run_tasks(
            tasks, config, core_cfg, jobs=jobs, supervisor=supervisor,
            done=wave_done, checkpoint_every=None, verify=verify,
            prune=prune, backend=backend, backend_options=backend_options,
            policy=policy,
        )

    def close(cell: _CellState) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total, cell.result())

    # -- Phase A: run toward the configured budget, stop early at the
    # target, free the unspent remainder into the pool.
    while True:
        grants = [
            (cell, min(ADAPTIVE_BATCH, config.samples - cell.samples_done))
            for cell in cells
            if not (cell.early_stopped or cell.quarantined)
            and cell.samples_done < config.samples
        ]
        if not grants:
            break
        execute_wave(grants)
        for cell, _ in grants:
            if (
                ci_target > 0
                and not cell.quarantined
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
            if not (cell.early_stopped or cell.quarantined)
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

    for cell in cells:
        if not cell.early_stopped:
            close(cell)
    reports = []
    for cell in cells:
        half = cell.half_width(confidence)
        reports.append(AdaptiveCellReport(
            workload=cell.task.workload, component=cell.task.component,
            cardinality=cell.task.cardinality, samples=cell.samples_done,
            half_width=half, early_stopped=cell.early_stopped,
            extra_granted=cell.extra_granted,
        ))
        if tel is not None:
            tel.metrics.gauge("adaptive.ci." + cell.label()).set(half)
            tel.metrics.gauge(
                "adaptive.samples." + cell.label()
            ).set(cell.samples_done)
    result = CampaignResult(
        (cell.result() for cell in cells), incidents=lost
    )
    spent = sum(cell.samples_done for cell in cells)
    return AdaptiveReport(
        result=result,
        cells=reports,
        baseline_samples=total * config.samples,
        spent_samples=spent,
    )
