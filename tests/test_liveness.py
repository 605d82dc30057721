"""Liveness-based mask pruning: soundness, byte-identity, audit backstop.

The pruner's contract is absolute: a pruned campaign's ClassCounts must be
byte-identical to an unpruned campaign's, because a pruned verdict is only
issued for faults whose flipped bits are provably never consumed.  These
tests pin the timeline encoding, the per-component decidability rules, the
end-to-end equality over both curated and fuzzed programs, and the
``--verify`` audit that re-simulates pruned verdicts.
"""

import random

import pytest

from repro.core import campaign
from repro.core.campaign import (
    CampaignConfig,
    InjectionPlan,
    golden_run,
    run_cell,
    run_one_injection,
)
from repro.core.classify import FaultClass
from repro.core.generator import CLUSTERED, ClusterShape, MultiBitFaultGenerator
from repro.core.liveness import (
    KILL,
    READ,
    _Timeline,
    build_liveness_trace,
    liveness_for,
)
from repro.errors import VerificationError
from repro.cpu.config import DEFAULT_CONFIG
from repro.cpu.system import System
from repro.verify.fuzz import ProgramFuzzer
from repro.workloads import get_workload
from repro.workloads.base import Workload


# -- timeline encoding --------------------------------------------------------


def test_timeline_verdict_brackets_events():
    timeline = _Timeline()
    timeline.record("k", 10, READ)
    timeline.record("k", 20, KILL)
    # The verdict at cycle C is the first event at or after C.
    assert timeline.verdict("k", 5) == READ
    assert timeline.verdict("k", 10) == READ
    assert timeline.verdict("k", 15) == KILL
    assert timeline.verdict("k", 20) == KILL
    # Past the last event nothing ever consumes the bit again.
    assert timeline.verdict("k", 21) is None
    assert timeline.verdict("missing", 0) is None


def test_timeline_run_compression_preserves_verdicts():
    timeline = _Timeline()
    for cycle in (10, 12, 14):
        timeline.record("k", cycle, READ)
    timeline.record("k", 20, KILL)
    # Three same-kind events collapse into one run...
    assert len(timeline.cycles["k"]) == 2
    # ...without changing any verdict inside the compressed span.
    for cycle in (9, 10, 11, 13, 14):
        assert timeline.verdict("k", cycle) == READ
    assert timeline.verdict("k", 15) == KILL


def test_timeline_first_event_survives_compression():
    timeline = _Timeline()
    timeline.record("k", 10, KILL)
    timeline.record("k", 30, KILL)
    # Run compression rewrote cycles[-1], but birth time must not move.
    assert timeline.born_before("k", 11)
    assert not timeline.born_before("k", 10)
    assert not timeline.born_before("other", 100)


# -- trace construction -------------------------------------------------------


def test_trace_geometry_matches_injectable_targets():
    workload = get_workload("crc32")
    trace = build_liveness_trace(workload)
    system = System(DEFAULT_CONFIG)
    system.load(workload.program())
    for name, target in system.injectable_targets().items():
        geometry = trace.target_geometry(name)
        assert geometry.inject_name == target.inject_name
        assert geometry.inject_rows == target.inject_rows
        assert geometry.inject_cols == target.inject_cols
    assert trace.golden_cycles == golden_run(workload).cycles


def test_trace_records_events_for_every_component():
    trace = build_liveness_trace(get_workload("crc32"))
    stats = trace.stats()
    # Every injectable structure is exercised by a real workload: the
    # caches and TLBs via fetch/load/store, the regfile via renaming.
    for component in ("l1d", "l1i", "l2", "itlb", "dtlb", "regfile"):
        assert stats[component] > 0, f"no liveness events for {component}"


def test_liveness_cache_hits():
    from repro import obs

    telemetry = obs.enable()
    try:
        workload = get_workload("crc32")
        liveness_for(workload)
        first = liveness_for(workload)
        second = liveness_for(workload)
        assert first is second
        counters = telemetry.metrics.counters
        assert counters["exec.lru.liveness.hits"].value >= 2
    finally:
        obs.disable()


# -- pruned == full, curated workloads ----------------------------------------


@pytest.mark.parametrize("component", ["l1d", "l2", "regfile", "dtlb"])
def test_pruned_cell_equals_unpruned(component):
    config = CampaignConfig(
        workloads=("crc32",), components=(component,), cardinalities=(2,),
        samples=8, seed=11,
    )
    plain = run_cell("crc32", component, 2, config)
    pruned = run_cell("crc32", component, 2, config, prune=True)
    assert pruned.counts == plain.counts
    assert pruned.golden_cycles == plain.golden_cycles


# -- pruned == full, fuzzed programs ------------------------------------------


class _FuzzWorkload(Workload):
    """A fuzzer-generated program wrapped as an injectable workload."""

    def __init__(self, seed: str) -> None:
        program = ProgramFuzzer(seed, length=30).program()
        system = System(DEFAULT_CONFIG)
        system.load(program)
        result = system.run(max_cycles=1_000_000)
        super().__init__(
            name=f"fuzz:{seed}", paper_name="fuzz", paper_cycles=0,
            description="fuzzed", source="", expected_output=result.output,
        )
        self._fuzz_program = program

    def program(self):
        return self._fuzz_program


def _verdict_stream(workload, component, samples, liveness):
    golden = golden_run(workload)
    generator = MultiBitFaultGenerator(
        cluster=ClusterShape(), mode=CLUSTERED, seed="fuzz-diff"
    )
    cycle_rng = random.Random("fuzz-diff-cycles")
    plan = InjectionPlan(golden, liveness=liveness)
    stream = []
    for _ in range(samples):
        inject_cycle = cycle_rng.randrange(golden.cycles)
        fault_class, _, mask = run_one_injection(
            workload, component, generator, 2, inject_cycle, plan,
        )
        stream.append((fault_class, mask.bits, inject_cycle))
    return stream


@pytest.mark.parametrize("fuzz_seed", ["live0", "live1"])
def test_pruned_equals_full_on_fuzzed_programs(fuzz_seed):
    workload = _FuzzWorkload(fuzz_seed)
    liveness = build_liveness_trace(workload)
    for component in ("regfile", "l1d", "dtlb"):
        plain = _verdict_stream(workload, component, 6, None)
        pruned = _verdict_stream(workload, component, 6, liveness)
        assert pruned == plain, f"{component} diverged on fuzz:{fuzz_seed}"


# -- the --verify audit backstop ----------------------------------------------


def test_audit_selection_is_deterministic():
    workload = get_workload("crc32")
    golden = golden_run(workload)
    generator = MultiBitFaultGenerator(
        cluster=ClusterShape(), mode=CLUSTERED, seed="audit-select"
    )
    system = System(DEFAULT_CONFIG)
    system.load(workload.program())
    target = system.injectable_targets()["l1d"]
    picks = []
    for index in range(64):
        mask = generator.generate(target, 2)
        picks.append(
            campaign._prune_audit_selected(workload.name, mask, index)
        )
    # Deterministic (hash-based, no RNG) and neither empty nor total.
    assert any(picks) and not all(picks)
    repeat = [
        campaign._prune_audit_selected(workload.name, mask, 63)
    ]
    assert repeat == [picks[-1]]
    del golden


def test_audited_pruned_cell_equals_unpruned(monkeypatch):
    # Audit EVERY pruned verdict: each one is re-simulated end-to-end and
    # must come back Masked, or the cell raises.
    monkeypatch.setattr(campaign, "PRUNE_AUDIT_ONE_IN", 1)
    config = CampaignConfig(
        workloads=("crc32",), components=("regfile",), cardinalities=(1,),
        samples=6, seed=5,
    )
    plain = run_cell("crc32", "regfile", 1, config)
    audited = run_cell("crc32", "regfile", 1, config, prune=True, verify=True)
    assert audited.counts == plain.counts


def test_audit_rejects_unsound_prune_verdict():
    # Draw a fault that full simulation classifies as NOT masked, then
    # hand it to the audit as if the pruner had called it Masked: the
    # audit must raise.  (The probe stream's first l1i sample is a crash.)
    workload = get_workload("crc32")
    golden = golden_run(workload)
    generator = MultiBitFaultGenerator(
        cluster=ClusterShape(), mode=CLUSTERED, seed="audit-probe"
    )
    cycle_rng = random.Random("audit-probe-cycles")
    inject_cycle = cycle_rng.randrange(golden.cycles)
    fault_class, _, mask = run_one_injection(
        workload, "l1i", generator, 3, inject_cycle
    )
    assert fault_class is not FaultClass.MASKED
    with pytest.raises(VerificationError):
        campaign._audit_pruned_sample(
            workload, "l1i", mask, inject_cycle, InjectionPlan(golden),
        )


def test_audit_accepts_sound_prune_verdict():
    # A verdict the pruner issued for real IS masked; the audit passes.
    workload = get_workload("crc32")
    golden = golden_run(workload)
    liveness = build_liveness_trace(workload)
    generator = MultiBitFaultGenerator(
        cluster=ClusterShape(), mode=CLUSTERED, seed="audit-sound"
    )
    cycle_rng = random.Random("audit-sound-cycles")
    for _ in range(24):
        inject_cycle = cycle_rng.randrange(golden.cycles)
        mask = generator.generate(liveness.target_geometry("l2"), 1)
        if liveness.classify(mask, inject_cycle):
            campaign._audit_pruned_sample(
                workload, "l2", mask, inject_cycle, InjectionPlan(golden),
            )
            return
    pytest.fail("no prunable l2 fault in 24 draws")
