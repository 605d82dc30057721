"""Liveness-based mask pruning: soundness, byte-identity, audit backstop.

The pruner's contract is absolute: a pruned campaign's ClassCounts must be
byte-identical to an unpruned campaign's, because a pruned verdict is only
issued for faults whose flipped bits are provably never consumed.  These
tests pin the timeline encoding, the per-component decidability rules, the
end-to-end equality over both curated and fuzzed programs, and the
``--verify`` audit that re-simulates pruned verdicts.
"""

import dataclasses
import random

import pytest

from repro.core import campaign
from repro.core import liveness as liveness_module
from repro.core.adaptive import ADAPTIVE_BATCH, run_campaign_adaptive
from repro.core.campaign import (
    CampaignConfig,
    InjectionPlan,
    golden_run,
    run_cell,
    run_one_injection,
)
from repro.core.classify import FaultClass, classify
from repro.core.faults import FaultMask
from repro.core.injector import inject
from repro.core.generator import CLUSTERED, ClusterShape, MultiBitFaultGenerator
from repro.core.liveness import (
    KILL,
    READ,
    _Timeline,
    build_liveness_trace,
    liveness_for,
)
from repro.errors import ConfigError, VerificationError
from repro.cpu.config import DEFAULT_CONFIG
from repro.cpu.system import System
from repro.cpu.uop import WAITING
from repro.isa.assembler import assemble
from repro.mem.paging import PAGE_SHIFT, PAGE_SIZE
from repro.verify.fuzz import ProgramFuzzer
from repro.workloads import get_workload, workload_names
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


# -- the traced pass as the golden run ----------------------------------------


@pytest.fixture
def cold_caches(monkeypatch):
    """Empty golden, checkpoint and liveness caches, each of its module's
    bound, for one test (the session's warm ones come back afterwards)."""
    for module, name in (
        (campaign, "_GOLDEN_CACHE"), (campaign, "_CHECKPOINT_CACHE"),
        (liveness_module, "_LIVENESS_CACHE"),
    ):
        bound = getattr(module, name).maxsize
        monkeypatch.setattr(module, name, campaign._BoundedCache(bound))


@pytest.mark.parametrize("name", workload_names())
def test_traced_pass_equals_plain_golden_run(name, cold_caches, monkeypatch):
    # On a cold golden cache the instrumented pass becomes the golden run,
    # so the hooks must not change a single observable of the run.
    workload = get_workload(name)
    build_liveness_trace(workload)
    traced = campaign._GOLDEN_CACHE.get((name, DEFAULT_CONFIG))
    assert traced is not None
    monkeypatch.setattr(campaign, "_GOLDEN_CACHE", campaign._BoundedCache(1))
    plain = golden_run(workload)
    assert plain is not traced
    # Every field: status, cycles, instructions, output, exit code, stats.
    assert traced == plain


def _count_simulations(monkeypatch, programs) -> list[str]:
    """Record which of *programs* every ``System.run``/``run_until`` call
    simulates."""
    names = {get_workload(name).program().text: name for name in programs}
    loaded = {}
    real_load = System.load

    def load(system, program):
        loaded[id(system)] = names.get(program.text, "?")
        return real_load(system, program)

    monkeypatch.setattr(System, "load", load)
    calls = []
    for method in ("run", "run_until"):
        real = getattr(System, method)

        def counted(system, *args, _real=real, **kwargs):
            calls.append(loaded.get(id(system), "?"))
            return _real(system, *args, **kwargs)

        monkeypatch.setattr(System, method, counted)
    return calls


def test_cold_pruned_setup_simulates_each_program_once(
    cold_caches, monkeypatch
):
    from repro import obs

    programs = ("stringsearch", "susan_c")
    config = CampaignConfig(
        workloads=programs, components=("l2",), cardinalities=(1,),
        samples=0,
    )
    calls = _count_simulations(monkeypatch, programs)
    telemetry = obs.enable()
    try:
        for program in programs:
            run_cell(program, "l2", 1, config, prune=True)
        assert sorted(calls) == sorted(programs)
        counters = telemetry.metrics.counters
        assert counters["exec.lru.golden.misses"].value == len(programs)
        # An unpruned cell of the same program reuses the traced pass.
        hits = counters["exec.lru.golden.hits"].value
        run_cell(programs[0], "regfile", 1, config)
        assert counters["exec.lru.golden.hits"].value == hits + 1
        assert counters["exec.lru.golden.misses"].value == len(programs)
        assert len(calls) == len(programs)
    finally:
        obs.disable()


def _perturb_l1d_latency(monkeypatch):
    """Make the trace builder's cache hook slow every l1d hit by a cycle."""
    real = liveness_module._hook_cache

    def perturbing(cache, level, tracer):
        real(cache, level, tracer)
        if cache.name == "l1d":
            cache.hit_latency += 1

    monkeypatch.setattr(liveness_module, "_hook_cache", perturbing)


def test_perturbing_hook_is_rejected_against_a_cached_golden_run(
    cold_caches, monkeypatch
):
    workload = get_workload("stringsearch")
    golden_run(workload)
    _perturb_l1d_latency(monkeypatch)
    with pytest.raises(ConfigError, match="perturbed the golden run"):
        build_liveness_trace(workload)


def test_perturbing_hook_is_rejected_on_the_verify_platform(
    cold_caches, monkeypatch
):
    # --verify runs on a check_invariants platform with its own golden
    # key: its golden run is simulated separately and checked against.
    verify_cfg = dataclasses.replace(DEFAULT_CONFIG, check_invariants=True)
    _perturb_l1d_latency(monkeypatch)
    with pytest.raises(ConfigError, match="perturbed the golden run"):
        build_liveness_trace(get_workload("stringsearch"), verify_cfg)
    # The rejected pass was never cached as the plain platform's golden.
    assert campaign._GOLDEN_CACHE.get(("stringsearch", DEFAULT_CONFIG)) \
        is None


def test_adaptive_waves_build_each_trace_once(cold_caches, monkeypatch):
    programs = ("stringsearch", "susan_c", "crc32")
    built = []
    real = liveness_module.build_liveness_trace

    def counted(workload, core_cfg=DEFAULT_CONFIG):
        built.append(workload.name)
        return real(workload, core_cfg)

    monkeypatch.setattr(liveness_module, "build_liveness_trace", counted)
    config = CampaignConfig(
        workloads=programs, components=("regfile",), cardinalities=(1,),
        samples=2 * ADAPTIVE_BATCH, seed=3,
    )
    report = run_campaign_adaptive(config, ci_target=0.0, prune=True)
    assert len(report.cells) == len(programs)
    assert sorted(built) == sorted(programs)


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


class _ProgramWorkload(Workload):
    """A ready-made program wrapped as an injectable workload."""

    def __init__(self, name: str, program) -> None:
        system = System(DEFAULT_CONFIG)
        system.load(program)
        result = system.run(max_cycles=1_000_000)
        super().__init__(
            name=name, paper_name=name, paper_cycles=0,
            description=name, source="", expected_output=result.output,
            _program=program,
        )


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


#: Words the evicting sweeps walk: 3 KiB, half again the 2 KiB L2, so a
#: pass replaces every line of both cache levels.
_SWEEP_WORDS = 768


def _sweep_words(label: str) -> list[str]:
    """Load every word of ``far``, add it into r11 and store r11 back."""
    return [
        "        la r9, far",
        f"        movi r2, #{_SWEEP_WORDS}",
        f"{label}:",
        "        ldr r10, [r9]",
        "        add r11, r11, r10",
        "        str r11, [r9]",
        "        addi r9, r9, #4",
        "        addi r2, r2, #-1",
        f"        bnez r2, {label}",
    ]


def _evicting_fuzz_program(fuzz_seed):
    """A fuzzed program between two load/store sweeps over 3 KiB.

    The first sweep dirties every line of ``far``; the fuzzed body and the
    second sweep push them out of the L1D and the L2 (dirty writebacks all
    the way to DRAM), and the second sweep refills and reads each word into
    r11, which the epilogue prints.  A flip in a swept line thus reaches
    the output only through line copies.
    """
    lines = ProgramFuzzer(fuzz_seed, length=30).source().splitlines()
    epilogue = len(lines) - 1 - lines[::-1].index("        mov r0, r3")
    lines[epilogue:epilogue] = _sweep_words("sweep2")
    body = lines.index("        la r1, buf") + 1
    lines[body:body] = _sweep_words("sweep1")
    lines.append(f"far:    .space {4 * _SWEEP_WORDS}")
    return assemble("\n".join(lines) + "\n")


@pytest.mark.parametrize("fuzz_seed", ["live0", "live1"])
def test_pruned_equals_full_on_fuzzed_programs(fuzz_seed, monkeypatch):
    workload = _ProgramWorkload(
        f"fuzz:{fuzz_seed}", _evicting_fuzz_program(fuzz_seed)
    )
    liveness = build_liveness_trace(workload)
    for component in ("regfile", "l1d", "l1i", "l2", "dtlb"):
        plain = _verdict_stream(workload, component, 6, None)
        pruned = _verdict_stream(workload, component, 6, liveness)
        assert pruned == plain, f"{component} diverged on fuzz:{fuzz_seed}"
    # A register flip that only a SYS argument read consumes lives for a
    # few hundred cycles of the run, where random draws seldom land.  Every
    # such window ends at a READ that a trace counting all three SYS
    # operands records and this trace does not: simulate a flip there.
    with monkeypatch.context() as patch:
        patch.setattr(liveness_module, "syscall_arg_count", lambda _: 3)
        counted = build_liveness_trace(workload).timelines["regfile"]
    timeline = liveness.timelines["regfile"]
    flips = [
        (row, cycle)
        for row, cycles in counted.cycles.items()
        for cycle in cycles
        if counted.verdict(row, cycle) == READ
        and timeline.verdict(row, cycle) != READ
    ]
    assert flips, f"no SYS leaves an argument unread on fuzz:{fuzz_seed}"
    for row, cycle in flips:
        mask = FaultMask("regfile", ((row, 0),), (row, 0), (1, 1))
        assert liveness.classify(mask, cycle)
        assert _simulate(workload, mask, cycle) is FaultClass.MASKED, (
            f"unread-argument prune of p{row}@{cycle} on fuzz:{fuzz_seed}"
        )


# -- copies through the hierarchy ---------------------------------------------
#
# Directed programs around one data word, ``slot``.  A sweep loads one word
# of every line of a region: 512 bytes evict everything from the 256-byte
# L1D, 4 KiB everything from the 2 KiB L2.  The NOP sleds keep the
# out-of-order core from reaching past a sweep before it retires.

_SLED = "\n".join(["    NOP"] * 40)


def _sweep(label: str, nbytes: int) -> str:
    return f"""
    LA   r3, sweep
    MOVI r5, #0
    MOVI r6, #{nbytes // 32}
{label}:
    LDR  r4, [r3]
    ADDI r3, r3, #32
    ADDI r5, r5, #1
    BLT  r5, r6, {label}
{_SLED}
"""


_DATA = """
.data
slot:  .word 100
       .space 28
sweep: .space 4096
"""

#: Store to slot, then push its dirty line out of the L1D; print 7.
WRITTEN_BACK_UNREAD = f"""
_start:
    LA   r1, slot
    MOVI r2, #5
    STR  r2, [r1]
{_SLED}
{_sweep("s1", 512)}
    MOVI r0, #7
    SYS  #3
    SYS  #0
{_DATA}"""

#: Load slot, evict it (clean) from the L1D, then load and print it again.
REFILLED_FROM_L2 = f"""
_start:
    LA   r1, slot
    LDR  r2, [r1]
{_SLED}
{_sweep("s1", 512)}
    LDR  r4, [r1]
    MOV  r0, r4
    SYS  #3
    SYS  #0
{_DATA}"""

#: Store to slot, write its line back to the L2, then evict that dirty L2
#: line to DRAM before loading and printing slot.
REFILLED_FROM_DRAM = f"""
_start:
    LA   r1, slot
    MOVI r2, #5
    STR  r2, [r1]
{_SLED}
{_sweep("s1", 512)}
{_sweep("s2", 4096)}
    LDR  r4, [r1]
    MOV  r0, r4
    SYS  #3
    SYS  #0
{_DATA}"""


def _slot_paddr(system) -> int:
    vaddr = system.cfg.layout.data_base
    ppn = system.page_table.lookup(vaddr >> PAGE_SHIFT)[0]
    return ppn << PAGE_SHIFT | (vaddr & (PAGE_SIZE - 1))


def _slot_flip(workload, component, holds):
    """The first cycle at which *holds(system, paddr)* and a one-bit mask
    on slot's byte 0 in *component*, plus the machine at that cycle."""
    system = System(DEFAULT_CONFIG)
    system.load(workload.program())
    paddr = _slot_paddr(system)
    while not holds(system, paddr):
        assert not system.finished, "the scenario never arose"
        system.step()
    cache = system.injectable_targets()[component]
    idx, offset = cache.probe(paddr)
    bit = (idx, offset * 8 + 3)
    return system.cycle, FaultMask(component, (bit,), bit, (1, 1)), system


def _simulate(workload, mask, cycle) -> FaultClass:
    golden = golden_run(workload)
    system = System(DEFAULT_CONFIG)
    system.load(workload.program())
    system.run_until(cycle, 4 * golden.cycles)
    inject(system, mask)
    return classify(system.run(4 * golden.cycles), golden)


def _dirty(cache, paddr) -> bool:
    line = paddr - paddr % cache.line_size
    return any(
        addr == line and dirty for _, addr, dirty in cache.audit_lines()
    )


def test_dirty_l1d_line_written_back_and_never_reread_is_pruned():
    workload = _ProgramWorkload(
        "copy:written-back", assemble(WRITTEN_BACK_UNREAD)
    )
    cycle, mask, system = _slot_flip(
        workload, "l1d", lambda system, paddr: _dirty(system.l1d, paddr)
    )
    paddr = _slot_paddr(system)
    system.run(1_000_000)
    # The flipped line left the L1D as a dirty writeback into the L2.
    assert system.l1d.probe(paddr) is None
    assert _dirty(system.l2, paddr)
    assert build_liveness_trace(workload).classify(mask, cycle)
    assert _simulate(workload, mask, cycle) is FaultClass.MASKED


def test_l2_flip_filled_into_l1d_and_loaded_is_undecided():
    workload = _ProgramWorkload("copy:l2-refill", assemble(REFILLED_FROM_L2))
    cycle, mask, _ = _slot_flip(
        workload, "l2",
        lambda system, paddr: system.l1d.probe(paddr) is None
        and system.l2.probe(paddr) is not None
        and system.core.stats.loads > 1,
    )
    assert not build_liveness_trace(workload).classify(mask, cycle)
    assert _simulate(workload, mask, cycle) is FaultClass.SDC


def test_l2_flip_refilled_from_dram_and_read_is_undecided():
    workload = _ProgramWorkload(
        "copy:dram-refill", assemble(REFILLED_FROM_DRAM)
    )
    cycle, mask, system = _slot_flip(
        workload, "l2",
        lambda system, paddr: system.l1d.probe(paddr) is None
        and _dirty(system.l2, paddr),
    )
    paddr = _slot_paddr(system)
    while system.l2.probe(paddr) is not None:
        system.step()
    # The flipped line left the L2 for DRAM before slot is loaded again.
    assert system.l1d.probe(paddr) is None
    assert not build_liveness_trace(workload).classify(mask, cycle)
    assert _simulate(workload, mask, cycle) is FaultClass.SDC


# -- syscall arguments --------------------------------------------------------
#
# Every SYS reads r0-r2, but PUTW (SYS #1) prints r0 alone: a value that
# only rides along in r1 or r2 is not consumed by it.  A dependent ADDI
# chain on another argument register keeps the SYS waiting to issue well
# after the register under test is written.


def _syscall_program(reg: int, after: str = "", chain: int = 0) -> str:
    """Hold 77 in r<reg> across a PUTW of r0 (delayed by an ADDI chain on
    r<chain>), run *after*, then overwrite r<reg> and print it."""
    lines = "\n".join([f"    ADDI r{chain}, r{chain}, #1"] * 8)
    return f"""
_start:
    MOVI r{reg}, #77
    MOVI r0, #5
{lines}
    SYS  #1
{after}
    MOVI r{reg}, #9
    MOV  r0, r{reg}
    SYS  #3
    SYS  #0
"""


def _register_flip(workload, reg: int):
    """The first cycle at which the first SYS waits to issue with its
    r<reg> operand written, and a one-bit mask on that operand."""
    system = System(DEFAULT_CONFIG)
    system.load(workload.program())
    core = system.core
    while True:
        assert not system.finished, "the SYS never became ready"
        sys_uop = next((uop for uop in core.rob if uop.inst.is_sys), None)
        if sys_uop is not None and core.prf.ready[sys_uop.srcs[reg]]:
            break
        system.step()
    assert sys_uop.state == WAITING
    bit = (sys_uop.srcs[reg], 3)
    return system.cycle, FaultMask("regfile", (bit,), bit, (1, 1))


@pytest.mark.parametrize("reg", [1, 2])
def test_register_only_passed_to_an_unread_syscall_argument_is_pruned(reg):
    workload = _ProgramWorkload(
        f"sys:unread-r{reg}", assemble(_syscall_program(reg))
    )
    cycle, mask = _register_flip(workload, reg)
    assert build_liveness_trace(workload).classify(mask, cycle)
    assert _simulate(workload, mask, cycle) is FaultClass.MASKED


@pytest.mark.parametrize("reg", [1, 2])
def test_register_read_by_an_instruction_after_the_syscall_is_undecided(reg):
    after = f"    ADD  r0, r{reg}, r{reg}\n    SYS  #1"
    workload = _ProgramWorkload(
        f"sys:read-after-r{reg}", assemble(_syscall_program(reg, after))
    )
    cycle, mask = _register_flip(workload, reg)
    assert not build_liveness_trace(workload).classify(mask, cycle)
    assert _simulate(workload, mask, cycle) is FaultClass.SDC


def test_syscall_argument_register_is_undecided():
    workload = _ProgramWorkload(
        "sys:read-r0", assemble(_syscall_program(2, chain=1))
    )
    cycle, mask = _register_flip(workload, 0)
    assert not build_liveness_trace(workload).classify(mask, cycle)
    assert _simulate(workload, mask, cycle) is FaultClass.SDC


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
