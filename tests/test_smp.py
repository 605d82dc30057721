"""N-core SMP simulation: scheduler, thread model, propagation, campaigns.

The contracts under test (DESIGN.md §13):

* the deterministic-interleaving scheduler makes multi-core runs bit-exact
  replayable (equal ``smp_state_fingerprint`` across independent runs);
* the thread model (SPAWN/COREID/NCORES + the greedy-spawn fallback) makes
  parallel workloads produce identical architectural output at every core
  count, including 1;
* a fault injected into the shared L2 propagates to consuming cores — the
  cross-core propagation matrix shows an "observed" verdict on a core that
  never executed the faulting access;
* the campaign layer's ``--cores`` knob keys its own cache cells while
  ``--cores 1`` stays byte-identical to a run predating the flag.
"""

import dataclasses

import pytest

from repro.core.campaign import (
    CampaignConfig,
    CheckpointedWorkload,
    InjectionPlan,
    golden_run,
    run_campaign,
    run_cell,
    run_one_injection,
)
from repro.core.faults import FaultMask
from repro.core.generator import MultiBitFaultGenerator
from repro.core.supervisor import Supervisor
from repro.cpu.config import DEFAULT_CONFIG
from repro.cpu.smp import MAX_CORES, SMPSystem, run_smp_program
from repro.errors import ConfigError
from repro.isa.assembler import assemble
from repro.kernel.status import RunStatus
from repro.mem.paging import PAGE_SHIFT
from repro.verify.differential import run_smp_differential, verify_workload
from repro.verify.invariants import smp_state_fingerprint
from repro.verify.propagation import run_propagation
from repro.workloads import get_workload

#: Core 0 touches ``input`` (caching its line in the shared L2), spawns a
#: worker, and waits; the worker recomputes from ``input`` and publishes
#: through ``result``/``flag``.  On one core the spawn fails and the main
#: thread computes inline — same output either way.
PRODUCER_CONSUMER = """
_start:
    LA   r4, input
    LDR  r10, [r4, #0]
    LA   r0, worker
    MOVI r1, #0
    SYS  #4
    MOVW r5, #0xFFFFFFFF
    BEQ  r0, r5, inline
    LA   r6, flag
join:
    LDR  r7, [r6, #0]
    BEQ  r7, r8, join
    B    done
inline:
    BL   compute
done:
    LA   r6, result
    LDR  r0, [r6, #0]
    SYS  #1
    MOVI r0, #0
    SYS  #0

worker:
    BL   compute
    HALT

compute:
    LA   r3, input
    LDR  r1, [r3, #0]
    LDR  r2, [r3, #4]
    ADD  r1, r1, r2
    LA   r3, result
    STR  r1, [r3, #0]
    LA   r3, flag
    MOVI r2, #1
    AMOADD r9, r3, r2
    RET

.data
input:  .word 17, 25
result: .word 0
flag:   .word 0
"""

EXPECTED = b"0000002a\n"  # 17 + 25


def test_spawn_join_program_runs_on_two_cores():
    result = run_smp_program(assemble(PRODUCER_CONSUMER), ncores=2)
    assert result.status is RunStatus.FINISHED
    assert result.output == EXPECTED
    assert result.exit_code == 0


def test_single_core_spawn_fails_and_falls_back_inline():
    result = run_smp_program(assemble(PRODUCER_CONSUMER), ncores=1)
    assert result.status is RunStatus.FINISHED
    assert result.output == EXPECTED


def test_ncores_bounds_are_enforced():
    with pytest.raises(ConfigError, match="ncores"):
        SMPSystem(ncores=0)
    with pytest.raises(ConfigError, match="ncores"):
        SMPSystem(ncores=MAX_CORES + 1)


def test_injectable_targets_alias_core0_plus_shared_l2():
    smp = SMPSystem(ncores=2)
    targets = smp.injectable_targets()
    # The six standard names mean the same cell at every core count.
    assert targets["l2"] is smp.l2
    assert targets["l1d"] is smp.cores[0].l1d
    assert targets["regfile"] is smp.cores[0].pipe.prf
    # Every core's private structures stay reachable for targeted runs.
    assert targets["c1.l1d"] is smp.cores[1].l1d
    assert targets["c1.regfile"] is smp.cores[1].pipe.prf


def test_scheduler_replays_bit_exactly():
    fingerprints = []
    for _ in range(2):
        smp = SMPSystem(ncores=4)
        smp.load(assemble(PRODUCER_CONSUMER))
        result = smp.run(max_cycles=1_000_000)
        assert result.status is RunStatus.FINISHED
        fingerprints.append(smp_state_fingerprint(smp))
    assert fingerprints[0] == fingerprints[1]
    assert len(fingerprints[0]) == 64


def test_parallel_workload_output_invariant_across_core_counts():
    workload = get_workload("crc32_p")
    cycles = {}
    for cores in (1, 2, 4):
        result = run_smp_program(
            workload.program_for(cores), ncores=cores,
        )
        assert result.status is RunStatus.FINISHED
        assert result.output == workload.expected_output
        cycles[cores] = result.cycles
    # The point of spawning: real work moved off core 0.
    assert cycles[4] < cycles[1]


def test_smp_differential_lockstep_with_audit():
    report = run_smp_differential(
        assemble(PRODUCER_CONSUMER),
        dataclasses.replace(DEFAULT_CONFIG, check_invariants=True),
        cores=2,
        audit=True,
    )
    assert report.result.status is RunStatus.FINISHED
    assert report.result.output == EXPECTED
    assert report.committed > 0


def test_verify_workload_under_smp_oracle():
    verify_workload(get_workload("crc32_p"), cores=2)


def _l2_mask_for_symbol(program, symbol, bit):
    """A callable mask flipping *bit* of *symbol*'s word in the shared L2."""
    vaddr = program.symbols[symbol]

    def factory(smp):
        entry = smp.page_table.lookup(vaddr >> PAGE_SHIFT)
        paddr = (entry[0] << PAGE_SHIFT) | (vaddr & ((1 << PAGE_SHIFT) - 1))
        hit = smp.l2.probe(paddr)
        if hit is None:
            raise ConfigError("line not resident in L2 at inject time")
        row, off = hit
        col = off * 8 + bit
        return FaultMask("l2", ((row, col),), (row, col), (1, 1))

    return factory


def test_cross_core_propagation_through_shared_l2():
    """The acceptance scenario: a core observes a fault it never caused.

    Core 0 is the only core that executed the access which cached
    ``input`` in the shared L2; the injected flip is observed by the
    worker core when its own miss path reads through the corrupt line.
    """
    program = assemble(PRODUCER_CONSUMER)
    mask = _l2_mask_for_symbol(program, "input", 3)  # 17 ^ 8 = 25
    report = None
    for cycle in (100, 120, 150, 80, 60):
        try:
            report = run_propagation(program, mask, cycle, cores=4)
        except ConfigError:
            continue  # line not yet (or no longer) resident; try another
        if 1 in report.observed_cores():
            break
    assert report is not None, "no inject cycle found the line resident"
    worker = report.row(1)
    assert worker.verdict == "observed"
    assert worker.divergence_index is not None
    # Cores 2 and 3 never ran a thread: nothing to observe.
    assert {2, 3} <= set(report.masked_cores())
    # The corruption reached the architectural output end to end.
    assert report.golden.output == EXPECTED
    assert report.faulty.output != report.golden.output


# -- campaign integration -----------------------------------------------------


def test_cell_keys_unchanged_at_one_core_and_distinct_beyond():
    base = CampaignConfig(workloads=("crc32",), samples=2)
    one = dataclasses.replace(base, cores=1)
    two = dataclasses.replace(base, cores=2)
    key = base.cell_key("crc32", "regfile", 1)
    assert one.cell_key("crc32", "regfile", 1) == key
    assert two.cell_key("crc32", "regfile", 1) != key


def test_cores1_campaign_is_byte_identical():
    base = CampaignConfig(
        workloads=("crc32",), components=("regfile",), cardinalities=(1,),
        samples=2,
    )
    explicit = dataclasses.replace(base, cores=1)
    assert run_campaign(base).to_json() == run_campaign(explicit).to_json()


def test_two_core_supervised_verify_campaign_completes():
    config = CampaignConfig(
        workloads=("crc32_p",), components=("l2",), cardinalities=(1,),
        samples=2, cores=2,
    )
    supervisor = Supervisor(strict=True)
    core_cfg = dataclasses.replace(DEFAULT_CONFIG, check_invariants=True)
    result = run_campaign(
        config, core_cfg=core_cfg, supervisor=supervisor, verify=True,
    )
    cell = result.cell("crc32_p", "l2", 1)
    assert cell.counts.total == 2
    assert supervisor.incident_count == 0
    assert cell.golden_cycles == golden_run(
        get_workload("crc32_p"), core_cfg, cores=2
    ).cycles


def test_smp_cells_reject_pruning_but_accept_checkpoints():
    config = CampaignConfig(
        workloads=("crc32_p",), components=("l2",), cardinalities=(1,),
        samples=1, cores=2,
    )
    with pytest.raises(ConfigError, match="prun"):
        run_cell("crc32_p", "l2", 1, config, prune=True)
    workload = get_workload("crc32_p")
    with pytest.raises(ConfigError, match="single-core"):
        InjectionPlan.build(workload, cores=2, prune=True)
    # Golden-prefix checkpoints work at any core count (their exactness
    # is tested in test_checkpointing.py), but only for their own machine.
    checkpoints = CheckpointedWorkload(workload, cores=2)
    cycle = golden_run(workload, cores=2).cycles // 2
    verdict, _, _ = run_one_injection(
        workload, "l2", MultiBitFaultGenerator(seed="smp-test"), 1, cycle,
        InjectionPlan.build(workload, cores=2, checkpoints=checkpoints),
    )
    assert verdict is not None
    assert checkpoints.captured
    with pytest.raises(ConfigError, match="2-core machine"):
        InjectionPlan.build(workload, cores=4, checkpoints=checkpoints)


def test_worker_start_message_carries_the_smp_golden_cycles():
    # The golden cycles travel in the cell's end state.  A cores=2 worker
    # needs the 2-core golden run and nothing else: from cold caches it records exactly
    # one golden-run cache miss, so the single-core run is never
    # simulated.
    import queue
    import threading

    from repro import obs
    from repro.core import campaign as campaign_module
    from repro.core.campaign import CellTask
    from repro.core.executor import WorkerSpec, worker_loop

    config = CampaignConfig(
        workloads=("crc32_p",), components=("l2",), cardinalities=(1,),
        samples=1, cores=2,
    )
    spec = WorkerSpec(
        config=config, core_cfg=DEFAULT_CONFIG, checkpoint_every=None,
        telemetry_enabled=True, verify=False,
    )
    inbox = queue.Queue()
    inbox.put([CellTask(0, "crc32_p", "l2", 1, 1, "key")])
    inbox.put(None)
    sent = []
    campaign_module._GOLDEN_CACHE.clear()
    try:
        worker = threading.Thread(target=worker_loop, args=(
            0, spec, inbox.get, sent.append, lambda: False,
        ))
        worker.start()
        worker.join(timeout=300)
    finally:
        obs.disable()
    assert not worker.is_alive()
    misses = sum(
        message[3]["counters"].get("exec.lru.golden.misses", 0)
        for message in sent if message[0] == "telemetry"
    )
    assert misses == 1
    (state,) = [message[3] for message in sent if message[0] == "cell"]
    workload = get_workload("crc32_p")
    assert state.golden_cycles == golden_run(workload, cores=2).cycles
    assert state.golden_cycles != golden_run(workload).cycles


@pytest.mark.parametrize("backend", ["multiprocessing", "socket"])
def test_two_core_parallel_campaign_matches_serial(backend):
    config = CampaignConfig(
        workloads=("crc32_p",), components=("l2", "regfile"),
        cardinalities=(1,), samples=2, seed=4, cores=2,
    )
    serial = run_campaign(config)
    parallel = run_campaign(config, jobs=2, backend=backend)
    assert parallel.to_json() == serial.to_json()
