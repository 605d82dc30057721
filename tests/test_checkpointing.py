"""Checkpointed injection must be bit-identical to direct simulation."""

import dataclasses
import enum
import gc
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro.core.campaign import (
    CheckpointedWorkload,
    InjectionPlan,
    build_system,
    golden_run,
    run_one_injection,
)
from repro.core.generator import MultiBitFaultGenerator
from repro.cpu.config import DEFAULT_CONFIG
from repro.cpu.smp import SMPSystem
from repro.kernel.status import RunStatus
from repro.restorable import Restorable
from repro.verify.invariants import smp_state_fingerprint, state_fingerprint
from repro.workloads import get_workload

WORKLOAD = "susan_c"  # small and fast


def _fingerprint(system) -> str:
    if isinstance(system, SMPSystem):
        return smp_state_fingerprint(system)
    return state_fingerprint(system)


def _fresh_at(workload, cycle: int, cores: int = 1):
    golden = golden_run(workload, cores=cores)
    system = build_system(workload, DEFAULT_CONFIG, cores)
    system.run_until(cycle, golden.cycles + 10)
    return system


def test_snapshot_resumes_exactly():
    workload = get_workload(WORKLOAD)
    golden = golden_run(workload)
    checkpoints = CheckpointedWorkload(workload, snapshots=8)
    system = checkpoints.system_at(golden.cycles // 2)
    assert system.cycle <= golden.cycles // 2
    assert system.run_until(golden.cycles // 2, golden.cycles + 10)
    result = system.run(4 * golden.cycles)
    assert result.status is RunStatus.FINISHED
    assert result.cycles == golden.cycles
    assert result.output == golden.output


def test_snapshot_at_cycle_zero_is_fresh_system():
    workload = get_workload(WORKLOAD)
    checkpoints = CheckpointedWorkload(workload, snapshots=4)
    system = checkpoints.system_at(0)
    assert system.cycle == 0


def test_snapshots_are_isolated():
    """Cloned systems must not share mutable state with the snapshot."""
    workload = get_workload(WORKLOAD)
    golden = golden_run(workload)
    checkpoints = CheckpointedWorkload(workload, snapshots=4)
    cycle = golden.cycles // 2
    first = checkpoints.system_at(cycle)
    # Wreck the first clone thoroughly.
    first.core.prf.values[:] = [0] * len(first.core.prf.values)
    first.l1d.flip_bit(0, 0)
    first.dtlb.flip_bit(0, 5)
    # A second clone from the same snapshot must still run clean.
    second = checkpoints.system_at(cycle)
    second.run_until(cycle, golden.cycles + 10)
    result = second.run(4 * golden.cycles)
    assert result.status is RunStatus.FINISHED
    assert result.output == golden.output


def test_system_at_picks_latest_checkpoint_not_after():
    """The grid fills lazily, and each restore is its grid point's state.

    Nothing is simulated up front; a probe captures exactly the grid
    points up to it, and the machine handed back equals a fresh one run
    to the latest grid point at or before the probe (cycle 0 before the
    first).
    """
    workload = get_workload(WORKLOAD)
    golden = golden_run(workload)
    checkpoints = CheckpointedWorkload(workload, snapshots=8)
    grid = list(checkpoints.grid)
    assert grid == sorted(grid)
    assert 0 < grid[0] and grid[-1] < golden.cycles
    assert checkpoints.captured == []
    # Before the first, exactly on a grid point, between grid points,
    # past the last.
    probes = (
        [grid[0] - 1] + grid
        + [c + 1 for c in grid] + [golden.cycles + 5]
    )
    reached = 0
    for probe in probes:
        expected = max((c for c in grid if c <= probe), default=0)
        system = checkpoints.system_at(probe)
        fresh = _fresh_at(workload, expected)
        assert system.cycle == fresh.cycle
        assert state_fingerprint(system) == state_fingerprint(fresh)
        reached = max(reached, probe)
        assert checkpoints.captured == [c for c in grid if c <= reached]


def test_caches_are_keyed_by_config_value_and_bounded():
    from repro.core import campaign as campaign_module
    from repro.core.campaign import _checkpoints_for
    from repro.cpu.config import CoreConfig

    workload = get_workload(WORKLOAD)
    # CoreConfig hashes by value: equal configs share one cache entry.
    assert hash(CoreConfig()) == hash(CoreConfig())
    first = golden_run(workload, CoreConfig())
    second = golden_run(workload, CoreConfig())
    assert first is second
    snaps_a = _checkpoints_for(workload, CoreConfig())
    snaps_b = _checkpoints_for(workload, CoreConfig())
    assert snaps_a is snaps_b
    # The core count keys its own snapshot set, like the golden cache.
    parallel = get_workload("crc32_p")
    smp_a = _checkpoints_for(parallel, CoreConfig(), 2)
    assert smp_a is _checkpoints_for(parallel, CoreConfig(), 2)
    assert smp_a.cores == 2
    assert _checkpoints_for(parallel, CoreConfig()).cores == 1
    # Both caches are LRU-bounded, by the same bound.
    assert len(campaign_module._GOLDEN_CACHE) \
        <= campaign_module.GOLDEN_CACHE_SIZE
    assert len(campaign_module._CHECKPOINT_CACHE) \
        <= campaign_module.GOLDEN_CACHE_SIZE
    assert campaign_module._CHECKPOINT_CACHE.maxsize \
        == campaign_module.GOLDEN_CACHE_SIZE


def test_bounded_cache_evicts_least_recently_used():
    from repro.core.campaign import _BoundedCache

    cache = _BoundedCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh a
    cache.put("c", 3)  # evicts b, the LRU entry
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert len(cache) == 2


def test_every_checkpoint_restores_to_fresh_run_state():
    """Restoring any checkpoint equals simulating from scratch, bit for bit.

    The step function is a pure function of machine state, so the staged
    run that captured the snapshots and a cold run to the same cycle must
    agree on *all* state — verified with the SHA-256 fingerprint over
    core, caches, TLBs, kernel and physical memory.
    """
    workload = get_workload(WORKLOAD)
    checkpoints = CheckpointedWorkload(workload, snapshots=6)
    assert len(checkpoints.grid) >= 5
    for cycle in checkpoints.grid:
        restored = checkpoints.system_at(cycle)
        fresh = _fresh_at(workload, cycle)
        assert fresh.cycle >= cycle
        assert restored.cycle == fresh.cycle
        assert state_fingerprint(restored) == state_fingerprint(fresh), (
            f"checkpoint at cycle {cycle} diverges from a fresh run"
        )
    assert checkpoints.captured == list(checkpoints.grid)


@pytest.mark.parametrize(
    "name,cores",
    [("susan_c", 1), ("crc32_p", 2), ("qsort_p", 2),
     ("crc32_p", 4), ("qsort_p", 4)],
)
def test_restore_then_run_until_equals_fresh_run_until(name, cores):
    """``system_at(c)`` advanced to *c* equals a fresh ``run_until(c)``.

    Probed at every grid point and at 20 random cycles, on a cold grid
    (one probe fills every grid point below it) and on a partly filled
    one (probes in random order either restore a captured point or
    capture further ones).  The reference is one fresh machine advanced
    through the probes in cycle order: ``run_until(a)`` then
    ``run_until(b)`` stops on the same step as ``run_until(b)`` alone.
    """
    workload = get_workload(name)
    golden = golden_run(workload, cores=cores)
    budget = golden.cycles + 10
    rng = random.Random(f"{name}:{cores}")
    probes = list(CheckpointedWorkload(workload, cores=cores).grid)
    probes += [rng.randrange(golden.cycles) for _ in range(20)]

    reference = build_system(workload, DEFAULT_CONFIG, cores)
    expected = {}
    for cycle in sorted(set(probes)):
        assert reference.run_until(cycle, budget)
        expected[cycle] = (reference.cycle, _fingerprint(reference))

    def check(checkpoints, cycle):
        system = checkpoints.system_at(cycle)
        assert system.run_until(cycle, budget)
        assert (system.cycle, _fingerprint(system)) == expected[cycle], (
            f"{name} at {cores} cores: restore for cycle {cycle} diverges"
        )

    cold = CheckpointedWorkload(workload, cores=cores)
    check(cold, max(probes))
    assert cold.captured == [c for c in cold.grid if c <= max(probes)]

    partial = CheckpointedWorkload(workload, cores=cores)
    partial.system_at(golden.cycles // 2)
    assert 0 < len(partial.captured) < len(partial.grid)
    rng.shuffle(probes)
    for cycle in probes:
        check(partial, cycle)


def test_checkpointed_injection_matches_direct():
    workload = get_workload(WORKLOAD)
    golden = golden_run(workload)
    checkpoints = CheckpointedWorkload(workload, snapshots=8)
    rng = random.Random(77)
    for trial in range(6):
        cycle = rng.randrange(golden.cycles)
        component = rng.choice(["l1d", "l1i", "itlb", "regfile"])
        direct = run_one_injection(
            workload, component,
            MultiBitFaultGenerator(seed=trial), 3, cycle,
        )
        fast = run_one_injection(
            workload, component,
            MultiBitFaultGenerator(seed=trial), 3, cycle,
            InjectionPlan.build(workload, checkpoints=checkpoints),
        )
        assert direct[0] is fast[0]               # same fault class
        assert direct[2] == fast[2]               # same mask
        assert direct[1].cycles == fast[1].cycles  # same timing
        assert direct[1].output == fast[1].output  # same output
        assert direct[1].status == fast[1].status


def test_checkpointed_smp_injection_matches_direct():
    workload = get_workload("crc32_p")
    golden = golden_run(workload, cores=2)
    checkpoints = CheckpointedWorkload(workload, cores=2)
    rng = random.Random(78)
    for trial, component in enumerate(["l2", "l1d", "regfile", "dtlb"]):
        cycle = rng.randrange(golden.cycles)
        direct = run_one_injection(
            workload, component,
            MultiBitFaultGenerator(seed=trial), 1, cycle,
            InjectionPlan.build(workload, cores=2),
        )
        fast = run_one_injection(
            workload, component,
            MultiBitFaultGenerator(seed=trial), 1, cycle,
            InjectionPlan.build(workload, cores=2, checkpoints=checkpoints),
        )
        assert direct[0] is fast[0]
        assert direct[2] == fast[2]
        assert direct[1].cycles == fast[1].cycles
        assert direct[1].output == fast[1].output
        assert direct[1].status == fast[1].status


SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

#: A strict 2-core --verify campaign (the CLI's --verify also arms the
#: invariant checker, which therefore rides along in every snapshot).
#: The second cell restores the snapshots the first cell captured.
SMP_CAMPAIGN = """
import dataclasses
from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.supervisor import Supervisor
from repro.cpu.config import DEFAULT_CONFIG

config = CampaignConfig(
    workloads=("crc32_p",), components=("l2", "regfile"),
    cardinalities=(1,), samples=2, seed=5, cores=2,
)
core_cfg = dataclasses.replace(DEFAULT_CONFIG, check_invariants=True)
blob = run_campaign(
    config, core_cfg=core_cfg, supervisor=Supervisor(strict=True),
    verify=True,
).to_json()
"""


def _cold_campaign(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", SMP_CAMPAIGN + "print(blob, end='')"],
        capture_output=True, text=True, env=env, timeout=600, check=True,
    )
    return proc.stdout


def test_checkpointed_smp_campaign_is_identical_across_hash_seeds(
    monkeypatch,
):
    """Pickle rebuilds containers in iteration order, like deepcopy did:
    cold processes with different hash seeds must agree byte for byte,
    and with a campaign that never restores a snapshot."""
    from repro.core import campaign as campaign_module
    from repro.core.campaign import CampaignResult

    first = _cold_campaign("0")
    assert first == _cold_campaign("1")
    assert CampaignResult.from_json(first).cell(
        "crc32_p", "regfile", 1
    ).counts.total == 2

    monkeypatch.setattr(
        campaign_module, "_checkpoints_for", lambda *args: None
    )
    direct: dict = {}
    exec(SMP_CAMPAIGN, direct)
    assert direct["blob"] == first


def _repro_classes(root) -> set:
    """Every ``repro.*`` class of an object reachable from *root*."""
    found, seen, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if type(obj).__module__.startswith("repro."):
            found.add(type(obj))
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("name,cores", [("susan_c", 1), ("crc32_p", 2)])
def test_simulator_classes_restore_through_the_mixin(name, cores):
    """A class without the mixin would restore onto CPython's slow
    attribute path and quietly slow every checkpointed sample down.

    Enum members are exempt: pickle rebuilds them by value, as the
    existing singletons.
    """
    core_cfg = dataclasses.replace(DEFAULT_CONFIG, check_invariants=True)
    system = build_system(get_workload(name), core_cfg, cores)
    system.run_until(1500, 10_000)
    classes = _repro_classes(system)
    names = {cls.__name__ for cls in classes}
    assert {"Cache", "TLB", "OutOfOrderCore", "InvariantChecker"} <= names
    slow = sorted(
        f"{cls.__module__}.{cls.__qualname__}"
        for cls in classes
        if cls.__dictoffset__
        and not issubclass(cls, enum.Enum)
        and not issubclass(cls, Restorable)
    )
    assert slow == []
