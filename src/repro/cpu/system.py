"""Full-system composition: core + caches + TLBs + paging + kernel.

A :class:`System` owns one simulated machine and one loaded process.  It is
single-use: build, load, run.  The fault injector reaches the live hardware
structures through :meth:`System.injectable_targets`.
"""

from __future__ import annotations

from repro.errors import SimAssertion
from repro.isa.program import Program
from repro.kernel.loader import LoadedProcess, load_program
from repro.kernel.status import RunResult, RunStatus
from repro.kernel.syscalls import Kernel
from repro.mem.cache import Cache
from repro.mem.paging import PageTable
from repro.mem.physmem import PhysicalMemory
from repro.mem.sram import InjectableArray
from repro.mem.tlb import TLB
from repro.cpu.config import DEFAULT_CONFIG, CoreConfig
from repro.cpu.core import OutOfOrderCore
from repro.restorable import Restorable

#: Stable component names used across injection, analysis and reporting.
COMPONENT_NAMES = ("l1d", "l1i", "l2", "regfile", "dtlb", "itlb")


class CoreBundle(Restorable):
    """One core's private state: L1 caches, TLBs, and the pipeline.

    The single-core :class:`System` builds exactly one bundle with an empty
    name *prefix*, so its component names ("l1d", "itlb", ...) — and hence
    every campaign cell key and telemetry counter — are unchanged.  The SMP
    system builds one bundle per core with a ``c{k}.`` prefix around one
    shared L2, which is what keys per-core cache/TLB telemetry by core id.
    """

    def __init__(
        self,
        cfg: CoreConfig,
        core_id: int,
        prefix: str,
        l2: Cache,
        page_table: PageTable,
        kernel: Kernel,
    ) -> None:
        self.core_id = core_id
        self.prefix = prefix
        self.l1i = Cache(
            prefix + "l1i", cfg.l1i_size, cfg.l1i_assoc, cfg.line_size,
            cfg.l1i_latency, l2,
        )
        self.l1d = Cache(
            prefix + "l1d", cfg.l1d_size, cfg.l1d_assoc, cfg.line_size,
            cfg.l1d_latency, l2,
        )
        self.itlb = TLB(prefix + "itlb", page_table, cfg.tlb_entries)
        self.dtlb = TLB(prefix + "dtlb", page_table, cfg.tlb_entries)
        self.pipe = OutOfOrderCore(
            cfg, self.l1i, self.l1d, self.itlb, self.dtlb, kernel
        )
        self.pipe.core_id = core_id

    def fresh_pipe(self, cfg: CoreConfig, kernel: Kernel) -> OutOfOrderCore:
        """Replace the pipeline for a (re)spawned worker, keeping the caches.

        Verification taps and the SMP load-replay mode carry over so a
        respawned core stays under the same harness as the original.
        """
        pipe = OutOfOrderCore(
            cfg, self.l1i, self.l1d, self.itlb, self.dtlb, kernel
        )
        pipe.core_id = self.core_id
        pipe.sc_replay_check = self.pipe.sc_replay_check
        pipe.commit_hook = self.pipe.commit_hook
        pipe.invariant_checker = self.pipe.invariant_checker
        # Hardware counters belong to the core, not the thread: accumulate
        # across every thread that ever ran here.
        pipe.stats = self.pipe.stats
        self.pipe = pipe
        return pipe


class System(Restorable):
    """One simulated machine instance."""

    def __init__(self, cfg: CoreConfig = DEFAULT_CONFIG) -> None:
        self.cfg = cfg
        layout = cfg.layout
        self.mem = PhysicalMemory(layout.phys_size, cfg.mem_latency)
        self.l2 = Cache(
            "l2", cfg.l2_size, cfg.l2_assoc, cfg.line_size,
            cfg.l2_latency, self.mem,
        )
        self.page_table = PageTable(cfg.tlb_walk_latency)
        self.kernel = Kernel()
        bundle = CoreBundle(cfg, 0, "", self.l2, self.page_table, self.kernel)
        self.l1i = bundle.l1i
        self.l1d = bundle.l1d
        self.itlb = bundle.itlb
        self.dtlb = bundle.dtlb
        self.core = bundle.pipe
        if cfg.check_invariants:
            from repro.verify.invariants import InvariantChecker

            self.core.invariant_checker = InvariantChecker()
        self.process: LoadedProcess | None = None

    def load(self, program: Program) -> LoadedProcess:
        """Load *program* and point the core at its entry."""
        self.process = load_program(
            program, self.mem, self.page_table, self.cfg.layout
        )
        self.core.reset(self.process.entry_pc, self.process.initial_sp)
        return self.process

    def injectable_targets(self) -> dict[str, InjectableArray]:
        """The six fault-injection targets of the paper, by component name."""
        return {
            "l1d": self.l1d,
            "l1i": self.l1i,
            "l2": self.l2,
            "regfile": self.core.prf,
            "dtlb": self.dtlb,
            "itlb": self.itlb,
        }

    def publish_metrics(self, metrics, prefix: str = "sim.mem.") -> None:
        """Harvest cache/TLB hit-miss counters into an ``obs`` registry.

        Called at most once per finished run; the totals are a pure
        function of the executed instruction stream, so sums over a
        campaign's injections are deterministic (``sim.*`` namespace).
        """
        for cache in (self.l1d, self.l1i, self.l2):
            cache.stats.publish(metrics, prefix + cache.name)
        for tlb in (self.itlb, self.dtlb):
            tlb.publish_stats(metrics, prefix + tlb.name)

    def step(self) -> None:
        self.core.step()

    @property
    def cycle(self) -> int:
        return self.core.cycle

    @property
    def finished(self) -> bool:
        return self.core.result is not None

    def run(self, max_cycles: int, max_steps: int | None = None) -> RunResult:
        """Run to termination, converting simulator assertions to results.

        *max_steps* is the per-injection step-count watchdog (see
        :meth:`repro.cpu.core.OutOfOrderCore.run`); leave it ``None`` for
        trusted fault-free runs.
        """
        try:
            return self.core.run(max_cycles, max_steps=max_steps)
        except SimAssertion as exc:
            return self._assert_result(exc)

    def run_until(
        self,
        target_cycle: int,
        max_cycles: int,
        max_steps: int | None = None,
    ) -> bool:
        """Advance to *target_cycle* (or termination).

        Returns True when the target cycle was reached with the program
        still running — i.e. an injection at this point is meaningful.
        *max_steps* bounds the number of pipeline steps like
        :meth:`run` does; a stuck cycle counter would otherwise keep this
        loop spinning forever since ``cycle < target_cycle`` never resolves.
        """
        steps = 0
        try:
            while self.core.result is None and self.core.cycle < target_cycle:
                if self.core.cycle >= max_cycles:
                    return False
                self.core.step()
                steps += 1
                if max_steps is not None and steps > max_steps:
                    from repro.errors import WatchdogTimeout

                    raise WatchdogTimeout(
                        f"step watchdog: {steps} steps executed but the "
                        f"cycle counter is at {self.core.cycle} (target "
                        f"{target_cycle}) — simulator livelock"
                    )
        except SimAssertion as exc:
            self._assert_result(exc)
            return False
        return self.core.result is None

    def _assert_result(self, exc: SimAssertion) -> RunResult:
        """End the run on simulator assertion *exc*: the paper's Assert
        class, recorded as the core's result."""
        self.core.result = RunResult(
            status=RunStatus.SIM_ASSERT,
            cycles=self.core.cycle,
            instructions=self.core.stats.committed,
            output=bytes(self.kernel.output),
            detail=str(exc),
            stats=self.core.stats.as_dict(),
        )
        return self.core.result


def run_program(
    program: Program,
    cfg: CoreConfig = DEFAULT_CONFIG,
    max_cycles: int = 5_000_000,
) -> RunResult:
    """Convenience one-shot: load and run *program* on a fresh system."""
    system = System(cfg)
    system.load(program)
    return system.run(max_cycles)
