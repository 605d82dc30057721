"""N-core SMP machine: per-core pipelines around one coherent shared L2.

An :class:`SMPSystem` composes N :class:`~repro.cpu.system.CoreBundle`\\ s
(private L1I/L1D/TLBs/pipeline each) over one shared L2, page table,
physical memory and kernel.  Per-core L1Ds are kept coherent by a
:class:`~repro.mem.coherence.CoherenceBus` (invalidate-on-write, dirty
owner tracking), so a flipped bit in a *shared L2 line* is observed by
every core whose miss path reads through it — the cross-thread fault
propagation mechanism this model exists to measure.

**Deterministic interleaving.**  The scheduler is conservative
time-stepping: each quantum steps, in core-index order, every running
pipeline whose local clock equals the global minimum.  A pipeline may jump
its local clock forward over provably idle cycles
(:meth:`~repro.cpu.core.OutOfOrderCore._skip_idle_cycles`); other cores
simply catch up over later quanta.  The interleaving is a pure function of
machine state, so multi-core golden runs replay bit-exactly — the property
the golden-run cache, the differential oracle and the propagation matrix
all rest on.

**Memory model.**  Sequential consistency, enforced at commit: every
pipeline runs with commit-time load revalidation
(:attr:`~repro.cpu.core.OutOfOrderCore.sc_replay_check`), so a load whose
location was remotely stored between execute and commit is squashed and
replayed.  Atomics serialize their pipeline and perform the read-modify-
write at commit through the coherent hierarchy.

**Thread model.**  Core 0 runs ``_start``; ``SPAWN`` starts a worker on an
idle core with a carved-out stack slice (see
:func:`~repro.kernel.syscalls.worker_sp`); a worker parks its core by
halting.  The program ends when core 0 ends; a worker crash ends the
program as that crash (tagged with the core id).
"""

from __future__ import annotations

from repro.errors import ConfigError, SimAssertion
from repro.isa.encoding import MASK32
from repro.isa.program import Program
from repro.kernel.loader import LoadedProcess, load_program
from repro.kernel.status import RunResult, RunStatus
from repro.kernel.syscalls import SPAWN_FAILED, Kernel, worker_sp
from repro.mem.cache import Cache
from repro.mem.coherence import CoherenceBus
from repro.mem.paging import PageTable
from repro.mem.physmem import PhysicalMemory
from repro.mem.sram import InjectableArray
from repro.cpu.config import DEFAULT_CONFIG, CoreConfig
from repro.cpu.system import CoreBundle
from repro.restorable import Restorable

#: Hard cap on the configurable core count (keeps worker stack slices and
#: campaign budgets sane; the paper's platforms are 1-8 cores).
MAX_CORES = 8


class SMPSystem(Restorable):
    """One simulated N-core machine instance (build, load, run — like System)."""

    def __init__(self, cfg: CoreConfig = DEFAULT_CONFIG, ncores: int = 2) -> None:
        if not 1 <= ncores <= MAX_CORES:
            raise ConfigError(f"ncores must be in 1..{MAX_CORES}, got {ncores}")
        self.cfg = cfg
        self.ncores = ncores
        layout = cfg.layout
        self.mem = PhysicalMemory(layout.phys_size, cfg.mem_latency)
        self.l2 = Cache(
            "l2", cfg.l2_size, cfg.l2_assoc, cfg.line_size,
            cfg.l2_latency, self.mem,
        )
        self.page_table = PageTable(cfg.tlb_walk_latency)
        self.kernel = Kernel()
        self.kernel.smp = self
        self.bus = CoherenceBus(self.l2)
        self.cores = [
            CoreBundle(cfg, k, f"c{k}.", self.l2, self.page_table, self.kernel)
            for k in range(ncores)
        ]
        self.invariant_checker = None
        if cfg.check_invariants:
            from repro.verify.invariants import InvariantChecker

            self.invariant_checker = InvariantChecker()
        for bundle in self.cores:
            self.bus.attach(bundle.l1d)
            bundle.pipe.sc_replay_check = True
            bundle.pipe.invariant_checker = self.invariant_checker
        #: Which cores currently execute a thread.  Core 0 is the program.
        self.running = [False] * ncores
        self.running[0] = True
        self.cycle = 0
        self.result: RunResult | None = None
        #: Core whose terminal state ended the program (None for timeouts).
        self.result_core: int | None = None
        #: Optional tap called with a core id when a worker parks (used by
        #: the SMP differential to keep the oracle's idle-core bookkeeping
        #: in lock step with the machine's).
        self.park_hook = None
        self.process: LoadedProcess | None = None

    # ------------------------------------------------------------------ setup

    def load(self, program: Program) -> LoadedProcess:
        """Load *program* and point core 0 at its entry."""
        self.process = load_program(
            program, self.mem, self.page_table, self.cfg.layout
        )
        self.cores[0].pipe.reset(self.process.entry_pc, self.process.initial_sp)
        return self.process

    def start_core(self, entry: int, arg: int) -> int:
        """SPAWN: run *entry* with r0 = *arg* on the first idle core.

        Returns the worker's core id (the thread id), or ``SPAWN_FAILED``
        when every worker core is busy.
        """
        for k in range(1, self.ncores):
            if self.running[k]:
                continue
            bundle = self.cores[k]
            pipe = bundle.fresh_pipe(self.cfg, self.kernel)
            pipe.reset(
                entry & MASK32,
                worker_sp(self.cfg.layout, k, self.ncores),
            )
            pipe.prf.values[pipe.rename_map[0]] = arg & MASK32
            # The worker's clock starts at the spawn instant, so its first
            # step lands in the very next scheduling quantum.
            pipe.cycle = self.cycle + 1
            pipe.last_commit_cycle = pipe.cycle
            self.running[k] = True
            return k
        return SPAWN_FAILED

    # -------------------------------------------------------------- injection

    def injectable_targets(self) -> dict[str, InjectableArray]:
        """Fault-injection targets by component name.

        The six standard component names alias *core 0's* private
        structures (plus the shared "l2"), so campaign cells mean the same
        thing at every core count; every core's private structures are also
        reachable under their ``c{k}.`` names for targeted experiments.
        """
        core0 = self.cores[0]
        targets: dict[str, InjectableArray] = {
            "l1d": core0.l1d,
            "l1i": core0.l1i,
            "l2": self.l2,
            "regfile": core0.pipe.prf,
            "dtlb": core0.dtlb,
            "itlb": core0.itlb,
        }
        for bundle in self.cores:
            targets[bundle.l1d.name] = bundle.l1d
            targets[bundle.l1i.name] = bundle.l1i
            targets[bundle.dtlb.name] = bundle.dtlb
            targets[bundle.itlb.name] = bundle.itlb
            targets[bundle.prefix + "regfile"] = bundle.pipe.prf
        return targets

    def publish_metrics(self, metrics, prefix: str = "sim.mem.") -> None:
        """Harvest per-core cache/TLB counters plus shared L2 and bus stats.

        Per-core cache and TLB names carry their ``c{k}.`` prefix, so the
        resulting counter keys are keyed by core id and sum deterministically
        across a campaign exactly like the single-core keys do.
        """
        self.l2.stats.publish(metrics, prefix + self.l2.name)
        for bundle in self.cores:
            for cache in (bundle.l1d, bundle.l1i):
                cache.stats.publish(metrics, prefix + cache.name)
            for tlb in (bundle.itlb, bundle.dtlb):
                tlb.publish_stats(metrics, prefix + tlb.name)
        self.bus.stats.publish(metrics, prefix + "bus")

    # --------------------------------------------------------------- stepping

    def step(self) -> None:
        """One scheduling quantum of the deterministic interleaver.

        Steps every running pipeline sitting at the global minimum cycle,
        in core-index order, then resolves any terminal pipeline states.
        """
        active = [
            bundle.pipe
            for k, bundle in enumerate(self.cores)
            if self.running[k] and bundle.pipe.result is None
        ]
        if not active:
            # Core 0's terminal state was consumed in an earlier quantum;
            # nothing left to simulate.
            return
        floor = min(pipe.cycle for pipe in active)
        self.cycle = floor
        for pipe in active:
            if pipe.cycle == floor:
                pipe.step()
        self.cycle = min(pipe.cycle for pipe in active)
        for k, bundle in enumerate(self.cores):
            if not self.running[k]:
                continue
            result = bundle.pipe.result
            if result is None:
                continue
            if k == 0:
                self.result = self._compose(
                    result.status, result.crash_reason, result.crash_pc,
                    result.detail,
                )
                self.result_core = 0
                return
            if result.status is RunStatus.FINISHED:
                # Worker ran to completion: park the core for respawn.
                self.running[k] = False
                if self.park_hook is not None:
                    self.park_hook(k)
            else:
                self.result = self._compose(
                    result.status, result.crash_reason, result.crash_pc,
                    f"core {k}: {result.detail}" if result.detail
                    else f"core {k}",
                )
                self.result_core = k
                return

    def _compose(
        self,
        status: RunStatus,
        reason=None,
        pc: int | None = None,
        detail: str = "",
    ) -> RunResult:
        stats: dict[str, int] = {}
        instructions = 0
        for bundle in self.cores:
            for key, value in bundle.pipe.stats.as_dict().items():
                stats[key] = stats.get(key, 0) + value
        instructions = stats.get("committed", 0)
        return RunResult(
            status=status,
            cycles=self.cycle,
            instructions=instructions,
            output=bytes(self.kernel.output),
            exit_code=self.kernel.exit_code or 0,
            crash_reason=reason,
            crash_pc=pc,
            detail=detail,
            stats=stats,
        )

    @property
    def finished(self) -> bool:
        return self.result is not None

    def _last_commit_cycle(self) -> int:
        return max(
            bundle.pipe.last_commit_cycle
            for k, bundle in enumerate(self.cores)
            if k == 0 or self.running[k]
        )

    # -------------------------------------------------------------------- run

    def run(self, max_cycles: int, max_steps: int | None = None) -> RunResult:
        """Run to termination, mirroring :meth:`System.run` semantics."""
        deadlock_window = self.cfg.deadlock_window
        steps = 0
        try:
            while self.result is None:
                self.step()
                steps += 1
                if max_steps is not None and steps > max_steps:
                    from repro.errors import WatchdogTimeout

                    raise WatchdogTimeout(
                        f"step watchdog: {steps} quanta executed but the "
                        f"global cycle is at {self.cycle} (budget "
                        f"{max_steps} steps / {max_cycles} cycles) — "
                        f"simulator livelock"
                    )
                if self.result is not None:
                    break
                if self.cycle >= max_cycles:
                    idle = self.cycle - self._last_commit_cycle()
                    status = (
                        RunStatus.TIMEOUT_DEADLOCK
                        if idle > deadlock_window
                        else RunStatus.TIMEOUT_LIVELOCK
                    )
                    self.result = self._compose(status)
                    break
                if self.cycle - self._last_commit_cycle() > deadlock_window:
                    self.result = self._compose(RunStatus.TIMEOUT_DEADLOCK)
                    break
        except SimAssertion as exc:
            self.result = self._compose(RunStatus.SIM_ASSERT, detail=str(exc))
        assert self.result is not None
        return self.result

    def run_until(
        self,
        target_cycle: int,
        max_cycles: int,
        max_steps: int | None = None,
    ) -> bool:
        """Advance to *target_cycle* (or termination), like System.run_until."""
        steps = 0
        try:
            while self.result is None and self.cycle < target_cycle:
                if self.cycle >= max_cycles:
                    return False
                self.step()
                steps += 1
                if max_steps is not None and steps > max_steps:
                    from repro.errors import WatchdogTimeout

                    raise WatchdogTimeout(
                        f"step watchdog: {steps} quanta executed but the "
                        f"global cycle is at {self.cycle} (target "
                        f"{target_cycle}) — simulator livelock"
                    )
        except SimAssertion as exc:
            self.result = self._compose(RunStatus.SIM_ASSERT, detail=str(exc))
            return False
        return self.result is None


def run_smp_program(
    program: Program,
    cfg: CoreConfig = DEFAULT_CONFIG,
    ncores: int = 2,
    max_cycles: int = 5_000_000,
) -> RunResult:
    """Convenience one-shot: load and run *program* on a fresh SMP machine."""
    smp = SMPSystem(cfg, ncores)
    smp.load(program)
    return smp.run(max_cycles)
