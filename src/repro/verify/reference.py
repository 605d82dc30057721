"""ISA-level in-order reference executor: the independent oracle.

Fault-effect classification is only as trustworthy as the simulator it
runs on, so this module provides a second, much simpler implementation of
the architecture to cross-check the out-of-order system against: one
instruction at a time, in program order, straight against flat physical
memory and the page tables — no caches, no TLBs, no renaming, no
branch prediction, no pipeline.

The two implementations deliberately share exactly two things:

* the instruction decoder (:func:`repro.isa.encoding.decode`) — the binary
  format is architecture, not microarchitecture, and a divergence there
  would be caught by the assembler round-trip tests instead;
* the pure ALU/branch semantics tables (:mod:`repro.isa.semantics`).

Everything else — address translation, permission checks, memory access,
syscall sequencing, exception priority — is re-implemented here from the
architecture definition, so agreement between the reference and the
600-line out-of-order core is meaningful evidence that the caches, TLBs,
store queue, renaming and precise-exception machinery preserve
architectural behaviour.

The executor yields one :class:`CommitRecord` per retired instruction.
Matching the out-of-order commit stage, a *run-terminating* instruction
(HALT, an exiting SYS, or anything that raises an architectural exception)
never retires and produces no record.
"""

from __future__ import annotations

from repro.errors import VerificationError
from repro.isa.encoding import decode
from repro.isa.opcodes import Format, Op
from repro.isa.program import Program
from repro.isa.registers import NUM_ARCH_REGS, SP
from repro.isa.semantics import ALU_OPS, BRANCH_CONDS, ArithmeticFault
from repro.kernel.loader import load_program
from repro.kernel.status import CrashReason, RunResult, RunStatus
from repro.kernel.syscalls import SPAWN_FAILED, Kernel, worker_sp
from repro.mem.paging import PAGE_SHIFT, PAGE_SIZE, VPN_BITS, PageTable
from repro.mem.physmem import PhysicalMemory
from repro.cpu.config import DEFAULT_CONFIG, CoreConfig

MASK32 = 0xFFFFFFFF

#: Access kinds for permission checks (kept local on purpose: importing the
#: TLB model here would couple the oracle to the thing it checks).
ACCESS_LOAD = 0
ACCESS_STORE = 1
ACCESS_EXEC = 2

#: Instruction budget for one reference run.  The suite's largest golden
#: runs retire a few hundred thousand instructions; hitting this bound
#: means the program (or the oracle) is broken, not slow.
DEFAULT_MAX_INSTRUCTIONS = 5_000_000


class CommitRecord:
    """Architectural effect of one retired instruction.

    ``arch_dest``/``value`` describe the register writeback (``-1``/``None``
    when the instruction writes no register); the ``store_*`` fields
    describe the memory effect of a retired store (``None`` otherwise).
    """

    __slots__ = (
        "index", "pc", "raw", "arch_dest", "value",
        "store_paddr", "store_size", "store_data",
    )

    def __init__(
        self,
        index: int,
        pc: int,
        raw: int,
        arch_dest: int = -1,
        value: int | None = None,
        store_paddr: int | None = None,
        store_size: int | None = None,
        store_data: int | None = None,
    ) -> None:
        self.index = index
        self.pc = pc
        self.raw = raw
        self.arch_dest = arch_dest
        self.value = value
        self.store_paddr = store_paddr
        self.store_size = store_size
        self.store_data = store_data

    def store_effect(self) -> tuple[int | None, int | None, int | None]:
        return (self.store_paddr, self.store_size, self.store_data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        from repro.isa.disasm import disassemble

        parts = [f"#{self.index} 0x{self.pc:08x}: {disassemble(self.raw)}"]
        if self.arch_dest >= 0:
            parts.append(f"r{self.arch_dest} <- 0x{self.value:08x}")
        if self.store_paddr is not None:
            parts.append(
                f"mem[0x{self.store_paddr:08x}]{{{self.store_size}}} "
                f"<- 0x{self.store_data:08x}"
            )
        return "  ".join(parts)


class ReferenceExecutor:
    """In-order, one-instruction-at-a-time executor of the architected ISA."""

    def __init__(
        self,
        program: Program,
        cfg: CoreConfig = DEFAULT_CONFIG,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> None:
        layout = cfg.layout
        self.cfg = cfg
        self.mem = PhysicalMemory(layout.phys_size)
        self.page_table = PageTable()
        self.kernel = Kernel()
        process = load_program(program, self.mem, self.page_table, layout)
        self.regs = [0] * NUM_ARCH_REGS
        self.regs[SP] = process.initial_sp & MASK32
        self.pc = process.entry_pc
        self.retired = 0
        self.max_instructions = max_instructions
        #: Which core the current instruction runs on (always 0 here; the
        #: SMP subclass swaps it per scheduled core).
        self.core = 0
        #: Set when execution reaches a terminal state.
        self.result: RunResult | None = None

    # -- address translation -------------------------------------------------

    def _translate(self, vaddr: int, access: int) -> tuple[int, CrashReason | None]:
        """Translate straight off the page table.

        Mirrors the architectural contract of ``TLB.translate`` +
        ``TLB._check`` (fault priority: page fault for out-of-range or
        unmapped pages, then kernel-only, write and execute permission) —
        but shares no code with the TLB model it cross-checks.
        """
        vpn = vaddr >> PAGE_SHIFT
        if vpn >= (1 << VPN_BITS):
            return 0, CrashReason.PAGE_FAULT
        entry = self.page_table.lookup(vpn)
        if entry is None:
            return 0, CrashReason.PAGE_FAULT
        ppn, writable, executable, kernel = entry
        if kernel:
            return 0, CrashReason.PROT_FAULT
        if access == ACCESS_STORE and not writable:
            return 0, CrashReason.PROT_FAULT
        if access == ACCESS_EXEC and not executable:
            return 0, CrashReason.PROT_FAULT
        return (ppn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1)), None

    # -- termination ---------------------------------------------------------

    def _finish(
        self,
        status: RunStatus,
        reason: CrashReason | None = None,
        pc: int | None = None,
        detail: str = "",
    ) -> None:
        # ``cycles`` is the retired-instruction count: the oracle has no
        # timing model, and the differential harness never compares cycles.
        self.result = RunResult(
            status=status,
            cycles=self.retired,
            instructions=self.retired,
            output=bytes(self.kernel.output),
            exit_code=self.kernel.exit_code or 0,
            crash_reason=reason,
            crash_pc=pc,
            detail=detail,
        )

    def _crash(self, reason: CrashReason, pc: int, detail: str = "") -> None:
        self._finish(RunStatus.CRASH_PROCESS, reason, pc, detail)

    def _halt(self, pc: int) -> None:
        """The current thread ended (HALT or exiting SYS).

        On the single-core executor that terminates the run; the SMP
        subclass parks worker cores instead.
        """
        self._finish(RunStatus.FINISHED)

    # -- execution -----------------------------------------------------------

    def step(self) -> CommitRecord | None:
        """Execute one instruction.

        Returns its :class:`CommitRecord`, or ``None`` when the instruction
        terminated the run (``self.result`` is then set).
        """
        if self.result is not None:
            return None
        if self.retired >= self.max_instructions:
            raise VerificationError(
                f"reference oracle exceeded its {self.max_instructions:,}-"
                f"instruction budget at pc 0x{self.pc:08x}"
            )

        pc = self.pc
        if pc & 3:
            self._crash(
                CrashReason.MISALIGNED, pc, f"instruction fetch at 0x{pc:08x}"
            )
            return None
        paddr, fault = self._translate(pc, ACCESS_EXEC)
        if fault is not None:
            self._crash(fault, pc, f"instruction fetch at 0x{pc:08x}")
            return None
        raw = int.from_bytes(self.mem.read(paddr, 4), "little")
        inst = decode(raw)
        if inst.illegal:
            self._crash(
                CrashReason.ILLEGAL_INSTRUCTION, pc, f"word 0x{raw:08x}"
            )
            return None

        regs = self.regs
        op = inst.op
        next_pc = (pc + 4) & MASK32
        value: int | None = None
        store: tuple[int, int, int] | None = None

        if op in ALU_OPS:
            a = regs[inst.reads[0]]
            b = (inst.imm & MASK32) if inst.fmt is Format.I \
                else regs[inst.reads[1]]
            try:
                value = ALU_OPS[op](a, b)
            except ArithmeticFault as exc:
                self._crash(CrashReason.DIV_ZERO, pc, str(exc))
                return None
        elif op is Op.MOVI:
            value = inst.imm & MASK32
        elif op is Op.LUI:
            value = (inst.imm & 0xFFFF) << 16
        elif inst.is_load:
            vaddr = (regs[inst.reads[0]] + inst.imm) & MASK32
            size = inst.mem_size
            if size == 4 and vaddr & 3:
                self._crash(
                    CrashReason.MISALIGNED, pc, f"load at 0x{vaddr:08x}"
                )
                return None
            mem_paddr, fault = self._translate(vaddr, ACCESS_LOAD)
            if fault is not None:
                self._crash(fault, pc, f"load at 0x{vaddr:08x}")
                return None
            value = int.from_bytes(self.mem.read(mem_paddr, size), "little")
        elif inst.is_store:
            vaddr = (regs[inst.reads[1]] + inst.imm) & MASK32
            size = inst.mem_size
            if size == 4 and vaddr & 3:
                self._crash(
                    CrashReason.MISALIGNED, pc, f"store at 0x{vaddr:08x}"
                )
                return None
            mem_paddr, fault = self._translate(vaddr, ACCESS_STORE)
            if fault is not None:
                self._crash(fault, pc, f"store at 0x{vaddr:08x}")
                return None
            if mem_paddr < self.cfg.layout.kernel_reserved:
                self._finish(
                    RunStatus.CRASH_KERNEL, CrashReason.KERNEL_PANIC, pc,
                    f"store to kernel frame at phys 0x{mem_paddr:08x}",
                )
                return None
            data = regs[inst.reads[0]] & (MASK32 if size == 4 else 0xFF)
            self.mem.write(mem_paddr, data.to_bytes(size, "little"))
            store = (mem_paddr, size, data)
        elif inst.is_amo:
            vaddr = regs[inst.reads[0]]
            if vaddr & 3:
                self._crash(
                    CrashReason.MISALIGNED, pc, f"amo at 0x{vaddr:08x}"
                )
                return None
            mem_paddr, fault = self._translate(vaddr, ACCESS_STORE)
            if fault is not None:
                self._crash(fault, pc, f"amo at 0x{vaddr:08x}")
                return None
            if mem_paddr < self.cfg.layout.kernel_reserved:
                self._finish(
                    RunStatus.CRASH_KERNEL, CrashReason.KERNEL_PANIC, pc,
                    f"store to kernel frame at phys 0x{mem_paddr:08x}",
                )
                return None
            old = int.from_bytes(self.mem.read(mem_paddr, 4), "little")
            operand = regs[inst.reads[1]]
            if op is Op.AMOADD:
                new = (old + operand) & MASK32
            else:  # AMOSWAP
                new = operand & MASK32
            self.mem.write(mem_paddr, new.to_bytes(4, "little"))
            value = old
            store = (mem_paddr, 4, new)
        elif inst.is_cond_branch:
            a = regs[inst.reads[0]]
            b = regs[inst.reads[1]] if len(inst.reads) > 1 else 0
            if BRANCH_CONDS[op](a, b):
                next_pc = (pc + 4 * inst.imm) & MASK32
        elif op is Op.B:
            next_pc = (pc + 4 * inst.imm) & MASK32
        elif op is Op.BL:
            value = (pc + 4) & MASK32
            next_pc = (pc + 4 * inst.imm) & MASK32
        elif op in (Op.JR, Op.JALR):
            target = regs[inst.reads[0]]
            if target & 3:
                self._crash(
                    CrashReason.MISALIGNED, pc, f"jump target 0x{target:08x}"
                )
                return None
            if op is Op.JALR:
                value = (pc + 4) & MASK32
            next_pc = target
        elif inst.is_sys:
            ret, exited, crash = self.kernel.do_syscall(
                inst.imm, regs[0], regs[1], regs[2], core=self.core
            )
            if crash is not None:
                self._crash(crash, pc)
                return None
            value = ret & MASK32
            if exited:
                self._halt(pc)
                return None
        elif inst.is_halt:
            self._halt(pc)
            return None
        # NOP: no effect.

        dest = inst.writes
        if dest is not None:
            regs[dest] = value if value is not None else regs[dest]
        record = CommitRecord(
            self.retired, pc, raw,
            arch_dest=dest if dest is not None else -1,
            value=value if dest is not None else None,
            store_paddr=store[0] if store is not None else None,
            store_size=store[1] if store is not None else None,
            store_data=store[2] if store is not None else None,
        )
        self.retired += 1
        self.pc = next_pc
        return record

    def run(self) -> RunResult:
        """Execute to termination; returns the terminal :class:`RunResult`."""
        while self.result is None:
            self.step()
        return self.result

    def commit_stream(self):
        """Lazily yield one :class:`CommitRecord` per retired instruction."""
        while self.result is None:
            record = self.step()
            if record is not None:
                yield record


class _CoreContext:
    """One oracle core's architectural thread state."""

    __slots__ = ("regs", "pc", "running")

    def __init__(self) -> None:
        self.regs = [0] * NUM_ARCH_REGS
        self.pc = 0
        self.running = False


class SMPReferenceExecutor(ReferenceExecutor):
    """Multi-core extension of the ISA-level oracle.

    Shares one flat memory, page table and kernel across N per-core
    architectural contexts (registers + pc + running flag) and mirrors the
    machine's thread model exactly: SPAWN starts the first idle worker core
    with the same carved-out stack slice, HALT (or an exiting SYS) on a
    worker parks that core, and any non-FINISHED terminal state on any core
    ends the program tagged with the core id.

    Two driving modes:

    * **externally scheduled** (``step_core``): the differential harness
      replays the machine's observed per-core commit order, making the
      comparison exact for *any* program — the commit points are the
      sequential-consistency serialization the SMP system enforces;
    * **self-scheduled** (``run``): a deterministic round-robin, one
      instruction per running core per round — the terminal result matches
      the machine's for race-free (properly join-synchronized) programs.
    """

    def __init__(
        self,
        program: Program,
        cfg: CoreConfig = DEFAULT_CONFIG,
        ncores: int = 2,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> None:
        super().__init__(program, cfg, max_instructions)
        self.ncores = ncores
        self.kernel.smp = self  # SPAWN/NCORES route back here
        self.contexts = [_CoreContext() for _ in range(ncores)]
        core0 = self.contexts[0]
        core0.regs = self.regs
        core0.pc = self.pc
        core0.running = True
        self._parked = False

    # -- thread model (mirrors SMPSystem) ------------------------------------

    def start_core(self, entry: int, arg: int) -> int:
        for k in range(1, self.ncores):
            ctx = self.contexts[k]
            if ctx.running:
                continue
            regs = [0] * NUM_ARCH_REGS
            regs[SP] = worker_sp(self.cfg.layout, k, self.ncores) & MASK32
            regs[0] = arg & MASK32
            ctx.regs = regs
            ctx.pc = entry & MASK32
            ctx.running = True
            return k
        return SPAWN_FAILED

    def _halt(self, pc: int) -> None:
        if self.core == 0:
            self._finish(RunStatus.FINISHED)
        else:
            self._parked = True

    def _finish(self, status, reason=None, pc=None, detail="") -> None:
        if self.core and status is not RunStatus.FINISHED:
            detail = f"core {self.core}: {detail}" if detail \
                else f"core {self.core}"
        super()._finish(status, reason, pc, detail)

    # -- scheduling ----------------------------------------------------------

    def step_core(self, k: int) -> CommitRecord | None:
        """Execute one instruction on core *k* (external scheduling mode).

        Returns its commit record, or ``None`` when the instruction
        terminated the program (``self.result`` set) or parked the worker.
        """
        ctx = self.contexts[k]
        if self.result is not None or not ctx.running:
            return None
        self.core = k
        self.regs = ctx.regs
        self.pc = ctx.pc
        self._parked = False
        record = self.step()
        ctx.regs = self.regs
        ctx.pc = self.pc
        if self._parked:
            ctx.running = False
        return record

    def run(self) -> RunResult:
        """Self-scheduled round-robin run to termination."""
        while self.result is None:
            progressed = False
            for k in range(self.ncores):
                if self.result is not None:
                    break
                if self.contexts[k].running:
                    self.step_core(k)
                    progressed = True
            if not progressed:
                raise VerificationError(
                    "smp oracle: every core parked but core 0 never "
                    "reached a terminal state"
                )
        return self.result
