"""The out-of-order pipeline.

Stage order within one ``step()`` is commit → writeback → issue/execute →
rename/dispatch → fetch/decode, so information flows backwards through the
pipe with one-cycle latches between stages, like a real machine.

Fault-injection coupling (the whole point of this model):

* **fetch** reads instruction words from the live L1I line data and
  translations from the live packed ITLB words;
* **issue** reads operand values from the live physical register file;
* **execute** reads loads from the live L1D/L2 line data and translations
  from the live packed DTLB words;
* **commit** performs stores into the cache hierarchy (write-back dirty
  lines propagate corruption downwards) and services syscalls.

Architectural exceptions are precise: they are recorded on the micro-op and
acted on only when the op reaches the head of the reorder buffer, so
wrong-path faults never kill a run.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.isa.encoding import decode
from repro.isa.opcodes import Format, Op
from repro.isa.semantics import ALU_OPS, BRANCH_CONDS, ArithmeticFault
from repro.isa.registers import NUM_ARCH_REGS
from repro.kernel.status import CrashReason, RunResult, RunStatus
from repro.kernel.syscalls import Kernel
from repro.mem.cache import Cache
from repro.mem.tlb import ACCESS_EXEC, ACCESS_LOAD, ACCESS_STORE, FAULT_PAGE, TLB
from repro.cpu.config import CoreConfig
from repro.cpu.regfile import PhysRegFile
from repro.cpu.uop import DONE, ISSUED, WAITING, MicroOp
from repro.restorable import Restorable

MASK32 = 0xFFFFFFFF

#: Miscellaneous register roles (rows phys_regs+index of the register file).
MISC_SAVED_PC = 0
MISC_CAUSE = 1

_FAULT_TO_REASON = {
    "page_fault": CrashReason.PAGE_FAULT,
    "prot_fault": CrashReason.PROT_FAULT,
}


class CoreStats:
    """Aggregate pipeline event counters for one run."""

    __slots__ = (
        "fetched", "committed", "squashed", "mispredicts",
        "loads", "stores", "syscalls",
    )

    def __init__(self) -> None:
        self.fetched = 0
        self.committed = 0
        self.squashed = 0
        self.mispredicts = 0
        self.loads = 0
        self.stores = 0
        self.syscalls = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class OutOfOrderCore(Restorable):
    """Cycle-level out-of-order core bound to a memory hierarchy."""

    def __init__(
        self,
        cfg: CoreConfig,
        icache: Cache,
        dcache: Cache,
        itlb: TLB,
        dtlb: TLB,
        kernel: Kernel,
        prf: PhysRegFile | None = None,
    ) -> None:
        cfg.validate()
        self.cfg = cfg
        self.icache = icache
        self.dcache = dcache
        self.itlb = itlb
        self.dtlb = dtlb
        self.kernel = kernel
        self.prf = prf if prf is not None else PhysRegFile(
            cfg.phys_regs, cfg.misc_regs
        )

        # Rename state: arch regs 0..15 map onto phys 0..15 at reset.
        self.rename_map = list(range(NUM_ARCH_REGS))
        self.free_list: deque[int] = deque(
            range(NUM_ARCH_REGS, cfg.phys_regs)
        )

        self.rob: deque[MicroOp] = deque()
        self.iq: list[MicroOp] = []
        self.lq: list[MicroOp] = []
        self.sq: list[MicroOp] = []
        self.decode_q: deque[MicroOp] = deque()
        self._completions: list[tuple[int, int, MicroOp]] = []

        self.cycle = 0
        self.seq = 0
        self.fetch_pc = 0
        self.fetch_ready_cycle = 0
        self.fetch_stall: str | None = None
        self.last_commit_cycle = 0
        self.stats = CoreStats()

        #: Which SMP core this pipeline is (0 in the single-core System);
        #: forwarded to the kernel so COREID/SPAWN know the caller.
        self.core_id = 0
        #: Commit-time load revalidation (sequential consistency).  Enabled
        #: only by the SMP system: a load whose value changed between execute
        #: and commit (a remote store won the race) is squashed and replayed,
        #: so committed loads always observe the coherent memory image.
        self.sc_replay_check = False

        #: Set when the run reaches a terminal state.
        self.result: RunResult | None = None

        #: Optional verification taps (see :mod:`repro.verify`).  Both stay
        #: ``None`` outside verification runs so the pipeline fast paths pay
        #: one attribute check, nothing more.  ``commit_hook`` is called with
        #: each retired uop after its bookkeeping completes;
        #: ``invariant_checker.check_core(self)`` runs once per step after
        #: the commit stage.
        self.commit_hook = None
        self.invariant_checker = None

    # ------------------------------------------------------------------ setup

    def reset(self, entry_pc: int, initial_sp: int) -> None:
        """Point the core at a freshly loaded process."""
        from repro.isa.registers import SP

        self.fetch_pc = entry_pc
        self.prf.values[self.rename_map[SP]] = initial_sp & MASK32

    # ------------------------------------------------------------------- run

    def run(self, max_cycles: int, max_steps: int | None = None) -> RunResult:
        """Simulate until the program terminates or *max_cycles* elapse.

        *max_steps*, when given, bounds the number of ``step()`` calls: every
        legal step advances the cycle counter, so the cycle budget normally
        dominates — the step budget only trips when an infra bug leaves the
        clock stuck, which would otherwise loop forever.  Tripping raises
        :class:`~repro.errors.WatchdogTimeout` (an incident, not a modelled
        fault effect).
        """
        deadlock_window = self.cfg.deadlock_window
        steps = 0
        while self.result is None:
            self.step()
            steps += 1
            if max_steps is not None and steps > max_steps:
                from repro.errors import WatchdogTimeout

                raise WatchdogTimeout(
                    f"step watchdog: {steps} steps executed but the cycle "
                    f"counter is at {self.cycle} (budget {max_steps} steps / "
                    f"{max_cycles} cycles) — simulator livelock"
                )
            if self.result is not None:
                break
            if self.cycle >= max_cycles:
                status = (
                    RunStatus.TIMEOUT_DEADLOCK
                    if self.cycle - self.last_commit_cycle > deadlock_window
                    else RunStatus.TIMEOUT_LIVELOCK
                )
                self._finish(status)
                break
            if self.cycle - self.last_commit_cycle > deadlock_window:
                self._finish(RunStatus.TIMEOUT_DEADLOCK)
                break
        assert self.result is not None
        return self.result

    def step(self) -> None:
        """Advance the pipeline by one cycle.

        When no stage makes progress, the clock jumps directly to the next
        scheduled event (a pending completion or the fetch-resume cycle):
        with every stage quiescent, the intervening cycles are provably
        identical no-ops, so the jump is an exact fast-forward.
        """
        active = self._commit()
        if self.invariant_checker is not None and self.result is None:
            self.invariant_checker.check_core(self)
        if self.result is not None:
            return
        active |= self._writeback()
        active |= self._issue()
        active |= self._rename_dispatch()
        active |= self._fetch()
        if not active:
            self._skip_idle_cycles()
            return
        self.cycle += 1

    def _skip_idle_cycles(self) -> None:
        events = []
        if self._completions:
            events.append(self._completions[0][0])
        if self.fetch_stall is None and self.fetch_ready_cycle > self.cycle:
            events.append(self.fetch_ready_cycle)
        if events:
            self.cycle = max(self.cycle + 1, min(events))
        else:
            # Nothing in flight and fetch cannot resume: a hard deadlock.
            # Jump far enough for the commit watchdog to classify it.
            self.cycle += self.cfg.deadlock_window + 1

    def _finish(
        self,
        status: RunStatus,
        reason: CrashReason | None = None,
        pc: int | None = None,
        detail: str = "",
    ) -> None:
        self.result = RunResult(
            status=status,
            cycles=self.cycle,
            instructions=self.stats.committed,
            output=bytes(self.kernel.output),
            exit_code=self.kernel.exit_code or 0,
            crash_reason=reason,
            crash_pc=pc,
            detail=detail,
            stats=self.stats.as_dict(),
        )

    # ----------------------------------------------------------------- commit

    def _commit(self) -> bool:
        committed = False
        for _ in range(self.cfg.commit_width):
            if not self.rob:
                return committed
            uop = self.rob[0]
            if uop.state != DONE:
                return committed
            if uop.exception is not None:
                self._finish(
                    RunStatus.CRASH_PROCESS, uop.exception, uop.pc,
                    uop.exc_detail,
                )
                return True
            inst = uop.inst
            if (
                self.sc_replay_check
                and inst.is_load
                and not self._load_value_current(uop)
            ):
                # A remote store changed the location after this load
                # executed: squash the load and everything younger, refetch.
                self._squash_younger_than(uop.seq - 1)
                self._redirect(uop.pc)
                return True
            if inst.is_store:
                if not self._commit_store(uop):
                    return True
            elif inst.is_amo:
                if not self._commit_amo(uop):
                    return True
            elif inst.is_sys:
                if not self._commit_syscall(uop):
                    return True
            elif inst.is_halt:
                self._finish(RunStatus.FINISHED)
                return True
            if uop.dest >= 0:
                self.free_list.append(uop.old_dest)
            self.rob.popleft()
            if inst.is_load:
                self.lq.pop(0)
            self.stats.committed += 1
            self.last_commit_cycle = self.cycle
            if self.commit_hook is not None:
                self.commit_hook(uop)
            committed = True
        return committed

    def _commit_store(self, uop: MicroOp) -> bool:
        """Retire a store into the cache hierarchy; False ends the run."""
        paddr = uop.paddr
        assert paddr is not None and uop.store_data is not None
        if paddr < self.cfg.layout.kernel_reserved:
            self._finish(
                RunStatus.CRASH_KERNEL, CrashReason.KERNEL_PANIC, uop.pc,
                f"store to kernel frame at phys 0x{paddr:08x}",
            )
            return False
        payload = uop.store_data.to_bytes(uop.mem_size, "little")
        self.dcache.write(paddr, payload)
        self.sq.pop(0)
        self.stats.stores += 1
        return True

    def _load_value_current(self, uop: MicroOp) -> bool:
        """Does the memory image still hold the value this load observed?"""
        paddr = uop.paddr
        if paddr is None or uop.exception is not None:
            return True
        size = uop.mem_size
        coherence = self.dcache.coherence
        if coherence is not None:
            data = coherence.peek_range(self.dcache, paddr, size)
        else:
            data = self.dcache.peek_range(paddr, size)
        return int.from_bytes(data, "little") == uop.result

    def _commit_amo(self, uop: MicroOp) -> bool:
        """Retire an atomic read-modify-write; False ends the run.

        The whole RMW happens here at the head of the ROB: fetch stalled
        behind the AMO, every older store has already committed, and the
        coherent write makes the update visible to every other core before
        any younger instruction of any core can be affected by it.
        """
        paddr = uop.paddr
        assert paddr is not None and uop.store_data is not None
        if paddr < self.cfg.layout.kernel_reserved:
            self._finish(
                RunStatus.CRASH_KERNEL, CrashReason.KERNEL_PANIC, uop.pc,
                f"store to kernel frame at phys 0x{paddr:08x}",
            )
            return False
        old, _ = self.dcache.read_word(paddr)
        operand = uop.store_data
        if uop.inst.op is Op.AMOADD:
            new = (old + operand) & MASK32
        else:  # AMOSWAP
            new = operand & MASK32
        self.dcache.write(paddr, new.to_bytes(4, "little"))
        uop.result = old
        uop.store_data = new
        if uop.dest >= 0:
            self.prf.values[uop.dest] = old
            self.prf.ready[uop.dest] = True
        self.stats.loads += 1
        self.stats.stores += 1
        # Resume fetch past the serializing atomic.
        self.fetch_pc = (uop.pc + 4) & MASK32
        self.fetch_stall = None
        self.fetch_ready_cycle = self.cycle + self.cfg.mispredict_penalty
        return True

    def _commit_syscall(self, uop: MicroOp) -> bool:
        """Service a syscall at commit; False ends the run."""
        assert uop.sys_args is not None
        self.stats.syscalls += 1
        ret, exited, crash = self.kernel.do_syscall(
            uop.inst.imm, *uop.sys_args, core=self.core_id
        )
        if crash is not None:
            self._finish(RunStatus.CRASH_PROCESS, crash, uop.pc)
            return False
        if uop.dest >= 0:
            self.prf.values[uop.dest] = ret & MASK32
            self.prf.ready[uop.dest] = True
        if exited:
            self._finish(RunStatus.FINISHED)
            return False
        # Resume fetch after the serializing syscall.  The return address
        # comes from the misc save register written at issue, mirroring an
        # exception-return register: corrupting it diverts control.
        self.fetch_pc = (self.prf.read_misc(MISC_SAVED_PC) + 4) & MASK32
        self.fetch_stall = None
        self.fetch_ready_cycle = self.cycle + self.cfg.mispredict_penalty
        return True

    # -------------------------------------------------------------- writeback

    def _writeback(self) -> bool:
        done = 0
        heap = self._completions
        while heap and heap[0][0] <= self.cycle and done < self.cfg.writeback_width:
            _, _, uop = heapq.heappop(heap)
            if uop.squashed:
                continue
            if uop.dest >= 0 and uop.result is not None:
                self.prf.values[uop.dest] = uop.result
                self.prf.ready[uop.dest] = True
            uop.state = DONE
            done += 1
        return done > 0

    # ------------------------------------------------------------------ issue

    def _issue(self) -> bool:
        issued = 0
        width = self.cfg.issue_width
        ready_bits = self.prf.ready
        for uop in list(self.iq):
            if issued >= width:
                break
            # A branch issued earlier this same cycle may have squashed
            # younger entries of the snapshot we are iterating.
            if uop.squashed or uop.state != WAITING:
                continue
            if uop.exception is None:
                blocked = False
                for src in uop.srcs:
                    if not ready_bits[src]:
                        blocked = True
                        break
                if blocked:
                    continue
            latency = self._execute(uop)
            if latency is None:
                continue  # load blocked by memory disambiguation
            self.iq.remove(uop)
            uop.state = ISSUED
            heapq.heappush(
                self._completions, (self.cycle + latency, uop.seq, uop)
            )
            issued += 1
        return issued > 0

    def _forward_from_sq(self, uop: MicroOp, paddr: int) -> tuple[bool, int | None]:
        """Check older stores for forwarding.

        Returns (blocked, value): ``blocked`` means a partial overlap forces
        the load to wait; ``value`` is the forwarded data on an exact match.
        """
        value = None
        size = uop.mem_size
        for store in self.sq:
            if store.seq >= uop.seq:
                break
            if store.paddr is None:
                return True, None
            if store.exception is not None:
                continue
            if store.paddr == paddr and store.mem_size == size:
                value = store.store_data  # youngest older store wins
            elif store.paddr < paddr + size and paddr < store.paddr + store.mem_size:
                return True, None
        return False, value

    # ---------------------------------------------------------------- execute

    def _execute(self, uop: MicroOp) -> int | None:
        """Functionally execute *uop*; returns its completion latency.

        Returns None when a load cannot issue yet (conservative memory
        disambiguation against older stores); the uop stays in the queue.
        """
        if uop.exception is not None:
            return 1
        inst = uop.inst
        op = inst.op
        values = self.prf.values
        vals = [values[src] & MASK32 for src in uop.srcs]

        if op in ALU_OPS:
            imm_form = inst.fmt is Format.I
            a = vals[0]
            b = (inst.imm & MASK32) if imm_form else vals[1]
            try:
                uop.result = ALU_OPS[op](a, b)
            except ArithmeticFault as exc:
                uop.exception = CrashReason.DIV_ZERO
                uop.exc_detail = str(exc)
            return inst.latency
        if op is Op.MOVI:
            uop.result = inst.imm & MASK32
            return 1
        if op is Op.LUI:
            uop.result = (inst.imm & 0xFFFF) << 16
            return 1
        if inst.is_load:
            return self._execute_load(uop, vals)
        if inst.is_store:
            return self._execute_store(uop, vals)
        if inst.is_amo:
            return self._execute_amo(uop, vals)
        if inst.is_cond_branch:
            b = vals[1] if len(vals) > 1 else 0  # BEQZ/BNEZ have one source
            taken = BRANCH_CONDS[op](vals[0], b)
            target = (
                (uop.pc + 4 * inst.imm) if taken else (uop.pc + 4)
            ) & MASK32
            uop.actual_target = target
            if target != uop.pred_target:
                self._mispredict(uop, target)
            return 1
        if op is Op.B:
            return 1
        if op is Op.BL:
            uop.result = (uop.pc + 4) & MASK32
            return 1
        if op in (Op.JR, Op.JALR):
            target = vals[0]
            if target & 3:
                uop.exception = CrashReason.MISALIGNED
                uop.exc_detail = f"jump target 0x{target:08x}"
                return 1
            uop.actual_target = target
            if op is Op.JALR:
                uop.result = (uop.pc + 4) & MASK32
            self._redirect(target)
            return 1
        if inst.is_sys:
            uop.sys_args = (vals[0], vals[1], vals[2])
            self.prf.write_misc(MISC_SAVED_PC, uop.pc)
            return 1
        # NOP / HALT
        return 1

    def _execute_load(self, uop: MicroOp, vals: list[int]) -> int | None:
        vaddr = (vals[0] + uop.inst.imm) & MASK32
        size = uop.mem_size
        if size == 4 and vaddr & 3:
            uop.exception = CrashReason.MISALIGNED
            uop.exc_detail = f"load at 0x{vaddr:08x}"
            return 1
        paddr, lat, fault = self.dtlb.translate(vaddr, ACCESS_LOAD)
        if fault is not None:
            uop.exception = _FAULT_TO_REASON[fault]
            uop.exc_detail = f"load at 0x{vaddr:08x}"
            return lat
        blocked, forwarded = self._forward_from_sq(uop, paddr)
        if blocked:
            # Stay WAITING in the queue; the blocking store will commit (or
            # be squashed) and a later issue attempt will succeed.
            return None
        uop.paddr = paddr
        if forwarded is not None:
            uop.result = forwarded & MASK32
            self.stats.loads += 1
            return 1
        if size == 4:
            uop.result, access_lat = self.dcache.read_word(paddr)
        else:
            data, access_lat = self.dcache.read(paddr, 1)
            uop.result = data[0]
        self.stats.loads += 1
        return lat - self.dtlb.hit_latency + access_lat

    def _execute_store(self, uop: MicroOp, vals: list[int]) -> int:
        vaddr = (vals[1] + uop.inst.imm) & MASK32
        size = uop.mem_size
        if size == 4 and vaddr & 3:
            uop.exception = CrashReason.MISALIGNED
            uop.exc_detail = f"store at 0x{vaddr:08x}"
            return 1
        paddr, lat, fault = self.dtlb.translate(vaddr, ACCESS_STORE)
        if fault is not None:
            uop.exception = _FAULT_TO_REASON[fault]
            uop.exc_detail = f"store at 0x{vaddr:08x}"
            return lat
        uop.paddr = paddr
        mask = MASK32 if size == 4 else 0xFF
        uop.store_data = vals[0] & mask
        return lat

    def _execute_amo(self, uop: MicroOp, vals: list[int]) -> int:
        """Translate an AMO's address; the RMW itself happens at commit."""
        vaddr = vals[0]
        if vaddr & 3:
            uop.exception = CrashReason.MISALIGNED
            uop.exc_detail = f"amo at 0x{vaddr:08x}"
            return 1
        paddr, lat, fault = self.dtlb.translate(vaddr, ACCESS_STORE)
        if fault is not None:
            uop.exception = _FAULT_TO_REASON[fault]
            uop.exc_detail = f"amo at 0x{vaddr:08x}"
            return lat
        uop.paddr = paddr
        # Stash the operand; _commit_amo replaces it with the stored value.
        uop.store_data = vals[1]
        return lat

    # ------------------------------------------------------ control flow fixes

    def _mispredict(self, branch: MicroOp, target: int) -> None:
        self.stats.mispredicts += 1
        self._squash_younger_than(branch.seq)
        self._redirect(target)

    def _redirect(self, target: int) -> None:
        self.fetch_pc = target & MASK32
        self.fetch_stall = None
        self.fetch_ready_cycle = self.cycle + self.cfg.mispredict_penalty

    def _squash_younger_than(self, seq: int) -> None:
        rob = self.rob
        while rob and rob[-1].seq > seq:
            uop = rob.pop()
            uop.squashed = True
            self.stats.squashed += 1
            if uop.dest >= 0:
                self.rename_map[uop.arch_dest] = uop.old_dest
                self.free_list.appendleft(uop.dest)
        for uop in self.decode_q:
            uop.squashed = True
            self.stats.squashed += 1
        self.decode_q.clear()
        self.iq = [u for u in self.iq if not u.squashed]
        self.lq = [u for u in self.lq if not u.squashed]
        self.sq = [u for u in self.sq if not u.squashed]

    # ------------------------------------------------------------------ rename

    def _rename_dispatch(self) -> bool:
        cfg = self.cfg
        dispatched = False
        for _ in range(cfg.rename_width):
            if not self.decode_q:
                return dispatched
            if len(self.rob) >= cfg.rob_entries or len(self.iq) >= cfg.iq_entries:
                return dispatched
            uop = self.decode_q[0]
            inst = uop.inst
            if inst.is_load and len(self.lq) >= cfg.lq_entries:
                return dispatched
            if inst.is_store and len(self.sq) >= cfg.sq_entries:
                return dispatched
            if inst.writes is not None and not self.free_list:
                return dispatched
            uop.srcs = tuple(self.rename_map[a] for a in inst.reads)
            if inst.writes is not None:
                phys = self.free_list.popleft()
                uop.arch_dest = inst.writes
                uop.old_dest = self.rename_map[inst.writes]
                uop.dest = phys
                self.rename_map[inst.writes] = phys
                self.prf.ready[phys] = False
            self.decode_q.popleft()
            self.rob.append(uop)
            self.iq.append(uop)
            if inst.is_load:
                self.lq.append(uop)
            elif inst.is_store:
                self.sq.append(uop)
            dispatched = True
        return dispatched

    # ------------------------------------------------------------------- fetch

    def _fetch(self) -> bool:
        if self.fetch_stall is not None or self.cycle < self.fetch_ready_cycle:
            return False
        cfg = self.cfg
        fetched = False
        for _ in range(cfg.fetch_width):
            if len(self.decode_q) >= cfg.decode_buffer:
                return fetched
            pc = self.fetch_pc
            if pc & 3:
                self._push_fetch_fault(pc, CrashReason.MISALIGNED)
                return True
            paddr, lat, fault = self.itlb.translate(pc, ACCESS_EXEC)
            if fault is not None:
                reason = _FAULT_TO_REASON[fault]
                self._push_fetch_fault(pc, reason)
                return True
            if lat > self.itlb.hit_latency:
                # TLB walk: the entry is resident now; retry after the walk.
                self.fetch_ready_cycle = self.cycle + lat
                return True
            raw, access_lat = self.icache.read_word(paddr)
            if access_lat > self.icache.hit_latency:
                self.fetch_ready_cycle = self.cycle + access_lat
                return True
            inst = decode(raw)
            uop = MicroOp(self.seq, pc, inst)
            self.seq += 1
            self.stats.fetched += 1
            fetched = True
            if inst.illegal:
                uop.exception = CrashReason.ILLEGAL_INSTRUCTION
                uop.exc_detail = f"word 0x{raw:08x}"
                self.decode_q.append(uop)
                self.fetch_stall = "fault"
                return True
            self.decode_q.append(uop)
            if inst.is_cond_branch:
                taken_pred = inst.imm < 0  # backward-taken static predictor
                uop.pred_target = (
                    (pc + 4 * inst.imm) if taken_pred else (pc + 4)
                ) & MASK32
                self.fetch_pc = uop.pred_target
            elif inst.is_direct_jump:
                uop.pred_target = (pc + 4 * inst.imm) & MASK32
                self.fetch_pc = uop.pred_target
            elif inst.is_indirect_jump:
                self.fetch_stall = "indirect"
                return True
            elif inst.is_sys:
                self.fetch_stall = "sys"
                return True
            elif inst.is_amo:
                # Atomics serialize the pipeline: the RMW at commit resumes
                # fetch at pc+4, so no younger op is in flight around it.
                self.fetch_stall = "amo"
                return True
            elif inst.is_halt:
                self.fetch_stall = "halt"
                return True
            else:
                self.fetch_pc = (pc + 4) & MASK32
        return fetched

    def _push_fetch_fault(self, pc: int, reason: CrashReason) -> None:
        uop = MicroOp(self.seq, pc, decode(0))
        self.seq += 1
        uop.exception = reason
        uop.exc_detail = f"instruction fetch at 0x{pc:08x}"
        self.decode_q.append(uop)
        self.fetch_stall = "fault"
