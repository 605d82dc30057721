"""Syscall layer and program output capture.

Workloads communicate results exclusively through syscalls; the kernel
collects the emitted bytes in an output buffer that the fault-effect
classifier later compares byte-for-byte against the golden run (the paper's
SDC definition: "the final output of the program that is written to an
output file is corrupted").

Output is rendered as text (hex / decimal / raw characters), so a single
corrupted value reliably changes the byte stream.

The SMP extension adds a minimal thread story: ``SPAWN`` starts a worker on
an idle core (returning its core id as the thread id), and ``COREID`` /
``NCORES`` let a worker find its slice of the work.  On the single-core
:class:`~repro.cpu.system.System` there is no SMP attached, so ``SPAWN``
deterministically fails with ``SPAWN_FAILED`` — programs must be written to
fall back to doing the work inline (which is exactly what makes a parallel
workload's output identical at every core count).
"""

from __future__ import annotations

import enum

from repro.isa.semantics import to_signed
from repro.kernel.layout import MemoryLayout
from repro.kernel.status import CrashReason
from repro.restorable import Restorable


class Syscall(enum.IntEnum):
    """Architected syscall numbers (the SYS immediate field)."""

    EXIT = 0
    PUTW = 1   # write r0 as 8 hex digits + newline
    PUTC = 2   # write low byte of r0 verbatim
    PUTD = 3   # write r0 as signed decimal + newline
    SPAWN = 4  # start r0 (entry pc) with argument r1 on an idle core
    COREID = 5   # id of the core executing the syscall
    NCORES = 6   # number of cores in the machine

#: SPAWN's failure return value (no idle core, or no SMP at all).
SPAWN_FAILED = 0xFFFFFFFF


def worker_sp(layout: MemoryLayout, core_id: int, ncores: int) -> int:
    """Initial stack pointer for a spawned worker on *core_id*.

    The single mapped stack region is carved into *ncores* equal slices,
    core 0 keeping the top one, so no new pages need mapping and the layout
    (hence the golden memory image) is a pure function of the core count.
    """
    region = layout.stack_top - layout.stack_base
    slice_size = (region // ncores) & ~0x7  # keep 8-byte alignment
    return layout.stack_top - 16 - core_id * slice_size


#: How many argument registers (``r0``, ``r1``, ``r2``, in that order) each
#: syscall reads in :meth:`Kernel.do_syscall`.  The decoder makes every SYS
#: read all three, so renaming and issue timing never depend on this; it
#: tells liveness pruning which of those reads consume a value.
SYSCALL_ARG_COUNTS = {
    Syscall.EXIT: 1,
    Syscall.PUTW: 1,
    Syscall.PUTC: 1,
    Syscall.PUTD: 1,
    Syscall.SPAWN: 2,
    Syscall.COREID: 0,
    Syscall.NCORES: 0,
}


def syscall_arg_count(number: int) -> int:
    """Argument registers syscall *number* reads (all three if unknown)."""
    return SYSCALL_ARG_COUNTS.get(number, 3)


class Kernel(Restorable):
    """Holds per-process OS state: the output stream and exit status."""

    def __init__(self, output_limit: int = 1 << 20) -> None:
        self.output = bytearray()
        self.output_limit = output_limit
        self.exit_code: int | None = None
        self.syscall_count = 0
        #: Back-reference to the SMP machine (set by SMPSystem); ``None``
        #: on the single-core System, where SPAWN deterministically fails.
        self.smp = None

    def do_syscall(
        self, number: int, r0: int, r1: int, r2: int, core: int = 0
    ) -> tuple[int, bool, CrashReason | None]:
        """Service a syscall issued by *core*.

        Returns ``(return_value, program_exited, crash_reason)``.  An
        unknown syscall number — typically the product of a corrupted
        instruction word — is a process crash, like an unimplemented
        syscall aborting a real process.
        """
        self.syscall_count += 1
        if number == Syscall.EXIT:
            self.exit_code = r0 & 0xFF
            return 0, True, None
        if number == Syscall.PUTW:
            self._emit(f"{r0:08x}\n".encode("ascii"))
            return 0, False, None
        if number == Syscall.PUTC:
            self._emit(bytes([r0 & 0xFF]))
            return 0, False, None
        if number == Syscall.PUTD:
            self._emit(f"{to_signed(r0)}\n".encode("ascii"))
            return 0, False, None
        if number == Syscall.SPAWN:
            if self.smp is None:
                return SPAWN_FAILED, False, None
            return self.smp.start_core(r0, r1), False, None
        if number == Syscall.COREID:
            return core, False, None
        if number == Syscall.NCORES:
            if self.smp is None:
                return 1, False, None
            return self.smp.ncores, False, None
        return 0, False, CrashReason.BAD_SYSCALL

    def _emit(self, payload: bytes) -> None:
        # A fault can redirect control into an output loop; the cap keeps a
        # livelocked run from accumulating unbounded output before the cycle
        # watchdog fires.
        if len(self.output) < self.output_limit:
            self.output += payload
