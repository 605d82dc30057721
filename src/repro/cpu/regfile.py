"""Physical register file — an injectable value array.

Operand values are read from ``values`` at issue time and written at
writeback, so a bit flipped between a producer's writeback and the last
consumer's issue corrupts real dataflow — the paper's register-file AVF
mechanism.  Ready bits and the rename map are control state outside the
SRAM data array and are not injection targets (Table VIII counts 2,112
data bits).

Rows 0..phys_regs-1 are the renameable pool; the remaining rows are
miscellaneous registers (exception/syscall save state) — see
:class:`~repro.cpu.core.OutOfOrderCore`.
"""

from __future__ import annotations

from repro.restorable import Restorable

MASK32 = 0xFFFFFFFF


class PhysRegFile(Restorable):
    """Values + ready bits for the physical registers."""

    def __init__(self, phys_regs: int, misc_regs: int) -> None:
        self.phys_regs = phys_regs
        self.misc_regs = misc_regs
        total = phys_regs + misc_regs
        self.values = [0] * total
        self.ready = [True] * total

    # -- InjectableArray protocol -------------------------------------------

    @property
    def inject_name(self) -> str:
        return "regfile"

    @property
    def inject_rows(self) -> int:
        return self.phys_regs + self.misc_regs

    @property
    def inject_cols(self) -> int:
        return 32

    def flip_bit(self, row: int, col: int) -> None:
        self.values[row] ^= 1 << col

    def read_bit(self, row: int, col: int) -> int:
        return (self.values[row] >> col) & 1

    # -- misc register accessors ------------------------------------------------

    def read_misc(self, index: int) -> int:
        return self.values[self.phys_regs + index]

    def write_misc(self, index: int, value: int) -> None:
        self.values[self.phys_regs + index] = value & MASK32
