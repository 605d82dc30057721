"""Platform memory map.

Virtual layout (user process, 64-byte pages)::

    0x0001_0000  .text   (read + execute)
    0x0004_0000  .data   (read + write)
    stack        (read + write, grows down from 0x0008_0000)

Physical layout::

    0x0000_0000 .. KERNEL_RESERVED   kernel frames (panic on user store)
    KERNEL_RESERVED .. PHYS_SIZE     user frames, allocated by the loader

The physical memory is deliberately much smaller than the 13-bit frame
space a TLB entry can name (32 MiB), so corrupted translations frequently
point outside the map and raise the paper's *Assert* condition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.paging import PAGE_SIZE
from repro.mem.physmem import DEFAULT_PHYS_SIZE
from repro.restorable import Restorable


@dataclass(frozen=True)
class MemoryLayout(Restorable):
    """Address-space constants shared by the loader, kernel and compiler."""

    text_base: int = 0x0001_0000
    data_base: int = 0x0004_0000
    stack_top: int = 0x0008_0000
    stack_pages: int = 48
    phys_size: int = DEFAULT_PHYS_SIZE
    kernel_reserved: int = 32 * 1024

    @property
    def stack_base(self) -> int:
        return self.stack_top - self.stack_pages * PAGE_SIZE

    @property
    def initial_sp(self) -> int:
        # Leave a small red zone below the top; keep 8-byte alignment.
        return self.stack_top - 16

    @property
    def first_user_frame(self) -> int:
        return self.kernel_reserved // PAGE_SIZE

    @property
    def num_frames(self) -> int:
        return self.phys_size // PAGE_SIZE

    def validate(self) -> None:
        for name in ("text_base", "data_base", "stack_top", "kernel_reserved"):
            value = getattr(self, name)
            if value % PAGE_SIZE:
                raise ValueError(f"{name} must be page aligned: 0x{value:x}")
        if not self.text_base < self.data_base < self.stack_base:
            raise ValueError("sections overlap")


DEFAULT_LAYOUT = MemoryLayout()
