"""Program loader: builds an address space and places the program image.

The loader plays the role of the OS exec path: it allocates physical frames,
fills in the page table (text pages executable and read-only, data and stack
pages writable), and copies the section bytes into physical memory.  Caches
start cold, exactly like the paper's post-boot checkpoint runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.isa.program import Program
from repro.kernel.layout import MemoryLayout
from repro.mem.paging import PAGE_SHIFT, PAGE_SIZE, PageTable
from repro.mem.physmem import PhysicalMemory
from repro.restorable import Restorable


@dataclass(frozen=True)
class LoadedProcess(Restorable):
    """Result of loading a program: where execution starts."""

    entry_pc: int
    initial_sp: int
    text_pages: int
    data_pages: int
    stack_pages: int


class _FrameAllocator:
    """Hands out user physical frames sequentially."""

    def __init__(self, layout: MemoryLayout) -> None:
        self._next = layout.first_user_frame
        self._limit = layout.num_frames

    def alloc(self) -> int:
        if self._next >= self._limit:
            raise ConfigError("out of physical frames while loading program")
        frame = self._next
        self._next += 1
        return frame


def _map_and_copy(
    mem: PhysicalMemory,
    table: PageTable,
    alloc: _FrameAllocator,
    vbase: int,
    payload: bytes,
    writable: bool,
    executable: bool,
) -> int:
    """Map enough pages at *vbase* for *payload* and copy it in.

    Returns the number of pages mapped.
    """
    num_pages = max(1, (len(payload) + PAGE_SIZE - 1) // PAGE_SIZE)
    for page in range(num_pages):
        frame = alloc.alloc()
        table.map_page(
            (vbase >> PAGE_SHIFT) + page, frame,
            writable=writable, executable=executable,
        )
        chunk = payload[page * PAGE_SIZE:(page + 1) * PAGE_SIZE]
        if chunk:
            mem.write(frame * PAGE_SIZE, bytes(chunk))
    return num_pages


def load_program(
    program: Program,
    mem: PhysicalMemory,
    table: PageTable,
    layout: MemoryLayout,
) -> LoadedProcess:
    """Load *program* into *mem*/*table* per *layout*; returns entry state."""
    layout.validate()
    if program.text_base != layout.text_base:
        raise ConfigError(
            f"program text base 0x{program.text_base:x} does not match "
            f"layout 0x{layout.text_base:x}"
        )
    if program.data_base != layout.data_base:
        raise ConfigError(
            f"program data base 0x{program.data_base:x} does not match "
            f"layout 0x{layout.data_base:x}"
        )
    if not program.text:
        raise ConfigError("program has an empty .text section")

    alloc = _FrameAllocator(layout)
    text_pages = _map_and_copy(
        mem, table, alloc, layout.text_base, program.text,
        writable=False, executable=True,
    )
    data_pages = _map_and_copy(
        mem, table, alloc, layout.data_base, program.data,
        writable=True, executable=False,
    )
    stack_pages = 0
    for page in range(layout.stack_pages):
        frame = alloc.alloc()
        table.map_page(
            (layout.stack_base >> PAGE_SHIFT) + page, frame,
            writable=True, executable=False,
        )
        stack_pages += 1

    return LoadedProcess(
        entry_pc=program.entry,
        initial_sp=layout.initial_sp,
        text_pages=text_pages,
        data_pages=data_pages,
        stack_pages=stack_pages,
    )
