"""Page tables and the hardware page-table walker's view of them.

Page tables live in (non-injected) DRAM conceptually; the paper injects only
the six on-chip arrays, so we keep the tables as a Python mapping for speed
and document the substitution in DESIGN.md.  A TLB miss costs a fixed walk
latency and refills the TLB with the *correct* translation — which is why a
corrupted TLB entry heals itself once evicted, one of the masking paths the
paper's TLB campaigns exercise.
"""

from __future__ import annotations

from repro.restorable import Restorable

#: 64-byte pages — the platform is a scale model of the paper's machine
#: (see DESIGN.md §5): workload footprints are scaled down together with
#: cache/TLB/page capacities so that structure *occupancy ratios*, which AVF
#: depends on, match the full-size system.  Small pages make the scaled
#: workloads touch enough pages to keep the TLBs as hot as the paper's.
PAGE_SHIFT = 6
PAGE_SIZE = 1 << PAGE_SHIFT

#: Width of virtual/physical page numbers in a TLB entry (see
#: :mod:`repro.mem.tlb`); translations must fit these fields.
VPN_BITS = 13
PPN_BITS = 13


class PageTable(Restorable):
    """Virtual-to-physical mapping for one address space.

    Each entry maps a virtual page number to ``(ppn, writable, executable,
    kernel)``.
    """

    def __init__(self, walk_latency: int = 20) -> None:
        self._entries: dict[int, tuple[int, bool, bool, bool]] = {}
        self.walk_latency = walk_latency

    def map_page(
        self,
        vpn: int,
        ppn: int,
        writable: bool = False,
        executable: bool = False,
        kernel: bool = False,
    ) -> None:
        if not 0 <= vpn < (1 << VPN_BITS):
            raise ValueError(f"vpn out of range: {vpn}")
        if not 0 <= ppn < (1 << PPN_BITS):
            raise ValueError(f"ppn out of range: {ppn}")
        self._entries[vpn] = (ppn, writable, executable, kernel)

    def lookup(self, vpn: int) -> tuple[int, bool, bool, bool] | None:
        """Walk the table; None means an unmapped page (page fault)."""
        return self._entries.get(vpn)

    def mapped_vpns(self) -> list[int]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
