"""Flat physical memory (DRAM) with a hard platform memory map.

Accesses outside the platform's physical range raise
:class:`~repro.errors.SimAssertion`: this is the paper's *Assert* class —
"a physical address request that is not part of the system map" — which its
DTLB campaigns report as the dominant simulator-failure mechanism.

DRAM itself is not a fault-injection target in the paper (the six injected
components cover the on-chip arrays), so plain ``bytearray`` storage is used
without an injection geometry.
"""

from __future__ import annotations

from repro.errors import SimAssertion
from repro.restorable import Restorable

#: Default platform physical memory: 256 KiB (4096 frames of 64 B).  The
#: 13-bit TLB frame numbers can name 2x more frames than the platform maps,
#: so corrupted translations regularly point outside the memory map,
#: reproducing the paper's TLB Assert behaviour.
DEFAULT_PHYS_SIZE = 256 * 1024


class PhysicalMemory(Restorable):
    """Byte-addressable physical memory with range-checked access."""

    def __init__(self, size: int = DEFAULT_PHYS_SIZE, latency: int = 50) -> None:
        if size <= 0 or size % 4096:
            raise ValueError(f"physical memory size must be page-aligned: {size}")
        self.size = size
        self.data = bytearray(size)
        self.latency = latency

    def check_range(self, paddr: int, length: int = 1) -> None:
        """Raise :class:`SimAssertion` unless [paddr, paddr+length) is mapped."""
        if paddr < 0 or paddr + length > self.size:
            raise SimAssertion(
                f"physical access 0x{paddr:08x}+{length} outside the "
                f"{self.size // 1024} KiB platform memory map"
            )

    def read(self, paddr: int, length: int) -> bytes:
        self.check_range(paddr, length)
        return bytes(self.data[paddr:paddr + length])

    def write(self, paddr: int, payload: bytes) -> None:
        self.check_range(paddr, len(payload))
        self.data[paddr:paddr + len(payload)] = payload

    # Line-granular interface used by the lowest cache level.

    def fetch_line(self, line_addr: int, line_size: int) -> tuple[bytearray, int]:
        """Return (line bytes, access latency in cycles)."""
        self.check_range(line_addr, line_size)
        return bytearray(self.data[line_addr:line_addr + line_size]), self.latency

    def writeback_line(self, line_addr: int, payload: bytes) -> int:
        """Write a full line back to DRAM; returns the latency in cycles."""
        self.check_range(line_addr, len(payload))
        self.data[line_addr:line_addr + len(payload)] = payload
        return self.latency
