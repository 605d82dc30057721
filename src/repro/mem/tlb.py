"""Fully-associative translation lookaside buffers with injectable entries.

Entry format (32 bits per entry; 32 entries × 32 bits = 1,024 bits, matching
Table VIII of the paper)::

    [31]    valid
    [30:18] vpn  (13 bits)
    [17:5]  ppn  (13 bits)
    [4]     writable
    [3]     executable
    [2]     kernel-only
    [1:0]   spare

The packed words are the injection target.  Consequences of a flip mirror
the paper's observed TLB failure modes:

* a flipped ``ppn`` bit silently redirects accesses to a different physical
  frame (wrong data / wrong code), and — because the platform maps only a
  fraction of the 13-bit frame space — often to a physical address outside
  the memory map, which raises :class:`~repro.errors.SimAssertion`
  (the paper's *Assert* class);
* a flipped ``vpn`` or ``valid`` bit makes the entry stop matching (a miss
  refills the correct translation → masked) or match the wrong page;
* flipped permission bits turn legal accesses into protection faults
  (→ Crash) ;
* flips in the spare bits are architecturally masked.
"""

from __future__ import annotations

from repro.mem.paging import PAGE_SHIFT, PAGE_SIZE, VPN_BITS, PageTable
from repro.restorable import Restorable

VALID_BIT = 1 << 31
VPN_SHIFT = 18
PPN_SHIFT = 5
FIELD_MASK_13 = 0x1FFF
W_BIT = 1 << 4
X_BIT = 1 << 3
K_BIT = 1 << 2

#: Architectural access kinds used for permission checks.
ACCESS_LOAD = 0
ACCESS_STORE = 1
ACCESS_EXEC = 2

#: translate() fault codes (None = success).
FAULT_PAGE = "page_fault"
FAULT_PROT = "prot_fault"


class TLBEntryFields:
    """Decoded view of one packed TLB entry (testing/debug helper)."""

    __slots__ = ("valid", "vpn", "ppn", "writable", "executable", "kernel")

    def __init__(self, packed: int) -> None:
        self.valid = bool(packed & VALID_BIT)
        self.vpn = (packed >> VPN_SHIFT) & FIELD_MASK_13
        self.ppn = (packed >> PPN_SHIFT) & FIELD_MASK_13
        self.writable = bool(packed & W_BIT)
        self.executable = bool(packed & X_BIT)
        self.kernel = bool(packed & K_BIT)

    @staticmethod
    def pack(
        vpn: int,
        ppn: int,
        writable: bool,
        executable: bool,
        kernel: bool,
        valid: bool = True,
    ) -> int:
        word = (vpn & FIELD_MASK_13) << VPN_SHIFT
        word |= (ppn & FIELD_MASK_13) << PPN_SHIFT
        if writable:
            word |= W_BIT
        if executable:
            word |= X_BIT
        if kernel:
            word |= K_BIT
        if valid:
            word |= VALID_BIT
        return word


class TLB(Restorable):
    """One translation lookaside buffer backed by a hardware walker."""

    def __init__(
        self,
        name: str,
        page_table: PageTable,
        entries: int = 32,
        hit_latency: int = 1,
    ) -> None:
        self.name = name
        self.page_table = page_table
        self.num_entries = entries
        self.hit_latency = hit_latency
        self.packed = [0] * entries
        self._last_use = [0] * entries
        self._clock = 0
        self._index: dict[int, int] = {}
        self._index_stale = True
        # Last-translation latch: (vpn, access, entry index, packed word,
        # paddr page base).  Valid only while the index is fresh and the
        # latched entry's packed word is unchanged, so bit flips and refills
        # always fall back to the full lookup — exact fast path.
        self._latch: tuple[int, int, int, int, int] | None = None
        self.hits = 0
        self.misses = 0

    # -- InjectableArray protocol -------------------------------------------

    @property
    def inject_name(self) -> str:
        return self.name

    @property
    def inject_rows(self) -> int:
        return self.num_entries

    @property
    def inject_cols(self) -> int:
        return 32

    def flip_bit(self, row: int, col: int) -> None:
        self.packed[row] ^= 1 << col
        self._index_stale = True
        self._latch = None

    def read_bit(self, row: int, col: int) -> int:
        return (self.packed[row] >> col) & 1

    # -- lookup ----------------------------------------------------------------

    def _rebuild_index(self) -> None:
        self._index = {}
        for idx, word in enumerate(self.packed):
            if word & VALID_BIT:
                # First (lowest-index) match wins, like a priority CAM.
                self._index.setdefault((word >> VPN_SHIFT) & FIELD_MASK_13, idx)
        self._index_stale = False

    def translate(self, vaddr: int, access: int) -> tuple[int, int, str | None]:
        """Translate *vaddr*; returns (paddr, latency, fault_code).

        ``fault_code`` is None on success, otherwise :data:`FAULT_PAGE` or
        :data:`FAULT_PROT`; on fault ``paddr`` is meaningless.
        """
        vpn = vaddr >> PAGE_SHIFT
        latch = self._latch
        if (
            latch is not None
            and latch[0] == vpn
            and latch[1] == access
            and not self._index_stale
            and self.packed[latch[2]] == latch[3]
        ):
            idx = latch[2]
            self._clock += 1
            self._last_use[idx] = self._clock
            self.hits += 1
            return (
                latch[4] | (vaddr & (PAGE_SIZE - 1)),
                self.hit_latency,
                None,
            )
        if vpn >= (1 << VPN_BITS):
            return 0, self.hit_latency, FAULT_PAGE
        if self._index_stale:
            self._rebuild_index()
        idx = self._index.get(vpn)
        if idx is not None:
            word = self.packed[idx]
            self._clock += 1
            self._last_use[idx] = self._clock
            self.hits += 1
            result = self._check(word, vaddr, access, self.hit_latency)
            if result[2] is None:
                self._latch = (
                    vpn, access, idx, word,
                    result[0] & ~(PAGE_SIZE - 1),
                )
            return result
        return self._refill(vpn, vaddr, access)

    def _refill(self, vpn: int, vaddr: int, access: int) -> tuple[int, int, str | None]:
        self.misses += 1
        latency = self.hit_latency + self.page_table.walk_latency
        entry = self.page_table.lookup(vpn)
        if entry is None:
            return 0, latency, FAULT_PAGE
        ppn, writable, executable, kernel = entry
        word = TLBEntryFields.pack(vpn, ppn, writable, executable, kernel)
        victim = min(range(self.num_entries), key=self._last_use.__getitem__)
        self.packed[victim] = word
        self._clock += 1
        self._last_use[victim] = self._clock
        self._index_stale = True
        return self._check(word, vaddr, access, latency)

    @staticmethod
    def _check(
        word: int, vaddr: int, access: int, latency: int
    ) -> tuple[int, int, str | None]:
        if word & K_BIT:
            return 0, latency, FAULT_PROT
        if access == ACCESS_STORE and not word & W_BIT:
            return 0, latency, FAULT_PROT
        if access == ACCESS_EXEC and not word & X_BIT:
            return 0, latency, FAULT_PROT
        ppn = (word >> PPN_SHIFT) & FIELD_MASK_13
        return (ppn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1)), latency, None

    # -- statistics --------------------------------------------------------------

    def stats_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    def publish_stats(self, metrics, prefix: str) -> None:
        """Accumulate hit/miss counters into an ``obs`` metrics registry
        (called once per finished run when telemetry is enabled — the
        translate fast path itself carries no instrumentation)."""
        # Zero counts are skipped for parity with worker metric deltas,
        # which only carry changed counters (see CacheStats.publish).
        if self.hits:
            metrics.counter(prefix + ".hits").inc(self.hits)
        if self.misses:
            metrics.counter(prefix + ".misses").inc(self.misses)

    # -- maintenance -------------------------------------------------------------

    def flush(self) -> None:
        self.packed = [0] * self.num_entries
        self._last_use = [0] * self.num_entries
        self._index_stale = True
        self._latch = None

    def valid_entries(self) -> list[TLBEntryFields]:
        return [
            TLBEntryFields(word) for word in self.packed if word & VALID_BIT
        ]

    def audit_entries(self):
        """Yield ``(entry index, decoded fields)`` per valid entry.

        Non-mutating (no LRU touch, no latch update): the verification
        subsystem uses this to cross-check cached translations against the
        page tables without perturbing replacement state.
        """
        for idx, word in enumerate(self.packed):
            if word & VALID_BIT:
                yield idx, TLBEntryFields(word)
