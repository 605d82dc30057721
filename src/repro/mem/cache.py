"""Set-associative write-back, write-allocate caches with injectable data arrays.

The data array is the fault-injection target (matching Table VIII of the
paper, which counts data bits only: 32 KB × 8 = 262,144 for each L1).  Its
injection geometry is ``rows = sets × ways`` physical lines (row index =
``set * ways + way``) by ``cols = line_size × 8`` bit columns, so a 3×3
fault cluster can straddle *adjacent cache lines* — the physical-adjacency
mechanism that makes multi-bit AVF grow sublinearly with cardinality.

Functional behaviour:

* lookup by (set, tag), true LRU replacement per set;
* write-back: stores mark lines dirty, dirty victims propagate one level
  down on eviction (so a corrupted dirty line infects L2/DRAM while a
  corrupted clean line is silently discarded — a real masking mechanism);
* miss fill from the next level (another :class:`Cache` or
  :class:`~repro.mem.physmem.PhysicalMemory`).

Latency is returned to the caller (the core model) rather than simulated
with events, which keeps the access path a plain function call.
"""

from __future__ import annotations

from typing import Union

from repro.mem.physmem import PhysicalMemory
from repro.restorable import Restorable

NextLevel = Union["Cache", PhysicalMemory]


class CacheStats:
    """Hit/miss/writeback counters for one cache."""

    __slots__ = ("hits", "misses", "writebacks")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
        }

    def publish(self, metrics, prefix: str) -> None:
        """Accumulate these counters into an ``obs`` metrics registry.

        The no-op default lives at the call site (``System.publish_metrics``
        is only invoked when telemetry is enabled), so the simulator's
        access paths stay free of instrumentation: counters are harvested
        once per finished run, never per access.
        """
        # Zero counts are skipped, not recorded as 0: worker deltas only
        # carry changed counters, so recording zeros here would make the
        # serial registry's key set differ from the merged parallel one.
        if self.hits:
            metrics.counter(prefix + ".hits").inc(self.hits)
        if self.misses:
            metrics.counter(prefix + ".misses").inc(self.misses)
        if self.writebacks:
            metrics.counter(prefix + ".writebacks").inc(self.writebacks)


class Cache(Restorable):
    """One level of a set-associative write-back cache."""

    def __init__(
        self,
        name: str,
        size: int,
        assoc: int,
        line_size: int,
        hit_latency: int,
        next_level: NextLevel,
    ) -> None:
        if size % (assoc * line_size):
            raise ValueError(
                f"{name}: size {size} not divisible by assoc*line_size"
            )
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.hit_latency = hit_latency
        self.next_level = next_level
        self.num_sets = size // (assoc * line_size)
        self.num_lines = self.num_sets * assoc
        if line_size & (line_size - 1):
            raise ValueError(f"{name}: line size must be a power of two")
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: number of sets must be a power of two")
        self._offset_mask = line_size - 1
        self._set_mask = self.num_sets - 1
        self._set_shift = line_size.bit_length() - 1
        self._tag_shift = self.num_sets.bit_length() - 1

        lines = self.num_lines
        # Flat way-major-within-set arrays indexed by set*assoc + way.
        self._tags = [0] * lines
        self._valid = [False] * lines
        self._dirty = [False] * lines
        self._data = [bytearray(line_size) for _ in range(lines)]
        # LRU: per-set list of way indices, most recent last.
        self._lru = [list(range(assoc)) for _ in range(self.num_sets)]
        self.stats = CacheStats()
        # Coherence bus hook (set by CoherenceBus.attach for per-core L1Ds
        # sharing one L2).  ``None`` keeps single-cache behaviour untouched.
        self.coherence = None

    # -- InjectableArray protocol -------------------------------------------

    @property
    def inject_name(self) -> str:
        return self.name

    @property
    def inject_rows(self) -> int:
        return self.num_lines

    @property
    def inject_cols(self) -> int:
        return self.line_size * 8

    def flip_bit(self, row: int, col: int) -> None:
        self._data[row][col >> 3] ^= 1 << (col & 7)

    def read_bit(self, row: int, col: int) -> int:
        return (self._data[row][col >> 3] >> (col & 7)) & 1

    # -- internals -----------------------------------------------------------

    def _lookup(self, set_idx: int, tag: int) -> int:
        """Return the line index of a hit, or -1."""
        base = set_idx * self.assoc
        for way in range(self.assoc):
            idx = base + way
            if self._valid[idx] and self._tags[idx] == tag:
                return idx
        return -1

    def _touch(self, set_idx: int, way: int) -> None:
        lru = self._lru[set_idx]
        lru.remove(way)
        lru.append(way)

    def _fill(self, set_idx: int, tag: int, line_addr: int) -> tuple[int, int]:
        """Fetch a line from below into this cache; return (index, latency)."""
        self.stats.misses += 1
        latency = 0
        lru = self._lru[set_idx]
        way = lru[0]
        idx = set_idx * self.assoc + way
        if self._valid[idx] and self._dirty[idx]:
            victim_addr = self._line_addr(set_idx, self._tags[idx])
            latency += self._writeback_below(victim_addr, self._data[idx])
            self.stats.writebacks += 1
            if self.coherence is not None:
                self.coherence.on_evict(self, victim_addr)
        if self.coherence is not None:
            # A remote dirty copy must reach the shared level before the
            # fetch below observes it.
            self.coherence.on_fill(self, line_addr)
        data, fill_latency = self._fetch_below(line_addr)
        latency += fill_latency
        self._tags[idx] = tag
        self._valid[idx] = True
        self._dirty[idx] = False
        self._data[idx][:] = data
        self._touch(set_idx, way)
        return idx, latency

    def _line_addr(self, set_idx: int, tag: int) -> int:
        return ((tag * self.num_sets) + set_idx) * self.line_size

    def _fetch_below(self, line_addr: int) -> tuple[bytearray, int]:
        nxt = self.next_level
        if isinstance(nxt, Cache):
            return nxt.read_line(line_addr)
        return nxt.fetch_line(line_addr, self.line_size)

    def _writeback_below(self, line_addr: int, payload: bytearray) -> int:
        nxt = self.next_level
        if isinstance(nxt, Cache):
            return nxt.write_line(line_addr, payload)
        return nxt.writeback_line(line_addr, bytes(payload))

    def _access(self, paddr: int, length: int) -> tuple[int, int, int]:
        """Resolve (line index, offset-in-line, latency), filling on miss."""
        offset = paddr & self._offset_mask
        if offset + length > self.line_size:
            # The ISA only generates 1- and 4-byte aligned accesses, so an
            # access can never straddle a 32-byte line.
            raise ValueError(
                f"{self.name}: access at 0x{paddr:x} straddles a line"
            )
        line_addr = paddr - offset
        set_idx = (line_addr >> self._set_shift) & self._set_mask
        tag = line_addr >> self._set_shift >> self._tag_shift
        idx = self._lookup(set_idx, tag)
        if idx >= 0:
            self.stats.hits += 1
            self._touch(set_idx, idx - set_idx * self.assoc)
            return idx, offset, self.hit_latency
        idx, miss_latency = self._fill(set_idx, tag, line_addr)
        return idx, offset, self.hit_latency + miss_latency

    # -- public word/byte interface ------------------------------------------

    def read(self, paddr: int, length: int) -> tuple[bytes, int]:
        """Read *length* bytes; returns (data, latency)."""
        idx, offset, latency = self._access(paddr, length)
        return bytes(self._data[idx][offset:offset + length]), latency

    def read_word(self, paddr: int) -> tuple[int, int]:
        """Read an aligned 32-bit little-endian word; returns (value, latency).

        Semantically identical to ``read(paddr, 4)`` but inlined: this is
        the instruction-fetch and word-load fast path, called once per
        fetched instruction.
        """
        offset = paddr & self._offset_mask
        line_addr = paddr - offset
        set_idx = (line_addr >> self._set_shift) & self._set_mask
        tag = line_addr >> self._set_shift >> self._tag_shift
        base = set_idx * self.assoc
        valid = self._valid
        tags = self._tags
        for way in range(self.assoc):
            idx = base + way
            if valid[idx] and tags[idx] == tag:
                self.stats.hits += 1
                lru = self._lru[set_idx]
                lru.remove(way)
                lru.append(way)
                line = self._data[idx]
                return (
                    line[offset]
                    | line[offset + 1] << 8
                    | line[offset + 2] << 16
                    | line[offset + 3] << 24
                ), self.hit_latency
        idx, miss_latency = self._fill(set_idx, tag, line_addr)
        line = self._data[idx]
        return (
            line[offset]
            | line[offset + 1] << 8
            | line[offset + 2] << 16
            | line[offset + 3] << 24
        ), self.hit_latency + miss_latency

    def write(self, paddr: int, payload: bytes) -> int:
        """Write bytes (write-allocate); returns latency."""
        idx, offset, latency = self._access(paddr, len(payload))
        self._data[idx][offset:offset + len(payload)] = payload
        self._dirty[idx] = True
        if self.coherence is not None:
            self.coherence.on_write(self, paddr - (paddr & self._offset_mask))
        return latency

    # -- line interface used by an upper cache level ---------------------------

    def read_line(self, line_addr: int) -> tuple[bytearray, int]:
        idx, _, latency = self._access(line_addr, self.line_size)
        return bytearray(self._data[idx]), latency

    def write_line(self, line_addr: int, payload: bytearray) -> int:
        idx, _, latency = self._access(line_addr, self.line_size)
        self._data[idx][:] = payload
        self._dirty[idx] = True
        return latency

    # -- direct inspection helpers (tests, fetch fast path) ---------------------

    def probe(self, paddr: int) -> tuple[int, int] | None:
        """Return (line index, offset) if *paddr* currently hits, else None."""
        offset = paddr & self._offset_mask
        line_addr = paddr - offset
        set_idx = (line_addr >> self._set_shift) & self._set_mask
        tag = line_addr >> self._set_shift >> self._tag_shift
        idx = self._lookup(set_idx, tag)
        if idx < 0:
            return None
        return idx, offset

    def line_data(self, idx: int) -> bytearray:
        """Live (mutable) data of a physical line; used by the fetch path."""
        return self._data[idx]

    def line_tag_valid(self, idx: int) -> tuple[int, bool]:
        return self._tags[idx], self._valid[idx]

    # -- audit accessors (verification subsystem) -------------------------------
    #
    # Everything below is strictly non-mutating: no LRU touches, no fills, no
    # stat updates.  The invariant checker must be able to observe the
    # hierarchy without perturbing the replacement state it is auditing.

    def audit_lines(self):
        """Yield ``(line index, physical line address, dirty)`` per valid line."""
        for set_idx in range(self.num_sets):
            for way in range(self.assoc):
                idx = set_idx * self.assoc + way
                if self._valid[idx]:
                    yield (
                        idx,
                        self._line_addr(set_idx, self._tags[idx]),
                        self._dirty[idx],
                    )

    def peek_line(self, idx: int) -> bytes:
        """Copy of a physical line's data, valid or not."""
        return bytes(self._data[idx])

    def peek_range(self, paddr: int, length: int) -> bytes:
        """Read through the hierarchy without mutating any level.

        Returns the bytes an access at this level *would* observe: the
        local line on a hit, otherwise whatever the next level would
        observe (recursively down to :class:`PhysicalMemory`).
        """
        hit = self.probe(paddr)
        if hit is not None:
            idx, offset = hit
            return bytes(self._data[idx][offset:offset + length])
        nxt = self.next_level
        if isinstance(nxt, Cache):
            return nxt.peek_range(paddr, length)
        return nxt.read(paddr, length)

    def lru_order(self, set_idx: int) -> list[int]:
        """Copy of a set's LRU stack (way indices, most recent last)."""
        return list(self._lru[set_idx])

    # -- snoop interface (coherence bus) ----------------------------------------

    def snoop_invalidate(self, line_addr: int) -> bool:
        """Drop a line on a remote write; returns True when it was present.

        A dirty copy should never be snoop-invalidated under the protocol
        (the writer's fill flushed it first); if one is found anyway it is
        written back rather than silently discarded, so a protocol bug
        shows up as a data divergence the differential harness can see.
        """
        hit = self.probe(line_addr)
        if hit is None:
            return False
        idx, _ = hit
        if self._dirty[idx]:
            self._writeback_below(line_addr, self._data[idx])
            self.stats.writebacks += 1
        self._valid[idx] = False
        self._dirty[idx] = False
        return True

    def snoop_flush(self, line_addr: int, invalidate: bool = False) -> bool:
        """Push a dirty copy down one level (intervention).

        Leaves the local copy clean (or drops it when *invalidate*); returns
        True when the line was present.
        """
        hit = self.probe(line_addr)
        if hit is None:
            return False
        idx, _ = hit
        if self._dirty[idx]:
            self._writeback_below(line_addr, self._data[idx])
            self.stats.writebacks += 1
            self._dirty[idx] = False
        if invalidate:
            self._valid[idx] = False
        return True

    def flush_all(self) -> None:
        """Write back every dirty line and invalidate the cache."""
        for set_idx in range(self.num_sets):
            for way in range(self.assoc):
                idx = set_idx * self.assoc + way
                if self._valid[idx] and self._dirty[idx]:
                    addr = self._line_addr(set_idx, self._tags[idx])
                    self._writeback_below(addr, self._data[idx])
                    if self.coherence is not None:
                        self.coherence.on_evict(self, addr)
                self._valid[idx] = False
                self._dirty[idx] = False
