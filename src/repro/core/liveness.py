"""Liveness-based fault-mask pruning (golden-run dead-bit analysis).

A fault is Masked iff no flipped bit is *consumed* (read) before it is
overwritten, evicted or invalidated — a dataflow fact provable from the
golden run alone, the dead-data reasoning of Jaulmes, Moretó, Valero and
Casas, "Memory Vulnerability: A Case for Delaying Error Reporting".  This
module records, during one instrumented run of the golden execution,
per-component bit-granular lifetime traces:

* **caches** (``l1d``/``l1i``/``l2``): per (line, byte) READ/KILL
  timelines from the core's loads, stores and fetches, plus line-level
  INSTALL and COPY events.  A line fill from below and a writeback from
  above INSTALL the destination line (overwriting every byte); the source
  of either records a COPY that names the destination line and its
  install.  DRAM takes part as a relay (writebacks install DRAM lines,
  fills copy them) so a flip that leaves L2 and comes back is followed
  too.  A copy moves a flipped byte without consuming it: the byte is
  then live in the source *and* in the destination from just after its
  install.  Flips live in the data array only (tags/valid/dirty are not
  injectable), so the hit/miss stream of a faulty run is identical to the
  golden one and byte timelines decide everything.
* **TLBs** (``itlb``/``dtlb``): per-entry timelines (hit = consume,
  refill = kill) plus each entry's birth cycle.  Decidability is
  field-sensitive — see :meth:`LivenessTrace.classify`.
* **register file**: per-register timelines; operand/misc reads consume,
  writebacks and misc writes kill the whole 32-bit word.  A ``SYS`` uop
  reads ``r0``-``r2`` like any instruction, but only the arguments its
  syscall number reads (:data:`~repro.kernel.syscalls.SYSCALL_ARG_COUNTS`)
  count as consumed: the others reach nothing but ``Kernel.do_syscall``,
  which ignores them.

:meth:`LivenessTrace.classify` then decides an (mask, inject-cycle) fault
per flipped bit — O(log n) for TLBs and registers, O(log n) per copy
followed for caches: if every bit is provably dead, the faulty run is
bit-identical to the golden run and the sample is Masked without
simulating anything.  The classifier is *conservative*: any bit it cannot
prove dead falls back to full simulation, so pruned campaign results are
byte-identical to unpruned ones — the invariant CI enforces with ``cmp``.

Traces are built once per (workload, platform) on a fresh system with
instance-level instrumentation hooks (the trace system is never deep-copied
and never injected into), kept in an LRU bounded like the golden cache.
The instrumented run becomes the golden run when none is cached yet, and
is checked against it otherwise.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass

from repro import obs
from repro.core.campaign import (
    GOLDEN_CACHE_SIZE, GOLDEN_MAX_CYCLES, _BoundedCache, _cached_golden,
    _keep_golden, golden_run,
)
from repro.core.faults import FaultMask
from repro.errors import ConfigError
from repro.cpu.config import DEFAULT_CONFIG, CoreConfig
from repro.cpu.system import System
from repro.kernel.syscalls import syscall_arg_count
from repro.mem.tlb import VPN_SHIFT
from repro.workloads.base import Workload

#: Timeline event kinds.  READ = the bit was consumed (its value reached
#: the program); KILL = the bit was overwritten wholesale (store, TLB
#: refill, register write).
READ = 0
KILL = 1

#: Cache events are ordered by ``cycle << _SEQ_BITS | seq``, *seq* counting
#: recorded events: keys follow program order within a cycle as well, and
#: every event at or after cycle C has a key of at least ``C << _SEQ_BITS``.
_SEQ_BITS = 32

#: Order key of an event that never happens.
_NEVER = float("inf")

#: TLB entry layout (see mem/tlb.py): bits [1:0] are unarchitected spares,
#: [17:2] hold permissions + ppn (payload consumed only on translation
#: hits), [30:18] the vpn and [31] the valid bit (both consulted by match
#: and replacement logic, so never provably dead while the entry lives).
_TLB_SPARE_COLS = 2
_TLB_VALID_COL = 31

class _Timeline:
    """Program-ordered, run-compressed event timelines keyed by cell.

    Per key two parallel lists: non-decreasing event cycles and the event
    kinds.  Consecutive same-kind events collapse to the last of the run —
    verdict-preserving, because the first event at-or-after any cycle has
    the same kind either way.  Kinds are *not* folded into a sortable
    (cycle, kind) integer on purpose: a fill-then-read executes KILL and
    READ at the same cycle in that order, and program order is the order
    that matters.
    """

    __slots__ = ("cycles", "kinds", "first")

    def __init__(self) -> None:
        self.cycles: dict[int, list[int]] = {}
        self.kinds: dict[int, bytearray] = {}
        self.first: dict[int, int] = {}

    def record(self, key: int, cycle: int, kind: int) -> None:
        kinds = self.kinds.get(key)
        if kinds is None:
            self.cycles[key] = [cycle]
            self.kinds[key] = bytearray((kind,))
            self.first[key] = cycle
            return
        if kinds[-1] == kind:
            self.cycles[key][-1] = cycle
        else:
            self.cycles[key].append(cycle)
            kinds.append(kind)

    def verdict(self, key: int, cycle: int) -> int | None:
        """Kind of the first event at-or-after *cycle*, or None."""
        cycles = self.cycles.get(key)
        if cycles is None:
            return None
        index = bisect_left(cycles, cycle)
        if index == len(cycles):
            return None
        return self.kinds[key][index]

    def born_before(self, key: int, cycle: int) -> bool:
        """True iff *key* saw any event strictly before *cycle*."""
        first = self.first.get(key)
        return first is not None and first < cycle

    def event_count(self) -> int:
        return sum(len(kinds) for kinds in self.kinds.values())


class _Level:
    """Lifetime events of one storage level: a cache, or DRAM.

    *Byte* timelines (caches only), keyed ``line * line_size + byte``,
    hold the core's READ/KILL accesses, run-compressed like
    :class:`_Timeline` but never across a line event, so the kept (last)
    key of a run orders it correctly against the line's events.  *Line*
    timelines, keyed by line index (DRAM: line address), hold the
    whole-line events as parallel lists of order keys and destinations:
    ``None`` for an INSTALL (a fill or a writeback from above overwrote
    the line), ``(level, line, install key)`` for a COPY (the line's data
    went to that line of another level).
    """

    __slots__ = (
        "line_size", "byte_keys", "byte_kinds", "line_keys", "line_dests",
    )

    def __init__(self, line_size: int) -> None:
        self.line_size = line_size
        self.byte_keys: dict[int, list[int]] = {}
        self.byte_kinds: dict[int, bytearray] = {}
        self.line_keys: dict[int, list[int]] = {}
        self.line_dests: dict[int, list] = {}

    def record_bytes(
        self, line: int, lo: int, hi: int, key: int, kind: int
    ) -> None:
        line_keys = self.line_keys.get(line)
        sealed = line_keys[-1] if line_keys else -1
        byte_keys = self.byte_keys
        byte_kinds = self.byte_kinds
        base = line * self.line_size
        for cell in range(base + lo, base + hi):
            kinds = byte_kinds.get(cell)
            if kinds is None:
                byte_keys[cell] = [key]
                byte_kinds[cell] = bytearray((kind,))
            elif kinds[-1] == kind and byte_keys[cell][-1] > sealed:
                byte_keys[cell][-1] = key
            else:
                byte_keys[cell].append(key)
                kinds.append(kind)

    def record_line(self, line: int, key: int, dest) -> tuple[list, int]:
        """Append a line event; returns where its destination is kept."""
        keys = self.line_keys.get(line)
        if keys is None:
            keys = self.line_keys[line] = []
            dests = self.line_dests[line] = []
        else:
            dests = self.line_dests[line]
        keys.append(key)
        dests.append(dest)
        return dests, len(dests) - 1

    def byte_event(self, line: int, byte: int, start: int):
        """(key, kind) of the first byte event at or after *start*."""
        cell = line * self.line_size + byte
        keys = self.byte_keys.get(cell)
        if keys is not None:
            index = bisect_left(keys, start)
            if index < len(keys):
                return keys[index], self.byte_kinds[cell][index]
        return _NEVER, None

    def event_count(self) -> int:
        return sum(len(kinds) for kinds in self.byte_kinds.values()) + sum(
            len(keys) for keys in self.line_keys.values()
        )


def _byte_dead(level: _Level, line: int, byte: int, start: int) -> bool:
    """True iff *byte* of *line*, flipped just before order key *start*, is
    never read in *level* nor in any copy made of it."""
    walks = [(level, line, start)]
    while walks:
        level, line, start = walks.pop()
        until, kind = level.byte_event(line, byte, start)
        keys = level.line_keys.get(line)
        if keys:
            dests = level.line_dests[line]
            for index in range(bisect_left(keys, start), len(keys)):
                if keys[index] > until:
                    break
                dest = dests[index]
                if dest is None:  # INSTALL: the whole line is overwritten
                    kind = KILL
                    break
                target, target_line, installed = dest
                walks.append((target, target_line, installed + 1))
        if kind == READ:
            return False
    return True


@dataclass(frozen=True)
class _Geometry:
    """Injection geometry stand-in: lets the mask generator draw against a
    recorded trace without materialising a live system, preserving the
    exact RNG stream of the unpruned path."""

    inject_name: str
    inject_rows: int
    inject_cols: int


class LivenessTrace:
    """Lifetime timelines of one (workload, platform) golden run."""

    def __init__(self, workload_name: str, golden_cycles: int) -> None:
        self.workload = workload_name
        self.golden_cycles = golden_cycles
        self.levels: dict[str, _Level] = {}
        self.timelines: dict[str, _Timeline] = {}
        self.geometry: dict[str, _Geometry] = {}
        self.live_bits: dict[str, int] = {}

    def target_geometry(self, component: str) -> _Geometry:
        return self.geometry[component]

    def classify(self, mask: FaultMask, inject_cycle: int) -> bool:
        """True iff every flipped bit is provably dead at *inject_cycle*.

        False means "undecided", never "vulnerable": the caller must fall
        back to full simulation, which keeps pruned results byte-identical
        to unpruned ones.
        """
        component = mask.component
        level = self.levels.get(component)
        if level is not None:
            return self._classify_cache(level, mask, inject_cycle)
        timeline = self.timelines.get(component)
        if timeline is None:  # unknown component: never prune
            return False
        if component in ("itlb", "dtlb"):
            return self._classify_tlb(timeline, mask, inject_cycle)
        if component == "regfile":
            return self._classify_regfile(timeline, mask, inject_cycle)
        return False

    def _classify_cache(
        self, level: _Level, mask: FaultMask, inject_cycle: int
    ) -> bool:
        # Byte granularity: flips never touch tags/valid/dirty, so the
        # hit/miss stream is unchanged and a byte is dead unless it, or a
        # copy of it, is read before being overwritten.
        start = inject_cycle << _SEQ_BITS
        for row, col in mask.bits:
            if not _byte_dead(level, row, col >> 3, start):
                return False
        return True

    def _classify_tlb(
        self, timeline: _Timeline, mask: FaultMask, inject_cycle: int
    ) -> bool:
        for row, col in mask.bits:
            if col < _TLB_SPARE_COLS:
                continue  # spare bits back no architected state
            if not timeline.born_before(row, inject_cycle):
                # Entry invalid at injection time.  Setting its valid bit
                # could fabricate a match from garbage — undecided; every
                # other bit is unreachable until the refill overwrites it.
                if col == _TLB_VALID_COL:
                    return False
                continue
            if col >= VPN_SHIFT:
                # vpn/valid of a live entry feed the match/replacement
                # logic on every lookup — not provably dead.
                return False
            kind = timeline.verdict(row, inject_cycle)
            if kind == READ:
                return False  # next event consumes the payload (hit)
        return True

    def _classify_regfile(
        self, timeline: _Timeline, mask: FaultMask, inject_cycle: int
    ) -> bool:
        # Register writes replace the whole 32-bit word, so a register is
        # dead unless its next event is an operand/misc read.
        for row, _col in mask.bits:
            if timeline.verdict(row, inject_cycle) == READ:
                return False
        return True

    def stats(self) -> dict[str, int]:
        """Recorded (compressed) event counts per component."""
        recorded = {**self.levels, **self.timelines}
        return {
            name: events.event_count()
            for name, events in sorted(recorded.items())
        }


# ---------------------------------------------------------------------------
# Instrumentation hooks (instance attributes shadow the bound methods; the
# trace system is private to the builder, so nothing else observes them)
# ---------------------------------------------------------------------------


class _CacheTracer:
    """State the cache and DRAM hooks share: the order-key clock, and the
    line events of a copy still waiting for its destination's install."""

    def __init__(self, core) -> None:
        self.core = core
        self.seq = 0
        self.fetched: tuple[list, int] | None = None
        self.installed: tuple[_Level, int, int] | None = None

    def key(self) -> int:
        self.seq += 1
        return self.core.cycle << _SEQ_BITS | self.seq

    def copy_up(self, level: _Level, line: int) -> None:
        """*line* feeds a fill above; that fill's install resolves it."""
        self.fetched = level.record_line(line, self.key(), None)

    def install_fill(self, level: _Level, line: int) -> None:
        key = self.key()
        level.record_line(line, key, None)
        dests, index = self.fetched
        dests[index] = (level, line, key)
        self.fetched = None

    def install_writeback(self, level: _Level, line: int) -> None:
        key = self.key()
        level.record_line(line, key, None)
        self.installed = (level, line, key)

    def copy_down(self, level: _Level, line: int) -> None:
        """*line* was just written back; the install below is its copy."""
        level.record_line(line, self.key(), self.installed)


def _hook_cache(cache, level: _Level, tracer: _CacheTracer) -> None:
    probe = cache.probe
    lru = cache._lru
    assoc = cache.assoc
    set_shift = cache._set_shift
    set_mask = cache._set_mask
    offset_mask = cache._offset_mask
    record_bytes = level.record_bytes
    key = tracer.key

    def access(paddr: int, length: int, kind: int) -> None:
        # Every access leaves its line most recently used in its set.
        set_idx = (paddr >> set_shift) & set_mask
        idx = set_idx * assoc + lru[set_idx][-1]
        offset = paddr & offset_mask
        record_bytes(idx, offset, offset + length, key(), kind)

    orig_fill = cache._fill

    def fill(set_idx, tag, line_addr):
        idx, latency = orig_fill(set_idx, tag, line_addr)
        tracer.install_fill(level, idx)
        return idx, latency

    cache._fill = fill

    orig_writeback_below = cache._writeback_below

    def writeback_below(line_addr, payload):
        idx, _ = probe(line_addr)  # the victim is still valid here
        latency = orig_writeback_below(line_addr, payload)
        tracer.copy_down(level, idx)
        return latency

    cache._writeback_below = writeback_below

    orig_read = cache.read

    def read(paddr, length):
        data, latency = orig_read(paddr, length)
        access(paddr, length, READ)
        return data, latency

    cache.read = read

    orig_read_word = cache.read_word

    def read_word(paddr):
        value, latency = orig_read_word(paddr)
        access(paddr, 4, READ)
        return value, latency

    cache.read_word = read_word

    orig_write = cache.write

    def write(paddr, payload):
        latency = orig_write(paddr, payload)
        access(paddr, len(payload), KILL)
        return latency

    cache.write = write

    orig_read_line = cache.read_line

    def read_line(line_addr):
        data, latency = orig_read_line(line_addr)
        tracer.copy_up(level, probe(line_addr)[0])
        return data, latency

    cache.read_line = read_line

    orig_write_line = cache.write_line

    def write_line(line_addr, payload):
        latency = orig_write_line(line_addr, payload)
        tracer.install_writeback(level, probe(line_addr)[0])
        return latency

    cache.write_line = write_line


def _hook_dram(mem, level: _Level, tracer: _CacheTracer) -> None:
    orig_fetch_line = mem.fetch_line

    def fetch_line(line_addr, line_size):
        data, latency = orig_fetch_line(line_addr, line_size)
        tracer.copy_up(level, line_addr)
        return data, latency

    mem.fetch_line = fetch_line

    orig_writeback_line = mem.writeback_line

    def writeback_line(line_addr, payload):
        latency = orig_writeback_line(line_addr, payload)
        tracer.install_writeback(level, line_addr)
        return latency

    mem.writeback_line = writeback_line


def _hook_tlb(tlb, core, timeline: _Timeline) -> None:
    orig_translate = tlb.translate

    def translate(vaddr, access):
        clock_before = tlb._clock
        misses_before = tlb.misses
        result = orig_translate(vaddr, access)
        if tlb._clock != clock_before:
            # Exactly one entry was touched: the one holding the new clock.
            # A grown miss counter means a refill overwrote it (page-fault
            # refills bump misses but not the clock and touch no entry).
            row = tlb._last_use.index(tlb._clock)
            kind = KILL if tlb.misses != misses_before else READ
            timeline.record(row, core.cycle, kind)
        return result

    tlb.translate = translate


class _RecordingValues(list):
    """Drop-in ``PhysRegFile.values`` that logs every indexed access.

    All simulator reads/writes go through integer indexing (operand fetch,
    writeback, syscall return, misc save/restore), so ``__getitem__`` /
    ``__setitem__`` cover every consumption and kill.  While a ``SYS`` uop
    executes, *syscall_reads* counts the operand reads still to record; the
    rest are argument registers its syscall never reads.
    """

    def __init__(self, values, core, timeline: _Timeline) -> None:
        super().__init__(values)
        self._core = core
        self._timeline = timeline
        self.syscall_reads: int | None = None

    def __getitem__(self, index):
        if type(index) is int:
            budget = self.syscall_reads
            if budget is not None:
                if not budget:
                    return list.__getitem__(self, index)
                self.syscall_reads = budget - 1
            key = index if index >= 0 else index + len(self)
            self._timeline.record(key, self._core.cycle, READ)
        return list.__getitem__(self, index)

    def __setitem__(self, index, value):
        if type(index) is int:
            key = index if index >= 0 else index + len(self)
            self._timeline.record(key, self._core.cycle, KILL)
        list.__setitem__(self, index, value)


def _hook_regfile(core, timeline: _Timeline) -> None:
    values = core.prf.values = _RecordingValues(
        core.prf.values, core, timeline
    )
    orig_execute = core._execute

    def execute(uop):
        # A SYS uop reads its operands, r0-r2 in order, in _execute.
        inst = uop.inst
        if not inst.is_sys:
            return orig_execute(uop)
        values.syscall_reads = syscall_arg_count(inst.imm)
        try:
            return orig_execute(uop)
        finally:
            values.syscall_reads = None

    core._execute = execute


# ---------------------------------------------------------------------------
# Trace construction + cache
# ---------------------------------------------------------------------------


def build_liveness_trace(
    workload: Workload, core_cfg: CoreConfig = DEFAULT_CONFIG
) -> LivenessTrace:
    """Run *workload*'s golden run once with lifetime instrumentation.

    With no golden result cached, the instrumented pass is validated and
    cached as the golden run.  Otherwise (or on a ``check_invariants``
    platform, which keeps its own golden run) it is checked against that
    result: a divergence (a hook perturbing simulation) aborts.
    """
    from repro.core.occupancy import snapshot_bits

    # Observation-only knobs are canonicalised away like cell_key does:
    # the traced machine must be the plain platform.
    platform = dataclasses.replace(core_cfg, check_invariants=False)
    golden_key = (workload.name, platform)
    golden = (
        golden_run(workload, core_cfg) if core_cfg != platform
        else _cached_golden(golden_key)
    )
    system = System(platform)
    system.load(workload.program())
    trace = LivenessTrace(workload.name, 0)  # cycles known after the run
    core = system.core
    tracer = _CacheTracer(core)
    # Every level moves whole lines of one size, so a byte keeps its
    # offset through each copy.
    _hook_dram(system.mem, _Level(platform.line_size), tracer)
    for name, cache in (
        ("l1d", system.l1d), ("l1i", system.l1i), ("l2", system.l2),
    ):
        level = _Level(cache.line_size)
        trace.levels[name] = level
        trace.geometry[name] = _Geometry(
            cache.inject_name, cache.inject_rows, cache.inject_cols
        )
        _hook_cache(cache, level, tracer)
    for name, tlb in (("itlb", system.itlb), ("dtlb", system.dtlb)):
        timeline = _Timeline()
        trace.timelines[name] = timeline
        trace.geometry[name] = _Geometry(
            tlb.inject_name, tlb.inject_rows, tlb.inject_cols
        )
        _hook_tlb(tlb, core, timeline)
    regfile_timeline = _Timeline()
    trace.timelines["regfile"] = regfile_timeline
    trace.geometry["regfile"] = _Geometry(
        core.prf.inject_name, core.prf.inject_rows, core.prf.inject_cols
    )
    _hook_regfile(core, regfile_timeline)
    result = system.run(max_cycles=GOLDEN_MAX_CYCLES)
    if golden is None:
        golden = _keep_golden(workload, golden_key, result)
    elif (
        result.status != golden.status
        or result.cycles != golden.cycles
        or result.output != golden.output
        or result.exit_code != golden.exit_code
    ):
        raise ConfigError(
            f"liveness instrumentation perturbed the golden run of "
            f"{workload.name}: {result.status}/{result.cycles} cycles vs "
            f"{golden.status}/{golden.cycles}"
        )
    if tracer.fetched is not None:
        raise ConfigError(
            f"liveness trace of {workload.name} ended with a line copy "
            "that no fill installed"
        )
    trace.golden_cycles = golden.cycles
    trace.live_bits = snapshot_bits(system)
    return trace


#: Every adaptive wave visits the workloads in the same order: a bound
#: below their number would rebuild each trace every wave.
_LIVENESS_CACHE: _BoundedCache = _BoundedCache(GOLDEN_CACHE_SIZE)


def liveness_for(
    workload: Workload, core_cfg: CoreConfig = DEFAULT_CONFIG
) -> LivenessTrace:
    """Cached :func:`build_liveness_trace` (keyed like the golden cache)."""
    tel = obs.active()
    platform = dataclasses.replace(core_cfg, check_invariants=False)
    key = (workload.name, platform)
    cached = _LIVENESS_CACHE.get(key)
    if cached is not None:
        if tel is not None:
            tel.metrics.counter("exec.lru.liveness.hits").inc()
        return cached
    if tel is not None:
        tel.metrics.counter("exec.lru.liveness.misses").inc()
    with obs.span("liveness-build", workload=workload.name):
        cached = build_liveness_trace(workload, core_cfg)
    _LIVENESS_CACHE.put(key, cached)
    return cached
