"""Microarchitectural invariant checks for the out-of-order system.

These are properties the pipeline must maintain *by construction* — not
architectural behaviour (the differential oracle covers that) but the
structural bookkeeping underneath it.  Each check names a class of bug
that would silently skew fault-effect classification if it slipped in:

* **ROB program order** — retirement must follow fetch order; a reordered
  or squashed-but-present ROB entry means precise exceptions no longer
  point at the right instruction, misclassifying Crash PCs.
* **Rename conservation** — the free list, the rename map and the
  previous-mapping fields of in-flight destinations must partition the
  physical register file.  A leaked or doubly-allocated register shows up
  as a hang (rename stall forever → Timeout) or as silent cross-talk
  between unrelated architectural registers (→ phantom SDC).
* **Clean-line coherence** — a valid *clean* cache line must equal what a
  non-mutating read-through of the levels below would observe.  A stale
  clean line converts real memory state into phantom "masked" outcomes.
* **TLB/page-table consistency** — every valid TLB entry must match the
  page tables exactly (fault-free, the tables are immutable after load
  and entries are only created by refill).  A drifting entry silently
  redirects accesses, the very failure mode injections are supposed to
  *cause*, not suffer.
* **Mask application accounting** — after an injection, each masked bit
  must have actually toggled and no other accounting drifted; checked by
  the campaign layer via :func:`snapshot_mask_bits` /
  :func:`check_mask_applied`.

All violations raise :class:`repro.errors.InvariantViolation`, which is
*not* a :class:`~repro.errors.SimAssertion` — a failed invariant is a
platform bug and must never be classified as a fault outcome.

The per-commit core checks are cheap (set algebra over a few hundred
integers) and safe to run even on fault-injected state: injections target
SRAM payload bits (cache data, TLB words, register values), never the
rename bookkeeping itself.  The cache/TLB audits read through the memory
hierarchy and are only meaningful on fault-free state, so they run at
verification boundaries (end of a differential run), not per cycle.
"""

from __future__ import annotations

import hashlib

from repro.errors import InvariantViolation
from repro.restorable import Restorable


class InvariantChecker(Restorable):
    """Pluggable invariant checks over a live :class:`~repro.cpu.system.System`.

    An instance is attached to ``core.invariant_checker`` when
    ``CoreConfig.check_invariants`` is set; the core then calls
    :meth:`check_core` once per simulation step, after the commit stage.
    Instances hold no state, so they ride along in pickled checkpoints.
    """

    # -- per-step core checks ------------------------------------------------

    def check_core(self, core) -> None:
        cycle = core.cycle
        phys_regs = core.cfg.phys_regs
        all_regs = range(phys_regs)

        rename = list(core.rename_map)
        if len(set(rename)) != len(rename):
            raise InvariantViolation(
                f"cycle {cycle}: rename map aliases a physical register: "
                f"{rename}"
            )
        for phys in rename:
            if not 0 <= phys < phys_regs:
                raise InvariantViolation(
                    f"cycle {cycle}: rename map points outside the register "
                    f"file: {phys} (phys_regs={phys_regs})"
                )

        free = list(core.free_list)
        free_set = set(free)
        if len(free_set) != len(free):
            raise InvariantViolation(
                f"cycle {cycle}: duplicate entries in the free list: {free}"
            )

        prev_seq = -1
        pending = set()
        for uop in core.rob:
            if uop.squashed:
                raise InvariantViolation(
                    f"cycle {cycle}: squashed uop still in the ROB: {uop!r}"
                )
            if uop.seq <= prev_seq:
                raise InvariantViolation(
                    f"cycle {cycle}: ROB out of program order "
                    f"(seq {uop.seq} after {prev_seq})"
                )
            prev_seq = uop.seq
            if uop.dest >= 0:
                pending.add(uop.old_dest)

        # Conservation: free list ⊎ rename map ⊎ {in-flight old mappings}
        # must partition the physical register file.
        rename_set = set(rename)
        for name_a, set_a, name_b, set_b in (
            ("free list", free_set, "rename map", rename_set),
            ("free list", free_set, "in-flight old_dest", pending),
            ("rename map", rename_set, "in-flight old_dest", pending),
        ):
            overlap = set_a & set_b
            if overlap:
                raise InvariantViolation(
                    f"cycle {cycle}: physical registers {sorted(overlap)} "
                    f"owned by both the {name_a} and the {name_b}"
                )
        union = free_set | rename_set | pending
        if union != set(all_regs):
            missing = sorted(set(all_regs) - union)
            extra = sorted(union - set(all_regs))
            raise InvariantViolation(
                f"cycle {cycle}: physical register conservation broken "
                f"(leaked: {missing}, out of range: {extra})"
            )

    # -- whole-system audits (fault-free state only) -------------------------

    def check_system(self, system) -> None:
        """Audit the memory hierarchy of a (fault-free) system.

        Meaningful only on uninjected state: a fault-injected dirty or
        clean line legitimately differs from the backing memory — that is
        the effect being studied.
        """
        for cache in (system.l1d, system.l1i, system.l2):
            self._audit_cache(cache, system.cycle)
        for tlb in (system.itlb, system.dtlb):
            self._audit_tlb(tlb, system.page_table, system.cycle)

    @staticmethod
    def _audit_cache(cache, cycle: int) -> None:
        for set_idx in range(cache.num_sets):
            order = cache.lru_order(set_idx)
            if sorted(order) != list(range(cache.assoc)):
                raise InvariantViolation(
                    f"cycle {cycle}: {cache.name} set {set_idx} LRU stack "
                    f"is not a permutation of its ways: {order}"
                )
        seen_addrs: dict[int, int] = {}
        for idx, line_addr, dirty in cache.audit_lines():
            prior = seen_addrs.get(line_addr)
            if prior is not None:
                raise InvariantViolation(
                    f"cycle {cycle}: {cache.name} caches physical line "
                    f"0x{line_addr:08x} twice (indices {prior} and {idx})"
                )
            seen_addrs[line_addr] = idx
            if not dirty:
                local = cache.peek_line(idx)
                # peek_range on this cache would hit its own line; audit
                # against what the hierarchy *below* observes instead.
                nxt = cache.next_level
                if hasattr(nxt, "peek_range"):
                    below = nxt.peek_range(line_addr, cache.line_size)
                else:
                    below = nxt.read(line_addr, cache.line_size)
                if local != below:
                    raise InvariantViolation(
                        f"cycle {cycle}: {cache.name} holds a clean line at "
                        f"0x{line_addr:08x} that differs from the level "
                        f"below (line index {idx})"
                    )

    def check_smp(self, smp) -> None:
        """Audit an SMP machine: per-core structures plus coherence state.

        Extends :meth:`check_system` across every core and adds the
        coherence invariants of the clean/dirty protocol:

        * **Single-writer** — at most one L1D holds a given line dirty,
          and when one does, no other L1D holds any copy of that line.
        * **Clean agreement** — a clean L1D line equals what the shared
          hierarchy below observes (inherited from :meth:`_audit_cache`).
        * **Owner-map consistency** — the bus's dirty-owner map points at
          exactly the caches that actually hold the line dirty.

        Like :meth:`check_system`, meaningful only on fault-free state.
        """
        cycle = smp.cycle
        self._audit_cache(smp.l2, cycle)
        dirty_holders: dict[int, list] = {}
        holders: dict[int, list] = {}
        for bundle in smp.cores:
            self._audit_cache(bundle.l1d, cycle)
            self._audit_cache(bundle.l1i, cycle)
            self._audit_tlb(bundle.itlb, smp.page_table, cycle)
            self._audit_tlb(bundle.dtlb, smp.page_table, cycle)
            for _idx, line_addr, dirty in bundle.l1d.audit_lines():
                holders.setdefault(line_addr, []).append(bundle.l1d)
                if dirty:
                    dirty_holders.setdefault(line_addr, []).append(bundle.l1d)
        for line_addr, caches in dirty_holders.items():
            if len(caches) > 1:
                names = [c.name for c in caches]
                raise InvariantViolation(
                    f"cycle {cycle}: line 0x{line_addr:08x} dirty in "
                    f"multiple L1Ds: {names}"
                )
            copies = holders[line_addr]
            if len(copies) > 1:
                names = [c.name for c in copies]
                raise InvariantViolation(
                    f"cycle {cycle}: line 0x{line_addr:08x} is dirty in "
                    f"{caches[0].name} but also cached by {names}"
                )
        for line_addr, owner in smp.bus.owner.items():
            actual = dirty_holders.get(line_addr, [])
            if actual != [owner]:
                names = [c.name for c in actual]
                raise InvariantViolation(
                    f"cycle {cycle}: bus owner map says {owner.name} holds "
                    f"line 0x{line_addr:08x} dirty, but the dirty holders "
                    f"are {names}"
                )
        for line_addr, caches in dirty_holders.items():
            if smp.bus.owner.get(line_addr) is not caches[0]:
                raise InvariantViolation(
                    f"cycle {cycle}: {caches[0].name} holds line "
                    f"0x{line_addr:08x} dirty but is not the bus's "
                    f"recorded owner"
                )

    @staticmethod
    def _audit_tlb(tlb, page_table, cycle: int) -> None:
        for idx, fields in tlb.audit_entries():
            entry = page_table.lookup(fields.vpn)
            if entry is None:
                raise InvariantViolation(
                    f"cycle {cycle}: {tlb.name} entry {idx} caches vpn "
                    f"0x{fields.vpn:x}, which the page table does not map"
                )
            ppn, writable, executable, kernel = entry
            if (fields.ppn, fields.writable, fields.executable,
                    fields.kernel) != (ppn, writable, executable, kernel):
                raise InvariantViolation(
                    f"cycle {cycle}: {tlb.name} entry {idx} for vpn "
                    f"0x{fields.vpn:x} disagrees with the page table: "
                    f"cached (ppn=0x{fields.ppn:x}, w={fields.writable}, "
                    f"x={fields.executable}, k={fields.kernel}) vs walked "
                    f"(ppn=0x{ppn:x}, w={writable}, x={executable}, "
                    f"k={kernel})"
                )


# -- injection-mask accounting ------------------------------------------------

def snapshot_mask_bits(target, mask) -> list[int]:
    """Record the pre-injection value of every bit a mask will flip."""
    return [target.read_bit(row, col) for row, col in mask.bits]


def check_mask_applied(target, mask, before: list[int]) -> None:
    """Assert every masked bit toggled — SRAM bit-count conservation.

    An injector that silently drops a flip (out-of-bounds clamp, aliased
    coordinates) undercounts the injected cardinality and inflates the
    Masked fraction; this catches it at the injection site.
    """
    for (row, col), old in zip(mask.bits, before):
        new = target.read_bit(row, col)
        if new == old:
            raise InvariantViolation(
                f"injection into {mask.component} did not flip bit "
                f"(row={row}, col={col}): still {old} "
                f"(mask cardinality {mask.cardinality})"
            )


# -- state fingerprinting ------------------------------------------------------

def state_fingerprint(system) -> str:
    """SHA-256 over a system's complete simulated state.

    Covers the core (registers, rename state, in-flight uops, cycle/seq
    counters), every cache's tag/valid/dirty/data/LRU arrays, both TLBs'
    packed entries, kernel output/exit state and all of physical memory.
    Two systems with equal fingerprints are bit-identical for every
    purpose the campaign cares about; the determinism and checkpoint
    regression tests compare these across process and restore boundaries.
    """
    h = hashlib.sha256()

    def put(tag: str, value) -> None:
        h.update(tag.encode())
        h.update(repr(value).encode())

    core = system.core
    put("cycle", core.cycle)
    put("seq", core.seq)
    put("prf", core.prf.values)
    put("rename", core.rename_map)
    put("free", list(core.free_list))
    put("rob", [
        (u.seq, u.pc, u.state, u.dest, u.old_dest, u.arch_dest)
        for u in core.rob
    ])

    for cache in (system.l1d, system.l1i, system.l2):
        put("cache", cache.name)
        put("tags", cache._tags)
        put("valid", cache._valid)
        put("dirty", cache._dirty)
        put("lru", cache._lru)
        for line in cache._data:
            h.update(bytes(line))

    for tlb in (system.itlb, system.dtlb):
        put("tlb", tlb.name)
        put("packed", tlb.packed)

    put("kout", bytes(system.kernel.output))
    put("kexit", system.kernel.exit_code)
    h.update(bytes(system.mem.data))
    return h.hexdigest()


def smp_state_fingerprint(smp) -> str:
    """SHA-256 over an SMP machine's complete simulated state.

    The multi-core analogue of :func:`state_fingerprint`: every core's
    pipeline/caches/TLBs (keyed by core id), the shared L2, the coherence
    owner map, the run/park state of each core, kernel state and physical
    memory.  Equal fingerprints mean bit-identical machines; the
    multi-core golden-replay determinism tests compare these across
    independent runs of the same program.
    """
    h = hashlib.sha256()

    def put(tag: str, value) -> None:
        h.update(tag.encode())
        h.update(repr(value).encode())

    put("ncores", smp.ncores)
    put("gcycle", smp.cycle)
    put("running", smp.running)
    for bundle in smp.cores:
        core = bundle.pipe
        put("core", bundle.core_id)
        put("cycle", core.cycle)
        put("seq", core.seq)
        put("prf", core.prf.values)
        put("rename", core.rename_map)
        put("free", list(core.free_list))
        put("rob", [
            (u.seq, u.pc, u.state, u.dest, u.old_dest, u.arch_dest)
            for u in core.rob
        ])
        for cache in (bundle.l1d, bundle.l1i):
            put("cache", cache.name)
            put("tags", cache._tags)
            put("valid", cache._valid)
            put("dirty", cache._dirty)
            put("lru", cache._lru)
            for line in cache._data:
                h.update(bytes(line))
        for tlb in (bundle.itlb, bundle.dtlb):
            put("tlb", tlb.name)
            put("packed", tlb.packed)

    put("cache", smp.l2.name)
    put("tags", smp.l2._tags)
    put("valid", smp.l2._valid)
    put("dirty", smp.l2._dirty)
    put("lru", smp.l2._lru)
    for line in smp.l2._data:
        h.update(bytes(line))
    put("owner", sorted(
        (addr, cache.name) for addr, cache in smp.bus.owner.items()
    ))
    put("kout", bytes(smp.kernel.output))
    put("kexit", smp.kernel.exit_code)
    h.update(bytes(smp.mem.data))
    return h.hexdigest()
