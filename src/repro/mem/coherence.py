"""Invalidate-on-write coherence over per-core L1Ds sharing one L2.

The protocol is a two-state (clean/dirty) MSI reduction sized to the
simulator's write-back hierarchy:

* **invalidate on write** — when a core's L1D writes a line, every remote
  L1D copy is dropped, so at most one cache ever holds a dirty line and no
  stale clean copies survive a store;
* **owner tracking** — the bus records which L1D holds each dirty line, so
  a remote fill first forces the owner to push its data down to the shared
  L2 (an *intervention*) and the fill observes current data;
* **write-back** — evictions and interventions move data through the shared
  L2, which is exactly why a corrupted shared-L2 line has multiple
  consumers: every core's miss path reads through it.

Coherence actions are charged zero extra latency: the protocol is modelled
for *data movement* (which faults propagate along), not for bus contention
timing.  All bookkeeping is deterministic, so multi-core golden runs replay
bit-exactly.

The bus maintains the invariant the verifier audits (see
``repro.verify.invariants.check_smp``): if any attached cache holds a line
dirty, no other attached cache holds that line at all, and every clean
attached copy equals the shared level's view.
"""

from __future__ import annotations

from repro.mem.cache import Cache
from repro.restorable import Restorable


class CoherenceStats:
    """Bus event counters (deterministic, harvested once per run)."""

    __slots__ = ("invalidations", "interventions", "upgrades")

    def __init__(self) -> None:
        self.invalidations = 0   #: remote copies dropped by a write
        self.interventions = 0   #: dirty owner flushed for a remote fill
        self.upgrades = 0        #: writes that took dirty ownership of a line

    def as_dict(self) -> dict[str, int]:
        return {
            "invalidations": self.invalidations,
            "interventions": self.interventions,
            "upgrades": self.upgrades,
        }

    def publish(self, metrics, prefix: str) -> None:
        # Zero counts are skipped for serial/parallel registry parity, like
        # CacheStats.publish.
        if self.invalidations:
            metrics.counter(prefix + ".invalidations").inc(self.invalidations)
        if self.interventions:
            metrics.counter(prefix + ".interventions").inc(self.interventions)
        if self.upgrades:
            metrics.counter(prefix + ".upgrades").inc(self.upgrades)


class CoherenceBus(Restorable):
    """Snoop bus connecting per-core L1Ds above one shared level."""

    def __init__(self, shared: Cache) -> None:
        self.shared = shared
        self.caches: list[Cache] = []
        #: line address -> the L1D currently holding that line dirty.
        self.owner: dict[int, Cache] = {}
        self.stats = CoherenceStats()

    def attach(self, cache: Cache) -> None:
        cache.coherence = self
        self.caches.append(cache)

    # -- hooks called from Cache ---------------------------------------------

    def on_write(self, cache: Cache, line_addr: int) -> None:
        """*cache* just dirtied *line_addr*: invalidate remote copies."""
        if self.owner.get(line_addr) is cache:
            # Already the exclusive dirty owner — no remote copy can exist.
            return
        for other in self.caches:
            if other is not cache and other.snoop_invalidate(line_addr):
                self.stats.invalidations += 1
        self.owner[line_addr] = cache
        self.stats.upgrades += 1

    def on_fill(self, cache: Cache, line_addr: int) -> None:
        """*cache* is about to fetch *line_addr* from the shared level."""
        owner = self.owner.get(line_addr)
        if owner is not None and owner is not cache:
            # Intervention: the owner pushes its dirty data to the shared
            # level (keeping a clean copy) so the fill reads current data.
            owner.snoop_flush(line_addr)
            del self.owner[line_addr]
            self.stats.interventions += 1

    def on_evict(self, cache: Cache, line_addr: int) -> None:
        """*cache* wrote back and dropped its dirty copy of *line_addr*."""
        if self.owner.get(line_addr) is cache:
            del self.owner[line_addr]

    # -- coherent observation (verification, commit-time load replay) ---------

    def peek_range(self, cache: Cache, paddr: int, length: int) -> bytes:
        """Bytes a read by *cache* at *paddr* would observe, without mutating.

        A local hit wins (invalidate-on-write keeps it current); otherwise a
        remote dirty owner's data is what an intervention would supply; the
        shared hierarchy answers the rest.
        """
        hit = cache.probe(paddr)
        if hit is not None:
            idx, offset = hit
            return cache.peek_line(idx)[offset:offset + length]
        line_addr = paddr - (paddr % cache.line_size)
        owner = self.owner.get(line_addr)
        if owner is not None and owner is not cache:
            owner_hit = owner.probe(paddr)
            if owner_hit is not None:
                idx, offset = owner_hit
                return owner.peek_line(idx)[offset:offset + length]
        return self.shared.peek_range(paddr, length)
