"""Core and memory-hierarchy configuration (Table I of the paper).

The default values reproduce the paper's gem5 ARM Cortex-A9 configuration:

======================================  ======================
ISA / core                              custom RISC / out-of-order
L1 data cache                           32 KB, 4-way
L1 instruction cache                    32 KB, 4-way
L2 cache                                512 KB, 8-way
Data / instruction TLB                  32 entries
Physical register file                  56 + 10 misc registers
Instruction queue                       32
Reorder buffer                          40
Fetch / execute / writeback width       2 / 4 / 4
Clock frequency                         2 GHz
======================================  ======================

The register-file *injection array* is 66 × 32 = 2,112 bits so the FIT
arithmetic matches Table VIII exactly (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.kernel.layout import MemoryLayout
from repro.restorable import Restorable


@dataclass(frozen=True)
class CoreConfig(Restorable):
    """Microarchitectural parameters of the simulated CPU."""

    # Pipeline widths (Table I: fetch/execute/writeback = 2/4/4).
    fetch_width: int = 2
    rename_width: int = 2
    issue_width: int = 4
    writeback_width: int = 4
    commit_width: int = 4

    # Window sizes.
    rob_entries: int = 40
    iq_entries: int = 32
    lq_entries: int = 16
    sq_entries: int = 16
    decode_buffer: int = 8

    # Register file: renameable pool + miscellaneous registers.
    phys_regs: int = 56
    misc_regs: int = 10

    # Memory hierarchy.  Default capacities are the 1:16 (caches) / 1:4
    # (TLBs) scale model matching the scaled-down workload footprints (see
    # DESIGN.md §5); organisations (ways, line size) follow Table I.  Use
    # :meth:`paper_scale` for the full-size Cortex-A9 configuration.
    line_size: int = 32
    l1i_size: int = 512
    l1i_assoc: int = 4
    l1i_latency: int = 2
    l1d_size: int = 256
    l1d_assoc: int = 4
    l1d_latency: int = 2
    l2_size: int = 2 * 1024
    l2_assoc: int = 8
    l2_latency: int = 8
    mem_latency: int = 50
    tlb_entries: int = 12
    tlb_walk_latency: int = 20

    # Control flow.
    mispredict_penalty: int = 2

    # Watchdogs (simulation guards, not microarchitecture).
    deadlock_window: int = 3000

    # Verification (not microarchitecture): attach the repro.verify
    # invariant checker to the core, running structural checks after every
    # commit stage.  Purely observational — a compliant pipeline simulates
    # bit-identically with this on or off, which is why campaign cell keys
    # canonicalise it away (see CampaignConfig.cell_key).
    check_invariants: bool = False

    # Reported only (Table I completeness); the model is cycle-based.
    clock_ghz: float = 2.0

    layout: MemoryLayout = field(default_factory=MemoryLayout)

    def validate(self) -> None:
        from repro.isa.registers import NUM_ARCH_REGS

        if self.phys_regs < NUM_ARCH_REGS + 4:
            raise ConfigError(
                "phys_regs must exceed the architectural register count "
                "with headroom for renaming"
            )
        for name in (
            "fetch_width", "rename_width", "issue_width",
            "writeback_width", "commit_width", "rob_entries",
            "iq_entries", "lq_entries", "sq_entries",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    @property
    def total_regs(self) -> int:
        return self.phys_regs + self.misc_regs

    @classmethod
    def paper_scale(cls) -> "CoreConfig":
        """The full-size Table I configuration (32KB L1s, 512KB L2, 32-entry
        TLBs).  Functionally identical; simulation of the paper's multi-
        million-cycle workloads at this scale is what gem5 was for."""
        return cls(
            l1i_size=32 * 1024,
            l1d_size=32 * 1024,
            l2_size=512 * 1024,
            tlb_entries=32,
        )

    def table1_rows(self) -> list[tuple[str, str]]:
        """Rows of the paper's Table I for this configuration."""

        def kb(size: int) -> str:
            return f"{size // 1024}KB"

        return [
            ("ISA / Core", "custom RISC / Out-of-Order"),
            ("L1 Data cache", f"{kb(self.l1d_size)} {self.l1d_assoc}-way"),
            ("Clock Frequency", f"{self.clock_ghz:g} GHz"),
            ("L1 Instruction cache", f"{kb(self.l1i_size)} {self.l1i_assoc}-way"),
            ("L2 cache", f"{kb(self.l2_size)} {self.l2_assoc}-way"),
            ("Data / Instruction TLB", f"{self.tlb_entries} entries"),
            ("Physical Register File", f"{self.phys_regs} registers"),
            ("Instruction queue", str(self.iq_entries)),
            ("Reorder buffer", str(self.rob_entries)),
            (
                "Fetch / Execute / Writeback width",
                f"{self.fetch_width}/{self.issue_width}/{self.writeback_width}",
            ),
        ]


DEFAULT_CONFIG = CoreConfig()
