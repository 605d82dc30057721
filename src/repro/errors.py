"""Exception hierarchy shared across the repro packages.

Two families of errors exist in this project and must not be confused:

* **Tooling errors** (:class:`AsmError`, :class:`CompileError`,
  :class:`ConfigError`) indicate a bug in a workload program or in the way
  the library is being driven.  They are ordinary Python exceptions.

* **Simulator assertions** (:class:`SimAssertion`) correspond to the paper's
  *Assert* fault-effect class: the simulated machine reached a state the
  simulator itself cannot represent (e.g. a corrupted TLB entry produced a
  physical address outside the platform memory map).  Campaign code catches
  these and records the run as ``Assert``.

Architectural exceptions experienced by the simulated program (page fault,
illegal instruction, ...) are *not* Python exceptions; they are precise
events handled at commit time by :mod:`repro.cpu` and surface as the
``Crash`` fault-effect class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class AsmError(ReproError):
    """An assembly source program could not be assembled."""


class CompileError(ReproError):
    """A MiniC source program could not be compiled."""


class ConfigError(ReproError):
    """An invalid simulator or campaign configuration was supplied."""


class SimAssertion(ReproError):
    """The simulator hit an internal invariant violation (paper class *Assert*).

    The canonical source is a fault-corrupted address translation that points
    outside the simulated platform's physical memory map, which the paper
    reports as the dominant Assert mechanism for TLB faults.
    """


class InjectionIncident(ReproError):
    """An *infrastructure* failure during one injection experiment.

    Unlike :class:`SimAssertion` (a deliberate, modelled fault effect), an
    incident means the injector or simulator itself misbehaved — an
    unexpected Python exception, a stuck cycle counter, a corrupted
    intermediate state the code was never written to handle.  The campaign
    supervisor (:mod:`repro.core.supervisor`) contains incidents by default,
    journalling a full repro bundle and moving on; in ``--strict`` mode it
    escalates them by raising this exception.
    """


class VerificationError(ReproError):
    """The verification subsystem (:mod:`repro.verify`) failed a check.

    Deliberately *not* a :class:`SimAssertion`: a simulator assertion is a
    modelled fault effect (the paper's *Assert* class), while a verification
    failure means the simulator and its independent ISA-level oracle
    disagree — a bug in the platform itself that must surface loudly, never
    be classified as a fault outcome.
    """


class DivergenceError(VerificationError):
    """The out-of-order core's committed state diverged from the oracle.

    Raised by :mod:`repro.verify.differential` at the first retired
    instruction whose (pc, encoding, register writeback, memory store)
    differs between the out-of-order system and the in-order ISA-level
    reference executor, or when their terminal states disagree.
    """


class InvariantViolation(VerificationError):
    """A microarchitectural invariant failed during simulation.

    Raised by :mod:`repro.verify.invariants` when a structural property the
    pipeline must maintain by construction (ROB program order, free-list /
    rename-map conservation, clean-cache-line coherence with the backing
    memory, TLB consistency with the page tables) is observed broken.
    """


class CampaignInterrupted(ReproError):
    """A campaign was asked to stop (Ctrl-C / stop event) and wound down.

    Raised by :func:`repro.core.campaign.run_cell` when its *stop* probe
    fires between samples, after flushing a mid-cell checkpoint so the
    interrupted cell resumes bit-identically.  The parallel executor uses
    this for graceful worker drain; it is not an error in the campaign
    itself.
    """


class WorkerCrash(InjectionIncident):
    """A parallel campaign worker process died outright.

    The parent turns the death into a journalled incident and reschedules
    the worker's in-flight cells (they resume from the last streamed
    checkpoint, so no samples are lost); this exception surfaces only when
    crashes repeat beyond the restart budget, which means the crash is
    deterministic and rescheduling cannot converge.
    """


class WorkerHang(InjectionIncident):
    """A parallel campaign worker stopped making progress.

    Raised conceptually (and journalled as kind ``worker-hang``) when a
    worker with in-flight cells reports no CPU progress for the
    resilience policy's hang timeout.  The scheduler kills the worker and
    reschedules its cells from the last streamed checkpoint; the
    exception type exists for ``--strict`` escalation.
    """


class PoisonCell(InjectionIncident):
    """A cell repeatedly killed or hung every worker that touched it.

    After ``max_attempts`` failed executions the scheduler quarantines the
    cell (journalled as kind ``poison-cell``): whatever samples its last
    streamed checkpoint holds become the cell's result, the missing
    samples are counted as lost, and the campaign continues.  The
    exception surfaces only under ``--strict``/``--max-incidents``.
    """


class ChaosAbort(ReproError):
    """A chaos-harness event simulating a hard process death fired.

    Raised by the chaos store wrapper after deliberately tearing a
    journal append, at exactly the point where a real kill would have
    interrupted the write.  The chaos driver catches it, reopens the
    store from disk (as a restarted process would) and resumes.
    """


class WatchdogTimeout(InjectionIncident):
    """The per-injection step-count watchdog tripped.

    Raised when the simulator executes more pipeline steps than any legal
    run could need — the signature of an infra livelock where the cycle
    counter has stopped advancing, which the ordinary ``max_cycles`` bound
    can never catch.
    """


class IncidentBudgetExceeded(InjectionIncident):
    """A campaign recorded more incidents than its ``--max-incidents`` budget.

    Past this point the campaign's statistics can no longer be trusted
    (too many samples were lost to infra failures), so the supervisor
    aborts instead of silently degrading.
    """
