"""Command-line entry point: run campaigns and regenerate paper artifacts.

Examples::

    repro-campaign run --samples 50 --workloads crc32 sha --out results.json
    repro-campaign run --store store.json --max-incidents 20   # rerun resumes
    repro-campaign run --jobs 4 --store store.json   # multi-core, same bytes
    repro-campaign run --jobs 4 --store store.json --telemetry
    repro-campaign stats --telemetry store.json.telemetry.json
    repro-campaign trace --telemetry store.json.telemetry.json --out run.trace.json
    repro-campaign incidents --journal store.json.incidents.jsonl
    repro-campaign incidents --journal store.json.incidents.jsonl --json
    repro-campaign report --results results.json --artifact table5
    repro-campaign golden
    repro-campaign static --artifact table6
    repro-campaign run --samples 20 --verify   # oracle-checked campaign
    repro-campaign run --samples 50 --prune-masked   # liveness-pruned, same bytes
    repro-campaign run --adaptive --ci-target 0.02   # CI-driven early stopping
    repro-campaign fuzz --programs 25 --seed 0
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
from pathlib import Path

from repro import obs
from repro.core import report
from repro.core.campaign import (
    DEFAULT_CHECKPOINT_EVERY,
    CampaignConfig,
    CampaignResult,
    CampaignStore,
    InjectionPlan,
    golden_run,
    run_campaign,
)
from repro.core.chaos import NET_SCENARIOS, SCENARIOS, chaos_policy, run_chaos
from repro.core.executor import ALL_BACKEND_NAMES, ResiliencePolicy
from repro.core.generator import CLUSTERED, INDEPENDENT, ClusterShape
from repro.core.supervisor import IncidentJournal, Supervisor
from repro.errors import ConfigError, InjectionIncident
from repro.cpu.config import DEFAULT_CONFIG
from repro.cpu.system import COMPONENT_NAMES
from repro.obs.progress import EtaTracker
from repro.obs.schema import validate_chrome_trace, validate_telemetry
from repro.obs.telemetry import load_summary, summary_chrome_trace
from repro.workloads import get_workload, workload_names

_FIGURES = {
    "fig1": ("l1d", "FIG. 1"),
    "fig2": ("l1i", "FIG. 2"),
    "fig3": ("l2", "FIG. 3"),
    "fig4": ("regfile", "FIG. 4"),
    "fig5": ("dtlb", "FIG. 5"),
    "fig6": ("itlb", "FIG. 6"),
}

_STATIC = {
    "table1": lambda: report.render_table1(DEFAULT_CONFIG),
    "table6": report.render_table6,
    "table7": report.render_table7,
    "table8": report.render_table8,
}


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workloads", nargs="*", default=None,
        help="workload subset (default: all 15)",
    )
    parser.add_argument(
        "--components", nargs="*", default=list(COMPONENT_NAMES),
        choices=list(COMPONENT_NAMES),
    )
    parser.add_argument(
        "--cardinalities", nargs="*", type=int, default=[1, 2, 3]
    )
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--cores", type=int, default=1, metavar="N",
        help="simulate an N-core SMP machine sharing one L2 (default 1, "
        "the paper's machine; --cores 1 is byte-identical to omitting "
        "the flag, other counts key their own cache cells; liveness "
        "pruning is single-core, so --prune-masked needs --cores 1)",
    )
    parser.add_argument(
        "--cluster", default="3x3", help="cluster shape ROWSxCOLS"
    )
    parser.add_argument(
        "--placement", choices=[CLUSTERED, INDEPENDENT], default=CLUSTERED
    )
    parser.add_argument(
        "--store", type=Path, default=None,
        help="incremental cell cache (JSON snapshot + write-ahead journal); "
        "a rerun serves finished cells from it and continues interrupted "
        "ones from their last mid-cell checkpoint, bit-identically",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="abort (non-zero) on the first infra incident instead of "
        "containing it",
    )
    parser.add_argument(
        "--max-incidents", type=int, default=None, metavar="N",
        help="abort once more than N incidents were contained "
        "(default: unlimited)",
    )
    parser.add_argument(
        "--incident-journal", type=Path, default=None, metavar="PATH",
        help="incident journal path (default: <store>.incidents.jsonl "
        "when --store is given)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=DEFAULT_CHECKPOINT_EVERY,
        metavar="N",
        help="persist mid-cell progress every N samples "
        f"(default {DEFAULT_CHECKPOINT_EVERY}; 0 disables)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes; cells are sharded across them and merged "
        "deterministically (byte-identical to --jobs 1; default 1)",
    )
    parser.add_argument(
        "--backend", choices=sorted(ALL_BACKEND_NAMES),
        default="multiprocessing",
        help="how --jobs workers start: 'multiprocessing' forks them from "
        "this process (default), 'socket' starts fresh interpreters that "
        "dial in over TCP (see --listen); every worker speaks the same "
        "framed session, and results are byte-identical either way",
    )
    parser.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="with --backend socket: listen on HOST:PORT and wait for "
        "external 'repro-campaign worker --connect' processes instead of "
        "autospawning local ones",
    )
    parser.add_argument(
        "--accept-timeout", type=float, default=None, metavar="SECONDS",
        help="with --backend socket: how long the coordinator waits for "
        "a worker to join before degrading to fewer workers (default 30)",
    )
    parser.add_argument(
        "--hang-timeout", type=float, default=None, metavar="SECONDS",
        help="seconds without progress: a worker holding cells whose CPU "
        "time has not advanced for this long is killed and its cells "
        "rescheduled (default 30; they resume from their last streamed "
        "checkpoint, bit-identically); retries back off from 1/120 of "
        "it up to all of it",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="quarantine a cell after N failed executions (worker crashes "
        "or hangs) as a poison-cell incident instead of retrying forever "
        "(default 3)",
    )
    parser.add_argument(
        "--telemetry", nargs="?", const="auto", default=None, metavar="PATH",
        help="collect campaign telemetry (metrics + trace spans) and write "
        "it to PATH (default: <store>.telemetry.json next to --store, else "
        "telemetry.json); inspect with the stats and trace subcommands",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="cross-check the campaign against the ISA-level reference "
        "oracle: differential-verify each workload's fault-free run, audit "
        "mask application, compare every Masked outcome's architectural "
        "state, and enable per-commit pipeline invariants (slower; "
        "results are byte-identical to a non-verify run)",
    )
    parser.add_argument(
        "--prune-masked", action="store_true",
        help="classify faults whose flipped bits are provably dead during "
        "the golden run as Masked without simulating them (liveness "
        "pruning; results are byte-identical to an unpruned run, and "
        "--verify audits a sample of pruned verdicts end-to-end)",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="stop each cell early once its AVF confidence interval "
        "reaches --ci-target and reallocate the freed samples to the "
        "widest intervals; --samples becomes a per-cell budget ceiling. "
        "Waves run supervised, on every backend and at any --cores; "
        "incompatible with --store (adaptive cells have no fixed sample "
        "count to cache under)",
    )
    parser.add_argument(
        "--ci-target", type=float, default=0.02, metavar="E",
        help="target Wilson half-width for --adaptive (99%% confidence; "
        "default 0.02; 0 disables early stopping, reproducing the "
        "exact-replay campaign byte-for-byte)",
    )


def _config_from_args(args: argparse.Namespace) -> CampaignConfig:
    rows, _, cols = args.cluster.partition("x")
    return CampaignConfig(
        workloads=tuple(args.workloads) if args.workloads else (),
        components=tuple(args.components),
        cardinalities=tuple(args.cardinalities),
        samples=args.samples,
        seed=args.seed,
        cluster=ClusterShape(int(rows), int(cols)),
        placement=args.placement,
        cores=getattr(args, "cores", 1),
    )


def _journal_path(args: argparse.Namespace) -> Path | None:
    if args.incident_journal is not None:
        return args.incident_journal
    if args.store is not None:
        return Path(str(args.store) + ".incidents.jsonl")
    return None


def _telemetry_path(args: argparse.Namespace) -> Path | None:
    if args.telemetry is None:
        return None
    if args.telemetry != "auto":
        return Path(args.telemetry)
    if args.store is not None:
        return Path(str(args.store) + ".telemetry.json")
    return Path("telemetry.json")


def _write_telemetry(telemetry, path: Path) -> None:
    telemetry.write(path)
    derived = telemetry.summary(include_trace=False)["derived"]
    rate = derived.get("samples_per_sec")
    rate_note = f", {rate:.1f} samples/s" if rate is not None else ""
    print(
        f"telemetry: {path} ({telemetry.wall_seconds():.2f}s wall"
        f"{rate_note}) — inspect with: repro-campaign stats "
        f"--telemetry {path}",
        file=sys.stderr,
    )


def _policy_from_args(args: argparse.Namespace) -> ResiliencePolicy | None:
    """Resilience overrides, or ``None`` for policy defaults.

    Raises :class:`~repro.errors.ConfigError` on an invalid knob (the
    policy checks itself as it is built).
    """
    overrides = {}
    for attr in ("hang_timeout", "max_attempts"):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[attr] = value
    return ResiliencePolicy(**overrides) if overrides else None


def _backend_options(args: argparse.Namespace) -> dict | None:
    """Socket-coordinator options from --listen / --accept-timeout.

    Raises :class:`~repro.errors.ConfigError` when those flags are used
    with a non-socket backend or the address does not parse.
    """
    listen = getattr(args, "listen", None)
    accept_timeout = getattr(args, "accept_timeout", None)
    if args.backend != "socket":
        if listen is not None or accept_timeout is not None:
            raise ConfigError(
                "--listen/--accept-timeout require --backend socket"
            )
        return None
    if listen is not None and getattr(args, "jobs", 1) < 2:
        # --jobs 1 runs serially in-process: nothing would ever listen,
        # and remote workers would wait on a port that never opens.
        raise ConfigError("--listen requires --jobs 2 or more")
    options: dict = {}
    if listen is not None:
        from repro.core.coordinator import parse_address

        try:
            host, port = parse_address(listen)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        options.update(host=host, port=port, autospawn=False)
    if accept_timeout is not None:
        if accept_timeout <= 0:
            raise ConfigError(
                f"--accept-timeout must be > 0 (got {accept_timeout})"
            )
        options["accept_timeout"] = accept_timeout
    return options or None


#: Which signal interrupted the run — SIGINT unless the SIGTERM handler
#: fired; the CLI exits 128+signum (130 for Ctrl-C, 143 for SIGTERM).
_interrupt_signum = {"value": signal.SIGINT}


def _install_graceful_signals() -> None:
    """Make SIGTERM drain exactly like Ctrl-C.

    Orchestrators (systemd, Kubernetes, CI timeouts) send SIGTERM; raising
    ``KeyboardInterrupt`` routes it into the same graceful path — workers
    stop at the next sample, final mid-cell checkpoints are flushed, and a
    rerun on the same store continues bit-identically.
    """
    _interrupt_signum["value"] = signal.SIGINT

    def handler(signum, frame) -> None:
        _interrupt_signum["value"] = signum
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, handler)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _install_graceful_signals()
    from repro.cpu.smp import MAX_CORES

    if not 1 <= config.cores <= MAX_CORES:
        print(
            f"error: --cores must be in 1..{MAX_CORES} "
            f"(got {config.cores})",
            file=sys.stderr,
        )
        return 2
    try:
        policy = _policy_from_args(args)
        backend_options = _backend_options(args)
        InjectionPlan.check(config.cores, args.prune_masked)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.adaptive and args.store:
        # Adaptive cells have no fixed sample count, so they cannot share
        # the store's exact-parameter cache keys.
        print(
            "error: --adaptive is incompatible with --store "
            "(adaptive cells have no fixed sample count to cache under)",
            file=sys.stderr,
        )
        return 2
    store = CampaignStore(args.store) if args.store else None
    if store is not None and store.quarantined is not None:
        print(
            f"warning: corrupt store snapshot quarantined to "
            f"{store.quarantined}; rebuilt from journal",
            file=sys.stderr,
        )
    journal = IncidentJournal(_journal_path(args))
    supervisor = Supervisor(
        journal=journal,
        max_incidents=args.max_incidents,
        strict=args.strict,
    )
    telemetry_path = _telemetry_path(args)
    telemetry = obs.enable() if telemetry_path is not None else None

    eta = EtaTracker(samples_per_cell=config.samples)

    def progress(done: int, total: int, cell) -> None:
        eta.update(done, total)
        suffix = eta.render()
        print(
            f"[{done:>4}/{total}] {cell.workload}/{cell.component}/"
            f"{cell.cardinality}-bit AVF={cell.avf:.3f}"
            + (f"  ({suffix})" if suffix else ""),
            file=sys.stderr,
        )

    core_cfg = DEFAULT_CONFIG
    if args.verify:
        from dataclasses import replace

        core_cfg = replace(DEFAULT_CONFIG, check_invariants=True)

    try:
        if args.adaptive:
            from repro.core.adaptive import run_campaign_adaptive

            try:
                adaptive = run_campaign_adaptive(
                    config, args.ci_target,
                    jobs=args.jobs, progress=progress,
                    events=lambda message: print(message, file=sys.stderr),
                    core_cfg=core_cfg, supervisor=supervisor,
                    verify=args.verify, prune=args.prune_masked,
                    backend=args.backend, backend_options=backend_options,
                    policy=policy,
                )
            except ConfigError as exc:
                print(f"error: --adaptive: {exc}", file=sys.stderr)
                return 2
            result = adaptive.result
            print(
                f"adaptive: {adaptive.spent_samples:,} of "
                f"{adaptive.baseline_samples:,} budgeted samples spent "
                f"({adaptive.saved_fraction:.0%} saved)",
                file=sys.stderr,
            )
        else:
            result = run_campaign(
                config, progress=progress, store=store,
                core_cfg=core_cfg,
                supervisor=supervisor,
                checkpoint_every=args.checkpoint_every or None,
                jobs=args.jobs,
                verify=args.verify,
                prune=args.prune_masked,
                backend=args.backend,
                backend_options=backend_options,
                policy=policy,
            )
    except InjectionIncident as exc:
        print(f"campaign aborted: {exc}", file=sys.stderr)
        if journal.path is not None:
            print(f"incident journal: {journal.path}", file=sys.stderr)
        if telemetry is not None:
            _write_telemetry(telemetry, telemetry_path)
        return 1
    except KeyboardInterrupt:
        signum = _interrupt_signum["value"]
        print(
            f"campaign interrupted ({signal.Signals(signum).name}) — "
            "mid-cell checkpoints flushed"
            + (", rerun with the same --store to continue bit-identically"
               if store is not None else ""),
            file=sys.stderr,
        )
        if telemetry is not None:
            # Partial telemetry is still a valid summary of the work done
            # so far (metrics merge is prefix-closed).
            _write_telemetry(telemetry, telemetry_path)
        return 128 + signum
    if supervisor.incident_count:
        where = journal.path if journal.path is not None else "in-memory only"
        print(
            f"{supervisor.incident_count} infra incident(s) contained "
            f"(journal: {where})",
            file=sys.stderr,
        )
    blob = result.to_json()
    if args.out:
        Path(args.out).write_text(blob)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(blob)
    if telemetry is not None:
        _write_telemetry(telemetry, telemetry_path)
    return 0


def _load_result(path: Path) -> CampaignResult:
    return CampaignResult.from_json(path.read_text())


def _cmd_report(args: argparse.Namespace) -> int:
    result = _load_result(args.results)
    artifact = args.artifact
    if artifact in _FIGURES:
        component, title = _FIGURES[artifact]
        print(report.render_component_figure(result, component, title))
    elif artifact == "table4":
        print(report.render_table4(result))
    elif artifact == "table5":
        print(report.render_table5(result))
    elif artifact == "fig7":
        print(report.render_fig7(result))
    elif artifact == "fig8":
        print(report.render_fig8(result))
    else:
        print(f"unknown artifact {artifact!r}", file=sys.stderr)
        return 2
    return 0


def _cmd_static(args: argparse.Namespace) -> int:
    renderer = _STATIC.get(args.artifact)
    if renderer is None:
        print(f"unknown static artifact {args.artifact!r}", file=sys.stderr)
        return 2
    print(renderer())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.core import export

    exporters = {
        "cells": export.cells_to_csv,
        "weighted-avf": export.weighted_avf_to_csv,
        "node-avf": export.node_avf_to_csv,
        "fit": export.fit_to_csv,
        "summary": export.summary_to_csv,
    }
    result = _load_result(args.results)
    print(exporters[args.what](result), end="")
    return 0


def _cmd_incidents(args: argparse.Namespace) -> int:
    from repro.core.supervisor import INCIDENT_KINDS

    journal = IncidentJournal.load(args.journal)
    incidents = journal.incidents
    selected = None
    if args.types:
        selected = [t.strip() for t in args.types.split(",") if t.strip()]
        unknown = [t for t in selected if t not in INCIDENT_KINDS]
        if unknown:
            print(
                f"error: unknown incident type(s) {', '.join(unknown)} "
                f"(choose from {', '.join(INCIDENT_KINDS)})",
                file=sys.stderr,
            )
            return 2
        incidents = [i for i in incidents if i.kind in selected]
    if args.json:
        print(json.dumps(
            [incident.as_dict() for incident in incidents],
            indent=1, sort_keys=True,
        ))
        return 0
    print(report.render_incidents(
        incidents, verbose=args.verbose,
        total=len(journal.incidents) if selected is not None else None,
        selected=selected,
    ))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.core.coordinator import run_worker

    def log(text: str) -> None:
        if not args.quiet:
            print(f"worker: {text}", file=sys.stderr)

    try:
        return run_worker(
            args.connect,
            reconnect=args.reconnect,
            retry_delay=args.retry_delay,
            max_retries=args.max_retries,
            log=log,
        )
    except ValueError as exc:  # bad --connect address
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        summary = load_summary(args.telemetry)
    except (OSError, ValueError) as exc:
        print(f"cannot read telemetry {args.telemetry}: {exc}", file=sys.stderr)
        return 2
    if args.check:
        errors = validate_telemetry(summary)
        errors += validate_chrome_trace(summary_chrome_trace(summary))
        if errors:
            for error in errors:
                print(f"invalid: {error}", file=sys.stderr)
            return 1
        print(f"{args.telemetry}: telemetry and trace schemas OK",
              file=sys.stderr)
    print(report.render_telemetry(summary))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        summary = load_summary(args.telemetry)
    except (OSError, ValueError) as exc:
        print(f"cannot read telemetry {args.telemetry}: {exc}", file=sys.stderr)
        return 2
    trace = summary_chrome_trace(summary)
    blob = json.dumps(trace, sort_keys=True)
    if args.out:
        Path(args.out).write_text(blob)
        print(
            f"wrote {args.out} ({len(trace['traceEvents'])} events) — open "
            "in chrome://tracing or https://ui.perfetto.dev",
            file=sys.stderr,
        )
    else:
        print(blob)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify.fuzz import run_fuzz, run_smp_fuzz

    def progress(done: int, total: int, report) -> None:
        status = "ok" if report.ok else f"{len(report.divergences)} DIVERGENT"
        print(
            f"[{done:>4}/{total}] {report.instructions:,} instructions "
            f"compared, {status}",
            file=sys.stderr,
        )

    if args.cores > 1:
        report = run_smp_fuzz(
            args.programs, seed=args.seed, length=args.length,
            cores=args.cores,
            progress=progress if not args.quiet else None,
        )
    else:
        report = run_fuzz(
            args.programs, seed=args.seed, length=args.length,
            progress=progress if not args.quiet else None,
        )
    if report.ok:
        print(
            f"fuzz: {report.programs} programs, {report.instructions:,} "
            f"retired instructions compared against the oracle, "
            f"0 divergences"
        )
        return 0
    for div in report.divergences:
        print(f"=== divergent program {div.index} (seed {div.seed!r}) ===")
        print(div.message)
        print("--- program source ---")
        print(div.source)
    print(
        f"fuzz: {len(report.divergences)}/{report.programs} programs "
        f"diverged from the reference oracle",
        file=sys.stderr,
    )
    return 1


def _cmd_golden(args: argparse.Namespace) -> int:
    names = args.workloads or workload_names()
    measured = {}
    for name in names:
        workload = get_workload(name)
        result = golden_run(workload)
        measured[name] = result.cycles
        print(
            f"{name:14s} cycles={result.cycles:>9,} "
            f"instructions={result.instructions:>9,} ipc={result.ipc:.2f}"
        )
    paper = {name: get_workload(name).paper_cycles for name in names}
    print()
    print(report.render_table3(measured, paper))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.jobs < 2:
        # Chaos events fire in pool workers; --jobs 1 runs in-process,
        # where every scenario would pass without a fault injected.
        print(
            f"error: chaos needs --jobs 2 or more (got {args.jobs})",
            file=sys.stderr,
        )
        return 2
    config = CampaignConfig(
        workloads=tuple(args.workloads) if args.workloads else ("crc32",),
        components=tuple(args.components),
        cardinalities=tuple(args.cardinalities),
        samples=args.samples,
        seed=args.seed,
    )
    # The harness's tight timings, with any CLI overrides applied on top.
    policy = chaos_policy()
    try:
        if args.hang_timeout is not None:
            policy = dataclasses.replace(
                policy, hang_timeout=args.hang_timeout
            )
        if args.max_attempts is not None:
            policy = dataclasses.replace(
                policy, max_attempts=args.max_attempts
            )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scenarios = tuple(args.scenarios) if args.scenarios else SCENARIOS
    try:
        report = run_chaos(
            config,
            scenarios=scenarios,
            jobs=args.jobs,
            seed=args.chaos_seed,
            workdir=args.workdir,
            backend=args.backend,
            policy=policy,
            progress=lambda scenario: print(
                f"chaos: running scenario {scenario!r} ...", file=sys.stderr
            ),
        )
    except ValueError as exc:  # stale-epoch without --backend socket
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for outcome in report.outcomes:
        status = "ok" if outcome.ok else "FAIL"
        print(f"[{status}] {outcome.scenario:7s} {outcome.detail}")
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.as_dict(), indent=1, sort_keys=True)
        )
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Multi-bit upset fault-injection campaigns "
        "(IISWC 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an injection campaign")
    _add_campaign_args(p_run)
    p_run.add_argument("--out", type=Path, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser(
        "report", help="render a table/figure from campaign results"
    )
    p_report.add_argument("--results", type=Path, required=True)
    p_report.add_argument(
        "--artifact", required=True,
        choices=sorted([*_FIGURES, "table4", "table5", "fig7", "fig8"]),
    )
    p_report.set_defaults(func=_cmd_report)

    p_static = sub.add_parser(
        "static", help="render a data table that needs no campaign"
    )
    p_static.add_argument(
        "--artifact", required=True, choices=sorted(_STATIC)
    )
    p_static.set_defaults(func=_cmd_static)

    p_export = sub.add_parser(
        "export", help="export campaign results as CSV"
    )
    p_export.add_argument("--results", type=Path, required=True)
    p_export.add_argument(
        "--what", required=True,
        choices=["cells", "weighted-avf", "node-avf", "fit", "summary"],
    )
    p_export.set_defaults(func=_cmd_export)

    p_incidents = sub.add_parser(
        "incidents", help="inspect a campaign's incident journal"
    )
    p_incidents.add_argument("--journal", type=Path, required=True)
    p_incidents.add_argument(
        "--verbose", action="store_true",
        help="include the full traceback of every incident",
    )
    p_incidents.add_argument(
        "--json", action="store_true",
        help="emit the journal as machine-readable JSON instead of a table",
    )
    p_incidents.add_argument(
        "--type", dest="types", default=None, metavar="KINDS",
        help="comma-separated incident kinds to show, e.g. "
        "retry,worker-hang,poison-cell (default: all; 'lease-expired' "
        "still filters journals written before stall detection replaced "
        "leases)",
    )
    p_incidents.set_defaults(func=_cmd_incidents)

    p_worker = sub.add_parser(
        "worker",
        help="join a distributed campaign as a socket worker "
        "(serves cells for a coordinator running with --backend socket)",
    )
    p_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the coordinator's listen address",
    )
    p_worker.add_argument(
        "--reconnect", action="store_true",
        help="rejoin the campaign after a lost connection and resume "
        "rescheduled cells from their last acked checkpoint (default: "
        "exit on disconnect)",
    )
    p_worker.add_argument(
        "--retry-delay", type=float, default=0.5, metavar="SECONDS",
        help="delay between connection attempts (default 0.5)",
    )
    p_worker.add_argument(
        "--max-retries", type=int, default=20, metavar="N",
        help="connection attempts before giving up on the coordinator "
        "(default 20)",
    )
    p_worker.add_argument(
        "--quiet", action="store_true", help="suppress lifecycle messages",
    )
    p_worker.set_defaults(func=_cmd_worker)

    p_stats = sub.add_parser(
        "stats", help="render a campaign telemetry summary"
    )
    p_stats.add_argument(
        "--telemetry", type=Path, required=True, metavar="PATH",
        help="telemetry.json written by run --telemetry",
    )
    p_stats.add_argument(
        "--check", action="store_true",
        help="validate the telemetry and derived Chrome trace against "
        "their schemas first (non-zero exit on violations)",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_trace = sub.add_parser(
        "trace", help="export telemetry spans as a Chrome trace_event file"
    )
    p_trace.add_argument(
        "--telemetry", type=Path, required=True, metavar="PATH",
        help="telemetry.json written by run --telemetry",
    )
    p_trace.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="trace output path (default: stdout)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_golden = sub.add_parser(
        "golden", help="run fault-free golden simulations (Table III)"
    )
    p_golden.add_argument("--workloads", nargs="*", default=None)
    p_golden.set_defaults(func=_cmd_golden)

    p_chaos = sub.add_parser(
        "chaos",
        help="run the deterministic chaos matrix against the parallel "
        "executor and verify byte-identity to a serial run",
    )
    p_chaos.add_argument(
        "--workloads", nargs="*", default=None,
        help="workload subset for the chaos campaign (default: crc32)",
    )
    p_chaos.add_argument(
        "--components", nargs="*", default=["regfile", "itlb"],
        choices=list(COMPONENT_NAMES),
    )
    p_chaos.add_argument("--cardinalities", nargs="*", type=int, default=[1, 2])
    p_chaos.add_argument("--samples", type=int, default=4)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--scenarios", nargs="*", default=None,
        choices=list(SCENARIOS + NET_SCENARIOS),
        metavar="NAME",
        help=f"scenario subset (default: the full local matrix "
        f"{SCENARIOS}; network scenarios: {NET_SCENARIOS}, of which "
        f"stale-epoch needs --backend socket)",
    )
    p_chaos.add_argument("--jobs", type=int, default=2, metavar="N")
    p_chaos.add_argument(
        "--chaos-seed", type=int, default=0, metavar="SEED",
        help="seed of the fault plan (same seed → same chaos)",
    )
    p_chaos.add_argument(
        "--backend", choices=sorted(ALL_BACKEND_NAMES),
        default="multiprocessing",
    )
    p_chaos.add_argument(
        "--workdir", type=Path, required=True, metavar="DIR",
        help="scratch directory for per-scenario stores, chaos flag files "
        "and incident journals",
    )
    p_chaos.add_argument("--hang-timeout", type=float, default=None)
    p_chaos.add_argument("--max-attempts", type=int, default=None)
    p_chaos.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="write the machine-readable chaos report as JSON",
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differentially fuzz the simulator against the ISA-level "
        "reference oracle with random programs",
    )
    p_fuzz.add_argument(
        "--programs", type=int, default=25, metavar="N",
        help="number of random programs to generate and compare (default 25)",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0,
        help="fuzz seed; program i uses ProgramFuzzer seed '<seed>:<i>'",
    )
    p_fuzz.add_argument(
        "--length", type=int, default=40, metavar="N",
        help="approximate instructions generated per program (default 40)",
    )
    p_fuzz.add_argument(
        "--cores", type=int, default=1, metavar="N",
        help="fuzz N-core spawn/amo programs against the lock-step SMP "
        "oracle with the coherence auditor armed (default 1: the "
        "single-core fuzzer)",
    )
    p_fuzz.add_argument(
        "--quiet", action="store_true", help="suppress per-program progress",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
