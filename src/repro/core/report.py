"""Text renderers for every table and figure of the paper.

Each ``render_*`` function returns a string; the benchmark harnesses print
them so that running a bench regenerates the corresponding artifact.  Bars
are rendered in ASCII — the point is the numbers and their shape, not
typesetting.
"""

from __future__ import annotations

from repro.core.avf import (
    ClassCounts,
    FaultClass,
    max_increase,
    node_avf,
    weighted_fraction,
)
from repro.core.campaign import CampaignResult
from repro.core.fit import cpu_fit_by_node
from repro.core.targets import COMPONENT_LABELS, PAPER_COMPONENT_BITS
from repro.core.technology import (
    MBU_RATES,
    RAW_FIT_PER_BIT,
    TECHNOLOGY_NODES,
)
from repro.cpu.config import CoreConfig

#: Reporting order for components, matching the paper's section order.
COMPONENT_ORDER = ("l1d", "l1i", "l2", "regfile", "dtlb", "itlb")


def format_table(
    headers: list[str], rows: list[list[str]], title: str = ""
) -> str:
    """Plain-text aligned table."""
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]

    def line(cells: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in rows)
    return "\n".join(parts)


def _bar(fraction: float, width: int = 40, char: str = "#") -> str:
    filled = round(max(0.0, min(1.0, fraction)) * width)
    return char * filled


def _pct(value: float) -> str:
    return f"{100 * value:6.2f}%"


# -- Tables I, III, VI, VII, VIII ------------------------------------------------


def render_table1(cfg: CoreConfig) -> str:
    rows = [[attr, value] for attr, value in cfg.table1_rows()]
    return format_table(
        ["Microarchitectural attribute", "Value"], rows,
        "TABLE I. SUMMARY OF SETUP ATTRIBUTES",
    )


def render_table3(measured_cycles: dict[str, int],
                  paper_cycles: dict[str, int]) -> str:
    rows = [
        [name, f"{measured_cycles[name]:,}", f"{paper_cycles[name]:,}"]
        for name in measured_cycles
    ]
    return format_table(
        ["Benchmark", "Execution time (cycles, this repo)",
         "Execution time (cycles, paper)"],
        rows,
        "TABLE III. BENCHMARK EXECUTION TIME",
    )


def render_table6() -> str:
    rows = [
        [node, _pct(rates[0]), _pct(rates[1]), _pct(rates[2])]
        for node, rates in MBU_RATES.items()
    ]
    return format_table(
        ["Technology node", "Single-bit", "Double-bit", "Triple-bit"],
        rows,
        "TABLE VI. MULTI-BIT RATES PER NODE",
    )


def render_table7() -> str:
    rows = [
        [node, f"{fit / 1e-8:.0f} x 10^-8"]
        for node, fit in RAW_FIT_PER_BIT.items()
    ]
    return format_table(
        ["Node", "Raw FIT per bit"], rows,
        "TABLE VII. RAW FIT FOR 250NM TO 22NM NODES",
    )


def render_table8() -> str:
    rows = [
        [COMPONENT_LABELS[c], f"{PAPER_COMPONENT_BITS[c]:,}"]
        for c in COMPONENT_ORDER
    ]
    return format_table(
        ["Component", "Size (in bits)"], rows,
        "TABLE VIII. COMPONENT SIZES IN BITS",
    )


# -- Figures 1-6: per-component AVF breakdowns ---------------------------------------


_CLASS_ORDER = (
    FaultClass.MASKED, FaultClass.SDC, FaultClass.CRASH,
    FaultClass.TIMEOUT, FaultClass.ASSERT,
)


def render_component_figure(
    result: CampaignResult, component: str, figure_name: str
) -> str:
    """Figs. 1-6: stacked fault-effect breakdown per workload × cardinality."""
    lines = [
        f"{figure_name}: AVF breakdown for "
        f"{COMPONENT_LABELS.get(component, component)} "
        f"(single/double/triple-bit faults)",
        "",
    ]
    headers = ["Workload", "Faults", "Masked", "SDC", "Crash",
               "Timeout", "Assert", "AVF"]
    rows = []
    for workload in result.workloads():
        for cardinality in result.cardinalities():
            counts = result.cell(workload, component, cardinality).counts
            rows.append([
                workload if cardinality == result.cardinalities()[0] else "",
                f"{cardinality}-bit",
                _pct(counts.fraction(FaultClass.MASKED)),
                _pct(counts.fraction(FaultClass.SDC)),
                _pct(counts.fraction(FaultClass.CRASH)),
                _pct(counts.fraction(FaultClass.TIMEOUT)),
                _pct(counts.fraction(FaultClass.ASSERT)),
                _pct(counts.avf),
            ])
    lines.append(format_table(headers, rows))
    lines.append("")
    lines.append("AVF bars (execution-time-weighted across workloads):")
    cycles = result.golden_cycles()
    for cardinality in result.cardinalities():
        counts_by_wl = result.counts_by_workload(component, cardinality)
        avf = result.weighted_avf(component, cardinality)
        segments = []
        for cls in _CLASS_ORDER[1:]:
            frac = weighted_fraction(counts_by_wl, cycles, cls)
            segments.append(f"{cls.value}={_pct(frac).strip()}")
        lines.append(
            f"  {cardinality}-bit |{_bar(avf):40s}| AVF={_pct(avf).strip()} "
            f"({', '.join(segments)})"
        )
    return "\n".join(lines)


# -- Table IV / V -----------------------------------------------------------------------


def render_table4(result: CampaignResult) -> str:
    rows = []
    for component in COMPONENT_ORDER:
        single = result.avf_by_workload(component, 1)
        double = result.avf_by_workload(component, 2)
        triple = result.avf_by_workload(component, 3)
        rows.append([
            COMPONENT_LABELS[component],
            f"{max_increase(single, double):.1f}x",
            f"{max_increase(single, triple):.1f}x",
        ])
    return format_table(
        ["Component", "2-bit increase", "3-bit increase"], rows,
        "TABLE IV. VULNERABILITY INCREASE PER COMPONENT "
        "(worst-case workload ratio vs single-bit)",
    )


def render_table5(result: CampaignResult) -> str:
    rows = []
    for component in COMPONENT_ORDER:
        weighted = result.weighted_avf_by_cardinality(component)
        previous = None
        for cardinality in sorted(weighted):
            avf = weighted[cardinality]
            if previous is None or previous == 0.0:
                increase = "-"
            else:
                increase = f"{100 * (avf - previous) / previous:+.2f}%"
            rows.append([
                COMPONENT_LABELS[component] if cardinality == 1 else "",
                str(cardinality),
                _pct(avf),
                increase,
            ])
            previous = avf
    return format_table(
        ["Component", "Injected faults", "AVF", "Percentage increase"],
        rows,
        "TABLE V. WEIGHTED AVF PER COMPONENT FOR 1, 2, AND 3 FAULTS",
    )


# -- Figures 7 and 8 ------------------------------------------------------------------------


def _avf_tables(result: CampaignResult) -> dict[str, dict[int, float]]:
    return {
        component: result.weighted_avf_by_cardinality(component)
        for component in COMPONENT_ORDER
    }


def render_fig7(result: CampaignResult) -> str:
    """Fig. 7: aggregate multi-bit AVF per component per technology node."""
    tables = _avf_tables(result)
    lines = [
        "FIG. 7: Multi-bit weighted AVF per component per technology node",
        "  green (#) = single-bit-only AVF, red (+) = added by multi-bit "
        "upsets; gap% = relative assessment gap",
        "",
    ]
    for component in COMPONENT_ORDER:
        avfs = tables[component]
        single = avfs.get(1, 0.0)
        lines.append(f"{COMPONENT_LABELS[component]}:")
        for node in TECHNOLOGY_NODES:
            aggregate = node_avf(avfs, node)
            gap = (aggregate - single) / single if single else 0.0
            green = _bar(single, 50, "#")
            red = _bar(aggregate - single, 50, "+")
            lines.append(
                f"  {node:>6s} |{green}{red}  "
                f"AVF={_pct(aggregate).strip()} "
                f"(single-bit-only {_pct(single).strip()}, "
                f"gap {100 * gap:.1f}%)"
            )
        lines.append("")
    return "\n".join(lines)


def render_fig8(result: CampaignResult) -> str:
    """Fig. 8: whole-CPU FIT per node with the multi-bit share."""
    fits = cpu_fit_by_node(_avf_tables(result))
    peak = max(fit.fit_total for fit in fits.values()) or 1.0
    lines = [
        "FIG. 8: CPU FIT per technology node "
        "(Eq. 4 with Table VII raw FIT and Table VIII bit counts)",
        "  green (#) = single-bit FIT, red (+) = multi-bit contribution",
        "",
    ]
    for node in TECHNOLOGY_NODES:
        fit = fits[node]
        green = _bar(fit.fit_single_only / peak, 50, "#")
        red = _bar(fit.fit_multibit / peak, 50, "+")
        lines.append(
            f"  {node:>6s} |{green}{red}  "
            f"FIT={fit.fit_total:.3f} "
            f"(multi-bit {100 * fit.multibit_share:.1f}%)"
        )
    return "\n".join(lines)


# -- Incident journal ------------------------------------------------------------


def render_incidents(
    incidents: list,
    verbose: bool = False,
    *,
    total: int | None = None,
    selected: list | None = None,
) -> str:
    """Human-readable view of an incident journal.

    *incidents* is a list of :class:`repro.core.supervisor.Incident`.  The
    summary line counts every incident by kind; *verbose* appends every
    stored traceback (the repro bundle's human half — the machine half is
    the JSONL record itself).  When *incidents* is a type-filtered view
    (``incidents --type ...``), pass the journal's *total* and the
    *selected* kinds so the summary says what was filtered out.
    """
    filter_note = (
        f" (showing types {','.join(selected)} of {total} total)"
        if selected is not None and total is not None else ""
    )
    if not incidents:
        return (
            f"no incidents recorded{filter_note}" if filter_note
            else "no incidents recorded"
        )
    by_kind: dict[str, int] = {}
    by_error: dict[str, int] = {}
    for incident in incidents:
        by_kind[incident.kind] = by_kind.get(incident.kind, 0) + 1
        by_error[incident.error_type] = by_error.get(incident.error_type, 0) + 1
    lines = [
        f"{len(incidents)} incident(s): "
        + ", ".join(f"{n} {kind}" for kind, n in sorted(by_kind.items()))
        + filter_note,
        "error types: "
        + ", ".join(f"{n}x {err}" for err, n in sorted(by_error.items())),
        "",
    ]
    rows = []
    for index, incident in enumerate(incidents):
        message = incident.message
        if len(message) > 48:
            message = message[:45] + "..."
        rows.append([
            str(index), incident.kind, incident.cell_label(),
            str(incident.sample_index), str(incident.inject_cycle),
            incident.error_type, message,
        ])
    lines.append(format_table(
        ["#", "kind", "cell", "sample", "cycle", "error", "message"], rows
    ))
    if verbose:
        for index, incident in enumerate(incidents):
            lines.append("")
            lines.append(f"--- incident {index}: {incident.cell_label()} "
                         f"sample {incident.sample_index} "
                         f"(cell seed {incident.cell_seed!r}) ---")
            lines.append(incident.traceback.rstrip())
    return "\n".join(lines)


def _format_seconds(seconds: float) -> str:
    if seconds < 0.001:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def render_telemetry(summary: dict) -> str:
    """Human-readable view of a ``telemetry.json`` summary.

    Input is the dict shape produced by
    :meth:`repro.obs.telemetry.Telemetry.summary` (see DESIGN.md §8):
    counters, gauges, duration histograms, and the derived figures.
    """
    derived = summary.get("derived", {})
    wall = summary.get("wall_seconds", 0.0)
    header = f"wall {wall:.2f}s"
    rate = derived.get("samples_per_sec")
    if rate is not None:
        header += f" · {rate:.1f} samples/s"
    utilization = derived.get("worker_utilization")
    if utilization is not None:
        header += f" · worker utilization {utilization * 100:.0f}%"
    pruning = derived.get("pruning_hit_rate")
    if pruning is not None:
        header += f" · {pruning * 100:.1f}% pruned"
    fabric = derived.get("fabric")
    if fabric:
        header += f" · fabric: {fabric.get('joins', 0)} join(s)"
    lines = [header, ""]
    counters = summary.get("counters", {})
    if counters:
        lines.append(format_table(
            ["counter", "value"],
            [[name, f"{counters[name]:,}"] for name in sorted(counters)],
        ))
        lines.append("")
    gauges = summary.get("gauges", {})
    # Adaptive per-cell gauges pair up (ci + samples per cell); render them
    # as one table instead of interleaving them into the generic list.
    adaptive_ci = {
        name[len("adaptive.ci."):]: value
        for name, value in gauges.items() if name.startswith("adaptive.ci.")
    }
    adaptive_samples = {
        name[len("adaptive.samples."):]: value
        for name, value in gauges.items()
        if name.startswith("adaptive.samples.")
    }
    generic_gauges = {
        name: value for name, value in gauges.items()
        if not name.startswith("adaptive.")
    }
    if generic_gauges:
        lines.append(format_table(
            ["gauge", "value"],
            [[name, f"{generic_gauges[name]:g}"]
             for name in sorted(generic_gauges)],
        ))
        lines.append("")
    if adaptive_ci:
        lines.append(format_table(
            ["adaptive cell", "samples", "ci half-width"],
            [[cell, f"{adaptive_samples.get(cell, 0):g}",
              f"±{adaptive_ci[cell]:.4f}"]
             for cell in sorted(adaptive_ci)],
        ))
        lines.append("")
    histograms = summary.get("histograms", {})
    if histograms:
        rows = []
        for name in sorted(histograms):
            blob = histograms[name]
            count = blob["count"]
            mean = blob["sum"] / count if count else 0.0
            rows.append([
                name, str(count), _format_seconds(blob["sum"]),
                _format_seconds(mean),
            ])
        lines.append(format_table(
            ["histogram", "count", "total", "mean"], rows
        ))
        lines.append("")
    rates = []
    for group, label in (("lru_hit_rates", "lru"), ("mem_hit_rates", "mem")):
        for name, value in sorted(derived.get(group, {}).items()):
            if value is not None:
                rates.append([f"{label}.{name}", f"{value * 100:.2f}%"])
    if rates:
        lines.append(format_table(["hit rate", "value"], rates))
    dropped = summary.get("dropped_trace_events", 0)
    if dropped:
        lines.append("")
        lines.append(f"warning: {dropped} trace event(s) dropped at the "
                     f"buffer cap")
    return "\n".join(lines).rstrip()
