"""Layered campaign benchmark: end-to-end and per-layer metrics, from outside.

Run every workload (each in a fresh interpreter, one at a time) and append
a host-stamped record to ``perfbench/output/BENCH_layers.json``::

    python3 perfbench/bench_layers.py --seed 0            # end-to-end
    python3 perfbench/bench_layers.py --seed 0 --trace 1  # per layer

Run one workload, the form ``BENCHMARK.json``'s command takes::

    python3 perfbench/bench_layers.py --workload inject-serial --seed 0 \\
        --seconds 20 --trace 0

Each line of output reads ``workload metric value unit``; a single-workload
run ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  The harness exits non-zero when any output is wrong.

A run sets the program up (cold golden runs, checkpoints, liveness traces)
and then repeats *reps*: one ``run_campaign`` call over the workload's grid
with a fresh store and a default ``Supervisor()``, as the CLI makes them.
Rep *r* of ``--seed s`` uses campaign seed ``1000 * s + r``.  Reps repeat
until another one would end past ``--seconds``.  Only calls into public
entry points are timed.  Every rep is checked: no sample lost, no incident,
golden cycle counts as committed, and rep 0's result digest as committed
in ``digests.json`` for that seed.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"bench_layers: no program source under {SRC}")
sys.path.insert(0, str(SRC))

from repro import obs  # noqa: E402
from repro.core import campaign  # noqa: E402
from repro.core.campaign import (  # noqa: E402
    DEFAULT_CHECKPOINT_EVERY,
    CampaignConfig,
    CampaignStore,
    run_campaign,
    run_cell,
)
from repro.core.supervisor import Supervisor  # noqa: E402
from repro.cpu.system import COMPONENT_NAMES  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

from layer_probe import LayerProbe  # noqa: E402

OUTPUT_DIR = BENCH_DIR / "output"
RECORD_PATH = OUTPUT_DIR / "BENCH_layers.json"
DIGESTS_PATH = BENCH_DIR / "digests.json"
WORK_DIR = BENCH_DIR / ".work"

#: Cold set-ups per untraced run (one in the run's own process, the rest in
#: fresh interpreters); setup_s is their median.
SETUP_REPEATS = 3

#: Seeds whose rep-0 digests ``--update-digests`` commits.
DIGEST_SEEDS = range(100)

#: The pruned workload keeps the data path's storage arrays, where the
#: liveness trace prunes 55-93% of samples.  The instruction side and the
#: TLBs time out more often (a timeout runs to 4x a golden run), and those
#: few samples would make up most of the workload's seed-to-seed spread.
PRUNABLE_COMPONENTS = ("l1d", "l2", "regfile")
FABRIC_PROGRAMS = ("stringsearch", "susan_c", "susan_e", "djpeg", "gsm_dec", "sha")


@dataclass(frozen=True)
class Workload:
    """One campaign shape the benchmark repeats (``BENCHMARK.json`` and
    README.md say why each exists)."""

    name: str
    programs: tuple[str, ...]
    components: tuple[str, ...]
    cardinalities: tuple[int, ...]
    samples: int
    jobs: int = 1
    backend: str = "multiprocessing"
    prune: bool = False
    cores: int = 1
    checkpoint_every: int | None = DEFAULT_CHECKPOINT_EVERY

    def config(self, seed: int, samples: int | None = None) -> CampaignConfig:
        return CampaignConfig(
            workloads=self.programs,
            components=self.components,
            cardinalities=self.cardinalities,
            samples=self.samples if samples is None else samples,
            seed=seed,
            cores=self.cores,
        )


# The single-core grids use two programs: the checkpoint and liveness caches
# hold two workloads, so set-up builds each of them exactly once and the
# timed campaigns simulate nothing but injections.  The programs are short
# because the seed-to-seed spread of a run's throughput comes from where
# injections land (a timeout costs about ten ordinary samples) and falls
# only with the number of samples a run classifies.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "inject-serial",
            ("susan_e", "stringsearch"), COMPONENT_NAMES, (1, 3), samples=2,
        ),
        Workload(
            "inject-pruned",
            ("susan_e", "stringsearch"), PRUNABLE_COMPONENTS, (1, 3),
            samples=16, prune=True,
        ),
        Workload(
            "smp-2core",
            ("crc32_p", "qsort_p"), ("l1d", "l2", "regfile"), (1,),
            samples=1, cores=2,
        ),
        Workload(
            "fabric-mp",
            FABRIC_PROGRAMS, COMPONENT_NAMES, (1,), samples=8, jobs=2,
            checkpoint_every=2,
        ),
        Workload(
            "fabric-socket",
            FABRIC_PROGRAMS, COMPONENT_NAMES, (1,), samples=8, jobs=2,
            backend="socket", checkpoint_every=2,
        ),
    )
}

#: (name, unit) of the end-to-end metrics an untraced run reports.
END_TO_END = (
    ("samples_per_s", "samples/s"),
    ("campaign_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: (name, unit) of the per-layer metrics a traced run reports.
PER_LAYER = (
    ("inject.restore_s", "s"),
    ("inject.prefix_s", "s"),
    ("inject.faulty_s", "s"),
    ("inject.classify_s", "s"),
    ("inject.faulty_share", "ratio"),
    ("inject.sample_p50_ms", "ms"),
    ("inject.sample_p90_ms", "ms"),
    ("inject.faulty_cycles_per_sample", "cycles"),
    ("inject.prefix_cycles_per_sample", "cycles"),
    ("cpu.kcycles_per_s", "kcycles/s"),
    ("cpu.cycles_simulated", "cycles"),
    ("smp.kcycles_per_s", "kcycles/s"),
    ("smp.prefix_share", "ratio"),
    ("mem.bus.invalidations", "count"),
    ("mem.bus.interventions", "count"),
    ("mem.l1d.hit_rate", "ratio"),
    ("mem.l1i.hit_rate", "ratio"),
    ("mem.l2.hit_rate", "ratio"),
    ("mem.dtlb.hit_rate", "ratio"),
    ("mem.itlb.hit_rate", "ratio"),
    ("setup.golden_s", "s"),
    ("setup.checkpoint_s", "s"),
    ("setup.liveness_s", "s"),
    ("liveness.pruned_frac", "ratio"),
    ("liveness.classify_us", "us"),
    ("fabric.first_cell_s", "s"),
    ("fabric.teardown_s", "s"),
    ("fabric.overhead_s", "s"),
    ("fabric.worker_utilization", "ratio"),
    ("fabric.task_wait_s", "s"),
    ("fabric.worker_setup_s", "s"),
    ("fabric.speculative", "count"),
    ("fabric.workers_spawned", "count"),
    ("store.write_s", "s"),
    ("store.records", "count"),
    ("supervisor.incidents", "count"),
    ("trace_overhead_frac", "ratio"),
)


def campaign_seed(seed: int, rep: int) -> int:
    return 1000 * seed + rep


def digest_key(workload: str, seed: int, samples: int) -> str:
    return f"{workload}/seed={seed}/samples={samples}"


def result_digest(result) -> str:
    return hashlib.sha256(result.to_json().encode()).hexdigest()


# -- one rep -------------------------------------------------------------------


@dataclass
class Rep:
    """One timed ``run_campaign`` call and what was wrong with its output."""

    wall: float
    samples: int
    lost: int
    incidents: int
    digest: str
    problems: list[str]
    first_cell_s: float
    teardown_s: float
    metrics: dict | None = None
    events: list | None = None

    @property
    def failed(self) -> int:
        """Lost samples fail alone; any other fault fails the whole rep."""
        return self.samples if self.problems else self.lost


def run_rep(
    spec: Workload, seed: int, samples: int, workdir: Path, golden: dict,
    traced: bool,
) -> Rep:
    config = spec.config(seed, samples)
    store = CampaignStore(workdir / f"store-{seed}-{int(traced)}.json")
    supervisor = Supervisor()
    cell_times: list[float] = []
    tel = obs.enable() if traced else None
    try:
        with LayerProbe() if traced else contextlib.nullcontext():
            begin = time.perf_counter()
            result = run_campaign(
                config,
                progress=lambda done, total, cell: cell_times.append(
                    time.perf_counter()
                ),
                store=store,
                supervisor=supervisor,
                checkpoint_every=spec.checkpoint_every,
                jobs=spec.jobs,
                prune=spec.prune,
                backend=spec.backend,
            )
            end = time.perf_counter()
    finally:
        obs.disable()
        store.close()
    if tel is not None:
        tel.tracer.record("campaign", begin, end, {"seed": seed})
    expected = len(config.cells()) * config.samples
    incidents = result.incidents + supervisor.incident_count
    problems = [f"{incidents} incidents"] if incidents else []
    drifted = sorted({
        cell.workload for cell in result.cells
        if golden.get(f"{cell.workload}/cores={spec.cores}") != cell.golden_cycles
    })
    if drifted:
        problems.append(f"golden cycle counts differ from committed: {drifted}")
    return Rep(
        wall=end - begin,
        samples=expected,
        lost=expected - sum(cell.counts.total for cell in result.cells),
        incidents=incidents,
        digest=result_digest(result),
        problems=problems,
        first_cell_s=(cell_times[0] if cell_times else end) - begin,
        teardown_s=end - (cell_times[-1] if cell_times else begin),
        metrics=tel.metrics.as_dict() if tel is not None else None,
        events=tel.tracer.events if tel is not None else None,
    )


# -- set-up --------------------------------------------------------------------


def set_up(spec: Workload) -> float:
    """The cold one-off builds a campaign would otherwise pay inside.

    jobs=1: one 0-sample ``run_cell`` per program (golden run, checkpoints,
    liveness trace when pruning).  jobs>1: ``golden_run`` per program in
    the parent; the workers build the rest inside the campaign.
    """
    begin = time.perf_counter()
    if spec.jobs == 1:
        empty = spec.config(0, samples=0)
        for program in spec.programs:
            run_cell(
                program, spec.components[0], spec.cardinalities[0], empty,
                prune=spec.prune,
            )
    else:
        for program in spec.programs:
            # Through the module, where a traced run's probe wraps it.
            campaign.golden_run(get_workload(program), cores=spec.cores)
    return time.perf_counter() - begin


def cold_setup_in_child(spec: Workload) -> float:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", spec.name,
         "--setup-only"],
        cwd=REPO, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


# -- metrics -------------------------------------------------------------------


def _hist(snapshot: dict, name: str) -> tuple[float, int]:
    data = snapshot["histograms"].get(name)
    return (data["sum"], data["count"]) if data else (0.0, 0)


def _counter(snapshot: dict, name: str) -> int:
    return snapshot["counters"].get(name, 0)


def _phase_s(snapshot: dict, phase: str) -> float:
    """Seconds in one injection phase: the harness's span where the probe
    reached the process that ran the samples, else the program's own
    ``time.phase`` histogram (workers that are fresh interpreters)."""
    total, count = _hist(snapshot, "bench." + phase)
    return total if count else _hist(snapshot, "time.phase." + phase)[0]


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def _hit_rate(snapshot: dict, level: str) -> float | None:
    hits = misses = 0
    for name, value in snapshot["counters"].items():
        parts = name.split(".")
        # sim.mem.<level>.hits, or sim.mem.c<k>.<level>.hits on SMP
        if parts[:2] == ["sim", "mem"] and parts[-2] == level:
            if parts[-1] == "hits":
                hits += value
            elif parts[-1] == "misses":
                misses += value
    return _ratio(hits, hits + misses)


def _cycles(snapshot: dict, machine: str, phases=("prefix", "faulty")) -> int:
    return sum(
        _counter(snapshot, f"bench.cycles.{phase}.{machine}") for phase in phases
    )


def layer_metrics(
    spec: Workload, setup_metrics: dict, traced: list[Rep], untraced: list[Rep],
) -> tuple[dict[str, float | None], dict[str, str]]:
    """Per-layer values (``None`` = not applicable) and why each None is."""
    n = len(traced)
    first = traced[0].metrics
    snaps = [rep.metrics for rep in traced]
    phases = ("restore", "prefix", "faulty", "classify")
    phase_s = {p: sum(_phase_s(s, p) for s in snaps) for p in phases}
    phase_total = sum(phase_s.values())
    durations = sorted(
        event["dur"] / 1e3
        for rep in traced for event in rep.events
        if event["name"] == "sample" and event["ph"] == "X"
    )
    why: dict[str, str] = {}
    if not durations:
        for name in ("inject.sample_p50_ms", "inject.sample_p90_ms",
                     "inject.faulty_cycles_per_sample",
                     "inject.prefix_cycles_per_sample", "cpu.kcycles_per_s",
                     "cpu.cycles_simulated", "smp.kcycles_per_s",
                     "liveness.classify_us"):
            why[name] = "samples ran in fresh-interpreter workers the probe cannot reach"
    p90 = None
    if len(durations) >= 100:
        p90 = statistics.quantiles(durations, n=10)[-1]
    else:
        why.setdefault("inject.sample_p90_ms", f"{len(durations)} samples; p90 needs 100")

    def per_rep(fn) -> float:
        return sum(fn(rep) for rep in traced) / n

    def machine_rate(machine: str) -> float | None:
        cycles = sum(_cycles(s, machine) for s in snaps)
        host = sum(_hist(s, "bench.sim_s." + machine)[0] for s in snaps)
        return _ratio(cycles / 1e3, host) if cycles else None

    smp = spec.cores > 1
    fabric = spec.jobs > 1
    if not smp:
        for name in ("smp.kcycles_per_s", "smp.prefix_share",
                     "mem.bus.invalidations", "mem.bus.interventions"):
            why[name] = "single-core workload"
    else:
        why.setdefault("cpu.kcycles_per_s", "SMP workload; see smp.kcycles_per_s")
        why.setdefault("cpu.cycles_simulated", "SMP workload")
    if not spec.prune:
        why["liveness.pruned_frac"] = why["liveness.classify_us"] = "pruning off"
    if not fabric:
        why["fabric.worker_utilization"] = why["fabric.task_wait_s"] = "jobs=1"
    spawned = [_counter(s, "exec.workers_spawned") for s in snaps]
    values = {
        "inject.restore_s": phase_s["restore"] / n,
        "inject.prefix_s": phase_s["prefix"] / n,
        "inject.faulty_s": phase_s["faulty"] / n,
        "inject.classify_s": phase_s["classify"] / n,
        "inject.faulty_share": _ratio(phase_s["faulty"], phase_total),
        "inject.sample_p50_ms": statistics.median(durations) if durations else None,
        "inject.sample_p90_ms": p90,
        "inject.faulty_cycles_per_sample": _ratio(
            _cycles(first, "System", ("faulty",))
            + _cycles(first, "SMPSystem", ("faulty",)),
            traced[0].samples,
        ),
        "inject.prefix_cycles_per_sample": _ratio(
            _cycles(first, "System", ("prefix",))
            + _cycles(first, "SMPSystem", ("prefix",)),
            traced[0].samples,
        ),
        "cpu.kcycles_per_s": machine_rate("System"),
        "cpu.cycles_simulated": _cycles(first, "System") or None,
        "smp.kcycles_per_s": machine_rate("SMPSystem"),
        "smp.prefix_share": _ratio(phase_s["prefix"], phase_total),
        "mem.bus.invalidations": _counter(first, "sim.mem.bus.invalidations"),
        "mem.bus.interventions": _counter(first, "sim.mem.bus.interventions"),
        **{
            f"mem.{level}.hit_rate": _hit_rate(first, level)
            for level in ("l1d", "l1i", "l2", "dtlb", "itlb")
        },
        "setup.golden_s": _hist(setup_metrics, "bench.golden")[0],
        "setup.checkpoint_s": _hist(setup_metrics, "bench.checkpoint-build")[0],
        "setup.liveness_s": _hist(setup_metrics, "bench.liveness-build")[0],
        "liveness.pruned_frac": _ratio(
            _counter(first, "sim.pruned.total"), _counter(first, "sim.samples")
        ),
        "liveness.classify_us": _ratio(
            sum(_hist(s, "bench.liveness-classify")[0] for s in snaps) * 1e6,
            sum(_hist(s, "bench.liveness-classify")[1] for s in snaps),
        ),
        "fabric.first_cell_s": per_rep(lambda rep: rep.first_cell_s),
        "fabric.teardown_s": per_rep(lambda rep: rep.teardown_s),
        "fabric.overhead_s": per_rep(
            lambda rep: rep.wall - _hist(rep.metrics, "time.cell")[0] / spec.jobs
        ),
        "fabric.worker_utilization": _ratio(
            sum(_hist(s, "time.worker-batch")[0] for s in snaps),
            sum(rep.wall * k for rep, k in zip(traced, spawned)),
        ),
        "fabric.task_wait_s": per_rep(
            lambda rep: _hist(rep.metrics, "time.worker.task_wait")[0]
        ),
        "fabric.worker_setup_s": per_rep(
            lambda rep: sum(
                _hist(rep.metrics, "time." + span)[0]
                for span in ("golden-run", "checkpoint-build", "liveness-build")
            )
        ),
        "fabric.speculative": sum(_counter(s, "exec.speculative") for s in snaps),
        "fabric.workers_spawned": spawned[0],
        "store.write_s": per_rep(lambda rep: _hist(rep.metrics, "bench.store-write")[0]),
        "store.records": _hist(first, "bench.store-write")[1],
        "supervisor.incidents": sum(rep.incidents for rep in traced + untraced),
        "trace_overhead_frac": (
            sum(rep.wall for rep in traced) / sum(rep.wall for rep in untraced) - 1
        ),
    }
    for name in why:
        values[name] = None
    for name, value in values.items():
        if value is None:
            why.setdefault(name, "nothing measured")
    return values, why


# -- the single-workload run ---------------------------------------------------


def run_reps(spec: Workload, args, samples: int, golden: dict, workdir: Path):
    """Reps until another would end past ``args.seconds``; traced runs
    make them in pairs of identical campaigns, one traced and one not,
    alternating which goes first, which gives the tracing overhead."""
    untraced: list[Rep] = []
    traced: list[Rep] = []
    started = time.perf_counter()
    rep = 0
    while True:
        seed = campaign_seed(args.seed, rep)
        if args.trace:
            order = (False, True) if rep % 2 == 0 else (True, False)
            pair = {
                on: run_rep(spec, seed, samples, workdir, golden, on)
                for on in order
            }
            if pair[True].digest != pair[False].digest:
                pair[True].problems.append("traced result differs from untraced")
            untraced.append(pair[False])
            traced.append(pair[True])
        else:
            untraced.append(run_rep(spec, seed, samples, workdir, golden, False))
        rep += 1
        if (time.perf_counter() - started) * (rep + 1) / rep > args.seconds:
            return untraced, traced


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every child process the campaigns left behind: the socket
    backend kills its local workers at teardown without waiting for them."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.05)


def measure(args) -> int:
    spec = WORKLOADS[args.workload]
    name = spec.name
    samples = spec.samples if args.samples is None else args.samples
    committed = json.loads(args.digests.read_text()) if args.digests.exists() else {}
    golden = committed.get("golden_cycles", {})
    expected_digest = committed.get("digests", {}).get(
        digest_key(name, args.seed, samples)
    )
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setups: list[float] = []
    untraced: list[Rep] = []
    traced: list[Rep] = []
    setup_tel = obs.enable() if args.trace else None
    try:
        with LayerProbe() if args.trace else contextlib.nullcontext():
            setups.append(set_up(spec))
        obs.disable()
        if not args.trace:
            setups += [cold_setup_in_child(spec) for _ in range(SETUP_REPEATS - 1)]
        untraced, traced = run_reps(spec, args, samples, golden, workdir)
        crashed = False
    except Exception:  # noqa: BLE001 - a crash is a wrong output, reported below
        traceback.print_exc()
        crashed = True
    finally:
        obs.disable()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run is using it
        reap_children()

    digest = untraced[0].digest if untraced else None
    if untraced and expected_digest not in (None, digest):
        untraced[0].problems.append(
            f"result digest {digest}, {expected_digest} committed"
        )
    reps = untraced + traced
    attempted = sum(r.samples for r in reps)
    failed = sum(r.failed for r in reps)
    if crashed:
        attempted += len(spec.config(0, samples).cells()) * samples
        failed = attempted
    print(f"{name} results_sha256 {digest} hex")
    match = "n/a" if expected_digest is None else int(digest == expected_digest)
    print(f"{name} results_match {match} bool")
    lost = sum(r.lost for r in reps)
    print(f"{name} lost_sample_frac {lost / max(1, attempted)!r} ratio")

    metrics: dict[str, dict] = {}
    if untraced and not args.trace:
        walls = [r.wall for r in untraced]
        rss_kib = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        values = {
            "samples_per_s": sum(r.samples for r in untraced) / sum(walls),
            "campaign_s": sum(walls) / len(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_kib / 1024,
        }
        for metric, unit in END_TO_END:
            print(f"{name} {metric} {values[metric]!r} {unit}")
            metrics[metric] = {"value": values[metric], "unit": unit}
        print(f"{name} reps {len(untraced)} count")
    elif traced:
        values, why = layer_metrics(
            spec, setup_tel.metrics.as_dict(), traced, untraced
        )
        for metric, unit in PER_LAYER:
            value = values[metric]
            if value is None:
                print(f"{name} {metric} n/a {unit} ({why[metric]})")
            else:
                print(f"{name} {metric} {value!r} {unit}")
            metrics[metric] = {"value": value or 0, "unit": unit}
        print(f"{name} reps {len(traced)} count (traced; as many untraced)")
        events = setup_tel.tracer.events + [e for r in traced for e in r.events]
        OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
        (OUTPUT_DIR / f"trace_{name}.json").write_text(
            json.dumps(obs.chrome_trace(events)) + "\n"
        )
    problems = [
        f"{kind} rep {i}: {problem}"
        for kind, group in (("untraced", untraced), ("traced", traced))
        for i, rep in enumerate(group) for problem in rep.problems
    ]
    if crashed:
        problems.append("a campaign raised")
    for problem in problems:
        print(f"{name} WRONG {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems or failed else 0


# -- all workloads -------------------------------------------------------------


def host_facts() -> dict:
    """Where a record was measured: CPU count, Python, platform, commit."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent))

    def git(*argv: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *argv], cwd=REPO, env=env, capture_output=True,
                text=True, timeout=30,
            )
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def append_bench_record(path: Path, record: dict) -> Path:
    """Append *record*, stamped with :func:`host_facts`, to the JSON list
    at *path* (a trajectory: one record per invocation)."""
    trajectory = json.loads(path.read_text()) if path.exists() else []
    trajectory.append({"host": host_facts(), **record})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return path


def run_all(args) -> int:
    results = {}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--digests", str(args.digests)]
        if args.samples is not None:
            argv += ["--samples", str(args.samples)]
        begin = time.perf_counter()
        done = subprocess.run(argv, cwd=REPO, capture_output=True, text=True,
                              timeout=900)
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(done.stderr)
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        result["run_s"] = time.perf_counter() - begin
        print(f"{name} run_s {result['run_s']!r} s", flush=True)
        results[name] = result
        if done.returncode != 0:
            status = 1
    path = append_bench_record(RECORD_PATH, {
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": args.samples,
        "workloads": results,
    })
    print(f"record appended to {path}")
    return status


def update_digests(path: Path) -> None:
    """Recompute rep-0 digests for ``DIGEST_SEEDS`` and the golden cycle
    counts, serially: every backend and job count gives the same bytes."""
    golden = {}
    digests = {}
    by_config: dict[CampaignConfig, str] = {}
    for spec in WORKLOADS.values():
        for program in spec.programs:
            golden[f"{program}/cores={spec.cores}"] = campaign.golden_run(
                get_workload(program), cores=spec.cores
            ).cycles
        for seed in DIGEST_SEEDS:
            config = spec.config(campaign_seed(seed, 0))
            if config not in by_config:
                by_config[config] = result_digest(
                    run_campaign(config, supervisor=Supervisor(), prune=spec.prune)
                )
            key = digest_key(spec.name, seed, spec.samples)
            digests[key] = by_config[config]
            print(f"{key} {digests[key]}", flush=True)
    path.write_text(json.dumps(
        {"golden_cycles": golden, "digests": digests}, indent=1, sort_keys=True
    ) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, one at a time)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((REPO / "BENCHMARK.json").read_text())[
                            "run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--samples", type=int,
                        help="samples per cell instead of the workload's")
    parser.add_argument("--digests", type=Path, default=DIGESTS_PATH,
                        help="committed digests and golden cycle counts")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--update-digests", action="store_true",
                        help=f"rewrite {DIGESTS_PATH.name} from this code")
    args = parser.parse_args(argv)
    if args.update_digests:
        update_digests(args.digests)
        return 0
    if args.setup_only:
        print(set_up(WORKLOADS[args.workload]))
        return 0
    if args.workload is None:
        return run_all(args)
    return measure(args)


# -- smoke test (pytest perfbench/bench_layers.py) -----------------------------


def _run_harness(*argv: str) -> tuple[int, list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--seed", "0", "--seconds", "1",
         "--samples", "1", *argv],
        cwd=REPO, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1])


def test_bench_layers_smoke(tmp_path):
    """Every workload at 1 sample/cell, untraced and traced: each emits
    exactly BENCHMARK.json's metrics with their units; the fabric backends
    give the serial run's bytes; a wrong committed digest fails the run."""
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    digests = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[section]}
        for name in WORKLOADS:
            code, lines, result = _run_harness(
                "--workload", name, "--trace", str(trace)
            )
            assert code == 0 and result["correct"], lines
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert {
                metric: value["unit"]
                for metric, value in result["metrics"].items()
            } == wanted
            for line in lines:
                if line.startswith(f"{name} results_sha256 "):
                    digests[name, trace] = line.split()[2]
            assert digests[name, 0] == digests[name, trace]

    serial = run_campaign(
        WORKLOADS["fabric-mp"].config(campaign_seed(0, 0), samples=1)
    )
    assert digests["fabric-mp", 0] == result_digest(serial)
    assert digests["fabric-socket", 0] == result_digest(serial)

    committed = json.loads(DIGESTS_PATH.read_text())
    committed["digests"][digest_key("inject-serial", 0, 1)] = "0" * 64
    wrong = tmp_path / "digests.json"
    wrong.write_text(json.dumps(committed))
    code, lines, result = _run_harness(
        "--workload", "inject-serial", "--digests", str(wrong)
    )
    assert code != 0 and not result["correct"] and result["failed"] > 0


if __name__ == "__main__":
    sys.exit(main())
