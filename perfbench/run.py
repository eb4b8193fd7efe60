"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig6-paper --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (run metadata, every rep's
wall time, the spans) goes to ``perfbench/out/``. See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from check import check_rep, check_traced, load_pin, reference_of  # noqa: E402
from workloads import (  # noqa: E402
    LAYER_SPANS,
    MIXED_REGULAR_FRACTION,
    WORKLOADS,
    Spans,
    build_tasks,
    paired_task,
    self_times,
    sweep_digest,
)

#: fresh-process set-ups per run, spread over the measured window;
#: setup_s is their median
SETUP_PROBES = 5
#: timed reps per run at least, however long they take
MIN_REPS = 3
#: the traced run's summed self times must be within this share of the
#: untraced wall time (the wall_s bound in BENCHMARK.json)
ACCOUNT_BOUND = 0.25

#: name -> (unit, better) for the --trace 0 metrics
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "updates_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "local_ratio": ("ratio", "higher"),
    "committed_share": ("ratio", "higher"),
}

#: name -> (unit, better) for the --trace 1 metrics. The model.* entries
#: are the proposal system's modelled outcomes: deterministic per seed,
#: but too seed-dependent (or, for reduction, negative on mixed-2pc) to
#: carry an end-to-end bound; --trace 0 prints them as well.
PER_LAYER = {
    "repro.import_s": ("s", "lower"),
    "perf.pool_spawn_s": ("s", "lower"),
    "workload.trace_s": ("s", "lower"),
    "workload.updates": ("count", "higher"),
    "cluster.topology_s": ("s", "lower"),
    "cluster.build_s": ("s", "lower"),
    "cluster.slice_items": ("count", "lower"),
    "baselines.build_s": ("s", "lower"),
    "baselines.loop_s": ("s", "lower"),
    "baselines.events": ("count", "lower"),
    "core.loop_s": ("s", "lower"),
    "sim.events": ("count", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "net.messages": ("count", "lower"),
    "net.correspondences": ("count", "lower"),
    "core.av_requests": ("count", "lower"),
    "core.local_updates": ("count", "higher"),
    "core.immediate_updates": ("count", "higher"),
    "core.immediate_aborts": ("count", "lower"),
    "core.immediate_commit_ratio": ("ratio", "higher"),
    "core.delay_rejects": ("count", "lower"),
    "cluster.invariants_s": ("s", "lower"),
    "obs.telemetry_s": ("s", "lower"),
    "task.self_s": ("s", "lower"),
    "perf.sweep_self_s": ("s", "lower"),
    "perf.digest_s": ("s", "lower"),
    "bench.check_s": ("s", "lower"),
    "perf.fanout_efficiency": ("ratio", "higher"),
    "perf.retries": ("count", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "model.corr_per_update": ("corr/update", "lower"),
    "model.reduction": ("ratio", "higher"),
    "model.sim_latency_mean": ("sim-t", "lower"),
    "model.sim_latency_p99": ("sim-t", "lower"),
    "model.latency_samples": ("count", "higher"),
}


def start_method() -> str:
    """The pool start method ``run_sweep`` would pick by default."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: set up as a run does, report, and exit."""
    t0 = perf_counter()
    import repro.baselines.centralized  # noqa: F401
    import repro.experiments.fig6  # noqa: F401
    import repro.experiments.scale  # noqa: F401
    import repro.obs.snapshot  # noqa: F401
    from repro.perf import run_sweep
    from repro.perf.runner import shutdown_pools

    import_s = perf_counter() - t0
    build_tasks(workload, seed)
    # An empty sweep starts the runner the workload uses: the worker pool
    # on fan-out, nothing beyond the call itself in sequence.
    shards = WORKLOADS[workload].shards
    t1 = perf_counter()
    run_sweep([], shards=max(1, shards), mode="pool" if shards > 1 else None,
              start_method=start_method())
    pool_spawn_s = perf_counter() - t1
    print(json.dumps({"import_s": import_s, "pool_spawn_s": pool_spawn_s}),
          flush=True)
    shutdown_pools()


def probe_setup(workload: str, seed: int) -> dict:
    """Set up once in a fresh process; seconds from launch to ready."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return {"setup_s": elapsed, **json.loads(line)}


def results_dir_state() -> list:
    """What the repo's own benchmark results directory holds right now."""
    results = ROOT / "benchmarks" / "results"
    if not results.is_dir():
        return []
    return sorted(
        (p.name, p.stat().st_size, p.stat().st_mtime_ns)
        for p in results.iterdir()
    )


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def latencies(tags) -> list:
    """Simulated latency of each update from its tag's finish time.

    Closed loop: update i is issued when update i-1 finishes (the first
    at time 0), so its latency is the gap between the two finish times.
    """
    out, prev = [], 0.0
    for tag in tags:
        finished = float(tag.rsplit(":", 1)[1])
        out.append(finished - prev)
        prev = finished
    return out


def modelled_metrics(results: list) -> dict:
    """Deterministic protocol metrics of the proposal system."""
    n = committed = local = 0
    lat = []
    prop = conv = 0.0
    for payload in results:
        tags = payload["update_tags"]
        n += len(tags)
        for tag in tags:
            parts = tag.split(":")
            committed += parts[1] == "committed"
            local += parts[2] == "1"
        lat.extend(latencies(tags))
        prop += payload["counters"]["proposal_correspondences"]
        conv += payload["counters"]["conventional_correspondences"]
    return {
        "local_ratio": local / n,
        "committed_share": committed / n,
        "model.corr_per_update": prop / n,
        "model.reduction": 1.0 - prop / conv,
        "model.sim_latency_mean": statistics.fmean(lat),
        "model.sim_latency_p99": statistics.quantiles(lat, n=100)[98],
        "model.latency_samples": n,
    }


class Bench:
    """One run of one workload: reps, their checks and their tallies."""

    def __init__(self, name: str, seed: int) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.tasks = build_tasks(name, seed)
        self.updates = sum(t.n_updates for t in self.tasks)
        #: digests every later rep must reproduce (pin, else first rep)
        self.reference = load_pin(self.workload.grid, seed)
        #: the first correct untraced rep's fingerprints
        self.baseline = None
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.problems: list = []
        #: one record per fresh-process set-up probe
        self.setup: list = []

    # -- running the task list ------------------------------------- #

    def _program(self, spans: Spans, shards: int):
        """The workload through the program path; (results, digest)."""
        from repro.perf import run_sweep

        wl = self.workload
        if wl.shards == 0:
            return self._layered(spans)[:2]
        with spans.span("perf.sweep"):
            sweep = run_sweep(
                self.tasks, shards=shards, grid=wl.grid, root_seed=self.seed,
                mode="pool" if shards > 1 else None,
                start_method=start_method(),
            )
        self.retries += sweep.retries
        with spans.span("perf.digest"):
            digest = sweep.digest()
        return sweep.results, digest

    def _layered(self, spans: Spans):
        """The workload through paired_task; (results, digest, counts)."""
        regular = MIXED_REGULAR_FRACTION if self.workload.shards == 0 else 1.0
        results, counts = [], {}
        with spans.span("perf.sweep"):
            for task in self.tasks:
                payload, task_counts = paired_task(task, spans, regular)
                results.append(payload)
                for key, value in task_counts.items():
                    counts[key] = counts.get(key, 0) + value
        with spans.span("perf.digest"):
            digest = sweep_digest(self.workload.grid, self.seed, results)
        return results, digest, counts

    def _tally(self, failed: set, label: str) -> None:
        per_task = {t.index: t.n_updates for t in self.tasks}
        self.attempted += 2 * self.updates
        self.failed += 2 * sum(per_task[i] for i in failed)
        if failed:
            self.problems.append(f"{label}: tasks {sorted(failed)} failed")

    def rep(self, spans: Spans, layered: bool = False, shards=None,
            label: str = "rep"):
        """One checked rep; returns (wall seconds, results, counts)."""
        if shards is None:
            shards = self.workload.shards
        gc.collect()
        all_tasks = {t.index for t in self.tasks}
        results, counts = None, {}
        t0 = perf_counter()
        with spans.span("rep"):
            try:
                if layered:
                    results, digest, counts = self._layered(spans)
                else:
                    results, digest = self._program(spans, shards)
                with spans.span("bench.check"):
                    failed = check_rep(
                        results, digest, self.tasks, self.workload.grid,
                        self.seed, None if layered else self.reference,
                    )
                    if layered and self.baseline is not None:
                        failed |= check_traced(results, self.baseline)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed = all_tasks
        wall = perf_counter() - t0
        self._tally(failed, label)
        if not layered and not failed and self.baseline is None:
            self.baseline = results
            if self.reference is None:
                self.reference = reference_of(results, digest)
        return wall, (None if failed else results), counts

    def cross_checks(self) -> None:
        """Same digests under the other kernel and, for fan-out, in sequence."""
        from repro.core.columns import KERNEL_ENV, KERNELS, resolve_kernel

        if self.reference is None:
            self.problems.append("no correct rep to compare against")
            return
        if self.workload.shards > 1:
            self.rep(Spans(False), shards=1, label="sequential rep")
        kernel = resolve_kernel()
        other = next(k for k in KERNELS if k != kernel)
        saved = os.environ.get(KERNEL_ENV)
        os.environ[KERNEL_ENV] = other
        try:
            self.rep(Spans(False), shards=1, label=f"{other}-kernel rep")
        finally:
            if saved is None:
                del os.environ[KERNEL_ENV]
            else:
                os.environ[KERNEL_ENV] = saved


@contextmanager
def on_cpu(bench: Bench, rep: int):
    """Pin a sequential workload's rep to the CPUs in turn.

    On a shared host each CPU slows and recovers on its own, for seconds
    at a time; a single-threaded rep left to the scheduler samples
    whichever CPU it lands on. Taking the CPUs in turn gives every run's
    median the same mix of them. The pool workers of a sharded workload
    need every CPU, so those reps are left unpinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if bench.workload.shards > 1 or len(cpus) < 2:
        yield
        return
    os.sched_setaffinity(0, {cpus[rep % len(cpus)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def measured_window(bench: Bench, seconds: float, body) -> None:
    """Call ``body`` until ``seconds`` pass (and at least MIN_REPS times),
    launching the set-up probes at even intervals across the window so
    setup_s samples the same host conditions as the reps."""
    start = perf_counter()
    reps = 0
    while reps < MIN_REPS or perf_counter() - start < seconds:
        due = len(bench.setup) * seconds / SETUP_PROBES
        if len(bench.setup) < SETUP_PROBES and perf_counter() - start >= due:
            bench.setup.append(probe_setup(bench.workload.name, bench.seed))
        with on_cpu(bench, reps):
            body()
        reps += 1
    while len(bench.setup) < SETUP_PROBES:
        bench.setup.append(probe_setup(bench.workload.name, bench.seed))


def timed_reps(bench: Bench, seconds: float) -> list:
    walls = []
    measured_window(
        bench, seconds, lambda: walls.append(bench.rep(Spans(False))[0]))
    return walls


def task_busy(spans: list) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == "task")


def traced_reps(bench: Bench, seconds: float) -> dict:
    """Alternate untraced and traced reps; per-layer medians and spans."""
    untraced, traced, layers, spans_out = [], [], [], []
    counts: dict = {}
    sequential = bench.workload.shards <= 1

    def pair() -> None:
        untraced.append(bench.rep(Spans(False))[0])
        spans = Spans(True)
        wall, _, rep_counts = bench.rep(
            spans, layered=sequential, label="traced rep")
        traced.append(wall)
        spans_out.append(spans.spans)
        own = self_times(spans.spans)
        own["trace.self_sum"] = sum(own.values())
        if sequential:
            own["task.busy"] = task_busy(spans.spans)
        else:
            # Tasks run inside pool workers, out of the trace's reach:
            # their layers come from a sequential replay of the same tasks.
            replay = Spans(True)
            _, _, rep_counts = bench.rep(
                replay, layered=True, label="traced replay")
            spans_out.append(replay.spans)
            replay_own = self_times(replay.spans)
            own.update(
                {k: replay_own.get(k, 0.0) for k in LAYER_SPANS + ("task",)})
            own["task.busy"] = task_busy(replay.spans)
        layers.append(own)
        counts.update(rep_counts)

    measured_window(bench, seconds, pair)
    med = {
        key: statistics.median(rep.get(key, 0.0) for rep in layers)
        for key in set().union(*layers)
    }
    wall_untraced = statistics.median(untraced)
    shards = max(1, bench.workload.shards)
    metrics = {f"{name}_s": med.get(name, 0.0) for name in LAYER_SPANS}
    metrics.update({
        "task.self_s": med.get("task", 0.0),
        "perf.sweep_self_s": med.get("perf.sweep", 0.0),
        "perf.digest_s": med.get("perf.digest", 0.0),
        "bench.check_s": med.get("bench.check", 0.0),
        "perf.fanout_efficiency": med["task.busy"] / (shards * wall_untraced),
        "perf.retries": bench.retries,
        "trace.self_sum_s": med["trace.self_sum"],
        "trace.overhead_s": statistics.median(traced) - wall_untraced,
    })
    metrics.update({k: v for k, v in counts.items() if k in PER_LAYER})
    immediate = counts.get("core.immediate_updates", 0)
    metrics["core.immediate_commit_ratio"] = (
        counts.get("core.immediate_commits", 0) / immediate if immediate else 0.0
    )
    metrics["sim.events_per_s"] = counts.get("sim.events", 0) / metrics["core.loop_s"]
    # Paired ratios cancel the host's slow drift between reps far apart.
    accounted = statistics.median(
        rep["trace.self_sum"] / wall for rep, wall in zip(layers, untraced))
    return {
        "metrics": metrics,
        "accounted_share": accounted,
        "untraced_walls_s": untraced,
        "traced_walls_s": traced,
        "spans": spans_out,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run(args) -> dict:
    from repro.core.columns import resolve_kernel
    from repro.perf import run_sweep
    from repro.perf.runner import shutdown_pools

    before = results_dir_state()
    bench = Bench(args.workload, args.seed)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": resolve_kernel(),
        "start_method": start_method(),
        "commit": git_commit(),
    }
    try:
        if bench.workload.shards > 1:
            run_sweep([], shards=bench.workload.shards, mode="pool",
                      start_method=start_method())
        if args.trace:
            traced = traced_reps(bench, args.seconds)
            walls = traced["untraced_walls_s"]
        else:
            walls = timed_reps(bench, args.seconds)
        bench.cross_checks()
    finally:
        shutdown_pools()
    if results_dir_state() != before:
        bench.problems.append("benchmarks/results changed during the run")

    wall_s = statistics.median(walls)
    setup = {
        key: statistics.median(p[key] for p in bench.setup)
        for key in ("setup_s", "import_s", "pool_spawn_s")
    }
    modelled = modelled_metrics(bench.baseline) if bench.baseline else {}
    record = {"meta": meta, "walls_s": walls, "setup": bench.setup,
              "modelled": modelled}
    if args.trace:
        metrics = traced["metrics"]
        metrics["repro.import_s"] = setup["import_s"]
        metrics["perf.pool_spawn_s"] = setup["pool_spawn_s"]
        metrics.update(
            {k: v for k, v in modelled.items() if k.startswith("model.")})
        share = traced["accounted_share"]
        record.update(
            accounted_share=share,
            traced_walls_s=traced["traced_walls_s"],
            spans=traced["spans"],
        )
        if abs(share - 1.0) > ACCOUNT_BOUND:
            bench.problems.append(
                f"layer self times account for {share:.3f} of wall_s")
        table = PER_LAYER
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup["setup_s"],
            "updates_per_s": 2 * bench.updates / wall_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics.update(
            {k: v for k, v in modelled.items() if k in END_TO_END})
        table = END_TO_END
    correct = (
        bench.failed == 0 and not bench.problems and set(metrics) >= set(table)
    )
    record.update(metrics=metrics, attempted=bench.attempted,
                  failed=bench.failed, correct=correct,
                  problems=bench.problems)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(f"# {json.dumps(meta)}")
    for name, (unit, better) in table.items():
        if name in metrics:
            print(f"{name:28s} {metrics[name]!r:>24} {unit:12s}"
                  f" ({better} is better)")
    if not args.trace:
        for name, value in modelled.items():
            if name.startswith("model."):
                print(f"{name:28s} {value!r:>24} {PER_LAYER[name][0]:12s}"
                      " (modelled, not bounded)")
    share = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"failed_share {share!r} ({bench.failed} of {bench.attempted}"
          " updates)")
    for problem in bench.problems:
        print(f"PROBLEM: {problem}")
    return {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in table.items() if name in metrics
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program to measure under {ROOT / 'src'}")

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
