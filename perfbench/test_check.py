"""Tests of the benchmark's own checks.

Run from the repository root with ``python3 -m pytest perfbench``.
Each planted wrong output — a mutated replica value, a dropped result,
a tampered digest — must be flagged and counted in ``failed_share``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402  (puts src/ on sys.path)
from check import check_rep, check_traced, reference_of  # noqa: E402
from workloads import Spans, paired_task, self_times  # noqa: E402

from repro.perf import build_grid, run_sweep  # noqa: E402

GRID = "fig6-small"


@pytest.fixture(scope="module")
def clean():
    tasks = build_grid(GRID, 1)
    sweep = run_sweep(tasks, shards=1, grid=GRID, root_seed=1)
    return tasks, sweep.results, sweep.digest()


def _check(tasks, results, digest, reference=None):
    return check_rep(results, digest, tasks, GRID, 1, reference)


def test_clean_rep_passes(clean):
    tasks, results, digest = clean
    assert _check(tasks, results, digest) == set()
    assert _check(tasks, results, digest, reference_of(results, digest)) == set()


def test_mutated_replica_flagged(clean):
    tasks, results, digest = clean
    reference = reference_of(results, digest)
    bad = copy.deepcopy(results)
    site = sorted(bad[1]["replicas"])[1]
    item = sorted(bad[1]["replicas"][site])[0]
    bad[1]["replicas"][site][item] += 1.0
    bad_digest = bench_run.sweep_digest(GRID, 1, bad)
    # caught by the replica/telemetry cross-check alone ...
    assert _check(tasks, bad, bad_digest) == {1}
    # ... and by the reference digests
    assert _check(tasks, bad, bad_digest, reference) == {1}


def test_dropped_result_flagged(clean):
    tasks, results, digest = clean
    bad = copy.deepcopy(results)
    bad[2]["update_tags"].pop()
    assert _check(tasks, bad, bench_run.sweep_digest(GRID, 1, bad)) == {2}
    missing = results[:-1]
    assert _check(tasks, missing, bench_run.sweep_digest(GRID, 1, missing)) == {
        t.index for t in tasks
    }


def test_tampered_digest_flagged(clean):
    tasks, results, digest = clean
    tampered = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert _check(tasks, results, tampered) == {t.index for t in tasks}


def test_foreign_outcome_flagged(clean):
    tasks, results, digest = clean
    bad = copy.deepcopy(results)
    kind, _, rest = bad[0]["update_tags"][0].partition(":")
    bad[0]["update_tags"][0] = f"{kind}:failed:{rest.partition(':')[2]}"
    assert _check(tasks, bad, bench_run.sweep_digest(GRID, 1, bad)) == {0}


def _small_bench(seed: int = 1) -> bench_run.Bench:
    bench = bench_run.Bench("fig6-paper", seed)
    bench.tasks = build_grid(GRID, seed)
    bench.updates = sum(t.n_updates for t in bench.tasks)
    bench.reference = None
    return bench


@pytest.mark.parametrize("plant", ["replica", "drop", "digest"])
def test_planted_output_counts_in_failed_share(plant):
    bench = _small_bench()
    grid = bench.workload.grid

    def program(spans, shards):
        sweep = run_sweep(bench.tasks, shards=1, grid=grid, root_seed=1)
        results = copy.deepcopy(sweep.results)
        if plant == "replica":
            site = sorted(results[0]["replicas"])[0]
            item = sorted(results[0]["replicas"][site])[0]
            results[0]["replicas"][site][item] -= 0.5
        elif plant == "drop":
            results[0]["update_tags"] = results[0]["update_tags"][1:]
        digest = bench_run.sweep_digest(grid, 1, results)
        if plant == "digest":
            digest = digest[::-1]
        return results, digest

    bench.rep(Spans(False))
    assert bench.failed == 0 and bench.baseline is not None
    bench._program = program
    bench.rep(Spans(False))
    assert bench.failed > 0
    assert bench.failed / bench.attempted > 0
    assert bench.problems


def test_traced_fingerprint_compared(clean):
    tasks, results, _ = clean
    spans = Spans(True)
    traced = [paired_task(t, spans)[0] for t in tasks]
    assert check_traced(traced, results) == set()
    traced[0]["update_tags"][3] += "0"
    assert check_traced(traced, results) == {0}
    names = {s["name"] for s in spans.spans}
    assert {"task", "core.loop", "baselines.loop", "cluster.build"} <= names
    assert all(s["task"] is not None for s in spans.spans)


def test_self_times_subtract_children():
    spans = [
        {"id": 0, "name": "rep", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "task", "parent": 0, "start": 1.0, "end": 9.0},
        {"id": 2, "name": "core.loop", "parent": 1, "start": 2.0, "end": 5.0},
        {"id": 3, "name": "core.loop", "parent": 1, "start": 5.0, "end": 6.0},
    ]
    own = self_times(spans)
    assert own == {"rep": 2.0, "task": 4.0, "core.loop": 4.0}
    assert sum(own.values()) == 10.0


def test_latencies_match_update_results():
    from repro.cluster import DistributedSystem, paper_config
    from repro.experiments.fig6 import make_paper_trace
    from repro.experiments.runner import run_counted
    from workloads import update_tags

    system = DistributedSystem.build(
        paper_config(n_items=10, seed=3, regular_fraction=0.5))
    results = run_counted(system, make_paper_trace(200, 3), "p").results
    assert bench_run.latencies(update_tags(results)) == [
        r.latency for r in results
    ]


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == bench_run.END_TO_END
    assert layers == bench_run.PER_LAYER
    # fig6-fanout runs by hand only: its median drifts too far between
    # sets of runs on a shared 2-CPU host to carry a bound
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [w for w in bench_run.WORKLOADS if w != "fig6-fanout"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6-paper",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
