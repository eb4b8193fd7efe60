"""The benchmark's workloads and its outside-in layer trace.

Every workload is a list of paired tasks: the proposal system and the
centralized baseline replay one frozen trace, closed loop (the next
update is issued when the previous one completes). Seeds come from the
benchmark's ``--seed`` through :func:`repro.perf.grids.derive_seed`.

Two ways to run a task list:

* the *program path* — ``repro.perf.run_sweep``, the call ``repro sweep``
  makes (``fig6-paper``, ``scale-50``, ``fig6-fanout``);
* the *layered path* — :func:`paired_task`, which makes the same public
  calls ``run_fig6`` / ``run_scale`` make, one at a time, with a span
  around each. ``mixed-2pc`` always runs here (no sweep grid carries
  ``regular_fraction``); the other workloads run here only when traced,
  and the checker then requires the traced replicas and update tags to
  equal the program path's byte for byte.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: the layer spans paired_task records inside each task span
LAYER_SPANS = (
    "workload.trace",
    "cluster.topology",
    "cluster.build",
    "core.loop",
    "cluster.invariants",
    "baselines.build",
    "baselines.loop",
    "obs.telemetry",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a task list and how to run it."""

    name: str
    #: grid name the digest is taken under (fig6-fanout shares fig6's)
    grid: str
    #: ``run_sweep`` shard count; 0 = layered path only (mixed-2pc)
    shards: int
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig6-paper", "fig6", 1,
            "paper layout, regular products only: host time is the"
            " Delay/AV event loop of both systems",
        ),
        Workload(
            "mixed-2pc", "mixed-2pc", 0,
            "same trace with half the catalogue non-regular: locks, 2PC"
            " and aborts share the event loop with Delay Update",
        ),
        Workload(
            "scale-50", "scale", 1,
            "two 50-site partial-replication topologies: host time is"
            " topology, cluster and baseline set-up, not the loop",
        ),
        Workload(
            "fig6-fanout", "fig6", 2,
            "fig6-paper through the persistent 2-worker pool: the only"
            " workload on the sweep fan-out path",
        ),
    )
}

#: scale-50 catalogue and trace size. The stock ``scale`` grid (10^4
#: items, 5000 updates) runs ~15-20 s per sweep, which leaves no room
#: for repeated measurement; 50 sites are kept, the catalogue shrinks.
SCALE_ITEMS = 2000
SCALE_UPDATES = 1000

#: mixed-2pc shape: the fig6 grid's tasks and trace, half non-regular
MIXED_REPLICATES = 8
MIXED_UPDATES = 1000
MIXED_REGULAR_FRACTION = 0.5


def build_tasks(workload: str, seed: int) -> list:
    """The workload's task list at root seed ``seed`` (pure function)."""
    from repro.perf import SweepTask, build_grid, derive_seed

    if workload in ("fig6-paper", "fig6-fanout"):
        return build_grid("fig6", seed)
    if workload == "scale-50":
        return [
            replace(t, n_items=SCALE_ITEMS, n_updates=SCALE_UPDATES)
            for t in build_grid("scale", seed)
        ]
    if workload == "mixed-2pc":
        # experiment "fig6" marks the paper layout for paired_task; the
        # regular fraction is the benchmark's own, not a SweepTask field
        return [
            SweepTask(
                index=i,
                experiment="fig6",
                seed=derive_seed(seed, "mixed-2pc", i),
                n_updates=MIXED_UPDATES,
            )
            for i in range(MIXED_REPLICATES)
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")


class Spans:
    """In-memory span recorder for one run.

    A span records name, start, end, parent span and task id. A disabled
    recorder hands out one shared null context and records nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._null = nullcontext()

    def span(self, name: str, task: Optional[int] = None):
        if not self.enabled:
            return self._null
        return self._record(name, task)

    @contextmanager
    def _record(self, name: str, task: Optional[int]):
        parent = self._stack[-1] if self._stack else None
        if task is None and parent is not None:
            task = parent["task"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent is not None else None,
            "task": task,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Host seconds per span name, minus the time its child spans cover."""
    out: Dict[str, float] = {}
    child_time: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (
                child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
            )
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def update_tags(results) -> List[str]:
    """Per-update outcome tags in the sweep fingerprint's format."""
    return [
        f"{r.kind.value}:{r.outcome.value}:{int(r.local_only)}"
        f":{r.av_requests}:{r.finished_at!r}"
        for r in results
    ]


def paired_task(
    task, spans: Spans, regular_fraction: float = 1.0
) -> Tuple[dict, dict]:
    """Run one paired task through the layers' public calls.

    Returns ``(payload, counts)``: a fingerprint with the same
    ``update_tags`` / ``replicas`` / ``counters`` surface as the sweep's,
    and the per-layer counts the trace reports.
    """
    from repro.baselines.centralized import CentralizedSystem
    from repro.cluster import DistributedSystem, Topology, paper_config
    from repro.core.types import UPDATE_TAGS
    from repro.experiments.fig6 import make_paper_trace
    from repro.experiments.runner import checkpoint_schedule, run_counted
    from repro.experiments.scale import make_scale_trace
    from repro.obs.snapshot import TelemetrySnapshot

    n = task.n_updates
    with spans.span("task", task=task.index):
        if task.experiment == "scale":
            items = [
                f"item{i:0{len(str(task.n_items - 1))}d}"
                for i in range(task.n_items)
            ]
            with spans.span("cluster.topology"):
                topology = Topology.parse(task.topology, items)
                config = paper_config(
                    n_items=task.n_items, seed=task.seed, topology=topology,
                )
            with spans.span("workload.trace"):
                trace = make_scale_trace(topology, n, task.seed)
            checkpoints = checkpoint_schedule(n, max(1, n // 10))
        else:
            # the paper's flat layout is fixed by the config alone
            with spans.span("cluster.topology"):
                config = paper_config(
                    n_items=task.n_items, n_retailers=task.n_retailers,
                    seed=task.seed, regular_fraction=regular_fraction,
                )
            with spans.span("workload.trace"):
                trace = make_paper_trace(
                    n, task.seed, n_items=task.n_items,
                    n_retailers=task.n_retailers,
                )
            checkpoints = checkpoint_schedule(n, max(1, n // 20))
        with spans.span("cluster.build"):
            system = DistributedSystem.build(config)
        with spans.span("core.loop"):
            proposal = run_counted(system, trace, "proposal", checkpoints)
        with spans.span("cluster.invariants"):
            system.check_invariants()
        with spans.span("baselines.build"):
            central = CentralizedSystem(config)
        with spans.span("baselines.loop"):
            conventional = run_counted(
                central, trace, "conventional", checkpoints
            )
        with spans.span("obs.telemetry"):
            telemetry = TelemetrySnapshot.capture(
                system, extra_events=central.env.events_processed
            ).to_dict()
        results = proposal.results
        payload = {
            "update_tags": update_tags(results),
            "replicas": {
                name: site.store.as_dict()
                for name, site in system.sites.items()
            },
            "counters": {
                "proposal_correspondences": (
                    proposal.final().total_correspondences
                ),
                "conventional_correspondences": (
                    conventional.final().total_correspondences
                ),
                "conventional_results": len(conventional.results),
            },
            "telemetry": telemetry,
            "task": asdict(task),
        }
        stats = system.stats
        counts = {
            "workload.updates": len(trace),
            "cluster.slice_items": sum(
                len(site.store.as_dict()) for site in system.sites.values()
            ),
            "sim.events": system.env.events_processed,
            "baselines.events": central.env.events_processed,
            "net.messages": stats.sent_total,
            "net.correspondences": stats.correspondences_for_tags(UPDATE_TAGS),
            "core.av_requests": sum(r.av_requests for r in results),
            "core.local_updates": sum(1 for r in results if r.local_only),
            "core.immediate_updates": sum(
                1 for r in results if r.kind.value == "immediate"
            ),
            "core.immediate_commits": sum(
                1 for r in results
                if r.kind.value == "immediate" and r.committed
            ),
            "core.immediate_aborts": sum(
                1 for r in results if r.outcome.value == "aborted"
            ),
            "core.delay_rejects": sum(
                1 for r in results if r.outcome.value == "rejected"
            ),
        }
    return payload, counts


def digest_of(obj) -> str:
    """SHA-256 of an object's canonical JSON form."""
    from repro.perf import canonical_json

    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def sweep_digest(grid: str, root_seed: int, results: List[dict]) -> str:
    """The sweep digest ``SweepResult.digest`` prints, recomputed."""
    return digest_of({"grid": grid, "root_seed": root_seed, "results": results})
