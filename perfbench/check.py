"""Output check for one rep of a workload.

A rep is correct when every task's fingerprint passes these checks:

* the sweep returned one fingerprint per task, for the task it names;
* the proposal system returned exactly one result per trace update and
  the centralized system one correspondence per trace update (it pays
  one round trip per update whatever the outcome);
* every outcome is committed, rejected (Delay Update) or aborted
  (Immediate Update) — rejections and aborts are correct protocol
  behaviour;
* each site's replica values sum to the stock total its telemetry
  reports (two outputs of the run that must agree);
* the task's digest equals the reference digest: the one pinned in
  ``pins.json`` for this seed, else the run's first rep;
* the claimed sweep digest equals the digest recomputed from the
  fingerprints (a tampered digest fails every task).

:func:`check_rep` returns the indices of the tasks that failed, so the
caller can count their updates in ``failed_share``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Set

from workloads import digest_of, sweep_digest

#: (kind, outcome) pairs a correct run may produce
ALLOWED_OUTCOMES = frozenset({
    ("delay", "committed"),
    ("delay", "rejected"),
    ("immediate", "committed"),
    ("immediate", "aborted"),
})

PINS_FILE = Path(__file__).resolve().parent / "pins.json"


def load_pin(grid: str, seed: int) -> Optional[dict]:
    """The reference pinned for ``grid`` at root seed ``seed``, if any."""
    pins = json.loads(PINS_FILE.read_text())
    return pins.get(grid, {}).get("seeds", {}).get(str(seed))


def _task_ok(payload: dict, task) -> bool:
    n = task.n_updates
    if payload.get("task") != asdict(task):
        return False
    tags = payload.get("update_tags")
    if not isinstance(tags, list) or len(tags) != n:
        return False
    for tag in tags:
        parts = tag.split(":")
        if len(parts) != 5 or (parts[0], parts[1]) not in ALLOWED_OUTCOMES:
            return False
    counters = payload.get("counters", {})
    if counters.get("conventional_correspondences") != float(n):
        return False
    if counters.get("conventional_results", n) != n:
        return False
    sites = payload.get("telemetry", {}).get("sites", {})
    replicas = payload.get("replicas", {})
    if set(sites) != set(replicas):
        return False
    for name, values in replicas.items():
        if sum(values.values()) != sites[name]["stock_total"]:
            return False
    return True


def check_rep(
    results: List[dict],
    digest: str,
    tasks: list,
    grid: str,
    root_seed: int,
    reference: Optional[Dict[str, object]] = None,
) -> Set[int]:
    """Indices of the tasks whose output is wrong (empty = rep correct).

    ``reference`` holds ``digest`` and per-task ``tasks`` digests.
    """
    all_tasks = {t.index for t in tasks}
    if len(results) != len(tasks):
        return all_tasks
    if sweep_digest(grid, root_seed, results) != digest:
        return all_tasks
    failed: Set[int] = set()
    ref_tasks = reference["tasks"] if reference is not None else None
    for i, (payload, task) in enumerate(zip(results, tasks)):
        if not _task_ok(payload, task):
            failed.add(task.index)
        elif ref_tasks is not None and digest_of(payload) != ref_tasks[i]:
            failed.add(task.index)
    if reference is not None and not failed and digest != reference["digest"]:
        return all_tasks
    return failed


def reference_of(results: List[dict], digest: str) -> Dict[str, object]:
    """A reference built from a rep's own output (digest + per task)."""
    return {"digest": digest, "tasks": [digest_of(p) for p in results]}


def check_traced(traced: List[dict], untraced: List[dict]) -> Set[int]:
    """Tasks whose traced replicas or update tags differ from untraced."""
    return {
        payload["task"]["index"]
        for payload, ref in zip(traced, untraced)
        if payload["update_tags"] != ref["update_tags"]
        or payload["replicas"] != ref["replicas"]
    }
