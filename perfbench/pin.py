"""Regenerate ``pins.json``: the digests the output check requires.

Run from the repository root, on the commit whose behaviour is the
reference::

    python3 perfbench/pin.py

For each grid and root seed 0-31 it runs one rep and records the sweep
digest and each task's digest. Re-pin only when the workloads change
size or a change of behaviour is intended and stated.
"""

from __future__ import annotations

import json

from check import PINS_FILE
from run import Bench
from workloads import MIXED_REGULAR_FRACTION, SCALE_ITEMS, SCALE_UPDATES, Spans

SEEDS = range(32)

ABOUT = {
    "fig6-paper": "stock fig6 grid: 8 tasks x 1000 updates",
    "mixed-2pc": (
        f"8 tasks x 1000 updates, regular_fraction={MIXED_REGULAR_FRACTION}"
    ),
    "scale-50": (
        f"scale grid resized to {SCALE_ITEMS} items x {SCALE_UPDATES}"
        " updates per topology"
    ),
}


def main() -> None:
    pins = {}
    for workload, about in ABOUT.items():
        for seed in SEEDS:
            bench = Bench(workload, seed)
            bench.reference = None
            bench.rep(Spans(False))
            if bench.problems or bench.reference is None:
                raise SystemExit(f"{workload} seed {seed}: {bench.problems}")
            grid = pins.setdefault(
                bench.workload.grid, {"about": about, "seeds": {}})
            grid["seeds"][str(seed)] = bench.reference
            print(workload, seed, bench.reference["digest"], flush=True)
    PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
