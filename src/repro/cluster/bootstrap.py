"""Initial data delivery (paper §3.2).

"All data are assumed to be delivered to all the sites initially from
the base." We model that assumption directly: bootstrap installs the
catalogue into every site's store, defines AV entries for regular items,
splits the AV pool according to the configured weights, and seeds every
site's belief table with the initial allocation (each site knows the
split it was dealt). Bootstrap is setup, not protocol — it sends no
messages, matching the paper's accounting, which counts only
correspondences *for update*.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.cluster.catalog import ProductCatalog
from repro.metrics.collector import GlobalLedger


def split_volume(
    total: float, weights: Dict[str, float], order: Sequence[str]
) -> Dict[str, float]:
    """Split ``total`` across sites proportionally to ``weights``.

    Integral totals stay integral: each site gets the floor of its share
    and the leftover units go to the earliest sites in ``order`` (the
    base site first, by convention), so ``sum(result) == total`` exactly.
    """
    if total < 0:
        raise ValueError(f"negative total {total}")
    missing = [s for s in order if s not in weights]
    if missing:
        raise ValueError(f"no AV weight for sites {missing}")
    weight_sum = sum(weights[s] for s in order)
    if weight_sum <= 0:
        raise ValueError("AV weights must sum to a positive value")

    if not float(total).is_integer():
        return {s: total * weights[s] / weight_sum for s in order}

    shares = {s: math.floor(total * weights[s] / weight_sum) for s in order}
    leftover = int(total) - sum(shares.values())
    for site in order:
        if leftover <= 0:
            break
        shares[site] += 1
        leftover -= 1
    return {s: float(v) for s, v in shares.items()}


def bootstrap(
    sites,  # Dict[str, Site]; untyped to avoid an import cycle
    catalog: ProductCatalog,
    ledger: GlobalLedger,
    av_fraction: float = 1.0,
    av_weights: Dict[str, float] | None = None,
    base: str | None = None,
    topology=None,  # Optional[Topology]
) -> None:
    """Install catalogue data, AV allocation and initial beliefs.

    Parameters
    ----------
    sites:
        ``{name: Site}`` for every participant.
    catalog:
        The shared product catalogue.
    ledger:
        Receives every item's initial (ground-truth) value.
    av_fraction:
        Fraction of each regular item's initial stock distributed as AV.
    av_weights:
        Relative share per site; equal when omitted.
    base:
        Name of the base site (gets leftover units first); defaults to
        the first site.
    topology:
        Partial-replication shape: each item is installed, AV-split and
        belief-seeded only across its interest set (base first, then
        aggregators, then leaves — so leftover units pool upward).
        ``None`` delivers everything to every site, as the paper assumes.
    """
    names = list(sites)
    if base is None:
        base = names[0]
    weights = av_weights if av_weights is not None else {n: 1.0 for n in names}

    # Each site's slice and belief seeds, in catalogue order, loaded in
    # one bulk call per table.
    rows: Dict[str, list] = {name: [] for name in names}
    seeds: Dict[str, list] = {name: [] for name in names}
    for product in catalog:
        ledger.set_initial(product.item, product.initial_stock)
        interested = (
            list(topology.sites_for(product.item))
            if topology is not None else names
        )
        row = (product.item, product.initial_stock)
        for name in interested:
            rows[name].append(row)

        if not product.regular:
            continue

        order = [base] + [n for n in interested if n != base]
        pool = product.initial_stock * av_fraction
        if float(product.initial_stock).is_integer():
            pool = float(math.floor(pool))
        shares = split_volume(pool, weights, order)
        for name in interested:
            sites[name].av_table.define(product.item, shares[name])
        # The interest set knows the initial deal (it came from the base).
        for name in interested:
            seeds[name].extend(
                (peer, product.item, share)
                for peer, share in shares.items()
                if peer != name
            )

    for name in names:
        sites[name].store.insert_many(rows[name])
        sites[name].accelerator.beliefs.observe_many(seeds[name], now=0.0)
