"""Regression tests: the topology's interest index against brute force.

``Topology.__init__`` builds each site's interest set, each item's
interest set (``sites_for``) and the orphan check in passes linear in
the interest sets. These tests rebuild all three the slow, obvious way
— membership tests of every item against every site — and require
exact equality, including tuple order (catalogue order for
``interest_of``, spec order for ``sites_for``) and the orphan
``ValueError`` message.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import (
    ROLE_AGGREGATOR,
    ROLE_MAKER,
    ROLE_RETAILER,
    SiteSpec,
    Topology,
)


def brute_force(specs, slices, items):
    """``(interest, sites_for, orphaned)`` by exhaustive membership."""
    names = [s.name for s in specs]
    parent = {s.name: s.parent for s in specs}
    leaves = [s.name for s in specs if s.role == ROLE_RETAILER]

    def ancestors(name):
        found = []
        while parent[name] is not None:
            name = parent[name]
            found.append(name)
        return found

    interest = {}
    for s in specs:
        if s.role == ROLE_MAKER:
            interest[s.name] = tuple(items)
        elif s.role == ROLE_RETAILER:
            interest[s.name] = tuple(
                i for i in items if i in set(slices[s.name])
            )
    for s in specs:
        if s.role == ROLE_AGGREGATOR:
            below = [leaf for leaf in leaves if s.name in ancestors(leaf)]
            interest[s.name] = tuple(
                i for i in items
                if any(i in interest[leaf] for leaf in below)
            )
    orphaned = [
        i for i in items if not any(i in interest[leaf] for leaf in leaves)
    ]
    sites_for = {
        i: tuple(n for n in names if i in interest[n]) for i in items
    }
    return interest, sites_for, orphaned


def assert_matches(specs, slices, items):
    interest, sites_for, orphaned = brute_force(specs, slices, items)
    if orphaned:
        with pytest.raises(ValueError) as exc:
            Topology(specs, slices, items=items)
        assert str(exc.value) == f"items served by no leaf: {orphaned}"
        return
    topo = Topology(specs, slices, items=items)
    assert {n: topo.interest_of(n) for n in topo.names} == interest
    assert {i: topo.sites_for(i) for i in items} == sites_for


def _specs_and_slices(topo):
    data = topo.to_dict()
    specs = [SiteSpec(*site) for site in data["sites"]]
    return specs, data["slices"], data["items"]


ITEMS = [f"item{i}" for i in range(300)]


@pytest.mark.parametrize(
    "spec", ["flat:4", "regional:7x6:s2", "deep:3x4x4:s2", "regional:3x2:s9"]
)
def test_parsed_topologies_match_brute_force(spec):
    topo = Topology.parse(spec, ITEMS)
    interest, sites_for, orphaned = brute_force(*_specs_and_slices(topo))
    assert not orphaned
    assert {n: topo.interest_of(n) for n in topo.names} == interest
    assert {i: topo.sites_for(i) for i in ITEMS} == sites_for


@st.composite
def random_layouts(draw):
    """A random supply tree in shuffled spec order with random slices.

    Every aggregator gets one dedicated leaf (an aggregator without
    leaves is rejected before the interest index is built); slices are
    random, possibly repeating and possibly leaving items orphaned.
    """
    n_aggs = draw(st.integers(0, 4))
    n_extra = draw(st.integers(1, 5))
    items = [f"i{k}" for k in range(draw(st.integers(1, 12)))]
    aggs = []
    for k in range(n_aggs):
        parent = draw(st.sampled_from(["m"] + [a.name for a in aggs]))
        aggs.append(SiteSpec(f"a{k}", ROLE_AGGREGATOR, parent=parent))
    uppers = ["m"] + [a.name for a in aggs]
    leaves = [
        SiteSpec(f"l{k}", ROLE_RETAILER, parent=agg.name)
        for k, agg in enumerate(aggs)
    ]
    for k in range(n_extra):
        leaves.append(SiteSpec(
            f"l{n_aggs + k}", ROLE_RETAILER,
            parent=draw(st.sampled_from(uppers)),
        ))
    rest = draw(st.permutations(aggs + leaves))
    specs = [SiteSpec("m", ROLE_MAKER)] + list(rest)
    slices = {
        leaf.name: draw(st.lists(st.sampled_from(items), max_size=10))
        for leaf in leaves
    }
    return specs, slices, draw(st.permutations(items))


@settings(deadline=None, max_examples=200)
@given(random_layouts())
def test_random_layouts_match_brute_force(layout):
    assert_matches(*layout)


def test_orphan_message_lists_items_in_catalogue_order():
    specs = [
        SiteSpec("m", ROLE_MAKER),
        SiteSpec("l0", ROLE_RETAILER, parent="m"),
    ]
    items = ["c", "a", "b", "d"]
    assert_matches(specs, {"l0": ["a"]}, items)
    with pytest.raises(ValueError, match=r"\['c', 'b', 'd'\]"):
        Topology(specs, {"l0": ["a"]}, items=items)
