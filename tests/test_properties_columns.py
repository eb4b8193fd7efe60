"""Property tests: the columnar kernel against pure-dict references.

Each table class in :mod:`repro.core.columns` claims *exact*
behavioural equality with its object twin: same return values, same
exception types at the same call, same monitor-event stream, same
``as_dict``/iteration order, same floats to the last bit. Hypothesis
drives random interleavings of the whole mutating vocabulary —
grant/deduct (``take``/``add``), hold cycles, lease-style
take-then-revert cycles, definition, drops — through both kernels in
lockstep and through a pure-dict model, and asserts the three never
disagree.

The slot machinery gets its own properties: geometric growth across
capacity boundaries (slots still handed out lowest-first), free-list
reuse after drops (lowest-first, ahead of spare fresh slots), bulk
``insert_many`` / ``observe_many`` against a loop of ``insert`` /
``observe`` on both kernels, and
accesses to catalog items a site never defined (unseen indices must
raise, not read a neighbour's slot).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.av_table import AVTable
from repro.core.beliefs import BeliefTable
from repro.core.columns import (
    ColumnarAVTable,
    ColumnarBeliefTable,
    ColumnarStore,
)
from repro.core.errors import AVUndefined, InsufficientAV, InvalidVolume
from repro.db.errors import DuplicateItem, NegativeValue, UnknownItem
from repro.db.storage import Store

ITEMS = ["itemA", "itemB", "itemC", "itemD", "itemE"]

#: amounts mix exact integers with repr-awkward decimals — both kernels
#: store IEEE-754 doubles, so even 0.1-style values must match bit-for-bit
amounts = st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5, 3.0, 7.7, 10.0, -1.0])


class RecordingMonitor:
    """Captures the av_event stream (the order is part of the contract)."""

    def __init__(self) -> None:
        self.events = []

    def av_event(self, table, op, item, amount, **_kwargs) -> None:
        self.events.append((op, item, repr(amount)))


def _apply(table, op, item, amount):
    """Run one op; returns ("ok", result) or ("err", exception type)."""
    try:
        if op == "define":
            return "ok", table.define(item, amount)
        if op == "add":
            return "ok", table.add(item, amount)
        if op == "take":
            return "ok", table.take(item, amount)
        if op == "take_up_to":
            return "ok", table.take_up_to(item, amount)
        if op == "take_all":
            return "ok", table.take_all(item)
        if op == "take_if_covered":
            return "ok", table.take_if_covered(item, amount)
        if op == "get":
            return "ok", table.get(item)
        if op == "hold_cycle":
            hold = table.hold(item)
            hold.add(table.take_up_to(item, amount))
            if int(amount * 2) % 2 == 0:
                hold.release()
                return "ok", 0.0
            taken = hold.amount
            hold.consume(taken)
            return "ok", taken
        if op == "lease_cycle":
            # A lease grant is a take; a lost transfer reverts with an
            # add of the same amount (see LeaseTable._revert).
            granted = table.take_up_to(item, amount)
            if int(amount) % 2 == 0:
                return "ok", table.add(item, granted) if granted else 0.0
            return "ok", granted
        if op == "debug_set":
            return "ok", table.debug_set(item, amount)
        raise AssertionError(f"unknown op {op}")
    except (AVUndefined, InsufficientAV, InvalidVolume) as exc:
        return "err", type(exc)


av_op_lists = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "define",
                "add",
                "take",
                "take_up_to",
                "take_all",
                "take_if_covered",
                "get",
                "hold_cycle",
                "lease_cycle",
                "debug_set",
            ]
        ),
        st.sampled_from(ITEMS),
        amounts,
    ),
    max_size=60,
)


@settings(deadline=None, max_examples=120)
@given(av_op_lists)
def test_av_tables_agree_on_any_interleaving(ops):
    obj, col = AVTable("s"), ColumnarAVTable("s")
    obj.monitor, col.monitor = RecordingMonitor(), RecordingMonitor()
    for op, item, amount in ops:
        if op == "define" and obj.defined(item):
            continue  # both kernels would raise the same way; not under test
        got_obj = _apply(obj, op, item, amount)
        got_col = _apply(col, op, item, amount)
        assert got_obj == got_col, (op, item, amount)
        # Full-state equality after every step, repr-exact floats.
        assert {k: repr(v) for k, v in obj.as_dict().items()} == {
            k: repr(v) for k, v in col.as_dict().items()
        }
        assert list(obj.items()) == list(col.items())
        assert repr(obj.total()) == repr(col.total())
    assert obj.monitor.events == col.monitor.events


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "apply_delta", "set_value", "drop", "value"]),
            st.sampled_from(ITEMS),
            amounts,
        ),
        max_size=60,
    )
)
def test_stores_agree_on_any_interleaving(ops):
    obj, col = Store("store"), ColumnarStore("store")
    model = {}  # the pure-dict reference
    for op, item, amount in ops:
        try:
            if op == "insert":
                a = obj.insert(item, amount)
                b = col.insert(item, amount)
                model[item] = amount
            elif op == "apply_delta":
                a = obj.apply_delta(item, amount, now=1.0)
                b = col.apply_delta(item, amount, now=1.0)
                model[item] = model[item] + amount
            elif op == "set_value":
                a = obj.set_value(item, amount, now=2.0)
                b = col.set_value(item, amount, now=2.0)
                model[item] = amount
            elif op == "drop":
                a = obj.drop(item)
                b = col.drop(item)
                model.pop(item)
            else:
                a = obj.value(item)
                b = col.value(item)
        except (DuplicateItem, UnknownItem, NegativeValue) as exc:
            with pytest.raises(type(exc), match=None):
                col_exc_op = {
                    "insert": lambda: col.insert(item, amount),
                    "apply_delta": lambda: col.apply_delta(item, amount, now=1.0),
                    "set_value": lambda: col.set_value(item, amount, now=2.0),
                    "drop": lambda: col.drop(item),
                    "value": lambda: col.value(item),
                }[op]
                col_exc_op()
            continue
        assert repr(a) == repr(b), (op, item, amount)
        assert obj.as_dict() == col.as_dict() == model
        assert list(obj.item_ids()) == list(col.item_ids())
        assert obj.mutations == col.mutations
        assert repr(obj.total()) == repr(col.total())


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["observe", "believed", "ranked", "forget"]),
            st.sampled_from(["p0", "p1", "p2"]),
            st.sampled_from(ITEMS[:3]),
            st.sampled_from([0.0, 1.0, 2.0, 3.5, 10.0]),  # timestamps
            amounts,
        ),
        max_size=50,
    )
)
def test_belief_tables_agree_on_any_interleaving(ops):
    obj, col = BeliefTable("s"), ColumnarBeliefTable("s")
    for op, peer, item, at, volume in ops:
        if op == "observe":
            obj.observe(peer, item, volume, at)
            col.observe(peer, item, volume, at)
        elif op == "believed":
            assert repr(obj.believed_volume(peer, item)) == repr(
                col.believed_volume(peer, item)
            )
            a, b = obj.belief(peer, item), col.belief(peer, item)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.volume, a.observed_at) == (b.volume, b.observed_at)
        elif op == "ranked":
            assert obj.ranked_peers(item, ["p0", "p1", "p2"]) == col.ranked_peers(
                item, ["p0", "p1", "p2"]
            )
        else:
            obj.forget_peer(peer)
            col.forget_peer(peer)
        assert len(obj) == len(col)
        assert obj.observations == col.observations
        assert [
            (p, i, b.volume, b.observed_at) for p, i, b in obj.entries()
        ] == [(p, i, b.volume, b.observed_at) for p, i, b in col.entries()]


# --------------------------------------------------------------------- #
# slot machinery: interest-slice boundaries, free-list, unseen indices
# --------------------------------------------------------------------- #


class CountingStore(ColumnarStore):
    """Counts column growth steps (amortisation check)."""

    __slots__ = ("grows",)

    def __init__(self, name: str = "store") -> None:
        super().__init__(name)
        self.grows = 0

    def _grow(self, n: int) -> None:
        self.grows += 1
        super()._grow(n)


class TestInterestSliceBoundaries:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 40])
    def test_growth_across_capacity_matches_object_kernel(self, n):
        # Defining items across every doubling boundary keeps values
        # and order identical to the object kernel, and fresh slots
        # are handed out lowest-first.
        items = [f"item{i}" for i in range(n)]
        obj, col = AVTable("s"), ColumnarAVTable("s")
        for i, item in enumerate(items):
            obj.define(item, float(i))
            col.define(item, float(i))
        assert obj.as_dict() == col.as_dict()
        assert list(obj.items()) == list(col.items())
        assert list(col._index.values()) == list(range(n))

    def test_growth_is_geometric(self):
        col = CountingStore("s")
        for i in range(1000):
            col.insert(f"item{i}", float(i))
        # 8, 16, 32, ..., 1024: one growth step per doubling.
        assert col.grows == 8
        assert len(col._val) == len(col._ver) == len(col._at) == 1024
        assert list(col._index.values()) == list(range(1000))

    def test_freed_slots_reused_lowest_first_before_spare(self):
        # 9 inserts grow capacity to 16 (slots 9..15 spare on the
        # free-list); drops must still be reused lowest-first, ahead
        # of the spare fresh slots.
        col = ColumnarStore("s")
        for i in range(9):
            col.insert(f"item{i}", float(i))
        for i in (6, 2, 4):
            col.drop(f"item{i}")
        for name in ("x0", "x1", "x2", "x3", "x4"):
            col.insert(name, 1.0)
        slots = {k: col._index[k] for k in ("x0", "x1", "x2", "x3", "x4")}
        assert slots == {"x0": 2, "x1": 4, "x2": 6, "x3": 9, "x4": 10}

    def test_belief_slots_reused_lowest_first_after_forget(self):
        col = ColumnarBeliefTable("s")
        for peer in ("p0", "p1", "p2"):
            for item in ITEMS:
                col.observe(peer, item, 1.0, 0.0)
        freed = sorted(
            slot for (peer, _), slot in col._index.items() if peer == "p1"
        )
        col.forget_peer("p1")
        for item in ITEMS:
            col.observe("p3", item, 2.0, 1.0)
        assert [col._index[("p3", item)] for item in ITEMS] == freed

    def test_unseen_catalog_items_raise_not_alias(self):
        # A site that never defined an item must get the domain error —
        # never a neighbour's slot value.
        col_av = ColumnarAVTable("s")
        col_av.define("itemA", 9.0)
        with pytest.raises(AVUndefined):
            col_av.get("itemB")
        with pytest.raises(AVUndefined):
            col_av.take("itemB", 1.0)
        store = ColumnarStore("s")
        store.insert("itemA", 9.0)
        with pytest.raises(UnknownItem):
            store.value("itemB")
        with pytest.raises(UnknownItem):
            store.apply_delta("itemB", 1.0, now=0.0)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from(ITEMS)), max_size=40
        )
    )
    def test_drop_reinsert_churn_matches_reference(self, churn):
        # Free-list reuse under arbitrary drop/insert churn: values and
        # iteration order keep matching the dict-backed store.
        obj, col = Store("s"), ColumnarStore("s")
        value = 0.0
        for insert, item in churn:
            if insert and item not in obj.item_ids():
                value += 1.0
                obj.insert(item, value)
                col.insert(item, value)
            elif not insert and item in obj.item_ids():
                obj.drop(item)
                col.drop(item)
            assert obj.as_dict() == col.as_dict()
            assert list(obj.item_ids()) == list(col.item_ids())

    def test_values_for_reads_in_request_order(self):
        col = ColumnarStore("s")
        for i, item in enumerate(ITEMS):
            col.insert(item, float(i))
        assert col.values_for(reversed(ITEMS)) == [4.0, 3.0, 2.0, 1.0, 0.0]
        with pytest.raises(UnknownItem):
            col.values_for(["itemA", "missing"])


# --------------------------------------------------------------------- #
# bulk load: insert_many == a loop of insert, on both kernels
# --------------------------------------------------------------------- #


def _store_state(store):
    return (
        [(item, repr(value)) for item, value in store.items()],
        [
            (store.record(i).version, store.record(i).updated_at)
            for i in store.item_ids()
        ],
        store.mutations,
    )


def _insert_loop(store, pairs, now):
    """The reference: one ``insert`` per pair; the first error type."""
    for item, value in pairs:
        try:
            store.insert(item, value, now=now)
        except (DuplicateItem, NegativeValue) as exc:
            return type(exc)
    return None


@settings(deadline=None, max_examples=150)
@given(
    prefix=st.lists(
        st.tuples(st.booleans(), st.sampled_from(ITEMS)), max_size=20
    ),
    batch=st.lists(
        st.tuples(
            st.sampled_from(ITEMS + ["itemF", "itemG", "itemH"]), amounts
        ),
        max_size=8,
    ),
    allow_negative=st.booleans(),
)
def test_insert_many_matches_insert_loop(prefix, batch, allow_negative):
    # Both kernels, each against a loop of insert on its own kind. The
    # prefix churn leaves a non-empty free-list behind drops.
    stores = {
        kind: [cls("s", allow_negative=allow_negative) for _ in range(2)]
        for kind, cls in (("object", Store), ("columnar", ColumnarStore))
    }
    for bulk, loop in stores.values():
        for insert, item in prefix:
            for store in (bulk, loop):
                if insert and item not in store:
                    store.insert(item, 1.0)
                elif not insert and item in store:
                    store.drop(item)

    errors = {}
    col_free = list(stores["columnar"][0]._free)
    for kind, (bulk, loop) in stores.items():
        before = _store_state(bulk)
        errors[kind] = _insert_loop(loop, batch, now=3.0)
        if errors[kind] is None:
            bulk.insert_many(batch, now=3.0)
            assert _store_state(bulk) == _store_state(loop)
        else:
            with pytest.raises(errors[kind]):
                bulk.insert_many(batch, now=3.0)
            # A rejected batch writes nothing.
            assert _store_state(bulk) == before
    assert errors["object"] == errors["columnar"]
    assert _store_state(stores["object"][0]) == _store_state(
        stores["columnar"][0]
    )
    bulk, loop = stores["columnar"]
    if errors["columnar"] is None:
        # Same slot mapping, and the next allocation agrees too.
        bulk.insert("probe", 0.0)
        loop.insert("probe", 0.0)
        assert bulk._index == loop._index
    else:
        assert bulk._free == col_free


@settings(deadline=None, max_examples=100)
@given(
    prefix=st.lists(
        st.tuples(
            st.sampled_from(["observe", "forget"]),
            st.sampled_from(["p0", "p1", "p2"]),
            st.sampled_from(ITEMS[:3]),
            st.sampled_from([0.0, 1.0, 5.0]),
        ),
        max_size=12,
    ),
    batch=st.lists(
        st.tuples(
            st.sampled_from(["p0", "p1", "p2", "p3"]),
            st.sampled_from(ITEMS),
            amounts,
        ),
        max_size=10,
    ),
    now=st.sampled_from([0.0, 2.0]),
)
def test_observe_many_matches_observe_loop(prefix, batch, now):
    # Bulk seeding (fresh keys into an empty table) and the general case
    # (repeats, stale observations, freed slots) against a loop.
    tables = [
        (BeliefTable("s"), BeliefTable("s")),
        (ColumnarBeliefTable("s"), ColumnarBeliefTable("s")),
    ]
    for bulk, loop in tables:
        for table in (bulk, loop):
            for op, peer, item, at in prefix:
                if op == "observe":
                    table.observe(peer, item, 1.0, at)
                else:
                    table.forget_peer(peer)
        bulk.observe_many(batch, now=now)
        for peer, item, volume in batch:
            loop.observe(peer, item, volume, now)
    states = [
        [
            (p, i, repr(b.volume), b.observed_at)
            for p, i, b in table.entries()
        ] + [table.observations]
        for pair in tables
        for table in pair
    ]
    assert states[0] == states[1] == states[2] == states[3]
    col_bulk, col_loop = tables[1]
    assert col_bulk._index == col_loop._index
