"""Columnar (struct-of-arrays) kernel for the protocol hot state.

The object kernel keeps AV volumes, beliefs and replica values in
per-item dicts of objects. At 100+ sites / 10⁵+ items that layout pays
a dict lookup plus object attribute access per touch and an object
header per item per site. This module restructures the three hot
tables into flat catalog-indexed columns:

* one insertion-ordered ``{key: slot}`` index dict per table, and
* ``array('d')`` / ``array('q')`` value columns indexed by slot.

A site only ever defines the items of its interest-set slice, so
partial replication allocates only the catalogue slice it needs.
Columns grow geometrically (amortised O(1) per key) and stores load
a whole slice in one :meth:`ColumnarStore.insert_many` call. Unused
slots wait on a free-list and are handed out in ascending order,
keeping slot assignment deterministic.

Determinism contract — the reason this module is testable at all:
every columnar class mirrors its object twin *exactly*: same public
API, same exception types and messages, same monitor-event ordering
(``define`` notifies before the write; ``add``/``take`` mutate then
notify), same float arithmetic (``array('d')`` stores IEEE-754
doubles, the same representation a Python float dict holds), and same
iteration order (the index dict is insertion-ordered, exactly like the
object kernel's dicts). ``tests/test_kernel_differential.py`` runs
both kernels side-by-side over the experiment grids and fuzz cases and
asserts byte-identical digests.

Kernel selection: :func:`resolve_kernel` maps an explicit choice, the
``REPRO_KERNEL`` environment variable, or the default onto a kernel
name; the :func:`make_store` / :func:`make_av_table` /
:func:`make_belief_table` factories construct the matching classes.
"""

from __future__ import annotations

import os
from array import array
from bisect import insort
from operator import neg
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.core.av_table import Hold
from repro.core.beliefs import Belief
from repro.core.errors import AVUndefined, InsufficientAV, InvalidVolume
from repro.db.errors import DuplicateItem, NegativeValue, UnknownItem
from repro.db.storage import validate_batch

#: kernel names accepted everywhere a kernel can be chosen
KERNELS = ("columnar", "object")

#: the kernel used when neither the config nor the environment says
#: otherwise — columnar is the default core as of ROADMAP item 2
DEFAULT_KERNEL = "columnar"

#: environment override honoured by :func:`resolve_kernel`
KERNEL_ENV = "REPRO_KERNEL"


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """Resolve a kernel choice: explicit arg → env var → default.

    ``None`` / ``""`` mean "not chosen at this layer"; anything else
    must be a member of :data:`KERNELS`.
    """
    if kernel:
        if kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of {KERNELS}"
            )
        return kernel
    env = os.environ.get(KERNEL_ENV, "")
    if env:
        if env not in KERNELS:
            raise ValueError(
                f"unknown {KERNEL_ENV}={env!r}; expected one of {KERNELS}"
            )
        return env
    return DEFAULT_KERNEL


class _SlotColumns:
    """Shared slot allocator: insertion-ordered index + free-list.

    Subclasses declare their value columns; this base owns slot
    assignment. Every unused slot below the column capacity sits on the
    free-list, kept sorted descending so ``pop()`` yields the lowest
    first. When the free-list runs dry the columns double and the fresh
    slots join it, so growth is amortised O(1) per key and two runs
    performing the same operation sequence always agree on the
    item → slot mapping (each key gets the lowest unused slot).
    """

    __slots__ = ("_index", "_free")

    #: capacity of the first growth step
    _MIN_GROWTH = 8

    def __init__(self) -> None:
        self._index: Dict = {}
        self._free: list[int] = []

    def _grow(self, n: int) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _alloc(self, key) -> int:
        free = self._free
        if not free:
            # Free-list empty ⇒ every slot is in use: capacity == len.
            base = len(self._index)
            extra = max(base, self._MIN_GROWTH)
            self._grow(extra)
            free.extend(range(base + extra - 1, base - 1, -1))
        slot = free.pop()
        self._index[key] = slot
        return slot

    def _release(self, key) -> int:
        slot = self._index.pop(key)
        # Keep the free-list sorted descending so pop() yields the
        # lowest slot first (deterministic reuse order). A binary
        # insert, since the list also holds the spare fresh slots.
        insort(self._free, slot, key=neg)
        return slot


class ColumnarAVTable(_SlotColumns):
    """Struct-of-arrays :class:`~repro.core.av_table.AVTable`.

    One ``array('d')`` volume column, slot-indexed by the shared
    allocator. Holds reuse the object kernel's :class:`Hold` — it only
    talks to the table through ``add``/``monitor``, which behave
    identically here.

    Parameters
    ----------
    site:
        Owning site's name (for error messages and traces).
    inject:
        TEST-ONLY planted-bug selector. ``"col-alias"`` makes
        :meth:`add` write to the *previous* slot — the classic
        off-by-one column-aliasing bug the fuzzer must find.
    """

    __slots__ = ("site", "_vol", "open_holds", "monitor", "_hold_seq", "inject")

    def __init__(self, site: str = "site", inject: str = "") -> None:
        super().__init__()
        self.site = site
        self._vol = array("d")
        #: open holds (diagnostic; should be empty at quiescence)
        self.open_holds = 0
        #: optional duck-typed observer (see :class:`AVTable.monitor`)
        self.monitor = None
        self._hold_seq = 0
        self.inject = inject

    def _grow(self, n: int) -> None:
        self._vol.extend([0.0] * n)

    # -- checking-function predicate --------------------------------- #

    def defined(self, item: str) -> bool:
        """``True`` iff AV is managed for ``item`` (⇒ Delay Update)."""
        return item in self._index

    # -- schema ------------------------------------------------------- #

    def define(self, item: str, initial: float = 0.0) -> None:
        """Register ``item`` for AV management with ``initial`` volume."""
        if item in self._index:
            raise InvalidVolume(f"AV for {item!r} already defined at {self.site}")
        if initial < 0:
            raise InvalidVolume(f"negative initial AV {initial}")
        if self.monitor is not None:
            self.monitor.av_event(self, "define", item, float(initial))
        self._vol[self._alloc(item)] = float(initial)

    def undefine(self, item: str) -> float:
        """Remove ``item`` from AV management; returns the dropped volume."""
        if item not in self._index:
            raise AVUndefined(item)
        slot = self._release(item)
        dropped = self._vol[slot]
        self._vol[slot] = 0.0
        if self.monitor is not None:
            self.monitor.av_event(self, "undefine", item, dropped)
        return dropped

    # -- volume movement ---------------------------------------------- #

    def get(self, item: str) -> float:
        """Current local AV for ``item``."""
        try:
            return self._vol[self._index[item]]
        except KeyError:
            raise AVUndefined(item) from None

    def add(self, item: str, amount: float) -> float:
        """Increase local AV (minting at the maker, or a received grant)."""
        if amount < 0:
            raise InvalidVolume(f"cannot add negative AV {amount}")
        slot = self._index.get(item)
        if slot is None:
            raise AVUndefined(item)
        vol = self._vol
        if self.inject == "col-alias" and slot > 0:
            # PLANTED BUG: the grant lands one column over — volume
            # leaks into whatever item owns the neighbouring slot. The
            # conservation oracles must catch this.
            vol[slot - 1] += amount
        else:
            vol[slot] += amount
        if self.monitor is not None:
            self.monitor.av_event(self, "add", item, amount)
        return vol[slot]

    def take(self, item: str, amount: float) -> float:
        """Remove exactly ``amount``; raises :class:`InsufficientAV` if short."""
        slot = self._index.get(item)
        if slot is None:
            raise AVUndefined(item)
        available = self._vol[slot]
        if amount < 0:
            raise InvalidVolume(f"cannot take negative AV {amount}")
        if amount > available + 1e-9:
            raise InsufficientAV(item, available, amount)
        self._vol[slot] = available - amount
        if self.monitor is not None:
            self.monitor.av_event(self, "take", item, amount)
        return amount

    def take_if_covered(self, item: str, amount: float) -> bool:
        """Fused ``get`` + ``take``: spend ``amount`` iff fully covered.

        The Delay decrement hot path's single-lookup form of
        ``if av.get(item) >= need: av.take(item, need)`` — one slot
        lookup instead of two, same monitor event, same arithmetic.
        Returns whether the take happened.
        """
        slot = self._index.get(item)
        if slot is None:
            raise AVUndefined(item)
        if amount < 0:
            raise InvalidVolume(f"cannot take negative AV {amount}")
        available = self._vol[slot]
        if available < amount:
            return False
        self._vol[slot] = available - amount
        if self.monitor is not None:
            self.monitor.av_event(self, "take", item, amount)
        return True

    def take_up_to(self, item: str, amount: float) -> float:
        """Remove ``min(amount, available)``; returns what was taken."""
        if amount < 0:
            raise InvalidVolume(f"cannot take negative AV {amount}")
        slot = self._index.get(item)
        if slot is None:
            raise AVUndefined(item)
        available = self._vol[slot]
        taken = min(amount, available)
        self._vol[slot] = available - taken
        if self.monitor is not None:
            self.monitor.av_event(self, "take", item, taken)
        return taken

    def take_all(self, item: str) -> float:
        """Drain the item's AV (paper: "holds all the AV at the site")."""
        slot = self._index.get(item)
        if slot is None:
            raise AVUndefined(item)
        available = self._vol[slot]
        self._vol[slot] = 0.0
        if self.monitor is not None:
            self.monitor.av_event(self, "take", item, available)
        return available

    def hold(self, item: str, ctx: Optional[Tuple[str, int]] = None) -> Hold:
        """Open a :class:`Hold` for an in-progress update on ``item``."""
        if item not in self._index:
            raise AVUndefined(item)
        self._hold_seq += 1
        self.open_holds += 1
        h = Hold(self, item, hold_id=self._hold_seq, ctx=ctx)
        if self.monitor is not None:
            self.monitor.av_event(self, "hold.open", item, 0.0, hold=h)
        return h

    # -- test hook ---------------------------------------------------- #

    def debug_set(self, item: str, volume: float) -> None:
        """TEST-ONLY: force a raw volume, bypassing every check.

        Mirrors the object kernel's raw dict write, including creating
        the entry when the item was never defined.
        """
        slot = self._index.get(item)
        if slot is None:
            slot = self._alloc(item)
        self._vol[slot] = volume

    # -- views -------------------------------------------------------- #

    def items(self) -> Iterator[Tuple[str, float]]:
        vol = self._vol
        return ((item, vol[slot]) for item, slot in self._index.items())

    def as_dict(self) -> Dict[str, float]:
        vol = self._vol
        return {item: vol[slot] for item, slot in self._index.items()}

    def total(self) -> float:
        """Sum of AV across all items (conservation diagnostics).

        Summed in insertion order — the same float accumulation order
        as the object kernel's ``sum(dict.values())``.
        """
        vol = self._vol
        return sum(vol[slot] for slot in self._index.values())

    def __contains__(self, item: str) -> bool:
        return item in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return (
            f"<ColumnarAVTable {self.site!r} items={len(self._index)}"
            f" total={self.total():g}>"
        )


class ColumnarBeliefTable(_SlotColumns):
    """Struct-of-arrays :class:`~repro.core.beliefs.BeliefTable`.

    Two parallel columns — believed volume and observation time —
    indexed by ``(peer, item)`` slots. :class:`Belief` values are
    materialised on demand (it is a frozen value type; identity never
    matters to callers).
    """

    __slots__ = ("site", "_vol", "_at", "observations")

    def __init__(self, site: str = "site") -> None:
        super().__init__()
        self.site = site
        self._vol = array("d")
        self._at = array("d")
        #: observations recorded (diagnostic)
        self.observations = 0

    def _grow(self, n: int) -> None:
        zeros = [0.0] * n
        self._vol.extend(zeros)
        self._at.extend(zeros)

    def observe(self, peer: str, item: str, volume: float, now: float) -> None:
        """Record that ``peer`` held ``volume`` AV for ``item`` at ``now``.

        Older observations never overwrite newer ones (out-of-order
        message delivery must not regress knowledge).
        """
        key = (peer, item)
        slot = self._index.get(key)
        if slot is None:
            slot = self._alloc(key)
        elif self._at[slot] > now:
            return
        self._vol[slot] = volume
        self._at[slot] = now
        self.observations += 1

    def observe_many(
        self, observations: Iterable[Tuple[str, str, float]], now: float
    ) -> None:
        """Bulk :meth:`observe` of ``(peer, item, volume)`` triples.

        Same table as a loop of ``observe``. A batch of fresh, distinct
        keys into a table with no free slot (bootstrap's seeding) loads
        the index and columns in one go; anything else takes the loop.
        """
        observations = list(observations)
        keys = [(peer, item) for peer, item, _ in observations]
        index = self._index
        if (
            self._free
            or len(set(keys)) != len(keys)
            or not index.keys().isdisjoint(keys)
        ):
            for peer, item, volume in observations:
                self.observe(peer, item, volume, now)
            return
        # Free-list empty ⇒ every slot is in use: capacity == len.
        base = len(index)
        index.update(zip(keys, range(base, base + len(keys))))
        self._vol.extend(array("d", [v for _, _, v in observations]))
        self._at.extend(array("d", [now]) * len(keys))
        self.observations += len(keys)

    def believed_volume(self, peer: str, item: str) -> Optional[float]:
        """Last known AV of ``peer`` for ``item``; ``None`` if never seen."""
        slot = self._index.get((peer, item))
        return self._vol[slot] if slot is not None else None

    def belief(self, peer: str, item: str) -> Optional[Belief]:
        slot = self._index.get((peer, item))
        if slot is None:
            return None
        return Belief(self._vol[slot], self._at[slot])

    def ranked_peers(self, item: str, candidates: list[str]) -> list[str]:
        """``candidates`` ordered richest-believed-first (ties by name)."""
        index = self._index
        vol = self._vol

        def sort_key(peer: str) -> tuple[float, str]:
            slot = index.get((peer, item))
            believed = vol[slot] if slot is not None else 0.5
            return (-believed, peer)

        return sorted(candidates, key=sort_key)

    def entries(self):
        """Iterate ``(peer, item, Belief)`` over every held belief."""
        vol = self._vol
        at = self._at
        for (peer, item), slot in self._index.items():
            yield peer, item, Belief(vol[slot], at[slot])

    def forget_peer(self, peer: str) -> None:
        """Drop all beliefs about a peer (e.g. observed to have crashed)."""
        for key in [k for k in self._index if k[0] == peer]:
            self._release(key)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return f"<ColumnarBeliefTable {self.site!r} entries={len(self._index)}>"


class _ColumnRecord:
    """Record view over one store slot (compatibility shim).

    Everything hot goes through :meth:`ColumnarStore.apply_delta` /
    ``set_value`` directly on the columns; this view only serves the
    occasional ``store.record(item)`` caller (tests, diagnostics).
    """

    __slots__ = ("_store", "_slot", "item")

    def __init__(self, store: "ColumnarStore", slot: int, item: str) -> None:
        self._store = store
        self._slot = slot
        self.item = item

    @property
    def value(self) -> float:
        return self._store._val[self._slot]

    @value.setter
    def value(self, v: float) -> None:
        self._store._val[self._slot] = v

    @property
    def version(self) -> int:
        return self._store._ver[self._slot]

    @version.setter
    def version(self, v: int) -> None:
        self._store._ver[self._slot] = v

    @property
    def updated_at(self) -> float:
        return self._store._at[self._slot]

    @updated_at.setter
    def updated_at(self, t: float) -> None:
        self._store._at[self._slot] = t

    def apply(self, delta: float, now: float = 0.0) -> float:
        """Add ``delta`` to the value; returns the new value."""
        store, slot = self._store, self._slot
        store._val[slot] += delta
        store._ver[slot] += 1
        store._at[slot] = now
        return store._val[slot]

    def set(self, value: float, now: float = 0.0) -> None:
        """Overwrite the value (used by bootstrap and replication)."""
        store, slot = self._store, self._slot
        store._val[slot] = value
        store._ver[slot] += 1
        store._at[slot] = now

    def __str__(self) -> str:
        return f"{self.item}={self.value} (v{self.version})"

    def __repr__(self) -> str:
        # Mirrors the dataclass repr of repro.db.record.Record.
        return (
            f"Record(item={self.item!r}, value={self.value!r},"
            f" version={self.version!r}, updated_at={self.updated_at!r})"
        )


class ColumnarStore(_SlotColumns):
    """Struct-of-arrays :class:`~repro.db.storage.Store`.

    Value / version / updated-at columns replace per-item
    :class:`~repro.db.record.Record` objects; the public API —
    the only surface any protocol layer touches — is identical.
    """

    __slots__ = ("name", "allow_negative", "_val", "_ver", "_at", "mutations")

    def __init__(self, name: str = "store", allow_negative: bool = False) -> None:
        super().__init__()
        self.name = name
        self.allow_negative = allow_negative
        self._val = array("d")
        self._ver = array("q")
        self._at = array("d")
        #: mutation counter across all records (diagnostic)
        self.mutations = 0

    def _grow(self, n: int) -> None:
        zeros = [0.0] * n
        self._val.extend(zeros)
        self._ver.extend([0] * n)
        self._at.extend(zeros)

    # -- schema ------------------------------------------------------- #

    def insert(self, item: str, value: float, now: float = 0.0) -> _ColumnRecord:
        """Create a new record; the id must be fresh."""
        if item in self._index:
            raise DuplicateItem(f"item {item!r} already in store {self.name!r}")
        if not self.allow_negative and value < 0:
            raise NegativeValue(item, 0, value)
        slot = self._alloc(item)
        self._val[slot] = value
        self._ver[slot] = 0
        self._at[slot] = now
        return _ColumnRecord(self, slot, item)

    def insert_many(
        self, pairs: Iterable[Tuple[str, float]], now: float = 0.0
    ) -> None:
        """Bulk :meth:`insert`: same records as a loop of ``insert``.

        The whole batch is validated first (see
        :func:`~repro.db.storage.validate_batch`), so a rejected batch
        leaves the store unchanged. Freed slots are reused lowest-first,
        then the columns extend once for the rest.
        """
        items, values = validate_batch(
            self.name, self._index, pairs, self.allow_negative
        )
        index = self._index
        free = self._free
        val, ver, at = self._val, self._ver, self._at
        reused = min(len(free), len(items))
        for item, value in zip(items[:reused], values[:reused]):
            slot = free.pop()
            index[item] = slot
            val[slot] = value
            ver[slot] = 0
            at[slot] = now
        fresh = len(items) - reused
        if fresh:
            # Free-list empty ⇒ every slot is in use: capacity == len.
            base = len(val)
            index.update(zip(items[reused:], range(base, base + fresh)))
            val.extend(array("d", values[reused:]))
            ver.extend(array("q", [0]) * fresh)
            at.extend(array("d", [now]) * fresh)

    def drop(self, item: str) -> None:
        if item not in self._index:
            raise UnknownItem(item)
        slot = self._release(item)
        self._val[slot] = 0.0
        self._ver[slot] = 0
        self._at[slot] = 0.0

    # -- access ------------------------------------------------------- #

    def record(self, item: str) -> _ColumnRecord:
        try:
            return _ColumnRecord(self, self._index[item], item)
        except KeyError:
            raise UnknownItem(item) from None

    def value(self, item: str) -> float:
        try:
            return self._val[self._index[item]]
        except KeyError:
            raise UnknownItem(item) from None

    def __contains__(self, item: str) -> bool:
        return item in self._index

    def __len__(self) -> int:
        return len(self._index)

    def items(self) -> Iterator[Tuple[str, float]]:
        """Iterate ``(item, value)`` pairs in insertion order."""
        val = self._val
        return ((item, val[slot]) for item, slot in self._index.items())

    def item_ids(self) -> Iterable[str]:
        return self._index.keys()

    # -- mutation ----------------------------------------------------- #

    def apply_delta(
        self, item: str, delta: float, now: float = 0.0, force: bool = False
    ) -> float:
        """Add ``delta`` to a record; returns the new value.

        Same contract as :meth:`Store.apply_delta` — ``force=True``
        bypasses the non-negativity check for replica application.
        """
        slot = self._index.get(item)
        if slot is None:
            raise UnknownItem(item)
        val = self._val
        value = val[slot]
        if not force and not self.allow_negative and value + delta < 0:
            raise NegativeValue(item, value, delta)
        self.mutations += 1
        value += delta
        val[slot] = value
        self._ver[slot] += 1
        self._at[slot] = now
        return value

    def set_value(self, item: str, value: float, now: float = 0.0) -> None:
        """Overwrite a record's value (replication/bootstrap path)."""
        slot = self._index.get(item)
        if slot is None:
            raise UnknownItem(item)
        if not self.allow_negative and value < 0:
            raise NegativeValue(item, self._val[slot], value - self._val[slot])
        self.mutations += 1
        self._val[slot] = value
        self._ver[slot] += 1
        self._at[slot] = now

    # -- bulk views --------------------------------------------------- #

    def as_dict(self) -> Dict[str, float]:
        """Plain ``{item: value}`` snapshot of current values."""
        val = self._val
        return {item: val[slot] for item, slot in self._index.items()}

    def total(self) -> float:
        """Sum of all values (conservation checks)."""
        val = self._val
        return sum(val[slot] for slot in self._index.values())

    def values_for(self, items: Iterable[str]) -> list[float]:
        """Batched read: current values for ``items``, in given order."""
        index = self._index
        val = self._val
        try:
            return [val[index[item]] for item in items]
        except KeyError as exc:
            raise UnknownItem(exc.args[0]) from None

    def __repr__(self) -> str:
        return (
            f"<ColumnarStore {self.name!r} items={len(self._index)}"
            f" mutations={self.mutations}>"
        )


# --------------------------------------------------------------------- #
# factories
# --------------------------------------------------------------------- #


def make_store(name: str = "store", kernel: Optional[str] = None,
               allow_negative: bool = False):
    """Construct the resolved kernel's store class."""
    if resolve_kernel(kernel) == "columnar":
        return ColumnarStore(name, allow_negative=allow_negative)
    from repro.db.storage import Store

    return Store(name, allow_negative=allow_negative)


def make_av_table(site: str = "site", kernel: Optional[str] = None,
                  inject: str = ""):
    """Construct the resolved kernel's AV table.

    ``inject`` is the planted-bug selector; the object kernel has no
    column layout to corrupt, so it ignores column-kernel injections.
    """
    if resolve_kernel(kernel) == "columnar":
        return ColumnarAVTable(site, inject=inject)
    from repro.core.av_table import AVTable

    return AVTable(site)


def make_belief_table(site: str = "site", kernel: Optional[str] = None):
    """Construct the resolved kernel's belief table."""
    if resolve_kernel(kernel) == "columnar":
        return ColumnarBeliefTable(site)
    from repro.core.beliefs import BeliefTable

    return BeliefTable(site)
