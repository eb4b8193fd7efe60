"""In-memory record store — one per site.

A thin, well-checked dictionary of :class:`~repro.db.record.Record`. All
protocol layers mutate values exclusively through :meth:`apply_delta` /
:meth:`set_value` so versioning and non-negativity stay enforced in one
place.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence, Tuple

from repro.db.errors import DuplicateItem, NegativeValue, UnknownItem
from repro.db.record import Record


def validate_batch(
    name: str,
    existing,
    pairs: Iterable[Tuple[str, float]],
    allow_negative: bool,
) -> Tuple[Sequence[str], Sequence[float]]:
    """Check a bulk-insert batch before anything is written.

    Returns the batch split into ``(items, values)``. Raises the error a
    loop of :meth:`Store.insert` would raise first — :class:`DuplicateItem`
    for an id already in ``existing`` or repeated within the batch,
    :class:`NegativeValue` for a negative value the store refuses — so
    both kernels reject the same batch the same way, with nothing
    written.
    """
    pairs = list(pairs)
    if not pairs:
        return (), ()
    items, values = zip(*pairs)
    # Fast path for a clean batch. ``min`` is NaN or the least non-NaN
    # value, and NaN never fails the loop's ``value < 0`` either.
    if (
        len(set(items)) == len(items)
        and existing.keys().isdisjoint(items)
        and (allow_negative or min(values) >= 0)
    ):
        return items, values
    seen = set()
    for item, value in pairs:
        if item in existing or item in seen:
            raise DuplicateItem(f"item {item!r} already in store {name!r}")
        if not allow_negative and value < 0:
            raise NegativeValue(item, 0, value)
        seen.add(item)
    return items, values


class Store:
    """Per-site table of numeric records.

    Parameters
    ----------
    name:
        Identifier used in error messages and traces (usually the site name).
    allow_negative:
        When ``False`` (default) a delta that would take a value below zero
        raises :class:`NegativeValue`. Delay updates are AV-gated and should
        never trip this; tripping it indicates a protocol bug.
    """

    def __init__(self, name: str = "store", allow_negative: bool = False) -> None:
        self.name = name
        self.allow_negative = allow_negative
        self._records: Dict[str, Record] = {}
        #: mutation counter across all records (diagnostic)
        self.mutations = 0

    # ---------------------------------------------------------------- #
    # schema
    # ---------------------------------------------------------------- #

    def insert(self, item: str, value: float, now: float = 0.0) -> Record:
        """Create a new record; the id must be fresh."""
        if item in self._records:
            raise DuplicateItem(f"item {item!r} already in store {self.name!r}")
        if not self.allow_negative and value < 0:
            raise NegativeValue(item, 0, value)
        rec = Record(item, value, version=0, updated_at=now)
        self._records[item] = rec
        return rec

    def insert_many(
        self, pairs: Iterable[Tuple[str, float]], now: float = 0.0
    ) -> None:
        """Bulk :meth:`insert`: same records as a loop of ``insert``.

        The whole batch is validated first, so a rejected batch leaves
        the store unchanged.
        """
        items, values = validate_batch(
            self.name, self._records, pairs, self.allow_negative
        )
        records = self._records
        for item, value in zip(items, values):
            records[item] = Record(item, value, 0, now)

    def drop(self, item: str) -> None:
        if item not in self._records:
            raise UnknownItem(item)
        del self._records[item]

    # ---------------------------------------------------------------- #
    # access
    # ---------------------------------------------------------------- #

    def record(self, item: str) -> Record:
        try:
            return self._records[item]
        except KeyError:
            raise UnknownItem(item) from None

    def value(self, item: str) -> float:
        return self.record(item).value

    def __contains__(self, item: str) -> bool:
        return item in self._records

    def __len__(self) -> int:
        return len(self._records)

    def items(self) -> Iterator[Tuple[str, float]]:
        """Iterate ``(item, value)`` pairs in insertion order."""
        return ((k, r.value) for k, r in self._records.items())

    def item_ids(self) -> Iterable[str]:
        return self._records.keys()

    # ---------------------------------------------------------------- #
    # mutation
    # ---------------------------------------------------------------- #

    def apply_delta(
        self, item: str, delta: float, now: float = 0.0, force: bool = False
    ) -> float:
        """Add ``delta`` to a record; returns the new value.

        ``force=True`` bypasses the non-negativity check. Replication of
        Delay Updates needs this: a replica may transiently dip below zero
        when decrements arrive before the mints that funded them — the AV
        mechanism guarantees the *global* value stays nonnegative, not
        each replica's partial view.
        """
        rec = self.record(item)
        if not force and not self.allow_negative and rec.value + delta < 0:
            raise NegativeValue(item, rec.value, delta)
        self.mutations += 1
        return rec.apply(delta, now)

    def set_value(self, item: str, value: float, now: float = 0.0) -> None:
        """Overwrite a record's value (replication/bootstrap path)."""
        rec = self.record(item)
        if not self.allow_negative and value < 0:
            raise NegativeValue(item, rec.value, value - rec.value)
        self.mutations += 1
        rec.set(value, now)

    # ---------------------------------------------------------------- #
    # bulk views
    # ---------------------------------------------------------------- #

    def as_dict(self) -> Dict[str, float]:
        """Plain ``{item: value}`` snapshot of current values."""
        return {k: r.value for k, r in self._records.items()}

    def total(self) -> float:
        """Sum of all values (conservation checks)."""
        return sum(r.value for r in self._records.values())

    def __repr__(self) -> str:
        return f"<Store {self.name!r} items={len(self._records)} mutations={self.mutations}>"
