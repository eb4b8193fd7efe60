"""Beliefs about peers' allowable volumes.

The paper's selecting function orders candidate sites "according to the
amount of AV the site keeps, which information is collected at the
necessary communication for AV management and **may not be current
data**". :class:`BeliefTable` is that possibly-stale knowledge: every AV
request/grant piggybacks the sender's current AV level, and the receiver
records it with a timestamp. No extra messages are ever sent to refresh
beliefs — staleness is a feature of the design, and the staleness
ablation quantifies its cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple


@dataclass(frozen=True, slots=True)
class Belief:
    """One remembered observation of a peer's AV for an item."""

    volume: float
    observed_at: float


class BeliefTable:
    """What one site believes about the AV levels of its peers."""

    def __init__(self, site: str = "site") -> None:
        self.site = site
        #: (peer, item) -> Belief
        self._beliefs: Dict[Tuple[str, str], Belief] = {}
        #: observations recorded (diagnostic)
        self.observations = 0

    def observe(self, peer: str, item: str, volume: float, now: float) -> None:
        """Record that ``peer`` held ``volume`` AV for ``item`` at ``now``.

        Older observations never overwrite newer ones (out-of-order
        message delivery must not regress knowledge).
        """
        key = (peer, item)
        existing = self._beliefs.get(key)
        if existing is not None and existing.observed_at > now:
            return
        self._beliefs[key] = Belief(volume, now)
        self.observations += 1

    def observe_many(
        self, observations: Iterable[Tuple[str, str, float]], now: float
    ) -> None:
        """Bulk :meth:`observe` of ``(peer, item, volume)`` triples."""
        for peer, item, volume in observations:
            self.observe(peer, item, volume, now)

    def believed_volume(self, peer: str, item: str) -> Optional[float]:
        """Last known AV of ``peer`` for ``item``; ``None`` if never seen."""
        belief = self._beliefs.get((peer, item))
        return belief.volume if belief is not None else None

    def belief(self, peer: str, item: str) -> Optional[Belief]:
        return self._beliefs.get((peer, item))

    def ranked_peers(self, item: str, candidates: list[str]) -> list[str]:
        """``candidates`` ordered richest-believed-first.

        Unknown peers rank *above* peers believed empty (an unknown peer
        might have plenty; a known-empty one almost surely does not) but
        below peers with known positive volume. Ties break by name so the
        ordering — and hence the whole simulation — is deterministic.
        """

        def sort_key(peer: str) -> tuple[float, str]:
            believed = self.believed_volume(peer, item)
            if believed is None:
                believed = 0.5  # between "known empty" and "known ≥ 1"
            return (-believed, peer)

        return sorted(candidates, key=sort_key)

    def entries(self):
        """Iterate ``(peer, item, Belief)`` over every held belief.

        Used by the observability sampler to compare believed against
        actual AV levels (belief staleness).
        """
        for (peer, item), belief in self._beliefs.items():
            yield peer, item, belief

    def forget_peer(self, peer: str) -> None:
        """Drop all beliefs about a peer (e.g. observed to have crashed)."""
        for key in [k for k in self._beliefs if k[0] == peer]:
            del self._beliefs[key]

    def __len__(self) -> int:
        return len(self._beliefs)

    def __repr__(self) -> str:
        return f"<BeliefTable {self.site!r} entries={len(self._beliefs)}>"
