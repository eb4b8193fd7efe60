"""The conventional centralized baseline (the paper's Fig. 6 "conventional").

Sites hold no update authority: every update — wherever it originates —
is a request/reply round trip to a central database server, i.e. exactly
**one correspondence per update**, growing linearly. This is the
"centralized approach" the paper's §1 criticises for fault-tolerance,
real-time and flexibility, and the line its Fig. 6 compares against.

:class:`CentralizedSystem` exposes the same driving surface as
:class:`~repro.cluster.system.DistributedSystem` (``env``, ``update``,
``run``, ``stats``, ``collector``, ``rngs``, ``sites``) so workload
drivers and the experiment harness treat both uniformly.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.catalog import ProductCatalog, make_catalog
from repro.cluster.config import SystemConfig
from repro.core.types import (
    TAG_CENTRAL,
    UpdateKind,
    UpdateOutcome,
    UpdateRequest,
    UpdateResult,
)
from repro.core.columns import make_store, resolve_kernel
from repro.db.transaction import TransactionManager
from repro.metrics.collector import MetricsCollector
from repro.net.endpoint import CrashedEndpointError, Endpoint, RequestTimeout
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.engine import Environment
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.tracing import NullTracer, Tracer

#: endpoint name of the central database server
CENTER = "center"


class CentralClient:
    """A site in the centralized deployment: no local authority."""

    def __init__(self, system: "CentralizedSystem", endpoint: Endpoint) -> None:
        self.system = system
        self.endpoint = endpoint
        self.env = endpoint.env
        # Read-only replica, refreshed only when the server replicates.
        self.store = make_store(endpoint.name, kernel=system.kernel)
        endpoint.on("central.replicate", self._handle_replicate)
        from itertools import count as _count

        self._req_ids = _count(1)

    @property
    def name(self) -> str:
        return self.endpoint.name

    @property
    def crashed(self) -> bool:
        return self.endpoint.crashed

    def _handle_replicate(self, msg) -> None:
        self.store.apply_delta(
            msg.payload["item"], msg.payload["delta"], now=self.env.now, force=True
        )

    def update(self, item: str, delta: float) -> Process:
        req = UpdateRequest(
            site=self.name,
            item=item,
            delta=delta,
            issued_at=self.env.now,
            request_id=next(self._req_ids),
        )
        # Id-based name: str(req) costs a float render per update and
        # the name is only read by reprs and error messages.
        return self.env.process(
            self._run(req), name=f"{self.name}.upd#{req.request_id}"
        )

    def _run(self, req: UpdateRequest):
        try:
            reply = yield self.endpoint.request(
                CENTER,
                "central.update",
                {"item": req.item, "delta": req.delta},
                tag=TAG_CENTRAL,
                timeout=self.system.request_timeout,
            )
        except (RequestTimeout, CrashedEndpointError):
            outcome = UpdateOutcome.FAILED
        else:
            outcome = (
                UpdateOutcome.COMMITTED
                if reply["committed"]
                else UpdateOutcome.REJECTED
            )
        result = UpdateResult(
            request=req,
            kind=UpdateKind.IMMEDIATE,  # every update is globally synchronous
            outcome=outcome,
            local_only=False,
            finished_at=self.env.now,
        )
        self.system.collector.record(result)
        return result


class CentralServer:
    """The central database server endpoint."""

    def __init__(self, system: "CentralizedSystem", endpoint: Endpoint) -> None:
        self.system = system
        self.endpoint = endpoint
        self.store = make_store(CENTER, kernel=system.kernel)
        self.txns = TransactionManager(
            self.store, clock=lambda: endpoint.env.now
        )
        endpoint.on("central.update", self._handle_update)

    def _handle_update(self, msg) -> dict:
        item, delta = msg.payload["item"], msg.payload["delta"]
        if self.store.value(item) + delta < 0:
            return {"committed": False}
        self.txns.apply_atomic(item, delta)
        if self.system.replicate:
            for client in self.system.clients.values():
                self.endpoint.send(
                    client.name,
                    "central.replicate",
                    {"item": item, "delta": delta},
                    tag=TAG_CENTRAL,
                )
        return {"committed": True}


class CentralizedSystem:
    """Fully assembled centralized deployment.

    Parameters
    ----------
    config:
        Reuses :class:`SystemConfig` for topology/catalogue/latency/seed.
    replicate:
        When ``True`` the server pushes every committed delta to all
        clients (keeps their read replicas fresh at extra message cost).
        The paper's conventional line corresponds to ``False`` (clients
        read through the server).
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        catalog: Optional[ProductCatalog] = None,
        replicate: bool = False,
        request_timeout: Optional[float] = None,
    ) -> None:
        self.config = config if config is not None else SystemConfig()
        #: resolved hot-state kernel (matches the proposal system's)
        self.kernel = resolve_kernel(self.config.kernel)
        self.replicate = replicate
        self.request_timeout = request_timeout
        self.env = Environment()
        self.rngs = RngRegistry(self.config.seed)
        self.tracer: Tracer = Tracer() if self.config.trace else NullTracer()
        from repro.net.sizes import SizeModel

        self.network = Network(
            self.env,
            latency=ConstantLatency(self.config.latency_mean),
            rng=self.rngs.stream("net.latency"),
            tracer=self.tracer,
            size_model=SizeModel() if self.config.count_bytes else None,
        )
        self.catalog = (
            catalog
            if catalog is not None
            else make_catalog(
                self.config.n_items,
                initial_stock=self.config.initial_stock,
                regular_fraction=self.config.regular_fraction,
            )
        )
        self.collector = MetricsCollector()

        self.server = CentralServer(self, self.network.endpoint(CENTER))
        self.clients: Dict[str, CentralClient] = {
            name: CentralClient(self, self.network.endpoint(name))
            for name in self.config.site_names
        }
        #: drivers expect a ``sites`` mapping with ``.crashed``
        self.sites = self.clients

        stock = [(p.item, p.initial_stock) for p in self.catalog]
        for item, initial in stock:
            self.collector.ledger.set_initial(item, initial)
        self.server.store.insert_many(stock)
        for client in self.clients.values():
            client.store.insert_many(stock)

    @property
    def stats(self):
        return self.network.stats

    def update(self, site: str, item: str, delta: float) -> Process:
        return self.clients[site].update(item, delta)

    def run(self, until=None):
        return self.env.run(until=until)

    def __repr__(self) -> str:
        return (
            f"<CentralizedSystem clients={len(self.clients)}"
            f" replicate={self.replicate}>"
        )
