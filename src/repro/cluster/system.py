"""System assembly: the paper's Fig. 2 model as one object.

:class:`DistributedSystem` wires the environment, network, sites
(maker + retailers), accelerators, catalogue, bootstrap and metrics into
a ready-to-run simulation, and exposes the invariant checks the property
tests rely on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cluster.bootstrap import bootstrap
from repro.cluster.catalog import ProductCatalog, make_catalog
from repro.cluster.config import SystemConfig
from repro.cluster.site import Site, SiteRole
from repro.core.accelerator import Accelerator
from repro.core.policies import DecidingPolicy
from repro.core.strategies import SelectionStrategy
from repro.db.snapshot import stores_equal
from repro.metrics.collector import MetricsCollector
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.obs.hub import NULL_OBS, Observability
from repro.sim.engine import Environment
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.tracing import NullTracer, Tracer

StrategyFactory = Callable[[str, RngRegistry], SelectionStrategy]
PolicyFactory = Callable[[str, RngRegistry], DecidingPolicy]


class InvariantViolation(AssertionError):
    """An AV-conservation or consistency invariant failed."""


class DistributedSystem:
    """A fully wired simulated deployment."""

    def __init__(
        self,
        config: SystemConfig,
        env: Environment,
        network: Network,
        rngs: RngRegistry,
        tracer: Tracer,
        catalog: ProductCatalog,
        sites: Dict[str, Site],
        collector: MetricsCollector,
        obs: Optional[Observability] = None,
    ) -> None:
        self.config = config
        self.env = env
        self.network = network
        self.rngs = rngs
        self.tracer = tracer
        self.catalog = catalog
        self.sites = sites
        self.collector = collector
        #: the run's observability hub (NULL_OBS when config.observe off)
        self.obs = obs if obs is not None else NULL_OBS
        #: the runtime sanitizer (set by build() when config.sanitize)
        self.sanitizer = None

    # ---------------------------------------------------------------- #
    # construction
    # ---------------------------------------------------------------- #

    @classmethod
    def build(
        cls,
        config: Optional[SystemConfig] = None,
        catalog: Optional[ProductCatalog] = None,
        strategy_factory: Optional[StrategyFactory] = None,
        policy_factory: Optional[PolicyFactory] = None,
    ) -> "DistributedSystem":
        """Assemble a system from configuration.

        ``strategy_factory`` / ``policy_factory`` produce per-site
        instances (strategies may be stateful); omitted, every site uses
        the paper's believed-richest / SODA'99 pair.
        """
        config = config if config is not None else SystemConfig()
        env = Environment()
        rngs = RngRegistry(config.seed)
        tracer = Tracer() if config.trace else NullTracer()
        from repro.net.sizes import SizeModel

        network = Network(
            env,
            latency=ConstantLatency(config.latency_mean),
            rng=rngs.stream("net.latency"),
            tracer=tracer,
            size_model=SizeModel() if config.count_bytes else None,
        )
        if catalog is None:
            catalog = make_catalog(
                config.n_items,
                initial_stock=config.initial_stock,
                regular_fraction=config.regular_fraction,
            )
        # NULL_OBS is a shared singleton, so the collector must only be
        # handed the registry of a run-private (enabled) hub — otherwise
        # every unobserved run would accumulate into one global registry.
        # The sanitizer subscribes to the hub's event bus, so it too
        # needs a run-private hub (possibly with recording disabled).
        if config.observe:
            obs = Observability(enabled=True)
        elif config.sanitize:
            obs = Observability(enabled=False)
        else:
            obs = NULL_OBS
        collector = MetricsCollector(
            registry=obs.registry if config.observe else None
        )

        topology = config.topology
        if topology is not None:
            catalog_items = [p.item for p in catalog]
            if list(topology.items) != catalog_items:
                raise ValueError(
                    "topology item universe does not match the catalogue"
                    f" ({len(topology.items)} vs {len(catalog_items)} items)"
                )

        from repro.core.columns import make_store, resolve_kernel

        kernel = resolve_kernel(config.kernel)
        sites: Dict[str, Site] = {}
        for name in config.site_names:
            endpoint = network.endpoint(name)
            store = make_store(name, kernel=kernel)
            accel = Accelerator(
                endpoint,
                store,
                base_site=config.maker,
                strategy=(
                    strategy_factory(name, rngs) if strategy_factory else None
                ),
                policy=(policy_factory(name, rngs) if policy_factory else None),
                rng=rngs.stream(f"{name}.protocol"),
                tracer=tracer,
                obs=obs,
                propagate=config.propagate,
                request_timeout=config.request_timeout,
                max_rounds=config.max_rounds,
                max_immediate_retries=config.max_immediate_retries,
                allow_transfers=config.allow_transfers,
                reliability=config.reliability,
                inject=config.inject,
                overload=config.overload,
                interest=topology.view(name) if topology is not None else None,
                kernel=kernel,
            )
            if topology is not None:
                role = SiteRole(topology.role_of(name))
            else:
                role = (
                    SiteRole.MAKER if name == config.maker
                    else SiteRole.RETAILER
                )
            sites[name] = Site(endpoint, store, accel, role, collector)
            if config.reliability is not None:
                from repro.cluster.rejoin import install_rejoin_handlers

                install_rejoin_handlers(sites[name])

        bootstrap(
            sites,
            catalog,
            collector.ledger,
            av_fraction=config.av_fraction,
            av_weights=config.av_weights,
            base=config.maker,
            topology=topology,
        )
        system = cls(
            config, env, network, rngs, tracer, catalog, sites, collector,
            obs=obs,
        )
        if config.sanitize:
            # Attach after bootstrap so the sanitizer baselines from the
            # settled AV allocation.
            from repro.analysis.sanitizer import ProtocolSanitizer

            system.sanitizer = ProtocolSanitizer().attach(system)
        return system

    # ---------------------------------------------------------------- #
    # access
    # ---------------------------------------------------------------- #

    @property
    def maker(self) -> Site:
        return self.sites[self.config.maker]

    @property
    def retailers(self) -> List[Site]:
        return [self.sites[n] for n in self.config.retailers]

    def site(self, name: str) -> Site:
        return self.sites[name]

    @property
    def stats(self):
        """The network's message/correspondence counters."""
        return self.network.stats

    # ---------------------------------------------------------------- #
    # driving
    # ---------------------------------------------------------------- #

    def update(self, site: str, item: str, delta: float) -> Process:
        """Issue one update at ``site``."""
        return self.sites[site].update(item, delta)

    def run(self, until=None):
        """Run the simulation (see :meth:`Environment.run`)."""
        return self.env.run(until=until)

    # ---------------------------------------------------------------- #
    # invariants (property-tested; see DESIGN.md §7)
    # ---------------------------------------------------------------- #

    def av_total(self, item: str) -> float:
        """AV for ``item`` summed over its interest set (transfers
        conserve it; sites outside the set never define the item)."""
        return sum(
            s.av_table.get(item)
            for s in self.interested_sites(item)
            if s.av_table.defined(item)
        )

    def interested_sites(self, item: str) -> List[Site]:
        """The sites replicating ``item`` — everyone without a topology,
        the item's interest set with one."""
        topology = self.config.topology
        if topology is None:
            return list(self.sites.values())
        return [self.sites[n] for n in topology.sites_for(item)]

    def check_invariants(self, quiescent: bool = False) -> None:
        """Raise :class:`InvariantViolation` on any broken invariant.

        ``quiescent=True`` additionally requires replica convergence —
        only valid when propagation is enabled and the event queue has
        drained.
        """
        ledger = self.collector.ledger
        eps = 1e-6
        for item in ledger.items():
            true_value = ledger.true_value(item)
            if true_value < -eps:
                raise InvariantViolation(
                    f"ground-truth value of {item!r} is negative: {true_value}"
                )
            # Class is defined by AV-entry existence (the checking
            # function's source of truth) — the static catalogue can be
            # superseded by dynamic reclassification. The item's interest
            # set must agree on the class (sites outside it never hold
            # the item at all).
            replicas = self.interested_sites(item)
            definedness = {s.av_table.defined(item) for s in replicas}
            if len(definedness) != 1:
                raise InvariantViolation(
                    f"sites disagree on whether {item!r} is regular"
                )
            regular = definedness.pop()
            if regular:
                total_av = self.av_total(item)
                for site in replicas:
                    av = site.av_table.get(item)
                    if av < -eps:
                        raise InvariantViolation(
                            f"{site.name} holds negative AV for {item!r}: {av}"
                        )
                if total_av > true_value + eps:
                    raise InvariantViolation(
                        f"AV total {total_av} exceeds true value"
                        f" {true_value} for {item!r}"
                    )
            else:
                # Non-regular items are kept globally consistent by the
                # Immediate Update protocol: all replicas identical.
                values = {s.store.value(item) for s in replicas}
                if len(values) != 1:
                    raise InvariantViolation(
                        f"non-regular item {item!r} diverged: {values}"
                    )

        if quiescent:
            if self.config.topology is None:
                stores = [s.store for s in self.sites.values()]
                for other in stores[1:]:
                    if not stores_equal(stores[0], other):
                        raise InvariantViolation(
                            f"replicas {stores[0].name} and {other.name}"
                            " diverged at quiescence"
                        )
                for item in ledger.items():
                    replica = stores[0].value(item)
                    if abs(replica - ledger.true_value(item)) > eps:
                        raise InvariantViolation(
                            f"converged replica value {replica} != ledger"
                            f" {ledger.true_value(item)} for {item!r}"
                        )
            else:
                # Partial replication: convergence is promised per item
                # across its interest set, against the ledger.
                for item in ledger.items():
                    truth = ledger.true_value(item)
                    for site in self.interested_sites(item):
                        replica = site.store.value(item)
                        if abs(replica - truth) > eps:
                            raise InvariantViolation(
                                f"replica {site.name} value {replica} !="
                                f" ledger {truth} for {item!r} at quiescence"
                            )

    def __repr__(self) -> str:
        return (
            f"<DistributedSystem sites={len(self.sites)}"
            f" items={len(self.catalog)} t={self.env.now:g}>"
        )
