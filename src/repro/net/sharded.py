"""Sharded multi-edge DTU: one coordinator per site, gossip in between.

:func:`run_sharded_dtu` is the network-runtime analogue of
:func:`repro.core.multiedge.run_multiedge_dtu`: ``m``
:class:`SiteCoordinator` actors (one per :class:`~repro.core.multiedge.EdgeSite`)
share a single :class:`~repro.net.clock.Runtime` and transport with the
device fleet, and the vector fixed point emerges from message passing
alone:

* **per-site DTU** — each site runs the single-site protocol unchanged:
  broadcast γ̂_j, collect :class:`~repro.net.messages.ThresholdReport`\\ s,
  apply the Eq. 4 sign step, degrade gracefully on silence;
* **γ̂ gossip** — every round a site sends its γ̂_j to every peer
  (:class:`~repro.net.messages.GammaGossip`) and folds the peers' latest
  values into the :class:`~repro.net.messages.ShardBroadcast` its own
  devices receive, so a device prices *every* site from measured
  utilisations: ``argmin_k (g_k(γ̂_k) + τ̂_ik)``. The per-device latency
  ``τ̂_ik`` is the device's own link knowledge — the simulation reads it
  from the geography matrix the analytic system drew;
* **delay probes** — coordinators probe each other
  (:class:`~repro.net.messages.DelayProbe`/``Reply``, the EINES
  controller's link-latency loop) and keep an EWMA inter-site delay
  matrix; with ``gossip_staleness`` set, a peer whose gossip has gone
  stale — partitioned, crashed, or hopelessly behind — is relayed as
  γ̂ = 1.0, so devices *stop migrating into sites nobody can vouch for*;
* **migration** — a device whose argmin moves announces
  ``JoinLeave(False)`` to its old home and ``JoinLeave(True)`` to the new
  one, then reports there; each coordinator's report table spans the
  whole fleet's ids, so a migrant's join lands in the inherited table
  (and the site's broadcast list), and sites scale their utilisation
  measurements by their live member share.

Determinism contract (mirrors ``run_net_dtu``, pinned by
``tests/test_sharded_net.py``): the same
:class:`ShardedNetConfig` — seed included — yields bit-identical
per-site message logs and γ̂ trajectories on every rerun, under loss,
duplication, jitter, partitions, and churn. With one site the protocol
degenerates to the single-site one: a fault-free synchronous run
reproduces ``run_net_dtu``'s γ̂ trajectory bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.edge_delay import EdgeDelayModel
from repro.core.multiedge import MultiEdgeSystem
from repro.net.actors import (
    DeviceAgent,
    EdgeCoordinator,
    FleetResponses,
    NetTrace,
)
from repro.net.clock import Runtime
from repro.net.messages import (
    DelayProbe,
    DelayProbeReply,
    GammaGossip,
    JoinLeave,
    MessageLog,
    ShardBroadcast,
)
from repro.net.protocol import NetConfig, build_environment, run_fleet
from repro.net.transport import FaultyTransport, Transport
from repro.obs.context import resolve_recorder
from repro.obs.recorder import Recorder

#: EWMA weight of a fresh inter-site delay sample against the running
#: estimate.
DELAY_SMOOTHING = 0.3


def site_address(site: int) -> str:
    """The transport address of site ``j``'s coordinator."""
    return f"site/{site}"


@dataclass(frozen=True)
class ShardedNetConfig(NetConfig):
    """A :class:`~repro.net.protocol.NetConfig` plus the backbone knobs."""

    #: Age (virtual time) beyond which a peer's gossiped γ̂ is distrusted
    #: and relayed as the pessimistic 1.0. ``None`` disables the rule —
    #: last-known values are trusted forever.
    gossip_staleness: Optional[float] = None
    #: Send delay probes to every peer each ``probe_interval`` rounds;
    #: 0 disables probing.
    probe_interval: int = 1
    #: Allow devices to switch sites when their argmin moves. Off, the
    #: initial assignment is frozen (an ablation: gossip without balancing).
    migrate: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gossip_staleness is not None and self.gossip_staleness <= 0:
            raise ValueError("gossip_staleness must be positive or None")
        if self.probe_interval < 0:
            raise ValueError("probe_interval must be >= 0")


class ShardedDeviceAgent(DeviceAgent):
    """A device that prices all sites and migrates to the argmin.

    The device holds its latency row ``τ̂_i·``, every site's congestion
    curve, and the fleet's answers on each site kernel (none when
    modulated); each :class:`ShardBroadcast` from its *current home*
    triggers a site choice, a possible migration, and
    :class:`DeviceAgent`'s Lemma-1 response to the home site's γ̂,
    reported to the home site with its round. Migrating re-points the
    home profile — address, latency, congestion curve and kernel — at
    the new site.
    """

    def __init__(
        self,
        site_latencies: np.ndarray,
        site_delay_models: Sequence[EdgeDelayModel],
        home: int,
        site_responses: Optional[Sequence[FleetResponses]] = None,
        migrate: bool = True,
        **device,
    ):
        # ``device``: DeviceAgent's arguments but the home profile, which
        # the site columns supply.
        super().__init__(
            offload_latency=float(site_latencies[home]),
            delay_model=site_delay_models[home],
            responses=site_responses[home] if site_responses else None,
            **device,
        )
        self.site_latencies = np.asarray(site_latencies, dtype=float)
        self.site_delay_models = list(site_delay_models)
        self.site_responses = site_responses
        self.home = home
        self.edge_address = site_address(home)
        self.migrate = migrate
        self.migrations = 0
        #: Latest broadcast round answered, per site — rounds are per-site
        #: counters, so a single scalar would deadlock a device migrating
        #: from a long-lived site to a young one.
        self.last_rounds = {}

    def _fresh(self, message) -> bool:
        # Only the current home's broadcasts are answered: a stale
        # broadcast from a site just migrated away from must not produce
        # a report that double-counts the device.
        if not isinstance(message, ShardBroadcast) \
                or message.site != self.home \
                or message.round <= self.last_rounds.get(message.site, -1):
            return False
        self.last_rounds[message.site] = message.round
        return True

    def _answer(self, broadcast: ShardBroadcast,
                parent: Optional[int]) -> None:
        """Site choice → (maybe) migration → Lemma-1 response at home."""
        estimates = broadcast.estimates
        if self.migrate:
            prices = np.array([
                model(estimates[k]) + self.site_latencies[k]
                for k, model in enumerate(self.site_delay_models)
            ])
            target = int(np.argmin(prices))
            if target != self.home:
                self._migrate(target, parent)
        # Priced at, and reported to, the home site with its round: the
        # home coordinator's newest-round and staleness rules compare the
        # report's round against its own counter.
        home = self.home
        self._respond(estimates[home], broadcast.rounds[home], parent=parent)

    def _migrate(self, target: int, parent: Optional[int]) -> None:
        """Leave the home site, join ``target``, and answer from there."""
        self.transport.send(self.address, self.edge_address,
                            JoinLeave(self.address, False), parent=parent)
        self.home = target
        # Heartbeats and churn announcements follow ``edge_address``; the
        # response follows the profile and the kernel.
        self.edge_address = site_address(target)
        self.offload_latency = float(self.site_latencies[target])
        self.delay_model = self.site_delay_models[target]
        if self.site_responses is not None:
            self.responses = self.site_responses[target]
        self.migrations += 1
        self.transport.send(self.address, self.edge_address,
                            JoinLeave(self.address, True), parent=parent)
        if self._obs.enabled:
            self._obs.count("sharded.migrations")


class _ShardController:
    """Shared run bookkeeping: global convergence test and shutdown.

    ``EdgeCoordinator._finish`` stops the runtime when *its* rounds end; with
    ``m`` coordinators the runtime must outlive all of them, and a site
    may only declare the protocol converged when every stepper is inside
    tolerance (the vector test ``run_multiedge_dtu`` applies globally).
    """

    def __init__(self, runtime: Runtime):
        self.runtime = runtime
        self.coordinators: List["SiteCoordinator"] = []
        self._finished = 0

    def all_converged(self) -> bool:
        return all(c.stepper.converged for c in self.coordinators)

    def finished(self, coordinator: "SiteCoordinator") -> None:
        self._finished += 1
        if self._finished == len(self.coordinators):
            self.runtime.stop()


class SiteCoordinator(EdgeCoordinator):
    """One site's coordinator: the single-site round loop plus a backbone.

    The broadcast/measure/sign-step loop is inherited unchanged; this
    subclass fills its three hooks (γ̂ gossip and delay probes to the peer
    sites before each broadcast, a stop test that is global across sites,
    and controller bookkeeping at the end), sizes the inherited report
    table to the whole fleet (``n_total`` ids) so that migrating devices
    can join and leave, and adds a member-share scaling of the
    measured utilisation: site ``j`` serves ``members_j`` of the fleet's
    ``N`` devices against capacity ``N·c_j``, so
    ``γ_j = mean(rates)·(members_j/N)/c_j``. With one site and full
    membership the factor is exactly 1.0 and the measurement is bit-equal
    to the single-site coordinator's.
    """

    def __init__(
        self,
        runtime: Runtime,
        transport: Transport,
        site: int,
        n_sites: int,
        n_total: int,
        devices: Sequence[int],
        capacity: float,
        config: ShardedNetConfig,
        controller: _ShardController,
        recorder: Optional[Recorder] = None,
    ):
        super().__init__(
            runtime=runtime,
            transport=transport,
            devices=devices,
            capacity=capacity,
            config=config,
            recorder=recorder,
            address=site_address(site),
            fleet_size=n_total,
        )
        self.site = site
        self._event_tags = {"site": site}
        self.n_sites = n_sites
        self.n_total = n_total
        self.controller = controller
        controller.coordinators.append(self)
        self.peers = [k for k in range(n_sites) if k != site]
        self.peer_estimates = np.full(n_sites, config.initial_estimate)
        self.peer_rounds = np.zeros(n_sites, dtype=np.int64)
        #: Virtual time each peer's gossip was last heard (−inf: never).
        self.gossip_heard = np.full(n_sites, -np.inf)
        #: EWMA one-way delay to each peer from probe RTT/2 (NaN: never
        #: measured; 0.0 on the diagonal).
        self.delay_estimates = np.full(n_sites, np.nan)
        self.delay_estimates[site] = 0.0
        self.final_members = len(self.known)

    # -- round-loop hooks -------------------------------------------------

    def _before_broadcast(self) -> None:
        # Before the broadcast ``self.round`` counts the rounds already run.
        interval = self.config.probe_interval
        if interval and self.round % interval == 0:
            self._probe_peers()
        self._gossip()

    def _stop_test(self) -> bool:
        # The convergence test is global: this site may be inside
        # tolerance while a peer — and therefore this site's own moving
        # target — is not.
        return self.controller.all_converged()

    def _finish(self) -> None:
        self.converged = self.stepper.converged
        # Snapshot membership now: peers may keep the runtime alive long
        # past this site's exit, by which time liveness windows have
        # drained and members() would read as empty.
        self.final_members = self._census(self.runtime.now)[1]
        self.controller.finished(self)

    # -- backbone ---------------------------------------------------------

    def _gossip(self) -> None:
        message = GammaGossip(self.site, self.round + 1,
                              self.stepper.estimate, self.stepper.step)
        for peer in self.peers:       # ascending → deterministic fault draws
            self.transport.send(self.address, site_address(peer), message)
        if self.peers and self._obs.enabled:
            self._obs.count("sharded.gossip_sent", float(len(self.peers)))

    def _probe_peers(self) -> None:
        now = self.runtime.now
        for peer in self.peers:
            self.transport.send(self.address, site_address(peer),
                                DelayProbe(self.site, now))
        if self.peers and self._obs.enabled:
            self._obs.count("sharded.probes_sent", float(len(self.peers)))

    def _gossip_view(self, now: float):
        """(γ̂ vector, round vector) as this site currently believes them.

        The own entry is live; peers are last-gossiped, demoted to the
        pessimistic 1.0 once older than ``gossip_staleness`` — a dead or
        partitioned site must look *expensive*, not idle, or every device
        would migrate into the silence.
        """
        estimates = self.peer_estimates.copy()
        rounds = self.peer_rounds.copy()
        estimates[self.site] = self.stepper.estimate
        rounds[self.site] = self.round
        staleness = self.config.gossip_staleness
        if staleness is not None:
            for peer in self.peers:
                if now - self.gossip_heard[peer] > staleness:
                    estimates[peer] = 1.0
        return estimates, rounds

    def _broadcast_message(self) -> ShardBroadcast:
        estimates, rounds = self._gossip_view(self.runtime.now)
        return ShardBroadcast(
            round=self.round,
            estimate=self.stepper.estimate,
            step=self.stepper.step,
            site=self.site,
            estimates=tuple(float(e) for e in estimates),
            rounds=tuple(int(r) for r in rounds),
        )

    # -- message handling -------------------------------------------------

    def receive(self, message, at: float,
                parent: Optional[int] = None) -> None:
        if isinstance(message, GammaGossip):
            # Deliveries can reorder under jitter; keep the newest round.
            if message.round >= self.peer_rounds[message.site]:
                self.peer_estimates[message.site] = message.estimate
                self.peer_rounds[message.site] = message.round
            self.gossip_heard[message.site] = max(
                float(self.gossip_heard[message.site]), at)
            if self._obs.enabled:
                self._obs.count("sharded.gossip_received")
        elif isinstance(message, DelayProbe):
            self.transport.send(
                self.address, site_address(message.site),
                DelayProbeReply(self.site, message.sent_at))
        elif isinstance(message, DelayProbeReply):
            sample = (at - message.probe_sent_at) / 2.0
            previous = float(self.delay_estimates[message.site])
            self.delay_estimates[message.site] = sample \
                if math.isnan(previous) \
                else ((1.0 - DELAY_SMOOTHING) * previous
                      + DELAY_SMOOTHING * sample)
        else:
            super().receive(message, at, parent)

    # -- measurement ------------------------------------------------------

    def _measure(self, now: float) -> Optional[float]:
        base = super()._measure(now)
        if base is None:
            # Silence means degradation only while there is a fleet to be
            # silent. A site whose membership is empty — never assigned
            # any devices, or drained by migration — genuinely carries
            # zero load; treating that as silence would decay its step
            # forever without ever updating γ̂, and the global convergence
            # test could then never pass.
            return None if self._member.any() else 0.0
        # ``base`` is mean(rates)/c_j over the devices heard; this site
        # carries members_j of the fleet's N against capacity N·c_j. The
        # factor is exactly 1.0 (bit-transparent) for a full single site.
        return base * (self._census(now)[1] / self.n_total)

    def _record(self, measured: float) -> None:
        super()._record(measured)
        if self._obs.enabled:
            self._obs.gauge(f"sharded.site{self.site}.gamma_hat",
                            self.stepper.estimate)
            self._obs.gauge(f"sharded.site{self.site}.measured", measured)
            self._obs.event("sharded.round", site=self.site,
                            round=self.round,
                            gamma_hat=self.stepper.estimate,
                            measured=measured,
                            members=int(np.count_nonzero(self._member)))


@dataclass(frozen=True)
class ShardedDtuResult:
    """Final state of a sharded multi-edge network run."""

    estimated_utilizations: np.ndarray    # final γ̂_j per site
    measured_utilizations: np.ndarray     # last windowed γ_j (NaN if none)
    iterations: np.ndarray                # Eq. 4 updates per site
    rounds: np.ndarray                    # broadcasts per site
    silent_rounds: np.ndarray             # degraded rounds per site
    converged: bool                       # every site inside tolerance
    traces: List[NetTrace]                # one per site
    site_members: np.ndarray              # final live membership per site
    final_homes: np.ndarray               # each device's site when the run ended
    migrations: int                       # device site switches, fleet-wide
    delay_matrix: np.ndarray              # EWMA τ̂_jk between coordinators
    log: MessageLog
    events_fired: int
    virtual_time: float

    @property
    def delivered_fraction(self) -> float:
        return self.log.delivered_fraction

    @property
    def n_sites(self) -> int:
        return int(self.estimated_utilizations.size)


def run_sharded_dtu(
    system: MultiEdgeSystem,
    config: Optional[ShardedNetConfig] = None,
    recorder: Optional[Recorder] = None,
    modulation: Optional[Callable[[float], float]] = None,
) -> ShardedDtuResult:
    """Run the sharded multi-edge protocol over ``system``'s deployment.

    Parameters
    ----------
    system:
        The :class:`~repro.core.multiedge.MultiEdgeSystem` supplying the
        population, sites, and the geography matrix ``τ_{ij}`` (the
        devices' link knowledge). Devices start at their argmin site for
        the initial γ̂ vector, exactly like the analytic
        :func:`~repro.core.multiedge.run_multiedge_dtu`.
    config:
        Timing, fault, churn, and backbone settings; defaults are
        fault-free and synchronous.
    recorder:
        Observability sink (see :mod:`repro.obs`).
    modulation:
        Optional arrival-rate schedule ``m(t)`` (see
        :mod:`repro.workload.schedule`): every device best-responds with
        its instantaneous rate ``a_n·m(t)`` by the scalar staircase — the
        shared site tables are stationary. Unmodulated devices read their
        row of one batched probe of their home site's kernel per
        estimate.
    """
    config = config or ShardedNetConfig()
    obs = resolve_recorder(recorder)
    population = system.population
    n_sites = system.n_sites
    runtime, transport, churn_model = build_environment(
        config, population.size, recorder=recorder)
    horizon = config.resolved_horizon()

    site_responses = None
    if modulation is None:
        site_responses = [FleetResponses(kernel)
                          for kernel in system.kernels]

    initial = np.full(n_sites, config.initial_estimate)
    homes, _ = system.best_response(initial)
    site_delay_models = [site.delay_model for site in system.sites]

    devices = []
    for index in range(population.size):
        report_delay = churn_model.report_delay(index) if churn_model else 0.0
        devices.append(ShardedDeviceAgent(
            index=index,
            arrival_rate=float(population.arrival_rates[index]),
            service_rate=float(population.service_rates[index]),
            energy_local=float(population.energy_local[index]),
            energy_offload=float(population.energy_offload[index]),
            weight=float(population.weights[index]),
            site_latencies=system.latencies[index],
            site_delay_models=site_delay_models,
            home=int(homes[index]),
            runtime=runtime,
            transport=transport,
            heartbeat_interval=config.heartbeat_interval,
            report_delay=report_delay,
            site_responses=site_responses,
            migrate=config.migrate,
            modulation=modulation,
            recorder=recorder,
        ))

    controller = _ShardController(runtime)
    coordinators = [
        SiteCoordinator(
            runtime=runtime,
            transport=transport,
            site=j,
            n_sites=n_sites,
            n_total=population.size,
            devices=np.flatnonzero(homes == j).tolist(),
            capacity=site.capacity_per_user,
            config=config,
            controller=controller,
            recorder=recorder,
        )
        for j, site in enumerate(system.sites)
    ]

    if obs.enabled:
        obs.event(
            "sharded.start", n_devices=population.size, n_sites=n_sites,
            seed=str(config.seed), horizon=horizon,
            faulty=isinstance(transport, FaultyTransport),
            churning=churn_model is not None,
            migrate=config.migrate,
        )

    run_fleet(runtime, coordinators, devices, churn_model, horizon,
              recorder=recorder)

    now = runtime.now
    estimated = np.array([c.stepper.estimate for c in coordinators])
    measured = np.array([
        c.final_measured if c.final_measured is not None else float("nan")
        for c in coordinators
    ])
    delay_matrix = np.vstack([c.delay_estimates for c in coordinators])
    converged = all(c.converged for c in coordinators)
    if obs.enabled:
        obs.event(
            "sharded.done", converged=converged,
            gamma_hat=[float(g) for g in estimated],
            migrations=sum(d.migrations for d in devices),
            virtual_time=now, events=runtime.events_fired,
        )
    return ShardedDtuResult(
        estimated_utilizations=estimated,
        measured_utilizations=measured,
        iterations=np.array([c.iterations for c in coordinators]),
        rounds=np.array([c.round for c in coordinators]),
        silent_rounds=np.array([c.silent_rounds for c in coordinators]),
        converged=converged,
        traces=[c.trace for c in coordinators],
        site_members=np.array([c.final_members for c in coordinators]),
        final_homes=np.array([d.home for d in devices], dtype=np.int64),
        migrations=sum(d.migrations for d in devices),
        delay_matrix=delay_matrix,
        log=transport.log,
        events_fired=runtime.events_fired,
        virtual_time=now,
    )
