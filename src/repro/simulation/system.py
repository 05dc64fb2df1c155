"""System-level simulation: N devices sharing one edge.

The devices' queues are mutually independent given their policies (the
edge couples them only through the delay ``g(γ)`` entering costs and
threshold decisions), so the system simulator runs one device process per
user and aggregates:

* the measured edge utilisation ``γ̂ = Σ_n (offloaded rate)_n / (N c)``;
* per-user measured offload fractions ``α̂_n`` and queue lengths ``Q̂_n``;
* the measured population cost (Eq. 1 with measured ``α̂``, ``Q̂``).

:class:`SimulatedUtilizationOracle` plugs this into the DTU algorithm so
the paper's practical-settings experiments (measured YOLO service times,
asynchronous updates) run the *identical* Algorithm 1 against a simulated
system instead of closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.edge_delay import PAPER_DELAY_MODEL, EdgeDelayModel
from repro.population.sampler import Population
from repro.simulation.device import (
    AdmissionPolicy,
    DeviceStats,
    DpoAdmission,
    TroAdmission,
    simulate_device,
)
from repro.simulation.edge import EdgeServer
from repro.simulation.measurement import (
    ArrivalModel,
    ExponentialService,
    MeasurementConfig,
    PoissonArrivals,
    ServiceModel,
)
from repro.obs.context import resolve_recorder
from repro.obs.recorder import Recorder
from repro.utils.rng import as_generator, spawn_streams
from repro.utils.stats import ConfidenceInterval, confidence_interval

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class SystemMeasurement:
    """Aggregated measurements of one system-simulation run."""

    utilization: float                    # measured γ̂
    edge_delay: float                     # g(γ̂)
    offload_fractions: np.ndarray         # per-user α̂_n
    queue_lengths: np.ndarray             # per-user Q̂_n (time averages)
    user_costs: np.ndarray                # Eq. (1) with measured quantities
    device_stats: tuple                   # per-user DeviceStats

    @property
    def average_cost(self) -> float:
        return float(self.user_costs.mean())

    @property
    def average_offload_fraction(self) -> float:
        return float(self.offload_fractions.mean())


def _policies_from_thresholds(thresholds: ArrayLike, n: int) -> List[AdmissionPolicy]:
    x = np.broadcast_to(np.asarray(thresholds, dtype=float), (n,))
    return [TroAdmission(float(value)) for value in x]


def _policies_from_probabilities(probabilities: ArrayLike, n: int) -> List[AdmissionPolicy]:
    p = np.broadcast_to(np.asarray(probabilities, dtype=float), (n,))
    return [DpoAdmission(float(value)) for value in p]


#: Valid ``backend=`` choices for :func:`simulate_system`.
BACKENDS = ("event", "vectorized")


def simulate_system(
    population: Population,
    policies: Sequence[AdmissionPolicy],
    config: Optional[MeasurementConfig] = None,
    service_model: Optional[ServiceModel] = None,
    delay_model: Optional[EdgeDelayModel] = None,
    arrival_model: Optional[ArrivalModel] = None,
    recorder: Optional[Recorder] = None,
    backend: str = "event",
) -> SystemMeasurement:
    """Simulate every device and aggregate system-level measurements.

    ``policies`` must have one admission policy per user (build them with
    :func:`tro_policies` / :func:`dpo_policies` or the classes directly).
    ``arrival_model`` defaults to Poisson (the paper's assumption); pass a
    :class:`~repro.simulation.measurement.RenewalArrivals` for bursty or
    regular traffic. ``recorder`` (default: the ambient one, see
    :mod:`repro.obs`) receives per-device queue/offload histograms and a
    ``system.measurement`` summary event.

    ``backend`` selects the device simulator: ``"event"`` runs one DES per
    device on its own :class:`~repro.net.clock.Runtime` (any service or
    arrival model); ``"vectorized"`` steps all N queues at once through
    the uniformized-CTMC fast path (:mod:`repro.simulation.fastpath`) —
    an order of magnitude faster at N ≥ 10³, but
    exact only for the Markovian setting (exponential service, Poisson
    arrivals, TRO/DPO policies). The two backends draw different random
    streams, so for one seed they agree statistically, not bit-wise.
    """
    config = config or MeasurementConfig()
    service_model = service_model or ExponentialService()
    arrival_model = arrival_model or PoissonArrivals()
    delay_model = delay_model if delay_model is not None else PAPER_DELAY_MODEL
    n = population.size
    if len(policies) != n:
        raise ValueError(f"need {n} policies, got {len(policies)}")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")

    if backend == "vectorized":
        from repro.simulation.fastpath import (
            check_fastpath_supported,
            simulate_devices_vectorized,
        )
        check_fastpath_supported(policies, service_model, arrival_model)
        stats: List[DeviceStats] = simulate_devices_vectorized(
            population, policies, config, recorder=recorder,
        )
    else:
        streams = spawn_streams(config.seed, n)
        stats = []
        for i in range(n):
            arrival_rate = float(population.arrival_rates[i])
            service = service_model.distribution(float(population.service_rates[i]))
            stats.append(
                simulate_device(
                    arrival_rate=arrival_rate,
                    service=service,
                    policy=policies[i],
                    horizon=config.horizon,
                    rng=streams[i],
                    warmup=config.warmup,
                    interarrival=arrival_model.interarrival(arrival_rate),
                )
            )

    offload_counts = np.array([s.offloaded for s in stats], dtype=float)
    edge = EdgeServer(
        capacity_per_user=population.capacity,
        n_users=n,
        delay_model=delay_model,
    )
    gamma = edge.update_from_counts(offload_counts, config.observation_time)
    edge_delay = edge.delay()

    alpha = np.array([s.offload_fraction for s in stats])
    queues = np.array([s.time_avg_queue for s in stats])
    costs = (population.weights * population.energy_local * (1.0 - alpha)
             + queues / population.arrival_rates
             + (population.weights * population.energy_offload + edge_delay
                + population.offload_latencies) * alpha)
    measurement = SystemMeasurement(
        utilization=gamma,
        edge_delay=edge_delay,
        offload_fractions=alpha,
        queue_lengths=queues,
        user_costs=costs,
        device_stats=tuple(stats),
    )
    obs = resolve_recorder(recorder)
    if obs.enabled:
        obs.count("system.simulations")
        obs.gauge("system.utilization", gamma)
        for fraction, queue in zip(alpha, queues):
            obs.observe("system.offload_fraction", fraction)
            obs.observe("system.queue_length", queue)
        obs.event(
            "system.measurement",
            n_users=n,
            utilization=gamma,
            edge_delay=edge_delay,
            mean_offload_fraction=measurement.average_offload_fraction,
            mean_queue_length=float(queues.mean()),
            average_cost=measurement.average_cost,
            service_model=repr(service_model),
            arrival_model=repr(arrival_model),
            protocol=config.describe(),
            backend=backend,
        )
    return measurement


def tro_policies(thresholds: ArrayLike, n_users: int) -> List[AdmissionPolicy]:
    """One :class:`TroAdmission` per user from a threshold vector/scalar."""
    return _policies_from_thresholds(thresholds, n_users)


def dpo_policies(probabilities: ArrayLike, n_users: int) -> List[AdmissionPolicy]:
    """One :class:`DpoAdmission` per user from an offload-probability vector."""
    return _policies_from_probabilities(probabilities, n_users)


@dataclass(frozen=True)
class ReplicatedMeasurement:
    """Means with confidence intervals over independent DES replications."""

    utilization: "ConfidenceInterval"
    average_cost: "ConfidenceInterval"
    replications: int

    def __str__(self) -> str:
        return (f"utilization = {self.utilization}; "
                f"average cost = {self.average_cost} "
                f"[{self.replications} replications]")


def _replication_point(
    population: Population,
    policies: Sequence[AdmissionPolicy],
    horizon: float,
    warmup: float,
    service_model: Optional[ServiceModel],
    delay_model: Optional[EdgeDelayModel],
    seed,
    backend: str = "event",
) -> tuple:
    """One independent simulation replication (a pure :mod:`repro.runtime` task)."""
    measurement = simulate_system(
        population, policies,
        MeasurementConfig(horizon=horizon, warmup=warmup, seed=seed),
        service_model=service_model, delay_model=delay_model,
        backend=backend,
    )
    return measurement.utilization, measurement.average_cost


def simulate_system_replicated(
    population: Population,
    policies: Sequence[AdmissionPolicy],
    replications: int = 10,
    config: Optional[MeasurementConfig] = None,
    service_model: Optional[ServiceModel] = None,
    delay_model: Optional[EdgeDelayModel] = None,
    confidence: float = 0.95,
    jobs: int = 1,
    cache: Optional[object] = None,
    timeout: Optional[float] = None,
    backend: str = "event",
) -> ReplicatedMeasurement:
    """Independent replications of :func:`simulate_system` with CIs.

    One simulation run gives a point estimate whose error is invisible;
    this wrapper runs ``replications`` independent copies (fresh arrival
    and service streams each time) and returns normal-approximation
    confidence intervals for the utilisation and the population cost — the
    statistically honest way to quote simulated numbers.

    The replications fan out over :class:`repro.runtime.TaskRunner`
    (``jobs=N`` processes, optional result ``cache``); every replication's
    seed is derived from the base seed via :func:`repro.runtime.derive_seeds`
    *before* execution in index order, so the intervals are bit-identical
    for any ``jobs`` count — for the ``"vectorized"`` backend exactly as
    for ``"event"``.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications for an interval")
    from repro.runtime import TaskRunner, TaskSpec, derive_seeds

    base = config or MeasurementConfig()
    rep_seeds = derive_seeds(base.seed, replications)
    specs = [
        TaskSpec(
            fn=_replication_point,
            kwargs=dict(population=population, policies=list(policies),
                        horizon=base.horizon, warmup=base.warmup,
                        service_model=service_model,
                        delay_model=delay_model, backend=backend),
            seed=rep_seed,
            name=f"{backend}.replication[{index}]",
        )
        for index, rep_seed in enumerate(rep_seeds)
    ]
    runner = TaskRunner(jobs=jobs, cache=cache, timeout=timeout)
    outcomes = [result.unwrap() for result in runner.run(specs)]
    gammas = [gamma for gamma, _ in outcomes]
    costs = [cost for _, cost in outcomes]
    return ReplicatedMeasurement(
        utilization=confidence_interval(gammas, level=confidence),
        average_cost=confidence_interval(costs, level=confidence),
        replications=replications,
    )


class SimulatedUtilizationOracle:
    """A DES-backed utilisation oracle for the DTU algorithm.

    Each ``measure(thresholds)`` call simulates the whole system under the
    given TRO thresholds and returns the *measured* utilisation — exactly
    how the practical-settings experiments replace the closed-form ``J1``.
    Successive calls use fresh random streams derived from the base seed,
    so DTU sees realistic measurement noise between iterations.
    """

    def __init__(
        self,
        population: Population,
        config: Optional[MeasurementConfig] = None,
        service_model: Optional[ServiceModel] = None,
        delay_model: Optional[EdgeDelayModel] = None,
        arrival_model: Optional[ArrivalModel] = None,
        recorder: Optional[Recorder] = None,
    ):
        self.population = population
        self.config = config or MeasurementConfig()
        self.service_model = service_model or ExponentialService()
        self.arrival_model = arrival_model or PoissonArrivals()
        self.delay_model = delay_model if delay_model is not None else PAPER_DELAY_MODEL
        self._seed_stream = as_generator(self.config.seed)
        self._recorder = recorder
        self.last_measurement: Optional[SystemMeasurement] = None

    def measure(self, thresholds: np.ndarray) -> float:
        run_config = MeasurementConfig(
            horizon=self.config.horizon,
            warmup=self.config.warmup,
            seed=int(self._seed_stream.integers(0, 2**63 - 1)),
        )
        measurement = simulate_system(
            self.population,
            policies=tro_policies(thresholds, self.population.size),
            config=run_config,
            service_model=self.service_model,
            delay_model=self.delay_model,
            arrival_model=self.arrival_model,
            recorder=self._recorder,
        )
        self.last_measurement = measurement
        obs = resolve_recorder(self._recorder)
        if obs.enabled:
            obs.count("oracle.des_measurements")
            obs.event("oracle.measure", utilization=measurement.utilization,
                      average_cost=measurement.average_cost)
        return measurement.utilization
