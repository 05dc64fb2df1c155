"""Non-stationary runs over the network runtime: schedules + learning agents.

:func:`run_workload_net` is :func:`repro.net.protocol.run_net_dtu` with
two extra degrees of freedom, both defaulting *off*:

* a :class:`~repro.workload.schedule.WorkloadScenario` modulates every
  device's arrival rate by ``m(t)`` (virtual time) and can replace
  fleet-wide churn with correlated regional churn;
* ``config.agent_policy`` swaps the Lemma-1 best response for a
  learning policy (:mod:`repro.workload.agents`) on every device.

**Degeneration contract** (pinned by ``tests/test_workload.py``): with a
constant ``m ≡ 1`` schedule, no regional churn, and the ``lemma1``
policy, this function constructs the *same* actors in the same order
with the same derived seeds as ``run_net_dtu`` — the message log and the
γ̂ trajectory are bit-for-bit identical. The workload machinery costs
nothing until a knob is turned.

Seed plumbing: ``derive_seeds(config.seed, 4)`` yields
``(fault, churn, agent, region)`` seeds. :func:`derive_seeds` is
prefix-stable (child *i* is the same whatever the count), so the first
two streams are *exactly* the ones ``run_net_dtu`` draws from the same
``config.seed`` — the degeneration contract holds even under faults and
churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.edge_delay import PAPER_DELAY_MODEL, EdgeDelayModel
from repro.core.kernels import compile_mean_field
from repro.net.actors import DeviceAgent, EdgeCoordinator
from repro.net.churn import ChurnModel
from repro.net.messages import ThresholdReport
from repro.net.protocol import (
    NetConfig,
    NetDtuResult,
    build_devices,
    build_transport,
    run_fleet,
)
from repro.obs.context import resolve_recorder
from repro.obs.recorder import Recorder
from repro.population.sampler import Population
from repro.net.clock import Runtime
from repro.runtime.task import derive_seeds
from repro.utils.rng import spawn_streams
from repro.utils.validation import (
    check_int_positive,
    check_positive,
    check_unit_interval,
)
from repro.workload.agents import (
    AGENT_POLICIES,
    AgentPolicy,
    arm_costs,
    make_policy,
)
from repro.workload.schedule import (
    ScheduleEngine,
    WorkloadScenario,
    build_workload_scenario,
)
from repro.workload.tracking import LagReport, lag_report

__all__ = [
    "LearningDeviceAgent",
    "WorkloadNetConfig",
    "WorkloadNetResult",
    "run_workload_net",
]


@dataclass(frozen=True)
class WorkloadNetConfig(NetConfig):
    """A :class:`NetConfig` plus the workload-specific knobs.

    ``stop_on_convergence=False`` keeps the coordinator re-estimating
    for the whole round budget — the right mode under a drifting
    schedule, where "converged" is a moving target. The agent knobs
    select and parameterise the device policy (see
    :data:`repro.workload.agents.AGENT_POLICIES`).
    """

    stop_on_convergence: bool = True
    agent_policy: str = "lemma1"
    epsilon: float = 0.1             # ε-greedy exploration rate
    learning_rate: float = 0.2       # ε-greedy Q step α
    eta: float = 0.5                 # multiplicative-weights rate η

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.agent_policy not in AGENT_POLICIES:
            raise ValueError(
                f"agent_policy must be one of {', '.join(AGENT_POLICIES)}; "
                f"got {self.agent_policy!r}"
            )
        check_unit_interval("epsilon", self.epsilon)
        check_unit_interval("learning_rate", self.learning_rate,
                            open_left=True)
        check_positive("eta", self.eta)


class LearningDeviceAgent(DeviceAgent):
    """A device that *learns* whether to offload instead of computing it.

    Inherits the whole protocol plumbing (delivery handler, heartbeats,
    churn hooks) from :class:`DeviceAgent`; only the broadcast response
    is replaced. Each round the agent prices both arms at the broadcast γ̂
    (:func:`repro.workload.agents.arm_costs`), asks its policy for an
    offload mix ``p``, and reports the offered rate ``a_n·m(t)·p``.

    Learning devices have no threshold; the report's threshold field
    carries ``p`` instead (purely diagnostic — the coordinator's Eq. 6
    measurement reads only the offered rate).
    """

    def __init__(self, *args, policy: AgentPolicy, **kwargs):
        super().__init__(*args, **kwargs)
        self.policy = policy

    def _respond(self, estimate: float, broadcast_round: int,
                 parent: Optional[int] = None) -> None:
        rate = self.instantaneous_rate()
        local, offload = arm_costs(
            estimate=estimate,
            edge_delay=float(self.delay_model(estimate)),
            offload_latency=self.offload_latency,
            weight=self.weight,
            energy_local=self.energy_local,
            energy_offload=self.energy_offload,
            arrival_rate=rate,
            service_rate=self.service_rate,
        )
        mix = self.policy.act(local, offload)
        self.threshold = float(mix)
        self.offload_rate = rate * float(mix)
        self.reports_sent += 1
        self.transport.send(
            self.address, self.edge_address,
            ThresholdReport(self.address, broadcast_round,
                            self.threshold, self.offload_rate),
            delay=self.report_delay,
            parent=parent,
        )


@dataclass(frozen=True)
class WorkloadNetResult:
    """A finished workload run: the net result plus the tracking report."""

    net: NetDtuResult
    lag: LagReport
    scenario: WorkloadScenario
    policy: str

    @property
    def estimated_utilization(self) -> float:
        return self.net.estimated_utilization

    @property
    def max_lag(self) -> float:
        return self.lag.max_lag

    @property
    def mean_lag(self) -> float:
        return self.lag.mean_lag

    @property
    def final_gap(self) -> float:
        """|γ̂ − γ*| at the last measured round (the convergence gap)."""
        return self.lag.final_lag


def run_workload_net(
    population: Population,
    scenario: Optional[WorkloadScenario] = None,
    config: Optional[WorkloadNetConfig] = None,
    delay_model: Optional[EdgeDelayModel] = None,
    recorder: Optional[Recorder] = None,
    checkpoint_every: int = 5,
) -> WorkloadNetResult:
    """Run the network DTU protocol under a non-stationary workload.

    Parameters mirror :func:`repro.net.protocol.run_net_dtu`;
    additionally ``scenario`` names the workload (default: the constant
    ``steady`` scenario) and ``checkpoint_every`` sets the γ*(t) cadence
    of the post-run lag report.

    Only a run that degenerates to the stationary Lemma-1 case compiles a
    fleet kernel: modulated devices take the scalar staircase (compiled
    tables are stationary by construction) and learning devices have no
    threshold to probe.
    """
    config = config or WorkloadNetConfig()
    scenario = scenario or build_workload_scenario("steady")
    delay_model = delay_model if delay_model is not None else PAPER_DELAY_MODEL
    check_int_positive("checkpoint_every", checkpoint_every)
    obs = resolve_recorder(recorder)
    fault_seed, churn_seed, agent_seed, region_seed = \
        derive_seeds(config.seed, 4)

    horizon = config.resolved_horizon()
    engine = ScheduleEngine(population, scenario, horizon=horizon,
                            seed=region_seed, delay_model=delay_model)
    stationary = scenario.schedule.constant \
        and engine.min_factor == engine.max_factor == 1.0
    lemma1 = config.agent_policy == "lemma1"

    runtime = Runtime()
    transport, local = build_transport(runtime, config, fault_seed,
                                       recorder=recorder)

    churn_config = config.churn
    if engine.churn is not None:
        if churn_config is not None:
            raise ValueError(
                "both config.churn and the scenario's regional churn are "
                "set; pick one (regional churn replaces the fleet-wide "
                "model)"
            )
        churn_config = engine.churn
    churn_model = None
    if churn_config is not None and not churn_config.static:
        churn_model = ChurnModel(churn_config, population.size, horizon,
                                 seed=churn_seed)

    modulation = None if stationary else engine.modulation
    kernel = compile_mean_field(population, delay_model) \
        if stationary and lemma1 else None

    if lemma1:
        devices = build_devices(
            population, delay_model, runtime, transport,
            heartbeat_interval=config.heartbeat_interval,
            churn_model=churn_model,
            kernel=kernel,
            recorder=recorder,
        )
        if modulation is not None:
            for device in devices:
                device.modulation = modulation
    else:
        streams = spawn_streams(agent_seed, population.size)
        devices = _build_learning_devices(
            population, delay_model, runtime, transport, config,
            churn_model=churn_model, modulation=modulation,
            streams=streams, recorder=recorder,
        )

    coordinator = EdgeCoordinator(
        runtime=runtime,
        transport=transport,
        devices=range(population.size),
        capacity=population.capacity,
        config=config,
        recorder=recorder,
    )
    if obs.enabled:
        obs.event(
            "workload.start", n_devices=population.size,
            seed=str(config.seed), horizon=horizon,
            scenario=scenario.name, policy=config.agent_policy,
            stationary=stationary,
            faulty=transport is not local,
            churning=churn_model is not None,
        )

    run_fleet(runtime, [coordinator], devices, churn_model, horizon,
              recorder=recorder)

    measured = (coordinator.final_measured
                if coordinator.final_measured is not None else float("nan"))
    net = NetDtuResult(
        estimated_utilization=coordinator.stepper.estimate,
        measured_utilization=measured,
        iterations=coordinator.iterations,
        rounds=coordinator.round,
        silent_rounds=coordinator.silent_rounds,
        converged=coordinator.converged,
        trace=coordinator.trace,
        log=transport.log,
        events_fired=runtime.events_fired,
        virtual_time=runtime.now,
    )
    lag = lag_report(engine, coordinator.trace.times,
                     coordinator.trace.estimated,
                     checkpoint_every=checkpoint_every)
    if obs.enabled:
        obs.event(
            "workload.done", converged=net.converged,
            iterations=net.iterations, rounds=net.rounds,
            gamma_hat=net.estimated_utilization,
            max_lag=lag.max_lag, final_gap=lag.final_lag,
        )
    return WorkloadNetResult(net=net, lag=lag, scenario=scenario,
                             policy=config.agent_policy)


def _build_learning_devices(
    population: Population,
    delay_model: EdgeDelayModel,
    runtime: Runtime,
    transport,
    config: WorkloadNetConfig,
    churn_model: Optional[ChurnModel],
    modulation,
    streams,
    recorder: Optional[Recorder],
) -> List[LearningDeviceAgent]:
    """One learning device per user, in index order (build_devices shape)."""
    devices = []
    for index in range(population.size):
        report_delay = churn_model.report_delay(index) if churn_model else 0.0
        policy = make_policy(
            config.agent_policy,
            epsilon=config.epsilon,
            learning_rate=config.learning_rate,
            eta=config.eta,
            rng=streams[index],
        )
        devices.append(LearningDeviceAgent(
            index=index,
            arrival_rate=float(population.arrival_rates[index]),
            service_rate=float(population.service_rates[index]),
            offload_latency=float(population.offload_latencies[index]),
            energy_local=float(population.energy_local[index]),
            energy_offload=float(population.energy_offload[index]),
            weight=float(population.weights[index]),
            delay_model=delay_model,
            runtime=runtime,
            transport=transport,
            heartbeat_interval=config.heartbeat_interval,
            report_delay=report_delay,
            modulation=modulation,
            recorder=recorder,
            policy=policy,
        ))
    return devices
