"""Non-stationary runs over the network runtime: schedules + learning agents.

:func:`run_workload_net` is :func:`repro.net.protocol.run_net_dtu` over
two device-side inputs a scenario supplies, then a lag report:

* a :class:`~repro.workload.schedule.WorkloadScenario` modulates every
  device's arrival rate by ``m(t)`` (virtual time, run_net_dtu's
  ``modulation``) and can replace fleet-wide churn with correlated
  regional churn (the config's ``churn``);
* ``config.agent_policy`` swaps the Lemma-1 best response for a
  learning policy (:mod:`repro.workload.agents`) on every device
  (run_net_dtu's ``policies``).

**Degeneration contract** (pinned by ``tests/test_workload.py``): with a
constant ``m ≡ 1`` schedule, no regional churn, and the ``lemma1``
policy, both inputs are absent and the run *is* ``run_net_dtu`` on the
same config — the message log and the γ̂ trajectory are bit-for-bit
identical, because there is one code path. The workload machinery costs
nothing until a knob is turned.

Seed plumbing: ``derive_seeds(config.seed, 4)`` yields
``(fault, churn, agent, region)`` seeds. :func:`derive_seeds` is
prefix-stable (child *i* is the same whatever the count), so the first
two streams are *exactly* the ones ``run_net_dtu`` draws from the same
``config.seed``; this runner draws the last two: one policy generator
per device from the agent seed, the regional churn from the region seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.edge_delay import PAPER_DELAY_MODEL, EdgeDelayModel
from repro.net.protocol import NetConfig, NetDtuResult, run_net_dtu
from repro.obs.context import resolve_recorder
from repro.obs.recorder import Recorder
from repro.population.sampler import Population
from repro.runtime.task import derive_seeds
from repro.utils.rng import spawn_streams
from repro.utils.validation import (
    check_int_positive,
    check_positive,
    check_unit_interval,
)
from repro.workload.agents import AGENT_POLICIES, make_policy
from repro.workload.schedule import (
    ScheduleEngine,
    WorkloadScenario,
    build_workload_scenario,
)
from repro.workload.tracking import LagReport, lag_report

__all__ = [
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
    _, _, agent_seed, region_seed = derive_seeds(config.seed, 4)

    engine = ScheduleEngine(population, scenario,
                            horizon=config.resolved_horizon(),
                            seed=region_seed, delay_model=delay_model)
    stationary = scenario.schedule.constant \
        and engine.min_factor == engine.max_factor == 1.0
    if engine.churn is not None:
        if config.churn is not None:
            raise ValueError(
                "both config.churn and the scenario's regional churn are "
                "set; pick one (regional churn replaces the fleet-wide "
                "model)"
            )
        config = replace(config, churn=engine.churn)
    policies = None
    if config.agent_policy != "lemma1":
        policies = [
            make_policy(config.agent_policy, epsilon=config.epsilon,
                        learning_rate=config.learning_rate, eta=config.eta,
                        rng=stream)
            for stream in spawn_streams(agent_seed, population.size)
        ]

    if obs.enabled:
        obs.event("workload.start", scenario=scenario.name,
                  policy=config.agent_policy, stationary=stationary)
    net = run_net_dtu(
        population, config, delay_model, recorder,
        modulation=None if stationary else engine.modulation,
        policies=policies,
    )
    lag = lag_report(engine, net.trace.times, net.trace.estimated,
                     checkpoint_every=checkpoint_every)
    if obs.enabled:
        obs.event("workload.done", max_lag=lag.max_lag,
                  final_gap=lag.final_lag)
    return WorkloadNetResult(net=net, lag=lag, scenario=scenario,
                             policy=config.agent_policy)
