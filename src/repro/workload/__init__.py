"""Non-stationary workloads: schedules, equilibrium tracking, learning agents.

The paper frames DTU as an *online* algorithm; this package supplies the
moving environment it is supposed to survive. Three layers:

* :mod:`repro.workload.schedule` — seeded, precomputed rate schedules
  (diurnal, flash crowd, composites), correlated regional churn, and the
  :class:`ScheduleEngine` that prices the instantaneous MFNE γ*(t);
* :mod:`repro.workload.tracking` — the analytic moving-equilibrium
  tracker and the γ̂-lag report;
* :mod:`repro.workload.agents` / :mod:`repro.workload.runner` — learning
  device policies (ε-greedy, multiplicative weights) and
  :func:`run_workload_net`, which turns a scenario into
  :func:`repro.net.protocol.run_net_dtu`'s rate schedule and policies
  and adds the lag report; with every knob at its default it *is*
  ``run_net_dtu``.

The learning device (``LearningDeviceAgent``, from :mod:`repro.net.actors`)
and its arm prices (``arm_costs``, from :mod:`repro.core.cost`) live
beside the code that runs and prices Lemma-1 devices; they are exported
here too.
"""

from repro.core.cost import arm_costs
from repro.net.actors import LearningDeviceAgent
from repro.workload.agents import (
    AGENT_POLICIES,
    AgentPolicy,
    EpsilonGreedyPolicy,
    MultiplicativeWeightsPolicy,
    make_policy,
)
from repro.workload.schedule import (
    CompositeSchedule,
    ConstantSchedule,
    DiurnalSchedule,
    FlashCrowdSchedule,
    RegionalChurnSpec,
    Schedule,
    ScheduleEngine,
    WorkloadScenario,
    build_workload_scenario,
    regional_churn_config,
    workload_scenario_names,
)
from repro.workload.tracking import (
    LagReport,
    TrackingConfig,
    TrackingResult,
    lag_report,
    track_equilibrium,
)
from repro.workload.runner import (
    WorkloadNetConfig,
    WorkloadNetResult,
    run_workload_net,
)

__all__ = [
    "AGENT_POLICIES",
    "AgentPolicy",
    "CompositeSchedule",
    "ConstantSchedule",
    "DiurnalSchedule",
    "EpsilonGreedyPolicy",
    "FlashCrowdSchedule",
    "LagReport",
    "LearningDeviceAgent",
    "MultiplicativeWeightsPolicy",
    "RegionalChurnSpec",
    "Schedule",
    "ScheduleEngine",
    "TrackingConfig",
    "TrackingResult",
    "WorkloadNetConfig",
    "WorkloadNetResult",
    "WorkloadScenario",
    "arm_costs",
    "build_workload_scenario",
    "lag_report",
    "make_policy",
    "regional_churn_config",
    "run_workload_net",
    "track_equilibrium",
    "workload_scenario_names",
]
