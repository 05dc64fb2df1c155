"""The moving-equilibrium tracker: DTU re-pricing against a drifting MFNE.

Algorithm 1 was analysed (Theorem 2) as an iteration converging to a
*fixed* γ*. Under a :class:`~repro.workload.schedule.Schedule` the target
moves: at step time ``t`` the population's arrival rates are ``a_n·m(t)``
and the instantaneous equilibrium is ``γ*(t)`` — the fixed point of the
*modulated* best-response map. :func:`track_equilibrium` runs the exact
DTU loop (same :class:`~repro.core.dtu.DtuStepper`, same
best-respond/measure ordering as :func:`~repro.core.dtu.run_dtu`) while
re-pricing every iteration against the schedule's snapshot map, and
reports the **tracking lag** ``|γ̂(t) − γ*(t)|`` at checkpoints.

Two details make tracking work:

* a converged stepper has shrunk its step to ``η₀/L``; when the schedule
  jumps (a flash-crowd onset: the factor moves by more than
  :data:`RETARGET_THRESHOLD`) the tracker calls
  :meth:`~repro.core.dtu.DtuStepper.retarget` to restore ``η₀`` and
  re-open the stop test — otherwise γ̂ would crawl to the new target at
  the residual step size;
* with a :class:`ScheduleEngine` quantized onto ``levels`` grid points,
  re-pricing is an ``O(N log m)`` probe into one compiled kernel per
  level, which is what makes N = 10⁵ populations trackable.

With a constant schedule the loop is line-for-line :func:`run_dtu`'s and
produces its γ̂ sequence bit-for-bit (pinned by
``tests/test_workload.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.dtu import DtuStepper
from repro.core.edge_delay import EdgeDelayModel
from repro.obs.context import resolve_recorder
from repro.obs.recorder import Recorder
from repro.population.sampler import Population
from repro.utils.rng import SeedLike
from repro.utils.validation import check_int_positive, check_positive, \
    check_unit_interval
from repro.workload.schedule import ScheduleEngine, WorkloadScenario

#: A schedule-factor jump |Δm| above which a converged stepper re-opens.
RETARGET_THRESHOLD = 0.05


@dataclass(frozen=True)
class TrackingConfig:
    """Hyperparameters of a tracking run."""

    steps: int = 120                 # DTU iterations
    dt: float = 1.0                  # schedule time per iteration
    initial_step: float = 0.1        # η₀
    tolerance: float = 1e-2          # ε
    initial_estimate: float = 0.0    # γ̂₀
    checkpoint_every: int = 5        # γ*(t) cadence (every k-th step)
    levels: int = 0                  # >1: quantized compiled kernels
    stop_on_convergence: bool = False  # True: stop like run_dtu does

    def __post_init__(self) -> None:
        check_int_positive("steps", self.steps)
        check_positive("dt", self.dt)
        check_unit_interval("initial_step", self.initial_step,
                            open_left=True)
        check_unit_interval("tolerance", self.tolerance,
                            open_left=True, open_right=True)
        check_unit_interval("initial_estimate", self.initial_estimate)
        check_int_positive("checkpoint_every", self.checkpoint_every)


@dataclass
class TrackingResult:
    """A tracked run: the γ̂ trajectory against the moving target."""

    times: np.ndarray                # step times t_k
    estimated: np.ndarray            # γ̂ before each update (run_dtu order)
    measured: np.ndarray             # modulated J1 at each step
    factors: np.ndarray              # m(t_k)
    checkpoint_times: np.ndarray     # where γ*(t) was solved
    gamma_star: np.ndarray           # γ*(t) at checkpoints
    lag: np.ndarray                  # |γ̂ − γ*| at checkpoints
    retargets: int                   # step-size re-openings
    converged: bool                  # only meaningful with stop_on_convergence
    steps: int

    @property
    def max_lag(self) -> float:
        return float(self.lag.max()) if self.lag.size else float("nan")

    @property
    def mean_lag(self) -> float:
        return float(self.lag.mean()) if self.lag.size else float("nan")

    @property
    def final_lag(self) -> float:
        return float(self.lag[-1]) if self.lag.size else float("nan")


def track_equilibrium(
    population: Population,
    scenario: WorkloadScenario,
    config: Optional[TrackingConfig] = None,
    delay_model: Optional[EdgeDelayModel] = None,
    seed: SeedLike = 0,
    recorder: Optional[Recorder] = None,
) -> TrackingResult:
    """Run DTU against ``scenario``'s drifting equilibrium.

    The loop mirrors :func:`repro.core.dtu.run_dtu` exactly — initial
    best response, then (convergence test → Eq. 4 update → Eq. 5 best
    response → Eq. 6 measurement) per iteration — except that both the
    response and the measurement run against the *instantaneous*
    modulated map ``m(t_k)``. ``seed`` only feeds the engine's regional
    churn assignment; the tracker itself is deterministic.
    """
    config = config or TrackingConfig()
    engine = ScheduleEngine(
        population, scenario, horizon=config.steps * config.dt,
        seed=seed, delay_model=delay_model, levels=config.levels,
    )
    obs = resolve_recorder(recorder)
    stepper = DtuStepper(
        initial_step=config.initial_step,
        tolerance=config.tolerance,
        initial_estimate=config.initial_estimate,
    )

    times: List[float] = []
    estimated: List[float] = []
    measured: List[float] = []
    factors: List[float] = []
    checkpoint_times: List[float] = []
    gamma_star: List[float] = []
    lag: List[float] = []
    retargets = 0
    converged = False
    actual = 0.0
    previous_factor: Optional[float] = None

    with obs.timer("workload.track_seconds"):
        for k in range(config.steps):
            t = k * config.dt
            factor = engine.quantized_factor(t)
            mean_field = engine.mean_field_at(t)

            if previous_factor is not None:
                # The schedule moved: a converged (step-shrunk) stepper
                # must re-open, or it chases the new γ* at η₀/L.
                if abs(factor - previous_factor) > RETARGET_THRESHOLD \
                        and stepper.converged:
                    stepper.retarget()
                    retargets += 1
                    if obs.enabled:
                        obs.count("workload.retargets")
                if stepper.converged and config.stop_on_convergence:
                    converged = True
                    break
                stepper.update(actual)
            previous_factor = factor

            thresholds = mean_field.best_response(stepper.estimate)
            actual = mean_field.utilization(thresholds)

            times.append(t)
            estimated.append(stepper.estimate)
            measured.append(actual)
            factors.append(factor)
            if k % config.checkpoint_every == 0:
                star = engine.gamma_star(t)
                checkpoint_times.append(t)
                gamma_star.append(star)
                lag.append(abs(stepper.estimate - star))
                if obs.enabled:
                    obs.event("workload.checkpoint", t=t, factor=factor,
                              gamma_hat=stepper.estimate, gamma_star=star,
                              lag=lag[-1])

    if obs.enabled and lag:
        obs.gauge("workload.max_lag", float(np.max(lag)))
        obs.event("workload.done", steps=len(times), retargets=retargets,
                  max_lag=float(np.max(lag)),
                  mean_lag=float(np.mean(lag)))
    return TrackingResult(
        times=np.asarray(times),
        estimated=np.asarray(estimated),
        measured=np.asarray(measured),
        factors=np.asarray(factors),
        checkpoint_times=np.asarray(checkpoint_times),
        gamma_star=np.asarray(gamma_star),
        lag=np.asarray(lag),
        retargets=retargets,
        converged=converged,
        steps=len(times),
    )


@dataclass
class LagReport:
    """γ̂ lag versus the instantaneous MFNE, computed from a net trace."""

    times: np.ndarray            # trace round times
    estimated: np.ndarray        # γ̂ at those rounds
    factors: np.ndarray          # m(t) at those rounds
    checkpoint_times: np.ndarray
    gamma_star: np.ndarray
    lag: np.ndarray
    rows: List = field(default_factory=list)  # (t, m, γ̂, γ*, lag) tuples

    @property
    def max_lag(self) -> float:
        return float(self.lag.max()) if self.lag.size else float("nan")

    @property
    def mean_lag(self) -> float:
        return float(self.lag.mean()) if self.lag.size else float("nan")

    @property
    def final_lag(self) -> float:
        return float(self.lag[-1]) if self.lag.size else float("nan")


def lag_report(
    engine: ScheduleEngine,
    times: np.ndarray,
    estimated: np.ndarray,
    checkpoint_every: int = 1,
) -> LagReport:
    """Post-hoc tracking report for a (net) γ̂ trajectory.

    The network runtime measures in virtual time; this recomputes the
    instantaneous γ*(t) at every ``checkpoint_every``-th trace round and
    reports the lag — the same metric :func:`track_equilibrium` emits
    inline.
    """
    check_int_positive("checkpoint_every", checkpoint_every)
    times = np.asarray(times, dtype=float)
    estimated = np.asarray(estimated, dtype=float)
    factors = np.asarray([float(engine.factor(float(t))) for t in times])
    checkpoint_times: List[float] = []
    gamma_star: List[float] = []
    lag: List[float] = []
    rows: List = []
    for index in range(0, times.size, checkpoint_every):
        t = float(times[index])
        star = engine.gamma_star(t)
        checkpoint_times.append(t)
        gamma_star.append(star)
        lag.append(abs(float(estimated[index]) - star))
        rows.append((t, float(factors[index]), float(estimated[index]),
                     star, lag[-1]))
    return LagReport(
        times=times,
        estimated=estimated,
        factors=factors,
        checkpoint_times=np.asarray(checkpoint_times),
        gamma_star=np.asarray(gamma_star),
        lag=np.asarray(lag),
        rows=rows,
    )
