"""Algorithm 1: the Distributed Threshold Update (DTU) algorithm.

Each iteration ``t``:

1. the edge updates the **estimated** utilisation (Eq. 4)::

       γ̂_t ← min{1, γ̂_{t−1} + η_{t−1} · sign(γ_t − γ̂_{t−1})}

   and broadcasts it — the estimate moves a full step toward the *actual*
   utilisation, which gives the bisection behaviour Theorem 2 exploits;
2. every user plays its Lemma-1 best response to ``γ̂_t`` (Eq. 5) — in the
   asynchronous variant each user only updates with probability
   ``update_probability`` (Section IV-B uses 0.8);
3. if the estimate oscillated (``γ̂_t = γ̂_{t−2}``) the step size shrinks to
   ``η_0 / L`` with an incremented counter ``L``;
4. the actual utilisation ``γ_{t+1}`` induced by the new thresholds is
   measured (Eq. 6).

The loop stops when ``|γ̂_{t−1} − γ̂_{t−2}| ≤ ε``, never before the
first update (``γ̂_{−1} = 1`` is only a sentinel). Theorem 2 proves
convergence to the MFNE ``γ*`` when the utilisation oracle is the analytic
``J1``; the oracle is pluggable so the *practical settings* experiments can
drive the same algorithm with a discrete-event-simulated edge instead
(non-exponential service times, measurement noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol, Tuple

import numpy as np

from repro.core.meanfield import MeanFieldMap
from repro.obs.context import resolve_recorder
from repro.obs.recorder import Recorder
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_int_positive, check_unit_interval

#: Tolerance for the oscillation test ``γ̂_t == γ̂_{t−2}`` — exact equality
#: is the paper's condition; floating point needs a hair of slack.
_OSCILLATION_TOL = 1e-12

#: Moves in a row repeating the previous move's direction after which
#: :func:`regrow_rule` lets a shrunk step grow back.
_REGROW_PATIENCE = 4

#: ``rule(t, step, counter, oscillated, direction) -> (step, counter)``:
#: the step size ``η`` and shrink divisor ``L`` after the ``t``-th Eq. 4
#: move, which went in ``direction`` (+1, −1, or 0 when γ̂ held) and
#: ``oscillated`` when it returned γ̂ to ``γ̂_{t−2}``.
StepRule = Callable[[int, float, float, bool, float], Tuple[float, float]]


def paper_rule(initial_step: float) -> StepRule:
    """Algorithm 1: shrink to η₀/L only on detected oscillation."""

    def rule(t, step, counter, oscillated, direction):
        if oscillated:
            counter += 1
            return initial_step / counter, counter
        return step, counter

    return rule


def constant_rule(initial_step: float) -> StepRule:
    """Never shrink — the estimate ends up oscillating in a ±η band."""

    def rule(t, step, counter, oscillated, direction):
        return initial_step, counter

    return rule


def robbins_monro_rule(initial_step: float) -> StepRule:
    """η_t = η₀ / t — classical stochastic approximation decay."""

    def rule(t, step, counter, oscillated, direction):
        return initial_step / max(t, 1), counter

    return rule


def regrow_rule(initial_step: float) -> StepRule:
    """The paper's rule plus a trust-region escape for a moving target.

    In the multi-edge game a site's target moves while the other sites
    converge (users switch sites), so a step that only ever shrinks can
    strand the site far from it. Once ``_REGROW_PATIENCE`` moves in a row
    have repeated the previous move's direction, the divisor ``L`` halves
    (floored at 1) and the step grows back toward η₀; on a static target
    it steps as the paper's rule does. The rule remembers the move
    streak, so build one per stepper.
    """
    shrink = paper_rule(initial_step)
    streak = 0
    last_direction = 0.0

    def rule(t, step, counter, oscillated, direction):
        nonlocal streak, last_direction
        step, counter = shrink(t, step, counter, oscillated, direction)
        persisting = direction != 0.0 and direction == last_direction
        streak = streak + 1 if persisting else 0
        last_direction = direction
        if streak >= _REGROW_PATIENCE:
            counter = max(1.0, counter / 2.0)
            step = initial_step / counter
            streak = 0
        return step, counter

    return rule


class DtuStepper:
    """The Eq. 4 sign step with the lines-9–14 step-size bookkeeping.

    A pure state machine over the estimate sequence — no population, no
    oracle, no I/O — and the only code in this repository that moves γ̂.
    Its callers:

    * :func:`run_dtu`, the synchronous iteration loop (also behind
      :func:`repro.experiments.robustness.run_dtu_with_stale_broadcast`);
    * :class:`repro.simulation.online.OnlineSimulation`, continuous time;
    * :class:`repro.net.actors.EdgeCoordinator`, the message-passing edge,
      and through it :class:`repro.net.sharded.SiteCoordinator` (one per
      site) and the served :class:`repro.serve.service.ServingCoordinator`;
    * :func:`repro.workload.tracking.track_equilibrium`, a moving target;
    * :func:`repro.core.multiedge.run_multiedge_dtu`, one stepper per site
      with :func:`regrow_rule`;
    * :func:`repro.core.dtu_variants.run_with_step_rule`, the step-rule
      comparison;
    * :func:`repro.experiments.learning.run`, the blind DTU.

    State after ``t`` calls to :meth:`update`: ``estimate`` is ``γ̂_t``,
    the hidden previous value is ``γ̂_{t−1}`` (initialised to the
    algorithm's ``γ̂_{−1} = 1``), ``step`` is the current ``η`` and
    ``counter`` the shrink divisor ``L``. ``step_rule`` sets ``η`` and
    ``L`` after each move; the default is the paper's :func:`paper_rule`.
    """

    def __init__(
        self,
        initial_step: float = 0.1,
        tolerance: float = 1e-2,
        initial_estimate: float = 0.0,
        step_rule: Optional[StepRule] = None,
    ):
        check_unit_interval("initial_step", initial_step, open_left=True)
        check_unit_interval("tolerance", tolerance,
                            open_left=True, open_right=True)
        check_unit_interval("initial_estimate", initial_estimate)
        self.initial_step = float(initial_step)
        self.tolerance = float(tolerance)
        self.step_rule = step_rule or paper_rule(self.initial_step)
        self.estimate = float(initial_estimate)   # γ̂_t
        self.previous = 1.0                       # γ̂_{t−1}; starts at γ̂_{−1}
        self.step = float(initial_step)           # η_t
        self.counter = 1                          # L
        self.updates = 0                          # t

    @property
    def converged(self) -> bool:
        """The Algorithm-1 stop test ``|γ̂_t − γ̂_{t−1}| ≤ ε``, once moved.

        Before the first :meth:`update` the only history is the
        ``γ̂_{−1} = 1`` sentinel, which says nothing about the estimate:
        a start within ε of 1 must still take a step.
        """
        return self.updates > 0 \
            and abs(self.estimate - self.previous) <= self.tolerance

    def update(self, actual: float) -> float:
        """Move γ̂ one sign step toward ``actual`` (Eq. 4); return new γ̂.

        Then the step rule sets the next ``η`` and ``L``: the paper's
        shrinks the step to ``η₀ / L`` with ``L`` incremented when the new
        estimate returns to ``γ̂_{t−2}``. Returns the new estimate (also
        left in ``estimate``); whether this call oscillated is exposed as
        :attr:`shrank`.
        """
        diff = actual - self.estimate
        if abs(diff) <= _OSCILLATION_TOL:
            direction, new = 0.0, self.estimate
        else:
            direction = 1.0 if diff > 0 else -1.0
            new = min(1.0, max(0.0, self.estimate + self.step * direction))
        self.updates += 1
        self.shrank = (self.updates >= 2
                       and abs(new - self.previous) <= _OSCILLATION_TOL)
        self.step, self.counter = self.step_rule(
            self.updates, self.step, self.counter, self.shrank, direction)
        self.previous, self.estimate = self.estimate, new
        return new

    #: Whether the most recent :meth:`update` returned γ̂ to ``γ̂_{t−2}``
    #: (the paper's rule shrinks η to η₀/L then).
    shrank = False

    def retarget(self) -> None:
        """Re-open the stepper when the environment it settled in moves.

        A non-stationary workload (:mod:`repro.workload`) shifts the
        fixed point out from under a converged stepper: γ̂ sits still
        inside tolerance with the step size shrunk to ``η₀/L``, and a
        plain :meth:`update` would crawl toward the new γ* at that
        residual step. Retargeting restores the initial step ``η₀``,
        resets the shrink counter ``L``, and pushes the hidden previous
        estimate out of band so :attr:`converged` reads False until a
        fresh pair of estimates is inside tolerance again. The current
        estimate — the best available prior for the new equilibrium — is
        kept.
        """
        self.step = self.initial_step
        self.counter = 1
        # One-step sentinel: > any γ̂ ∈ [0, 1] + tolerance, so the stop
        # test (and the oscillation rule) cannot fire off stale history.
        self.previous = self.estimate + 1.0

    def decay(self, factor: float, floor: float = 0.0) -> float:
        """Shrink the step size out-of-band (graceful degradation).

        Used by the network coordinator when a broadcast round receives no
        reports at all: the estimate is held and the step decays, so a
        blacked-out edge drifts toward inaction instead of oscillating on
        stale information. Returns the new step.
        """
        self.step = max(floor, self.step * factor)
        return self.step


class UtilizationOracle(Protocol):
    """Anything that can report the edge utilisation for given thresholds."""

    def measure(self, thresholds: np.ndarray) -> float:
        """Return the actual utilisation ``γ`` induced by ``thresholds``."""


class AnalyticUtilizationOracle:
    """The closed-form ``J1`` of Eq. (6) — exact under exponential service.

    ``probe`` is a :class:`repro.core.kernels.ProbeState` of
    ``mean_field`` (what :func:`run_dtu` threads through its best
    responses): measuring that probe's last response then reduces its α
    column instead of re-gathering the tables. ``None`` for maps without
    one.
    """

    def __init__(self, mean_field: MeanFieldMap, probe=None):
        self.mean_field = mean_field
        self.probe = probe

    def measure(self, thresholds: np.ndarray) -> float:
        if self.probe is None:
            return self.mean_field.utilization(thresholds)
        return self.mean_field.utilization(thresholds, probe=self.probe)


@dataclass(frozen=True)
class DtuConfig:
    """Hyperparameters of Algorithm 1.

    The paper does not publish η₀ and ε; the defaults here converge in
    ≈20 iterations on the Section-IV settings, matching Figs. 5 and 7.
    """

    initial_step: float = 0.1          # η0 ∈ (0, 1]
    tolerance: float = 1e-2            # ε ∈ (0, 1)
    max_iterations: int = 500
    update_probability: float = 1.0    # < 1 → asynchronous updates (IV-B)
    seed: SeedLike = None              # drives the asynchronous coin flips
    record_thresholds: bool = False    # keep per-iteration threshold snapshots

    def __post_init__(self) -> None:
        check_unit_interval("initial_step", self.initial_step, open_left=True)
        check_unit_interval("tolerance", self.tolerance,
                            open_left=True, open_right=True)
        check_int_positive("max_iterations", self.max_iterations)
        check_unit_interval("update_probability", self.update_probability,
                            open_left=True)


@dataclass
class DtuTrace:
    """Per-iteration history (the series plotted in Figs. 4, 5 and 7)."""

    estimated_utilization: List[float] = field(default_factory=list)  # γ̂_t
    actual_utilization: List[float] = field(default_factory=list)     # γ_t
    step_sizes: List[float] = field(default_factory=list)             # η_t
    average_costs: List[float] = field(default_factory=list)
    thresholds: List[np.ndarray] = field(default_factory=list)

    def as_arrays(self) -> dict:
        return {
            "estimated_utilization": np.asarray(self.estimated_utilization),
            "actual_utilization": np.asarray(self.actual_utilization),
            "step_sizes": np.asarray(self.step_sizes),
            "average_costs": np.asarray(self.average_costs),
        }


@dataclass(frozen=True)
class DtuResult:
    """Final state of a DTU run."""

    estimated_utilization: float       # final γ̂
    actual_utilization: float          # final γ
    thresholds: np.ndarray             # final per-user thresholds
    iterations: int
    converged: bool
    trace: DtuTrace

    @property
    def average_cost(self) -> float:
        """Population-mean cost at the final iterate."""
        return self.trace.average_costs[-1]


def run_dtu(
    mean_field: MeanFieldMap,
    config: Optional[DtuConfig] = None,
    oracle: Optional[UtilizationOracle] = None,
    initial_estimate: float = 0.0,
    recorder: Optional[Recorder] = None,
) -> DtuResult:
    """Run Algorithm 1 on ``mean_field``.

    Parameters
    ----------
    mean_field:
        Provides the users' best responses to the broadcast estimate and
        the population cost bookkeeping.
    config:
        Hyperparameters; defaults follow :class:`DtuConfig`.
    oracle:
        Where the *actual* utilisation ``γ_t`` comes from. Defaults to the
        analytic ``J1``; pass a simulation-backed oracle for the paper's
        practical-settings experiments.
    initial_estimate:
        ``γ̂_0`` (paper uses 0; other starts exercise the γ̂ > γ* branch of
        Theorem 2, cf. Fig. 4b).
    recorder:
        Observability sink (see :mod:`repro.obs`). Defaults to the ambient
        recorder — the zero-overhead null recorder unless the caller opted
        in — so the γ̂ sequence is bit-identical with tracing off.

    A plain :class:`MeanFieldMap` is compiled into a
    :class:`repro.core.kernels.CompiledMeanField` before the loop —
    every iteration best-responds to a fresh γ̂, so the precompiled
    staircase pays for itself within a couple of iterations — and the
    default analytic oracle is built from the compiled map, so its Eq. 6
    measurements run off the α tables too. Subclasses and ready-made
    kernels pass through. Maps that offer a
    :meth:`~repro.core.meanfield.MeanFieldMap.probe_state` thread one
    probe through every best response: γ̂ keeps returning to estimates
    it already broadcast (answered with no search) and otherwise lands
    between two of them, where only users whose thresholds differ at
    those two are re-searched. The same probe goes to the default
    oracle and to the per-iteration ``average_cost`` record, which read
    its α/Q columns when the measured thresholds are the probe's last
    response (synchronous runs) and gather from the tables otherwise.
    The threshold trajectory is bit-identical to probe-less evaluation
    (pinned by the test suite).
    """
    config = config or DtuConfig()
    if type(mean_field) is MeanFieldMap:
        mean_field = mean_field.compile()
    # getattr: duck-typed stand-ins only need to provide best_response.
    probe_state = getattr(mean_field, "probe_state", None)
    probe = probe_state() if probe_state is not None else None
    oracle = oracle or AnalyticUtilizationOracle(mean_field, probe)
    check_unit_interval("initial_estimate", initial_estimate)
    rng = as_generator(config.seed)
    asynchronous = config.update_probability < 1.0
    obs = resolve_recorder(recorder)
    tracing = obs.enabled
    if tracing:
        obs.event(
            "dtu.start",
            initial_estimate=float(initial_estimate),
            initial_step=config.initial_step,
            tolerance=config.tolerance,
            max_iterations=config.max_iterations,
            update_probability=config.update_probability,
            n_users=mean_field.population.size,
        )

    trace = DtuTrace()
    # γ̂_{-1} = 1, γ̂_0 = initial_estimate (Algorithm 1, line 1).
    stepper = DtuStepper(
        initial_step=config.initial_step,
        tolerance=config.tolerance,
        initial_estimate=initial_estimate,
    )

    # Users start from the best response to the initial broadcast estimate;
    # the oracle then supplies γ_1.
    if probe is None:
        thresholds = mean_field.best_response(stepper.estimate).astype(float)
    else:
        thresholds = mean_field.best_response(
            stepper.estimate, probe=probe).astype(float)
    with obs.timer("dtu.oracle_measure_seconds"):
        actual = oracle.measure(thresholds)
    _record(trace, mean_field, stepper.estimate, actual, stepper.step,
            thresholds, config, probe)

    iterations = 0
    converged = False
    for t in range(1, config.max_iterations + 1):
        if stepper.converged:
            converged = True
            break
        iterations = t

        # --- Eq. (4) + step-size rule (lines 9–14), via the shared stepper.
        estimate = stepper.update(actual)
        if tracing and stepper.shrank:
            obs.event("dtu.oscillation", t=t, L=stepper.counter,
                      eta=stepper.step)

        # --- Eq. (5): users best-respond to the broadcast estimate.
        if probe is None:
            response = mean_field.best_response(estimate).astype(float)
        else:
            response = mean_field.best_response(
                estimate, probe=probe).astype(float)
        if asynchronous:
            updating = rng.random(thresholds.size) < config.update_probability
            thresholds = np.where(updating, response, thresholds)
        else:
            thresholds = response

        # --- Eq. (6): measure the actual utilisation of the new thresholds.
        with obs.timer("dtu.oracle_measure_seconds"):
            actual = oracle.measure(thresholds)

        _record(trace, mean_field, estimate, actual, stepper.step,
                thresholds, config, probe)
        if tracing:
            obs.count("dtu.iterations")
            obs.event("dtu.iteration", t=t, gamma_hat=estimate, gamma=actual,
                      eta=stepper.step, L=stepper.counter)

    if tracing:
        obs.gauge("dtu.gamma_hat", stepper.estimate)
        obs.gauge("dtu.gamma", actual)
        obs.event("dtu.done", iterations=iterations, converged=converged,
                  gamma_hat=stepper.estimate, gamma=actual, L=stepper.counter)
    return DtuResult(
        estimated_utilization=stepper.estimate,
        actual_utilization=actual,
        thresholds=thresholds,
        iterations=iterations,
        converged=converged,
        trace=trace,
    )


def _record(
    trace: DtuTrace,
    mean_field: MeanFieldMap,
    estimate: float,
    actual: float,
    step: float,
    thresholds: np.ndarray,
    config: DtuConfig,
    probe,
) -> None:
    trace.estimated_utilization.append(estimate)
    trace.actual_utilization.append(actual)
    trace.step_sizes.append(step)
    gamma = min(actual, 1.0)
    trace.average_costs.append(
        mean_field.average_cost(gamma, thresholds) if probe is None
        else mean_field.average_cost(gamma, thresholds, probe=probe))
    if config.record_thresholds:
        trace.thresholds.append(thresholds.copy())
