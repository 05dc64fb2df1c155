"""Fully-blind DTU: devices estimate their own rates while converging.

The last unrealistic assumption in the practical stack is that each device
*knows* its mean arrival and service rate. Here nothing is known up
front: every device starts from an uninformative prior, measures its own
traffic through the discrete-event simulator each DTU iteration, updates
its rate estimates, and best-responds with the *estimates*. The only
global signal remains the broadcast γ̂.

The experiment tracks, per iteration, the estimated/actual utilisation and
the population's median rate-estimation error — showing the two learning
processes (rates per device, γ̂ at the edge) converging together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dtu import DtuStepper
from repro.core.equilibrium import solve_mfne
from repro.core.estimation import EstimatedBestResponder
from repro.core.meanfield import MeanFieldMap
from repro.experiments.report import SeriesResult
from repro.experiments.settings import PAPER_G, theoretical_config
from repro.population.sampler import sample_population
from repro.simulation.measurement import MeasurementConfig
from repro.simulation.system import simulate_system, tro_policies
from repro.utils.rng import RngFactory


@dataclass
class LearningResult:
    series: SeriesResult
    gamma_star: float
    final_gap: float
    final_median_arrival_error: float
    final_median_service_error: float

    def __str__(self) -> str:
        return "\n".join([
            str(self.series),
            "",
            f"γ* (true rates) = {self.gamma_star:.4f}; final gap "
            f"{self.final_gap:.4f}; final median rate errors: arrival "
            f"{100 * self.final_median_arrival_error:.1f}%, service "
            f"{100 * self.final_median_service_error:.1f}%",
        ])


def run(
    n_users: int = 150,
    iterations: int = 25,
    window: float = 30.0,
    initial_step: float = 0.1,
    seed: int = 0,
    backend: str = "event",
) -> LearningResult:
    """Run blind DTU for ``iterations`` rounds of ``window`` time units.

    ``backend="vectorized"`` runs each measurement window through the
    uniformized-CTMC fast path (this experiment is fully Markovian), which
    makes much larger blind-DTU populations affordable.
    """
    factory = RngFactory(seed)
    population = sample_population(
        theoretical_config("E[A]<E[S]"), n_users,
        rng=factory.stream("population"),
    )
    mean_field = MeanFieldMap(population, PAPER_G)
    gamma_star = solve_mfne(mean_field).utilization

    responder = EstimatedBestResponder(population, prior_arrival=1.0,
                                       prior_service=2.0)
    seed_stream = factory.stream("windows")

    # Algorithm 1 with the estimation-aware best response.
    stepper = DtuStepper(initial_step=initial_step)
    thresholds = responder.best_response(stepper.estimate,
                                         PAPER_G(stepper.estimate))
    rows = []
    actual = 0.0
    for t in range(iterations):
        measurement = simulate_system(
            population,
            tro_policies(thresholds, population.size),
            MeasurementConfig(horizon=window, warmup=0.0,
                              seed=int(seed_stream.integers(0, 2**63 - 1))),
            backend=backend,
        )
        responder.observe(measurement.device_stats)
        actual = measurement.utilization
        a_err, s_err = responder.estimation_errors()
        rows.append((t, stepper.estimate, float(actual),
                     float(np.median(a_err)), float(np.median(s_err))))
        estimate = stepper.update(actual)
        thresholds = responder.best_response(estimate, PAPER_G(estimate))

    a_err, s_err = responder.estimation_errors()
    series = SeriesResult(
        name="Blind DTU — joint rate estimation and convergence",
        columns=("t", "gamma_hat", "gamma_measured",
                 "median |a err|", "median |s err|"),
        rows=rows,
        notes=(f"n_users={n_users}, window={window:g} per iteration; "
               "devices never see their true rates"),
    )
    return LearningResult(
        series=series,
        gamma_star=gamma_star,
        final_gap=abs(actual - gamma_star),
        final_median_arrival_error=float(np.median(a_err)),
        final_median_service_error=float(np.median(s_err)),
    )
