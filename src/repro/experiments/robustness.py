"""Robustness experiments: DTU under real-world imperfections.

Section IV-B shows DTU surviving asynchronous updates and measured service
times. These experiments push further along three axes a deployment would
actually face:

* :func:`noise_sweep` — the utilisation report γ_t is noisy (short
  measurement windows): how much noise can DTU absorb before its final
  accuracy degrades?
* :func:`churn_sweep` — devices join and leave: each iteration a fraction
  of users is replaced by fresh draws from the same distributions. The
  *population* equilibrium is unchanged, so DTU should keep tracking it.
* :func:`staleness_sweep` — the broadcast γ̂ reaches devices ``d``
  iterations late (network propagation): users best-respond to γ̂_{t−d}.

Each function returns a :class:`~repro.experiments.report.SeriesResult`
with the final |γ − γ*| per stress level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.dtu import AnalyticUtilizationOracle, DtuConfig, run_dtu
from repro.core.equilibrium import solve_mfne
from repro.core.meanfield import MeanFieldMap
from repro.experiments.report import SeriesResult
from repro.experiments.settings import PAPER_G, theoretical_config
from repro.population.sampler import Population, PopulationConfig, sample_population
from repro.utils.rng import RngFactory


class NoisyOracle:
    """Wraps an oracle, adding i.i.d. Gaussian noise to each report."""

    def __init__(self, inner, sigma: float, rng: np.random.Generator):
        self.inner = inner
        self.sigma = sigma
        self.rng = rng

    def measure(self, thresholds: np.ndarray) -> float:
        noise = self.rng.normal(0.0, self.sigma) if self.sigma > 0 else 0.0
        return float(np.clip(self.inner.measure(thresholds) + noise, 0.0, 1.0))


def noise_sweep(
    sigmas: tuple = (0.0, 0.005, 0.01, 0.02, 0.05),
    n_users: int = 5000,
    seed: int = 0,
) -> SeriesResult:
    """DTU's final accuracy versus utilisation-measurement noise."""
    factory = RngFactory(seed)
    population = sample_population(
        theoretical_config("E[A]<E[S]"), n_users,
        rng=factory.stream("population"),
    )
    mean_field = MeanFieldMap(population, PAPER_G)
    gamma_star = solve_mfne(mean_field).utilization

    rows: List[tuple] = []
    for sigma in sigmas:
        oracle = NoisyOracle(
            AnalyticUtilizationOracle(mean_field), sigma,
            factory.stream(f"noise/{sigma}"),
        )
        result = run_dtu(mean_field, DtuConfig(), oracle=oracle)
        # Judge by the *noise-free* utilisation of the final thresholds.
        final_gamma = mean_field.utilization(result.thresholds)
        rows.append((float(sigma), result.iterations,
                     abs(final_gamma - gamma_star), result.converged))
    return SeriesResult(
        name="Robustness — utilisation measurement noise",
        columns=("sigma", "iterations", "final_gap", "converged"),
        rows=rows,
        notes=f"γ* = {gamma_star:.4f}; noise is N(0, σ²) per report, clipped",
    )


def _replace_users(
    population: Population,
    config: PopulationConfig,
    fraction: float,
    rng: np.random.Generator,
) -> Population:
    """Return a copy of ``population`` with a random fraction re-drawn."""
    n = population.size
    n_replace = int(round(fraction * n))
    if n_replace == 0:
        return population
    fresh = sample_population(config, n_replace, rng=rng)
    indices = rng.choice(n, size=n_replace, replace=False)
    arrays = {
        "arrival_rates": population.arrival_rates.copy(),
        "service_rates": population.service_rates.copy(),
        "offload_latencies": population.offload_latencies.copy(),
        "energy_local": population.energy_local.copy(),
        "energy_offload": population.energy_offload.copy(),
        "weights": population.weights.copy(),
    }
    for name, values in arrays.items():
        values[indices] = getattr(fresh, name)
    return Population(capacity=population.capacity, **arrays)


class ChurningMeanFieldMap(MeanFieldMap):
    """A mean-field map whose population partially turns over per response.

    Each ``best_response`` call first replaces a random ``churn`` fraction
    of users with fresh draws from the generating distributions — modelling
    devices leaving and joining between DTU iterations while the
    *population law* (and hence the MFNE) stays fixed.
    """

    def __init__(self, population, config: PopulationConfig, churn: float,
                 rng: np.random.Generator, delay_model=None):
        super().__init__(population, delay_model)
        self.config = config
        self.churn = churn
        self.rng = rng

    def best_response(self, utilization: float) -> np.ndarray:
        self.population = _replace_users(
            self.population, self.config, self.churn, self.rng
        )
        return super().best_response(utilization)


def churn_sweep(
    churn_rates: tuple = (0.0, 0.05, 0.1, 0.25, 0.5),
    n_users: int = 5000,
    seed: int = 0,
) -> SeriesResult:
    """DTU while a fraction of devices is replaced every iteration."""
    factory = RngFactory(seed)
    config = theoretical_config("E[A]<E[S]")
    base = sample_population(config, n_users, rng=factory.stream("population"))
    gamma_star = solve_mfne(MeanFieldMap(base, PAPER_G)).utilization

    rows: List[tuple] = []
    for churn in churn_rates:
        mean_field = ChurningMeanFieldMap(
            base, config, churn, factory.stream(f"churn/{churn}"), PAPER_G
        )
        result = run_dtu(mean_field, DtuConfig())
        final_gamma = mean_field.utilization(result.thresholds)
        rows.append((float(churn), result.iterations,
                     abs(final_gamma - gamma_star), result.converged))
    return SeriesResult(
        name="Robustness — per-iteration device churn",
        columns=("churn_fraction", "iterations", "final_gap", "converged"),
        rows=rows,
        notes=(f"γ* (population law) = {gamma_star:.4f}; churn replaces "
               "users with fresh draws from the same distributions"),
    )


class StaleBroadcastMap(MeanFieldMap):
    """A mean-field map whose users hear every γ̂ broadcast late.

    :func:`~repro.core.dtu.run_dtu` asks for the best response to γ̂_0
    and then to each new γ̂_t; this map keeps the broadcasts and answers
    γ̂_{max(t−delay, 0)} instead — the propagation delay between the edge
    and its users, measured in DTU iterations.
    """

    def __init__(self, mean_field: MeanFieldMap, delay: int):
        super().__init__(mean_field.population, mean_field.delay_model)
        self.delay = delay
        self.broadcasts: List[float] = []

    def best_response(self, utilization: float) -> np.ndarray:
        self.broadcasts.append(utilization)
        t = len(self.broadcasts) - 1
        return super().best_response(self.broadcasts[max(t - self.delay, 0)])


def run_dtu_with_stale_broadcast(
    mean_field: MeanFieldMap,
    delay: int,
    config: Optional[DtuConfig] = None,
) -> dict:
    """Algorithm 1, but users receive γ̂ ``delay`` iterations late.

    The edge updates γ̂_t as usual, but thresholds at iteration t
    best-respond to γ̂_{max(t−delay, 0)} (see :class:`StaleBroadcastMap`).
    """
    if delay < 0:
        raise ValueError("delay must be >= 0")
    result = run_dtu(StaleBroadcastMap(mean_field, delay), config)
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "final_actual": result.actual_utilization,
        "estimates": result.trace.estimated_utilization,
    }


def staleness_sweep(
    delays: tuple = (0, 1, 2, 5),
    n_users: int = 5000,
    seed: int = 0,
) -> SeriesResult:
    """DTU when the γ̂ broadcast arrives ``d`` iterations late."""
    population = sample_population(
        theoretical_config("E[A]<E[S]"), n_users, rng=seed
    )
    mean_field = MeanFieldMap(population, PAPER_G)
    gamma_star = solve_mfne(mean_field).utilization

    rows: List[tuple] = []
    for delay in delays:
        outcome = run_dtu_with_stale_broadcast(mean_field, delay)
        rows.append((delay, outcome["iterations"],
                     abs(outcome["final_actual"] - gamma_star),
                     outcome["converged"]))
    return SeriesResult(
        name="Robustness — stale γ̂ broadcasts",
        columns=("delay", "iterations", "final_gap", "converged"),
        rows=rows,
        notes=f"γ* = {gamma_star:.4f}; delay in DTU iterations",
    )


def burstiness_sweep(
    cvs: tuple = (0.5, 1.0, 2.0),
    n_users: int = 150,
    seed: int = 0,
) -> SeriesResult:
    """DTU with non-Poisson (gamma-renewal) arrival processes.

    The theory assumes Poisson arrivals; here each device's arrivals are a
    gamma renewal process with interarrival coefficient of variation
    ``cv`` (cv = 1 is Poisson-like, cv > 1 bursty, cv < 1 regular) and the
    actual utilisation is DES-measured. Burstier arrivals shift the true
    offload fractions, so the relevant check is that DTU still *converges*
    and lands near the Poisson-theory γ* — with a gap that grows with the
    burstiness mismatch.
    """
    from repro.simulation.measurement import MeasurementConfig, RenewalArrivals
    from repro.simulation.system import SimulatedUtilizationOracle

    factory = RngFactory(seed)
    population = sample_population(
        theoretical_config("E[A]<E[S]"), n_users,
        rng=factory.stream("population"),
    )
    mean_field = MeanFieldMap(population, PAPER_G)
    gamma_star = solve_mfne(mean_field).utilization

    rows: List[tuple] = []
    for cv in cvs:
        oracle = SimulatedUtilizationOracle(
            population,
            config=MeasurementConfig(horizon=80.0, warmup=20.0,
                                     seed=factory.stream(f"cv/{cv}")),
            delay_model=PAPER_G,
            arrival_model=RenewalArrivals(cv=cv),
        )
        result = run_dtu(mean_field, DtuConfig(), oracle=oracle)
        rows.append((float(cv), result.iterations,
                     abs(result.actual_utilization - gamma_star),
                     result.converged))
    return SeriesResult(
        name="Robustness — non-Poisson (gamma-renewal) arrivals",
        columns=("interarrival_cv", "iterations", "final_gap", "converged"),
        rows=rows,
        notes=(f"γ* (Poisson theory) = {gamma_star:.4f}; "
               "utilisation DES-measured under renewal arrivals"),
    )


@dataclass
class RobustnessSuite:
    results: List[SeriesResult]

    def __str__(self) -> str:
        return "\n\n".join(str(result) for result in self.results)


def run(n_users: int = 2000, seed: int = 0) -> RobustnessSuite:
    """Run the full robustness battery."""
    return RobustnessSuite(results=[
        noise_sweep(n_users=n_users, seed=seed),
        churn_sweep(n_users=n_users, seed=seed),
        staleness_sweep(n_users=n_users, seed=seed),
        burstiness_sweep(n_users=min(n_users, 150), seed=seed),
    ])
