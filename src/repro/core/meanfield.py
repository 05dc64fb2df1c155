"""The mean-field best-response map ``V(γ)`` (paper Eq. 9).

The paper analyses two coupled mappings:

* ``J1 : (x_n) → γ`` — given everyone's thresholds, the induced edge
  utilisation is ``γ = Σ_n a_n α_n(x_n) / (N c)``;
* ``J2 : γ → (x_n)`` — given the utilisation, every user plays its Lemma-1
  best response.

Their composition restricted to a sampled population,

    V(γ) = (1 / N c) Σ_n a_n α(x*_n(γ)),

is the empirical version of Eq. (9); by the strong law of large numbers it
converges to the expectation form as ``N → ∞``. :class:`MeanFieldMap`
packages a population together with an edge-delay model and exposes
``J1``, ``J2``, ``V`` and the induced population cost; the MFNE solver and
the DTU algorithm both operate on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.best_response import best_response_thresholds
from repro.core.cost import population_average_cost, population_costs
from repro.core.edge_delay import PAPER_DELAY_MODEL, EdgeDelayModel
from repro.core.tro import queue_and_offload
from repro.obs.context import get_recorder
from repro.population.sampler import Population, PopulationConfig, sample_population
from repro.utils.rng import SeedLike
from repro.utils.validation import check_probability

ArrayLike = Union[float, np.ndarray]


class MeanFieldMap:
    """``V(γ)`` and its two constituent mappings over a sampled population."""

    def __init__(
        self,
        population: Population,
        delay_model: Optional[EdgeDelayModel] = None,
    ):
        self.population = population
        self.delay_model = delay_model if delay_model is not None else PAPER_DELAY_MODEL

    def edge_delay(self, utilization: float) -> float:
        """Evaluate ``g(γ)``."""
        return self.delay_model(utilization)

    def best_response(self, utilization: float) -> np.ndarray:
        """``J2``: every user's Lemma-1 optimal threshold at ``γ``."""
        gamma = check_probability("utilization", utilization)
        return best_response_thresholds(self.population, self.edge_delay(gamma))

    def utilization(self, thresholds: ArrayLike) -> float:
        """``J1``: the edge utilisation induced by ``thresholds`` (Eq. 6)."""
        pop = self.population
        x = np.broadcast_to(np.asarray(thresholds, dtype=float), (pop.size,))
        _, alpha = queue_and_offload(x, pop.intensities)
        return float((pop.arrival_rates * alpha).mean() / pop.capacity)

    def offload_probabilities(self, thresholds: ArrayLike) -> np.ndarray:
        """Per-user ``α_n(x_n)`` for given thresholds."""
        pop = self.population
        x = np.broadcast_to(np.asarray(thresholds, dtype=float), (pop.size,))
        _, alpha = queue_and_offload(x, pop.intensities)
        return alpha

    def value(self, utilization: float) -> float:
        """The best-response map ``V(γ) = J1(J2(γ))`` (Eq. 9)."""
        obs = get_recorder()
        if not obs.enabled:
            return self.utilization(self.best_response(utilization))
        with obs.timer("meanfield.value_seconds"):
            result = self.utilization(self.best_response(utilization))
        obs.count("meanfield.value_evaluations")
        obs.observe("meanfield.value", result)
        return result

    def average_cost(
        self, utilization: float, thresholds: Optional[ArrayLike] = None
    ) -> float:
        """Population-mean cost (Eq. 1) at utilisation ``γ``.

        With ``thresholds=None`` each user plays its best response to ``γ``
        (the cost at an equilibrium candidate); otherwise the given
        thresholds are evaluated as-is.
        """
        gamma = check_probability("utilization", utilization)
        if thresholds is None:
            thresholds = self.best_response(gamma)
        return population_average_cost(
            self.population, thresholds, self.edge_delay(gamma)
        )

    def user_costs(self, utilization: float, thresholds: ArrayLike) -> np.ndarray:
        """Per-user costs (Eq. 1) at utilisation ``γ``."""
        gamma = check_probability("utilization", utilization)
        return population_costs(self.population, thresholds, self.edge_delay(gamma))

    def compile(self) -> "MeanFieldMap":
        """Compile this map into a :class:`repro.core.kernels.CompiledMeanField`.

        The compiled map precomputes the Lemma-1 staircase breakpoints and
        the Eq. 7/8 tables once, making every subsequent ``value`` /
        ``best_response`` probe ``O(N log m_max)`` instead of
        ``O(N·m_max)`` — bit-identical results, same API.
        """
        from repro.core.kernels import CompiledMeanField

        return CompiledMeanField(self.population, self.delay_model)

    def probe_state(self):
        """Bracketing state for threshold probes, if this map supports it.

        The uncompiled map (and subclasses that do not opt in) return
        ``None``; :class:`repro.core.kernels.CompiledMeanField` returns a
        :class:`~repro.core.kernels.ProbeState` the solvers can thread
        through consecutive ``best_response``/``value`` calls (and the
        ``utilization``/cost calls on their responses). Callers must pass
        ``probe=`` only when this returned non-``None``.
        """
        return None

    def __repr__(self) -> str:
        return (f"MeanFieldMap(n={self.population.size}, "
                f"c={self.population.capacity:g}, delay={self.delay_model!r})")


@dataclass(frozen=True)
class MonteCarloValue:
    """``V(γ)`` evaluated over independently sampled populations.

    The paper's Eq. (9) is an expectation; any finite population gives one
    empirical realisation. This result summarises the sampling distribution
    of the empirical ``V(γ)`` — the quantity whose ``N → ∞`` concentration
    the strong-law argument of Section III relies on.
    """

    utilization: float          # the γ the map was evaluated at
    values: np.ndarray          # empirical V(γ), one per sampled population
    n_users: int
    samples: int

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        return float(self.values.std(ddof=1)) if self.samples > 1 else 0.0

    @property
    def standard_error(self) -> float:
        return self.std / float(np.sqrt(self.samples))

    def __str__(self) -> str:
        return (f"V({self.utilization:g}) = {self.mean:.6f} "
                f"± {self.standard_error:.2e} "
                f"({self.samples} populations × {self.n_users} users)")


def _mc_value_point(
    config: PopulationConfig,
    utilization: float,
    n_users: int,
    delay_model: Optional[EdgeDelayModel],
    seed: SeedLike,
) -> float:
    """One Monte-Carlo sample of the empirical ``V(γ)`` (a runtime task).

    One ``V(γ)`` per sampled population runs on the reference map: a
    kernel build pays off only over several γ.
    """
    population = sample_population(config, n_users, rng=seed)
    return MeanFieldMap(population, delay_model).value(utilization)


def monte_carlo_value(
    config: PopulationConfig,
    utilization: float,
    n_users: int = 1000,
    samples: int = 32,
    seed: SeedLike = 0,
    delay_model: Optional[EdgeDelayModel] = None,
    jobs: int = 1,
    cache: Optional[object] = None,
    timeout: Optional[float] = None,
) -> MonteCarloValue:
    """Evaluate ``V(γ)`` over ``samples`` independently drawn populations.

    Fans out over :class:`repro.runtime.TaskRunner`: population *i* is
    always sampled from the *i*-th spawned child of ``seed`` (see
    :func:`repro.runtime.derive_seeds`), so the returned values are
    bit-identical for any ``jobs`` count; ``cache`` makes repeated
    evaluations (e.g. plotting ``V`` on a γ grid, convergence studies in
    ``N``) incremental.
    """
    from repro.runtime import TaskRunner, TaskSpec, derive_seeds

    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    gamma = check_probability("utilization", utilization)
    specs = [
        TaskSpec(
            fn=_mc_value_point,
            kwargs=dict(config=config, utilization=gamma, n_users=n_users,
                        delay_model=delay_model),
            seed=child,
            name=f"meanfield.mc[{index}]",
        )
        for index, child in enumerate(derive_seeds(seed, samples))
    ]
    runner = TaskRunner(jobs=jobs, cache=cache, timeout=timeout)
    values = np.array([result.unwrap() for result in runner.run(specs)])
    obs = get_recorder()
    if obs.enabled:
        obs.count("meanfield.mc_evaluations")
        obs.event("meanfield.monte_carlo", utilization=gamma,
                  samples=samples, n_users=n_users,
                  mean=float(values.mean()))
    return MonteCarloValue(
        utilization=gamma, values=values, n_users=n_users, samples=samples,
    )
