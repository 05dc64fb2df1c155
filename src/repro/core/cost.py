"""The per-user average cost function (paper Eq. 1).

For user ``n`` with threshold ``x`` and edge utilisation ``γ``::

    cost = w·p_L·(1 − α(x))  +  Q(x)/a  +  (w·p_E + g(γ) + τ)·α(x)

* ``w·p_L·(1 − α)`` — energy of locally processed tasks;
* ``Q(x)/a`` — per-task local delay: by Little's law the locally processed
  tasks wait ``Q/(a(1−α))`` on average and a task is local with probability
  ``1 − α``, so the delay contribution is exactly ``Q/a``;
* ``(w·p_E + g(γ) + τ)·α`` — offloaded tasks pay transmission energy, edge
  processing delay ``g(γ)``, and offloading latency ``τ``.

``edge_delay`` in this module is always the *evaluated* ``g(γ)`` so the cost
code stays independent of the edge-delay model (see
:mod:`repro.simulation.edge` for the ``g`` functions themselves).

:func:`arm_costs` prices one task on each arm instead of a threshold
policy: what a learning device (:class:`repro.net.actors.LearningDeviceAgent`)
compares when it cannot run Lemma 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.tro import queue_and_offload
from repro.population.sampler import Population
from repro.population.user import UserProfile
from repro.utils.validation import check_non_negative

ArrayLike = Union[float, np.ndarray]

#: Sojourn cap for an unstable keep-all queue (a_n ≥ s_n): the local arm
#: is priced as if the queue were this many service times deep.
_SOJOURN_CAP_SERVICES = 100.0


@dataclass(frozen=True)
class CostBreakdown:
    """The three additive components of Eq. (1), plus their total."""

    local_energy: float
    local_delay: float
    offload: float

    @property
    def total(self) -> float:
        return self.local_energy + self.local_delay + self.offload


def user_cost(profile: UserProfile, threshold: float, edge_delay: float) -> float:
    """Average cost (Eq. 1) of ``profile`` at ``threshold`` given ``g(γ)``."""
    return user_cost_components(profile, threshold, edge_delay).total


def user_cost_components(
    profile: UserProfile, threshold: float, edge_delay: float
) -> CostBreakdown:
    """Eq. (1) split into its three components."""
    check_non_negative("edge_delay", edge_delay)
    q, alpha = queue_and_offload(threshold, profile.intensity)
    return CostBreakdown(
        local_energy=profile.weight * profile.energy_local * (1.0 - alpha),
        local_delay=q / profile.arrival_rate,
        offload=(profile.weight * profile.energy_offload + edge_delay
                 + profile.offload_latency) * alpha,
    )


def population_costs(
    population: Population, thresholds: ArrayLike, edge_delay: float,
    *, queue_alpha: "Optional[Tuple[np.ndarray, np.ndarray]]" = None,
) -> np.ndarray:
    """Vector of per-user costs (Eq. 1) for the whole population.

    ``thresholds`` may be a scalar (same threshold for everyone) or an array
    with one entry per user. ``queue_alpha`` lets a caller that already
    holds the exact per-user ``(Q_n, α_n)`` at these thresholds (the
    compiled kernel's tables) skip the closed-form re-derivation; the cost
    combination below is shared either way.
    """
    check_non_negative("edge_delay", edge_delay)
    if queue_alpha is None:
        x = np.broadcast_to(np.asarray(thresholds, dtype=float),
                            (population.size,))
        q, alpha = queue_and_offload(x, population.intensities)
    else:
        q, alpha = queue_alpha
    local_energy = population.weights * population.energy_local * (1.0 - alpha)
    local_delay = q / population.arrival_rates
    offload = (population.weights * population.energy_offload + edge_delay
               + population.offload_latencies) * alpha
    return local_energy + local_delay + offload


def population_average_cost(
    population: Population, thresholds: ArrayLike, edge_delay: float,
    *, queue_alpha: "Optional[Tuple[np.ndarray, np.ndarray]]" = None,
) -> float:
    """Population-mean of Eq. (1) — the quantity Table III compares."""
    return float(population_costs(
        population, thresholds, edge_delay, queue_alpha=queue_alpha).mean())


def arm_costs(
    edge_delay: float,
    offload_latency: float,
    weight: float,
    energy_local: float,
    energy_offload: float,
    arrival_rate: float,
    service_rate: float,
) -> Tuple[float, float]:
    """``(local, offload)`` per-task costs at edge delay ``g(γ̂)``.

    * offload: ``g(γ̂) + τ_n + w_n·p_n^E`` — the Eq. 3 surcharge a
      Lemma-1 device compares against its queue;
    * local: ``w_n·p_n^L + 1/(s_n − a_n)`` — energy plus the stationary
      M/M/1 sojourn if the device kept *everything* (capped when
      a_n ≥ s_n, where keep-all is unstable and the cost is effectively
      infinite).

    ``edge_delay`` is ``g(γ̂)`` — already evaluated, so policies need no
    delay-model reference. Pure and rng-free.
    """
    offload = edge_delay + offload_latency + weight * energy_offload
    slack = service_rate - arrival_rate
    floor = service_rate / _SOJOURN_CAP_SERVICES
    sojourn = 1.0 / max(slack, floor)
    local = weight * energy_local + sojourn
    return local, offload
