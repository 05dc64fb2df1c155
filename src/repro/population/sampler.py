"""Population configuration and sampling.

A :class:`PopulationConfig` bundles the five parameter distributions of the
system model (Section II) plus the per-user edge capacity ``c`` and the
trade-off weight; :func:`sample_population` draws ``n_users`` independent
profiles from it. The resulting :class:`Population` stores the parameters as
NumPy arrays so the best-response and mean-field computations can be fully
vectorised, while :meth:`Population.profiles` exposes the same users as
:class:`~repro.population.user.UserProfile` objects for the discrete-event
simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List

import numpy as np

from repro.population.distributions import Deterministic, Distribution
from repro.population.user import UserProfile
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_int_positive, check_positive


@dataclass(frozen=True)
class PopulationConfig:
    """Distributions generating a heterogeneous user population.

    Mirrors the model assumptions of Section II:

    * ``arrival`` ~ A with ``0 < A ≤ A_max`` (bounded, continuous);
    * ``service`` ~ S with ``S_min ≤ S ≤ S_max``;
    * ``latency`` ~ T with ``0 < T ≤ T_max``;
    * ``energy_local`` ~ P_L, ``energy_offload`` ~ P_E (bounded);
    * ``weight`` — the trade-off weight distribution (paper uses w_n = 1);
    * ``capacity`` — per-user edge service capacity ``c`` with ``A_max < c``.
    """

    arrival: Distribution
    service: Distribution
    latency: Distribution
    energy_local: Distribution
    energy_offload: Distribution
    capacity: float
    weight: Distribution = field(default_factory=lambda: Deterministic(1.0))

    def __post_init__(self) -> None:
        check_positive("capacity", self.capacity)
        a_low, a_high = self.arrival.support()
        if a_low < 0:
            raise ValueError("arrival-rate support must be non-negative")
        if math.isfinite(a_high) and a_high >= self.capacity:
            raise ValueError(
                f"the model requires A_max < c; got A_max={a_high} >= c={self.capacity}"
            )
        s_low, _ = self.service.support()
        if s_low <= 0:
            raise ValueError("service-rate support must be strictly positive")
        t_low, _ = self.latency.support()
        if t_low < 0:
            raise ValueError("offload-latency support must be non-negative")

    def describe(self) -> str:
        """One-line human-readable summary of the configuration."""
        return (
            f"A~{self.arrival!r}, S~{self.service!r}, T~{self.latency!r}, "
            f"PL~{self.energy_local!r}, PE~{self.energy_offload!r}, "
            f"w~{self.weight!r}, c={self.capacity:g}"
        )


class Population:
    """A sampled heterogeneous population with vectorised parameter arrays."""

    def __init__(
        self,
        arrival_rates: np.ndarray,
        service_rates: np.ndarray,
        offload_latencies: np.ndarray,
        energy_local: np.ndarray,
        energy_offload: np.ndarray,
        weights: np.ndarray,
        capacity: float,
    ):
        arrays = [
            np.asarray(arrival_rates, dtype=float),
            np.asarray(service_rates, dtype=float),
            np.asarray(offload_latencies, dtype=float),
            np.asarray(energy_local, dtype=float),
            np.asarray(energy_offload, dtype=float),
            np.asarray(weights, dtype=float),
        ]
        n = arrays[0].size
        if any(arr.ndim != 1 or arr.size != n for arr in arrays):
            raise ValueError("all parameter arrays must be 1-D with equal length")
        if n == 0:
            raise ValueError("population must contain at least one user")
        (self.arrival_rates, self.service_rates, self.offload_latencies,
         self.energy_local, self.energy_offload, self.weights) = arrays
        self.capacity = check_positive("capacity", capacity)
        if np.any(self.arrival_rates <= 0) or np.any(self.service_rates <= 0):
            raise ValueError("arrival and service rates must be strictly positive")
        if np.any(self.arrival_rates >= self.capacity):
            raise ValueError("every arrival rate must satisfy a_n < c")

    @property
    def size(self) -> int:
        return int(self.arrival_rates.size)

    def __len__(self) -> int:
        return self.size

    @property
    def intensities(self) -> np.ndarray:
        """Per-user arrival intensities ``θ_n = a_n / s_n``."""
        return self.arrival_rates / self.service_rates

    def offload_surcharges(self, edge_delay: float) -> np.ndarray:
        """Vector of ``g(γ) + τ_n + w_n (p_{n,E} − p_{n,L})``."""
        return (edge_delay + self.offload_latencies
                + self.weights * (self.energy_offload - self.energy_local))

    def profile(self, index: int) -> UserProfile:
        """Materialise user ``index`` as a :class:`UserProfile`."""
        return UserProfile(
            arrival_rate=float(self.arrival_rates[index]),
            service_rate=float(self.service_rates[index]),
            offload_latency=float(self.offload_latencies[index]),
            energy_local=float(self.energy_local[index]),
            energy_offload=float(self.energy_offload[index]),
            weight=float(self.weights[index]),
        )

    def profiles(self) -> Iterator[UserProfile]:
        """Iterate over all users as :class:`UserProfile` objects."""
        for i in range(self.size):
            yield self.profile(i)

    def subset(self, indices: np.ndarray) -> "Population":
        """Return the sub-population selected by ``indices``."""
        idx = np.asarray(indices)
        return Population(
            arrival_rates=self.arrival_rates[idx],
            service_rates=self.service_rates[idx],
            offload_latencies=self.offload_latencies[idx],
            energy_local=self.energy_local[idx],
            energy_offload=self.energy_offload[idx],
            weights=self.weights[idx],
            capacity=self.capacity,
        )

    @classmethod
    def from_profiles(cls, profiles: List[UserProfile], capacity: float) -> "Population":
        """Build a population from explicit :class:`UserProfile` objects."""
        if not profiles:
            raise ValueError("profiles must be non-empty")
        return cls(
            arrival_rates=np.array([p.arrival_rate for p in profiles]),
            service_rates=np.array([p.service_rate for p in profiles]),
            offload_latencies=np.array([p.offload_latency for p in profiles]),
            energy_local=np.array([p.energy_local for p in profiles]),
            energy_offload=np.array([p.energy_offload for p in profiles]),
            weights=np.array([p.weight for p in profiles]),
            capacity=capacity,
        )

    def __repr__(self) -> str:
        return (f"Population(n={self.size}, c={self.capacity:g}, "
                f"E[a]={self.arrival_rates.mean():.4g}, "
                f"E[s]={self.service_rates.mean():.4g})")


def sample_population(
    config: PopulationConfig,
    n_users: int,
    rng: SeedLike = None,
    max_resample_rounds: int = 100,
) -> Population:
    """Draw ``n_users`` independent users from ``config``.

    Arrival rates are resampled (not clipped) until every user satisfies the
    model constraints ``0 < a_n < c`` and ``s_n > 0``, which matters when an
    unbounded distribution (e.g. :class:`Empirical` of rates derived from
    measured data) is plugged in for a parameter the paper assumes bounded.
    """
    check_int_positive("n_users", n_users)
    gen = as_generator(rng)
    arrivals = _sample_constrained(
        config.arrival, n_users, gen,
        low=0.0, high=config.capacity, name="arrival",
        max_rounds=max_resample_rounds,
    )
    services = _sample_constrained(
        config.service, n_users, gen,
        low=0.0, high=math.inf, name="service",
        max_rounds=max_resample_rounds,
    )
    latencies = config.latency.sample_array(gen, n_users)
    p_local = config.energy_local.sample_array(gen, n_users)
    p_offload = config.energy_offload.sample_array(gen, n_users)
    weights = config.weight.sample_array(gen, n_users)
    return Population(
        arrival_rates=arrivals,
        service_rates=services,
        offload_latencies=latencies,
        energy_local=p_local,
        energy_offload=p_offload,
        weights=weights,
        capacity=config.capacity,
    )


def _sample_constrained(
    dist: Distribution,
    n: int,
    gen: np.random.Generator,
    low: float,
    high: float,
    name: str,
    max_rounds: int,
) -> np.ndarray:
    """Sample ``n`` values with open-interval constraint ``low < x < high``."""
    out = dist.sample_array(gen, n)
    for _ in range(max_rounds):
        bad = (out <= low) | (out >= high)
        n_bad = int(bad.sum())
        if n_bad == 0:
            return out
        out[bad] = dist.sample_array(gen, n_bad)
    raise RuntimeError(
        f"could not sample {name} rates inside ({low}, {high}) after "
        f"{max_rounds} resampling rounds; check the distribution support"
    )
