"""Edge-case battery across subsystems.

Boundary inputs that unit tests organised by module tend to miss: exact
integer thresholds, single-user populations, degenerate distributions,
events landing exactly on simulation boundaries.
"""

import numpy as np
import pytest

from repro.core.best_response import best_response_thresholds, optimal_threshold
from repro.core.dtu import DtuConfig, run_dtu
from repro.core.equilibrium import solve_mfne
from repro.core.meanfield import MeanFieldMap
from repro.core.tro import queue_and_offload
from repro.net.clock import Runtime
from repro.population.distributions import Deterministic, Exponential, Uniform
from repro.population.sampler import Population, PopulationConfig, sample_population
from repro.population.user import UserProfile
from repro.simulation.device import TroAdmission, simulate_device


class TestSingleUserSystems:
    @pytest.fixture
    def lone_population(self):
        return Population(
            arrival_rates=np.array([2.0]),
            service_rates=np.array([1.5]),
            offload_latencies=np.array([0.5]),
            energy_local=np.array([1.0]),
            energy_offload=np.array([0.3]),
            weights=np.array([1.0]),
            capacity=5.0,
        )

    def test_mfne_with_one_user(self, lone_population):
        result = solve_mfne(MeanFieldMap(lone_population))
        assert result.converged
        assert 0.0 <= result.utilization < 1.0

    def test_dtu_with_one_user(self, lone_population):
        result = run_dtu(MeanFieldMap(lone_population), DtuConfig())
        assert result.converged


class TestDegenerateDistributions:
    def test_homogeneous_population(self):
        """All-Deterministic parameters: the homogeneous special case of
        [20] that the paper generalises."""
        config = PopulationConfig(
            arrival=Deterministic(2.0),
            service=Deterministic(1.0),
            latency=Deterministic(0.5),
            energy_local=Deterministic(1.0),
            energy_offload=Deterministic(0.2),
            capacity=5.0,
        )
        population = sample_population(config, 100, rng=0)
        mean_field = MeanFieldMap(population)
        gamma_star = solve_mfne(mean_field).utilization
        thresholds = mean_field.best_response(gamma_star)
        # Homogeneous users all play the same threshold.
        assert len(set(thresholds.tolist())) == 1

    def test_threshold_exactly_at_integer_boundary(self):
        """x = k exactly: the randomized state has probability 0 but the
        formulas must agree with the k-buffer system."""
        q_int, a_int = queue_and_offload(3.0, 1.3)
        q_just_below, a_just_below = queue_and_offload(3.0 - 1e-12, 1.3)
        assert q_int == pytest.approx(q_just_below, abs=1e-9)
        assert a_int == pytest.approx(a_just_below, abs=1e-9)


class TestExtremeParameters:
    def test_tiny_arrival_rate(self):
        profile = UserProfile(arrival_rate=1e-6, service_rate=1.0,
                              offload_latency=0.5, energy_local=1.0,
                              energy_offload=0.3)
        # Nearly idle device: Lemma 1 still returns a finite threshold.
        assert optimal_threshold(profile, edge_delay=1.0) >= 0

    def test_huge_surcharge_threshold_is_finite(self):
        profile = UserProfile(arrival_rate=0.5, service_rate=5.0,
                              offload_latency=1000.0, energy_local=0.1,
                              energy_offload=0.1)
        threshold = optimal_threshold(profile, edge_delay=1.0)
        assert 0 < threshold < 10_000_000

    def test_population_with_extreme_theta_spread(self):
        population = Population(
            arrival_rates=np.array([0.01, 4.9]),
            service_rates=np.array([10.0, 0.1]),    # θ = 0.001 and 49
            offload_latencies=np.array([0.1, 0.1]),
            energy_local=np.array([1.0, 1.0]),
            energy_offload=np.array([0.5, 0.5]),
            weights=np.array([1.0, 1.0]),
            capacity=5.0,
        )
        thresholds = best_response_thresholds(population, 1.0)
        assert thresholds.shape == (2,)
        result = solve_mfne(MeanFieldMap(population))
        assert result.converged


class TestSimulationBoundaries:
    def test_event_exactly_at_horizon_runs(self):
        runtime = Runtime()
        fired = []
        runtime.call_at(10.0, lambda: fired.append("at"))
        runtime.call_at(10.5, lambda: fired.append("after"))
        runtime.run((), until=10.0)
        # run(until=h) executes events with time <= h — document by test.
        assert fired == ["at"]

    def test_zero_warmup_device(self):
        stats = simulate_device(1.0, Exponential(1.0), TroAdmission(2.0),
                                horizon=50.0, rng=0, warmup=0.0)
        assert stats.observation_time == 50.0

    def test_fractional_threshold_just_below_one(self):
        """x = 0.999…: the device admits only into an empty queue, and only
        with probability ≈ 1."""
        stats = simulate_device(2.0, Exponential(2.0), TroAdmission(0.999),
                                horizon=2000.0, rng=1, warmup=100.0)
        q_cf, a_cf = queue_and_offload(0.999, 1.0)
        assert stats.time_avg_queue == pytest.approx(q_cf, abs=0.05)
        assert stats.offload_fraction == pytest.approx(a_cf, abs=0.03)

    def test_capacity_barely_above_amax(self):
        config = PopulationConfig(
            arrival=Uniform(0.0, 4.0),
            service=Uniform(1.0, 5.0),
            latency=Uniform(0.0, 1.0),
            energy_local=Uniform(0.0, 3.0),
            energy_offload=Uniform(0.0, 1.0),
            capacity=4.0 + 1e-9,
        )
        population = sample_population(config, 300, rng=0)
        result = solve_mfne(MeanFieldMap(population))
        assert result.converged
        assert result.utilization < 1.0
