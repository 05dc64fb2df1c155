"""Tests for repro.experiments.robustness."""

import numpy as np
import pytest

from repro.core.dtu import AnalyticUtilizationOracle, DtuConfig
from repro.core.equilibrium import solve_mfne
from repro.core.meanfield import MeanFieldMap
from repro.experiments import robustness
from repro.experiments.settings import PAPER_G, theoretical_config
from repro.population.sampler import sample_population


class TestNoisyOracle:
    def test_zero_sigma_is_exact(self, mean_field):
        inner = AnalyticUtilizationOracle(mean_field)
        noisy = robustness.NoisyOracle(inner, 0.0, np.random.default_rng(0))
        thresholds = mean_field.best_response(0.2).astype(float)
        assert noisy.measure(thresholds) == inner.measure(thresholds)

    def test_noise_clipped_to_unit_interval(self, mean_field):
        inner = AnalyticUtilizationOracle(mean_field)
        noisy = robustness.NoisyOracle(inner, 5.0, np.random.default_rng(1))
        thresholds = mean_field.best_response(0.2).astype(float)
        values = [noisy.measure(thresholds) for _ in range(50)]
        assert all(0.0 <= v <= 1.0 for v in values)


class TestNoiseSweep:
    def test_converges_across_levels(self):
        result = robustness.noise_sweep(sigmas=(0.0, 0.02), n_users=800,
                                        seed=0)
        assert all(result.column("converged"))
        assert all(gap < 0.02 for gap in result.column("final_gap"))


class TestChurn:
    def test_replace_users_preserves_size_and_capacity(self):
        config = theoretical_config("E[A]<E[S]")
        population = sample_population(config, 200, rng=0)
        replaced = robustness._replace_users(
            population, config, 0.3, np.random.default_rng(1)
        )
        assert replaced.size == population.size
        assert replaced.capacity == population.capacity
        changed = (replaced.arrival_rates != population.arrival_rates).sum()
        assert 30 <= changed <= 60      # exactly 60 slots redrawn, some may tie

    def test_zero_churn_is_identity(self):
        config = theoretical_config("E[A]<E[S]")
        population = sample_population(config, 100, rng=0)
        replaced = robustness._replace_users(
            population, config, 0.0, np.random.default_rng(1)
        )
        assert replaced is population

    def test_churning_map_converges(self):
        result = robustness.churn_sweep(churn_rates=(0.0, 0.25), n_users=800,
                                        seed=0)
        assert all(result.column("converged"))
        assert all(gap < 0.03 for gap in result.column("final_gap"))


class TestStaleness:
    def test_stale_loop_matches_fresh_dtu_at_zero_delay(self):
        population = sample_population(theoretical_config("E[A]<E[S]"),
                                       600, rng=2)
        mean_field = MeanFieldMap(population, PAPER_G)
        gamma_star = solve_mfne(mean_field).utilization
        outcome = robustness.run_dtu_with_stale_broadcast(
            mean_field, delay=0, config=DtuConfig()
        )
        assert outcome["converged"]
        assert outcome["final_actual"] == pytest.approx(gamma_star, abs=0.01)

    def test_delayed_broadcast_still_converges(self):
        result = robustness.staleness_sweep(delays=(0, 3), n_users=600,
                                            seed=0)
        assert all(result.column("converged"))
        assert all(gap < 0.02 for gap in result.column("final_gap"))

    @pytest.mark.parametrize("delay", [1, 2])
    def test_users_answer_the_broadcast_delay_iterations_back(
            self, mean_field, monkeypatch, delay):
        """Iteration t's thresholds best-respond to γ̂_{max(t−d, 0)}."""
        answered = []
        respond = MeanFieldMap.best_response

        def recording(self, utilization):
            answered.append(utilization)
            return respond(self, utilization)

        monkeypatch.setattr(MeanFieldMap, "best_response", recording)
        outcome = robustness.run_dtu_with_stale_broadcast(mean_field, delay)
        estimates = outcome["estimates"]
        assert outcome["iterations"] >= 4
        assert answered == [estimates[max(t - delay, 0)]
                            for t in range(len(estimates))]

    def test_negative_delay_rejected(self, mean_field):
        with pytest.raises(ValueError):
            robustness.run_dtu_with_stale_broadcast(mean_field, delay=-1)


class TestSuite:
    def test_run_all(self):
        suite = robustness.run(n_users=500, seed=0)
        assert len(suite.results) == 4
        text = str(suite)
        assert "noise" in text and "churn" in text and "stale" in text
        assert "renewal" in text


class TestBurstiness:
    def test_renewal_arrival_model(self):
        from repro.simulation.measurement import PoissonArrivals, RenewalArrivals
        assert PoissonArrivals().interarrival(2.0) is None
        dist = RenewalArrivals(cv=2.0).interarrival(2.0)
        assert dist.mean() == pytest.approx(0.5, rel=1e-9)
        # CV preserved: var = (cv·mean)² for a gamma renewal.
        assert dist.variance() == pytest.approx((2.0 * 0.5) ** 2, rel=1e-9)

    def test_cv_one_matches_poisson_statistics(self):
        """A cv=1 gamma renewal IS Poisson; DES stats must agree."""
        from repro.population.distributions import Exponential
        from repro.simulation.device import TroAdmission, simulate_device
        from repro.simulation.measurement import RenewalArrivals
        poisson = simulate_device(2.0, Exponential(1.0), TroAdmission(3.0),
                                  horizon=4000.0, rng=0, warmup=200.0)
        renewal = simulate_device(
            2.0, Exponential(1.0), TroAdmission(3.0), horizon=4000.0,
            rng=1, warmup=200.0,
            interarrival=RenewalArrivals(cv=1.0).interarrival(2.0),
        )
        assert renewal.offload_fraction == pytest.approx(
            poisson.offload_fraction, abs=0.03
        )

    def test_bursty_arrivals_offload_more(self):
        """cv > 1 clumps arrivals, filling the buffer more often, so the
        measured offload fraction exceeds the Poisson prediction."""
        from repro.core.tro import offload_probability
        from repro.population.distributions import Exponential
        from repro.simulation.device import TroAdmission, simulate_device
        from repro.simulation.measurement import RenewalArrivals
        a, s, x = 1.5, 1.0, 3.0
        bursty = simulate_device(
            a, Exponential(s), TroAdmission(x), horizon=6000.0, rng=2,
            warmup=300.0,
            interarrival=RenewalArrivals(cv=3.0).interarrival(a),
        )
        poisson_alpha = offload_probability(x, a / s)
        assert bursty.offload_fraction > poisson_alpha + 0.03

    def test_sweep_converges(self):
        result = robustness.burstiness_sweep(cvs=(1.0, 2.0), n_users=60,
                                             seed=0)
        assert all(result.column("converged"))
        assert all(gap < 0.1 for gap in result.column("final_gap"))
