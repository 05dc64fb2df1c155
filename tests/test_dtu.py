"""Tests for repro.core.dtu — Algorithm 1."""

import numpy as np
import pytest

from repro.core.dtu import (
    AnalyticUtilizationOracle,
    DtuConfig,
    run_dtu,
)
from repro.core.equilibrium import solve_mfne


class TestDtuConfig:
    def test_defaults_valid(self):
        config = DtuConfig()
        assert 0 < config.initial_step <= 1
        assert 0 < config.tolerance < 1

    @pytest.mark.parametrize("kwargs", [
        {"initial_step": 0.0},
        {"initial_step": 1.5},
        {"tolerance": 0.0},
        {"tolerance": 1.0},
        {"max_iterations": 0},
        {"update_probability": 0.0},
        {"update_probability": 1.0001},
    ])
    def test_invalid_raises(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            DtuConfig(**kwargs)


class TestConvergence:
    def test_converges_to_mfne(self, mean_field):
        """Theorem 2: DTU lands on the Theorem-1 fixed point."""
        gamma_star = solve_mfne(mean_field).utilization
        result = run_dtu(mean_field, DtuConfig(tolerance=5e-3))
        assert result.converged
        assert result.actual_utilization == pytest.approx(gamma_star, abs=0.01)
        assert result.estimated_utilization == pytest.approx(gamma_star, abs=0.01)

    def test_converges_from_above(self, mean_field):
        """Starting γ̂₀ > γ* exercises the decreasing branch (Fig. 4b)."""
        gamma_star = solve_mfne(mean_field).utilization
        result = run_dtu(mean_field, DtuConfig(tolerance=5e-3),
                         initial_estimate=0.95)
        assert result.converged
        assert result.estimated_utilization == pytest.approx(gamma_star, abs=0.01)

    def test_bisection_property(self, mean_field):
        """While below γ* the estimate rises; while above, it falls —
        until the first crossing (Theorem 2's key lemma)."""
        gamma_star = solve_mfne(mean_field).utilization
        result = run_dtu(mean_field, DtuConfig(tolerance=1e-3))
        estimates = result.trace.estimated_utilization
        crossed = False
        for prev, curr in zip(estimates, estimates[1:]):
            if crossed or prev == curr:
                continue
            if (prev - gamma_star) * (curr - gamma_star) < 0:
                crossed = True
            elif prev < gamma_star:
                assert curr > prev   # still below → must increase
            elif prev > gamma_star:
                assert curr < prev   # still above → must decrease
        assert crossed

    def test_step_sizes_nonincreasing(self, mean_field):
        result = run_dtu(mean_field)
        steps = result.trace.step_sizes
        assert all(b <= a + 1e-15 for a, b in zip(steps, steps[1:]))

    def test_estimate_stays_in_unit_interval(self, mean_field):
        result = run_dtu(mean_field, initial_estimate=0.99)
        estimates = np.asarray(result.trace.estimated_utilization)
        assert result.iterations > 0
        assert np.all((estimates >= 0.0) & (estimates <= 1.0))

    @pytest.mark.parametrize("start", [0.995, 1.0])
    def test_start_near_sentinel_still_moves(self, mean_field, start):
        """A γ̂_0 within ε of the γ̂_{−1} = 1 sentinel is no stop: both
        Algorithm-1 loops step down and end within ε of γ*."""
        from repro.net.protocol import NetConfig, run_net_dtu

        gamma_star = solve_mfne(mean_field).utilization
        local = run_dtu(mean_field, initial_estimate=start)
        net = run_net_dtu(mean_field.population,
                          NetConfig(initial_estimate=start),
                          delay_model=mean_field.delay_model)
        for result in (local, net):
            assert result.converged
            assert result.iterations > 0
            assert abs(result.estimated_utilization - gamma_star) \
                <= DtuConfig().tolerance

    def test_asynchronous_still_converges(self, mean_field):
        """Section IV-B: per-user update probability 0.8."""
        gamma_star = solve_mfne(mean_field).utilization
        result = run_dtu(
            mean_field,
            DtuConfig(update_probability=0.8, seed=3, tolerance=5e-3),
        )
        assert result.converged
        assert result.actual_utilization == pytest.approx(gamma_star, abs=0.015)

    def test_final_thresholds_are_near_best_response(self, mean_field):
        """At convergence the thresholds are the best response to γ̂."""
        result = run_dtu(mean_field, DtuConfig(tolerance=1e-3))
        response = mean_field.best_response(result.estimated_utilization)
        match = (result.thresholds == response).mean()
        assert match > 0.95

    def test_max_iterations_bound_respected(self, mean_field):
        result = run_dtu(mean_field, DtuConfig(max_iterations=3,
                                               tolerance=1e-6))
        assert result.iterations <= 3
        assert not result.converged


class TestTraceAndResult:
    def test_trace_lengths_consistent(self, mean_field):
        result = run_dtu(mean_field)
        trace = result.trace
        n = len(trace.estimated_utilization)
        assert len(trace.actual_utilization) == n
        assert len(trace.step_sizes) == n
        assert len(trace.average_costs) == n
        assert n == result.iterations + 1    # initial record + per-iteration

    def test_threshold_snapshots_optional(self, mean_field):
        without = run_dtu(mean_field)
        assert without.trace.thresholds == []
        with_snaps = run_dtu(mean_field, DtuConfig(record_thresholds=True))
        assert len(with_snaps.trace.thresholds) == \
            len(with_snaps.trace.estimated_utilization)

    def test_as_arrays(self, mean_field):
        arrays = run_dtu(mean_field).trace.as_arrays()
        assert set(arrays) == {"estimated_utilization", "actual_utilization",
                               "step_sizes", "average_costs"}
        assert all(isinstance(v, np.ndarray) for v in arrays.values())

    def test_average_cost_property(self, mean_field):
        result = run_dtu(mean_field)
        assert result.average_cost == result.trace.average_costs[-1]

    def test_invalid_initial_estimate(self, mean_field):
        with pytest.raises(ValueError):
            run_dtu(mean_field, initial_estimate=1.2)


class TestOracles:
    def test_analytic_oracle_equals_meanfield(self, mean_field):
        oracle = AnalyticUtilizationOracle(mean_field)
        thresholds = mean_field.best_response(0.2).astype(float)
        assert oracle.measure(thresholds) == pytest.approx(
            mean_field.utilization(thresholds)
        )

    def test_custom_oracle_is_used(self, mean_field):
        """A noisy oracle still drives DTU near the true equilibrium."""
        gamma_star = solve_mfne(mean_field).utilization
        rng = np.random.default_rng(0)

        class NoisyOracle:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def measure(self, thresholds):
                self.calls += 1
                noise = rng.normal(0.0, 0.004)
                return float(np.clip(self.inner.utilization(thresholds)
                                     + noise, 0.0, 1.0))

        oracle = NoisyOracle(mean_field)
        result = run_dtu(mean_field, DtuConfig(tolerance=5e-3), oracle=oracle)
        assert oracle.calls >= result.iterations
        assert result.estimated_utilization == pytest.approx(gamma_star,
                                                             abs=0.03)
