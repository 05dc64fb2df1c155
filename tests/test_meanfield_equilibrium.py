"""Tests for repro.core.meanfield and repro.core.equilibrium."""

import numpy as np
import pytest

from repro.core.equilibrium import MfneResult, solve_mfne, verify_equilibrium
from repro.core.meanfield import MeanFieldMap
from repro.core.tro import queue_and_offload


class TestMeanFieldMap:
    def test_utilization_formula(self, mean_field):
        """J1 must equal (1/Nc) Σ a_n α_n(x_n) (Eq. 6)."""
        pop = mean_field.population
        thresholds = np.arange(pop.size) % 4
        _, alpha = queue_and_offload(thresholds.astype(float), pop.intensities)
        expected = float((pop.arrival_rates * alpha).sum()
                         / (pop.size * pop.capacity))
        assert mean_field.utilization(thresholds) == pytest.approx(expected)

    def test_value_composition(self, mean_field):
        """V(γ) = J1(J2(γ)) by definition."""
        gamma = 0.3
        thresholds = mean_field.best_response(gamma)
        assert mean_field.value(gamma) == pytest.approx(
            mean_field.utilization(thresholds)
        )

    def test_value_nonincreasing(self, mean_field):
        """Lemma 2: V is non-increasing in γ."""
        grid = np.linspace(0.0, 1.0, 21)
        values = [mean_field.value(float(g)) for g in grid]
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo + 1e-12

    def test_value_below_one(self, mean_field):
        """A_max < c forces V(γ) ≤ E[A]/c < 1."""
        assert mean_field.value(0.0) < 1.0

    def test_value_in_unit_interval(self, mean_field):
        for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert 0.0 <= mean_field.value(gamma) <= 1.0

    def test_offload_probabilities_bounds(self, mean_field):
        alpha = mean_field.offload_probabilities(
            mean_field.best_response(0.2)
        )
        assert np.all((alpha >= 0) & (alpha <= 1))

    def test_average_cost_default_uses_best_response(self, mean_field):
        gamma = 0.2
        explicit = mean_field.average_cost(gamma, mean_field.best_response(gamma))
        default = mean_field.average_cost(gamma)
        assert default == pytest.approx(explicit)

    def test_user_costs_shape(self, mean_field):
        costs = mean_field.user_costs(0.1, mean_field.best_response(0.1))
        assert costs.shape == (mean_field.population.size,)
        assert np.all(costs > 0)

    def test_rejects_gamma_outside_unit_interval(self, mean_field):
        with pytest.raises(ValueError):
            mean_field.best_response(1.5)
        with pytest.raises(ValueError):
            mean_field.value(-0.1)


class TestSolveMfne:
    def test_fixed_point(self, mean_field):
        result = solve_mfne(mean_field)
        assert result.converged
        assert result.residual < 1e-3
        assert 0.0 < result.utilization < 1.0
        assert verify_equilibrium(mean_field, result.utilization, tolerance=1e-3)

    def test_gamma_star_alias(self, mean_field):
        result = solve_mfne(mean_field)
        assert result.gamma_star == result.utilization

    def test_uniqueness_via_sign_change(self, mean_field):
        """V(γ) − γ must be positive below γ* and negative above."""
        gamma_star = solve_mfne(mean_field).utilization
        if gamma_star > 0.05:
            assert mean_field.value(gamma_star - 0.05) > gamma_star - 0.05
        assert mean_field.value(min(1.0, gamma_star + 0.05)) < gamma_star + 0.05

    def test_damped_agrees_with_bisection(self, mean_field):
        bisect = solve_mfne(mean_field, method="bisection")
        damped = solve_mfne(mean_field, method="damped", tolerance=1e-8,
                            max_iterations=3000)
        assert damped.utilization == pytest.approx(bisect.utilization, abs=1e-3)

    def test_history_recorded(self, mean_field):
        result = solve_mfne(mean_field)
        assert len(result.history) >= result.iterations

    def test_unknown_method_raises(self, mean_field):
        with pytest.raises(ValueError, match="unknown method"):
            solve_mfne(mean_field, method="newton")

    def test_invalid_tolerance(self, mean_field):
        with pytest.raises(ValueError):
            solve_mfne(mean_field, tolerance=0.0)

    def test_no_offloading_corner(self, mean_field):
        """If V(0) = 0 the equilibrium is γ* = 0 (degenerate corner)."""

        class NoOffload:
            def value(self, gamma):
                return 0.0

        result = solve_mfne(NoOffload())
        assert result.utilization == pytest.approx(0.0)
        assert result.converged

    def test_violated_capacity_raises(self):
        """V(1) ≥ 1 (impossible under A_max < c) must be detected."""

        class Saturated:
            def value(self, gamma):
                return 1.0

        with pytest.raises(ArithmeticError, match="A_max"):
            solve_mfne(Saturated())

    def test_result_is_frozen(self, mean_field):
        result = solve_mfne(mean_field)
        assert isinstance(result, MfneResult)
        with pytest.raises(AttributeError):
            result.utilization = 0.5

    def test_insensitive_to_population_seed(self, theoretical_config_small,
                                            paper_delay):
        """Two independent 3000-user draws must agree on γ* to ~1e-2
        (the mean-field limit washes out sampling noise)."""
        from repro.population.sampler import sample_population
        values = []
        for seed in (1, 2):
            pop = sample_population(theoretical_config_small, 3000, rng=seed)
            values.append(solve_mfne(MeanFieldMap(pop, paper_delay)).utilization)
        assert values[0] == pytest.approx(values[1], abs=0.02)


class TestValueEvaluationBudget:
    """Pin the exact number of V(γ) evaluations each solver path spends.

    ``MeanFieldMap.value`` (and the compiled kernel, for accounting
    parity) bumps the ``meanfield.value_evaluations`` counter, so these
    tests fail on any reintroduced redundant evaluation — the solver used
    to evaluate ``V(v0)`` twice in the γ*≈0 corner and once more than
    needed before the damped loop.
    """

    class _ReferenceMap(MeanFieldMap):
        """The uncompiled map: solve_mfne compiles only exact
        MeanFieldMaps."""

    @classmethod
    def _uncompiled(cls, mean_field):
        return cls._ReferenceMap(mean_field.population,
                                 mean_field.delay_model)

    @staticmethod
    def _solve_counting(mean_field, **kwargs):
        from repro.obs import MetricsRegistry, ObsRecorder, use_recorder

        registry = MetricsRegistry()
        with use_recorder(ObsRecorder(registry)):
            result = solve_mfne(mean_field, **kwargs)
        return result, registry.counter("meanfield.value_evaluations").value

    def test_bisection_budget(self, mean_field):
        """V(0), V(1), one per bisection step, one final readout."""
        result, evaluations = self._solve_counting(
            self._uncompiled(mean_field))
        assert result.converged
        assert evaluations == result.iterations + 3

    def test_bisection_budget_compiled(self, mean_field):
        """The compiled kernel spends the identical budget."""
        result, evaluations = self._solve_counting(mean_field)
        assert evaluations == result.iterations + 3

    def test_damped_budget(self, mean_field):
        """One evaluation per iteration plus the final readout."""
        result, evaluations = self._solve_counting(
            self._uncompiled(mean_field), method="damped", tolerance=1e-8)
        assert result.converged
        assert evaluations == result.iterations + 1

    def test_corner_budget(self, mean_field):
        """The γ* ≈ 0 corner exits after exactly two evaluations.

        The corner triggers whenever V(0) ≤ tolerance; a generous
        tolerance reaches it with the standard fixture.
        """
        result, evaluations = self._solve_counting(
            self._uncompiled(mean_field), tolerance=0.99)
        assert result.converged
        assert result.iterations == 1
        assert evaluations == 2
