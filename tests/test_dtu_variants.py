"""Tests for the DTU step rules and repro.core.dtu_variants comparisons."""

import numpy as np
import pytest

from repro.core.dtu import (
    DtuStepper,
    constant_rule,
    paper_rule,
    regrow_rule,
    robbins_monro_rule,
)
from repro.core.dtu_variants import compare_step_rules, run_with_step_rule
from repro.core.equilibrium import solve_mfne


class TestStepRules:
    def test_paper_rule_shrinks_only_on_oscillation(self):
        rule = paper_rule(0.1)
        step, counter = rule(5, 0.1, 1, False, 1.0)
        assert step == 0.1 and counter == 1
        step, counter = rule(6, 0.1, 1, True, -1.0)
        assert step == pytest.approx(0.05) and counter == 2
        step, counter = rule(7, step, counter, True, 1.0)
        assert step == pytest.approx(0.1 / 3) and counter == 3

    def test_constant_rule_never_changes(self):
        rule = constant_rule(0.2)
        assert rule(50, 0.01, 9, True, 1.0)[0] == 0.2

    def test_robbins_monro_decays_with_time(self):
        rule = robbins_monro_rule(0.1)
        assert rule(1, 0.1, 1, False, 1.0)[0] == pytest.approx(0.1)
        assert rule(10, 0.1, 1, False, 1.0)[0] == pytest.approx(0.01)

    def test_regrow_rule_is_paper_rule_on_a_static_target(self):
        """Alternating moves never build a streak: pure η₀/L shrinking."""
        regrow, paper = regrow_rule(0.1), paper_rule(0.1)
        state = (0.1, 1)
        for t, oscillated in enumerate([False, True, True, True], start=1):
            direction = 1.0 if t % 2 else -1.0
            assert regrow(t, *state, oscillated, direction) == \
                paper(t, *state, oscillated, direction)
            state = paper(t, *state, oscillated, direction)

    def test_regrow_rule_halves_divisor_after_a_streak(self):
        rule = regrow_rule(0.1)
        step, counter = 0.025, 4          # shrunk three times
        for t in range(1, 5):             # a move, then three repeats
            assert rule(t, step, counter, False, 1.0) == (step, counter)
        step, counter = rule(5, step, counter, False, 1.0)   # fourth repeat
        assert counter == 2.0 and step == pytest.approx(0.05)
        # The streak restarts after a regrowth, and holding (direction 0)
        # breaks it.
        for t in range(6, 9):
            assert rule(t, step, counter, False, 1.0) == (step, counter)
        assert rule(9, step, counter, False, 0.0) == (step, counter)
        for t in range(10, 14):
            assert rule(t, step, counter, False, 1.0) == (step, counter)

    def test_regrow_never_exceeds_initial_step(self):
        rule = regrow_rule(0.1)
        step, counter = 0.1, 1
        for t in range(1, 20):
            step, counter = rule(t, step, counter, False, -1.0)
            assert step <= 0.1 and counter >= 1.0


class TestStepperRule:
    def test_rule_sees_move_direction(self):
        seen = []

        def recording(t, step, counter, oscillated, direction):
            seen.append((t, oscillated, direction))
            return step, counter

        stepper = DtuStepper(initial_step=0.1, step_rule=recording)
        stepper.update(0.5)               # 0.0 → 0.1
        stepper.update(0.1)               # |diff| ≤ 1e-12: hold
        stepper.update(0.0)               # 0.1 → 0.0
        assert seen == [(1, False, 1.0), (2, False, 0.0), (3, False, -1.0)]

    @pytest.mark.parametrize("tolerance", [0.0, -0.1, 1.0, 2.0])
    def test_tolerance_must_lie_in_open_unit_interval(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            DtuStepper(tolerance=tolerance)


@pytest.fixture(scope="module")
def variant_setup():
    from repro.core.meanfield import MeanFieldMap
    from repro.experiments.settings import PAPER_G, theoretical_population
    population = theoretical_population("E[A]<E[S]", n_users=1500, rng=0)
    mean_field = MeanFieldMap(population, PAPER_G)
    gamma_star = solve_mfne(mean_field).utilization
    return mean_field, gamma_star


class TestRunWithStepRule:
    def test_paper_rule_matches_run_dtu_behaviour(self, variant_setup):
        mean_field, gamma_star = variant_setup
        estimates = run_with_step_rule(mean_field, paper_rule(0.1),
                                       iterations=60)
        assert abs(estimates[-1] - gamma_star) < 0.01

    def test_estimates_bounded(self, variant_setup):
        mean_field, _ = variant_setup
        estimates = run_with_step_rule(mean_field, constant_rule(0.3),
                                       iterations=40, initial_estimate=0.9)
        assert np.all((estimates >= 0.0) & (estimates <= 1.0))

    def test_series_length(self, variant_setup):
        mean_field, _ = variant_setup
        estimates = run_with_step_rule(mean_field, paper_rule(0.1),
                                       iterations=17)
        assert estimates.shape == (18,)


class TestCompareStepRules:
    def test_paper_rule_wins_from_far_start(self, variant_setup):
        """From γ̂₀ = 0.9 only the paper's rule both reaches the ±0.01 band
        and keeps a small tail error."""
        mean_field, gamma_star = variant_setup
        runs = {run.name: run for run in compare_step_rules(
            mean_field, gamma_star, iterations=120, initial_estimate=0.9,
        )}
        paper = runs["paper (η₀/L on oscillation)"]
        constant = runs["constant η₀"]
        robbins = runs["Robbins–Monro η₀/t"]
        assert paper.iterations_to_band is not None
        assert paper.tail_error < 0.01
        # Constant step oscillates in a ±η₀ band forever.
        assert constant.tail_error > 0.02
        # Robbins–Monro cannot cover the distance within the horizon.
        assert robbins.tail_error > 0.05

    def test_near_start_all_reasonable_rules_arrive(self, variant_setup):
        mean_field, gamma_star = variant_setup
        runs = {run.name: run for run in compare_step_rules(
            mean_field, gamma_star, iterations=120, initial_estimate=0.0,
        )}
        assert runs["paper (η₀/L on oscillation)"].tail_error < 0.01
        assert runs["Robbins–Monro η₀/t"].tail_error < 0.01


class TestAblationIntegration:
    def test_step_rule_ablation_runs(self):
        from repro.experiments import ablations
        result = ablations.step_rule_comparison(n_users=800, seed=0,
                                                iterations=80)
        assert len(result.rows) == 6
        # The paper's rule has a finite to-band count in both regimes.
        paper_rows = [row for row in result.rows if "paper" in row[1]]
        assert all(row[2] != "never" for row in paper_rows)
