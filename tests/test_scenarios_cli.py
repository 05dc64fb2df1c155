"""Tests for repro.population.scenarios, the CLI, and replicated DES."""

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.meanfield import MeanFieldMap
from repro.population.sampler import sample_population
from repro.population.scenarios import build_scenario, scenario_names
from repro.simulation.measurement import MeasurementConfig
from repro.simulation.system import simulate_system_replicated, tro_policies


class TestScenarios:
    def test_all_names_build(self):
        for name in scenario_names():
            config = build_scenario(name)
            assert config.capacity > 0

    def test_all_scenarios_sample_and_solve(self):
        """Every scenario must yield a valid population with an interior
        equilibrium — the library-level smoke test."""
        from repro.core.equilibrium import solve_mfne
        for name in scenario_names():
            population = sample_population(build_scenario(name), 300, rng=0)
            result = solve_mfne(MeanFieldMap(population))
            assert result.converged
            assert 0.0 <= result.utilization < 1.0

    def test_paper_practical_uses_dataset(self):
        config = build_scenario("paper-practical")
        assert config.service.mean() == pytest.approx(8.9437, rel=1e-6)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            build_scenario("moon-base")

    def test_names_sorted(self):
        assert scenario_names() == sorted(scenario_names())


class TestCli:
    def test_scenarios_subcommand(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_solve_subcommand(self, capsys):
        assert main(["solve", "--users", "300", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "MFNE" in out and "γ*" in out

    def test_solve_with_social(self, capsys):
        assert main(["solve", "--users", "300", "--social"]) == 0
        assert "PoA" in capsys.readouterr().out

    def test_dtu_subcommand_with_plot(self, capsys):
        assert main(["dtu", "--users", "300", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        assert "gamma_hat" in out            # the ASCII plot legend

    def test_dtu_async_flag(self, capsys):
        assert main(["dtu", "--users", "300",
                     "--update-probability", "0.8"]) == 0
        assert "converged" in capsys.readouterr().out

    def test_compare_subcommand(self, capsys):
        assert main(["compare", "--users", "300"]) == 0
        out = capsys.readouterr().out
        assert "DTU" in out and "DPO" in out and "saves" in out

    def test_scenario_flag_round_trip(self, capsys):
        assert main(["solve", "--scenario", "smart-farm",
                     "--users", "200"]) == 0
        assert "smart-farm" in capsys.readouterr().out

    @pytest.mark.net
    @pytest.mark.multiedge
    def test_sharded_subcommand(self, capsys):
        assert main(["sharded", "--users", "150", "--sites", "3",
                     "--loss", "0.05", "--gossip-staleness", "6",
                     "--max-rounds", "80", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "sharded DTU converged=True" in out
        assert "wifi-mec-0" in out and "cloud-2" in out
        assert "migrations" in out

    @pytest.mark.workload
    def test_workload_subcommand(self, capsys):
        assert main(["workload", "--users", "40",
                     "--workload", "flash-crowd",
                     "--max-rounds", "40", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "workload: flash-crowd" in out
        assert "γ*(t)" in out          # the lag table header
        assert "max lag" in out and "final gap" in out

    @pytest.mark.workload
    def test_workload_list_flag(self, capsys):
        assert main(["workload", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("steady", "diurnal", "flash-crowd", "regional-churn"):
            assert name in out

    @pytest.mark.workload
    def test_workload_analytic_with_learning_policy_flags(self, capsys):
        assert main(["workload", "--users", "40", "--workload", "diurnal",
                     "--analytic", "--steps", "30",
                     "--checkpoint-every", "6"]) == 0
        out = capsys.readouterr().out
        assert "analytic tracker" in out
        assert "retargets" in out

    @pytest.mark.workload
    def test_workload_learning_policy(self, capsys):
        assert main(["workload", "--users", "30", "--workload", "steady",
                     "--policy", "mwu", "--max-rounds", "25"]) == 0
        out = capsys.readouterr().out
        assert "policy: mwu" in out
        assert "final gap" in out

    @pytest.mark.parametrize("argv", [
        ["dtu", "--users", "0"],
        ["solve", "--users", "-5"],
        ["net", "--max-rounds", "0"],
        ["sharded", "--sites", "0"],
    ])
    def test_invalid_value_is_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestReplicatedMeasurement:
    def test_intervals_cover_analytic(self, paper_delay):
        population = sample_population(build_scenario("paper-theoretical"),
                                       80, rng=4)
        mean_field = MeanFieldMap(population, paper_delay)
        thresholds = mean_field.best_response(0.15).astype(float)
        result = simulate_system_replicated(
            population,
            tro_policies(thresholds, population.size),
            replications=8,
            config=MeasurementConfig(horizon=150.0, warmup=30.0, seed=0),
            delay_model=paper_delay,
        )
        analytic = mean_field.utilization(thresholds)
        assert result.replications == 8
        # Generous 4× half-width: a 95% CI from 8 replications is noisy.
        assert abs(result.utilization.mean - analytic) < \
            4 * result.utilization.half_width + 0.01

    def test_interval_width_positive(self):
        population = sample_population(build_scenario("paper-theoretical"),
                                       30, rng=5)
        result = simulate_system_replicated(
            population, tro_policies(2.0, population.size),
            replications=4,
            config=MeasurementConfig(horizon=40.0, warmup=5.0, seed=1),
        )
        assert result.utilization.half_width > 0
        assert result.average_cost.half_width > 0
        assert "replications" in str(result)

    def test_requires_two_replications(self):
        population = sample_population(build_scenario("paper-theoretical"),
                                       10, rng=6)
        with pytest.raises(ValueError):
            simulate_system_replicated(
                population, tro_policies(1.0, population.size),
                replications=1,
            )
