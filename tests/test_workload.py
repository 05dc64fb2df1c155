"""Tests for repro.workload: schedules, tracking, runner, learning agents.

The load-bearing contracts:

* **degeneration** — a constant ``m ≡ 1`` schedule over the net runtime
  reproduces :func:`run_net_dtu` bit-for-bit (message log and γ̂), with
  and without faults/churn;
* **boundedness** — whatever bounded schedule hypothesis draws, the
  tracked γ̂ stays in [0, 1] and the lag is finite;
* **flash-crowd recovery** — the tracker's lag spikes at the onset and
  drains back under the pre-spike band;
* **regional-churn determinism** — the correlated churn assignment is a
  pure function of the seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.churn import ChurnConfig, ChurnModel
from repro.net.protocol import NetConfig, run_net_dtu, with_faults
from repro.net.transport import FaultConfig
from repro.population.sampler import sample_population
from repro.workload import (
    CompositeSchedule,
    ConstantSchedule,
    DiurnalSchedule,
    EpsilonGreedyPolicy,
    FlashCrowdSchedule,
    MultiplicativeWeightsPolicy,
    RegionalChurnSpec,
    ScheduleEngine,
    TrackingConfig,
    WorkloadNetConfig,
    WorkloadScenario,
    arm_costs,
    build_workload_scenario,
    make_policy,
    regional_churn_config,
    run_workload_net,
    track_equilibrium,
    workload_scenario_names,
)

pytestmark = pytest.mark.workload


@pytest.fixture(scope="module")
def population(request):
    from repro.experiments.settings import theoretical_config
    return sample_population(theoretical_config("E[A]<E[S]"), 60,
                             rng=np.random.default_rng(3))


class TestSchedules:
    def test_constant_is_constant(self):
        schedule = ConstantSchedule()
        assert schedule.constant
        assert schedule(17.3) == 1.0
        assert schedule.bounds(100.0) == (1.0, 1.0)
        np.testing.assert_array_equal(schedule(np.arange(4.0)),
                                      np.ones(4))

    def test_diurnal_oscillates_within_bounds(self):
        schedule = DiurnalSchedule(period=20.0, amplitude=0.4)
        t = np.linspace(0.0, 60.0, 500)
        values = schedule(t)
        low, high = schedule.bounds(60.0)
        assert not schedule.constant
        assert values.min() >= low - 1e-12
        assert values.max() <= high + 1e-12
        assert schedule(0.0) == pytest.approx(1.0)
        assert schedule(5.0) == pytest.approx(1.4)    # quarter period peak

    def test_flash_crowd_shape(self):
        schedule = FlashCrowdSchedule(onset=10.0, magnitude=0.5, decay=5.0)
        assert schedule(9.999) == 1.0                 # pre-onset: base
        assert schedule(10.0) == pytest.approx(1.5)   # instantaneous ramp
        assert schedule(15.0) == pytest.approx(1.0 + 0.5 / np.e)
        assert schedule(1e6) == pytest.approx(1.0)    # fully drained
        assert schedule.bounds(5.0) == (1.0, 1.0)     # horizon < onset

    def test_composite_is_product(self):
        diurnal = DiurnalSchedule()
        flash = FlashCrowdSchedule()
        composite = CompositeSchedule((diurnal, flash))
        for t in (0.0, 12.5, 20.0, 33.0):
            assert composite(t) == pytest.approx(diurnal(t) * flash(t))
        assert not composite.constant
        assert CompositeSchedule((ConstantSchedule(),
                                  ConstantSchedule(2.0))).constant

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalSchedule(amplitude=1.0)
        with pytest.raises(ValueError):
            FlashCrowdSchedule(decay=0.0)
        with pytest.raises(ValueError):
            ConstantSchedule(level=0.0)
        with pytest.raises(ValueError):
            CompositeSchedule(())

    def test_registry_and_overrides(self):
        assert "flash-crowd" in workload_scenario_names()
        scenario = build_workload_scenario("flash-crowd", magnitude=0.3)
        assert scenario.schedule.magnitude == 0.3
        nested = build_workload_scenario("diurnal-flash", period=11.0,
                                         decay=4.0)
        assert nested.schedule.parts[0].period == 11.0
        assert nested.schedule.parts[1].decay == 4.0
        with pytest.raises(KeyError, match="unknown workload scenario"):
            build_workload_scenario("tidal-wave")


class TestScheduleEngine:
    def test_stability_margin_rejected(self, population):
        # amplitude pushing sup m · A_max past capacity must be refused.
        wild = WorkloadScenario("wild", ConstantSchedule(level=5.0))
        with pytest.raises(ValueError, match="stability margin"):
            ScheduleEngine(population, wild, horizon=10.0)

    def test_gamma_star_matches_direct_solve(self, population):
        from repro.core.equilibrium import solve_mfne
        from repro.core.meanfield import MeanFieldMap
        engine = ScheduleEngine(
            population, build_workload_scenario("diurnal"), horizon=40.0)
        factor = engine.factor(7.0)
        direct = solve_mfne(
            MeanFieldMap(engine.modulated_population(factor))).utilization
        assert engine.gamma_star(7.0) == pytest.approx(direct, abs=1e-9)

    def test_quantized_levels_cache_kernels(self, population):
        engine = ScheduleEngine(
            population, build_workload_scenario("diurnal"), horizon=40.0,
            levels=8)
        for t in np.linspace(0.0, 40.0, 30):
            engine.mean_field_at(float(t))
        assert 1 <= len(engine._maps) <= 8
        exact = ScheduleEngine(
            population, build_workload_scenario("diurnal"), horizon=40.0)
        # Quantization error in γ* is bounded by the grid pitch effect.
        assert engine.gamma_star(10.0) == pytest.approx(
            exact.gamma_star(10.0), abs=0.05)


class TestTracking:
    def test_constant_schedule_matches_run_dtu(self, population):
        """Tracker on m≡1 replays run_dtu's γ̂ sequence bit-for-bit."""
        from repro.core.dtu import DtuConfig, run_dtu
        from repro.core.meanfield import MeanFieldMap
        reference = run_dtu(MeanFieldMap(population),
                            DtuConfig(max_iterations=200))
        result = track_equilibrium(
            population, build_workload_scenario("steady"),
            TrackingConfig(steps=200, stop_on_convergence=True,
                           checkpoint_every=7),
        )
        assert result.converged
        expected = reference.trace.estimated_utilization
        np.testing.assert_array_equal(result.estimated,
                                      np.asarray(expected))
        np.testing.assert_array_equal(
            result.measured,
            np.asarray(reference.trace.actual_utilization))

    def test_flash_crowd_recovery(self, population):
        """Lag spikes at onset, then drains back under the settled band."""
        scenario = build_workload_scenario("flash-crowd", onset=30.0,
                                           decay=8.0)
        result = track_equilibrium(
            population, scenario,
            TrackingConfig(steps=120, checkpoint_every=2))
        onset_index = int(np.searchsorted(result.checkpoint_times, 30.0))
        pre_spike = result.lag[max(0, onset_index - 5):onset_index]
        spike = result.lag[onset_index:onset_index + 3].max()
        tail = result.lag[-5:]
        assert spike > pre_spike.max()            # the jump is visible
        assert tail.max() <= spike                 # ...and it recovers
        assert tail.max() < 0.05                   # settled again
        assert np.all(result.estimated >= 0.0)
        assert np.all(result.estimated <= 1.0)

    def test_retarget_reopens_converged_stepper(self):
        from repro.core.dtu import DtuStepper
        stepper = DtuStepper(initial_step=0.1, tolerance=1e-2)
        stepper.update(1.0)        # 0.0 → 0.1
        stepper.update(0.0)        # 0.1 → 0.0 = γ̂_{t−2}: step shrinks
        assert stepper.shrank
        assert stepper.step < 0.1
        stepper.previous = stepper.estimate   # force the stop test
        assert stepper.converged
        stepper.retarget()
        assert not stepper.converged
        assert stepper.step == 0.1
        assert stepper.counter == 1


class TestArrayChurn:
    def test_scalar_config_unchanged(self):
        config = ChurnConfig(leave_rate=0.05, mean_downtime=2.0)
        assert config.leave_rates(3) == pytest.approx([0.05] * 3)
        assert not config.static

    def test_array_rates_broadcast_and_validate(self):
        config = ChurnConfig(leave_rate=(0.0, 0.1, 0.2), mean_downtime=1.0)
        assert config.leave_rates(3) == pytest.approx([0.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="5 devices"):
            config.leave_rates(5)
        with pytest.raises(ValueError):
            ChurnConfig(leave_rate=(-0.1, 0.2))
        with pytest.raises(ValueError):
            ChurnConfig(leave_rate=[[0.1, 0.2]])

    def test_array_timelines_match_scalar_per_device(self):
        """A device with the same (rate, downtime, seed) draws the same
        timeline whether its config is scalar or array-valued."""
        scalar = ChurnModel(ChurnConfig(leave_rate=0.1, mean_downtime=2.0),
                            4, horizon=50.0, seed=11)
        array = ChurnModel(
            ChurnConfig(leave_rate=(0.1, 0.1, 0.1, 0.1),
                        mean_downtime=2.0),
            4, horizon=50.0, seed=11)
        assert scalar.timelines == array.timelines

    def test_regional_config_is_seed_pure(self):
        spec = RegionalChurnSpec(n_regions=3, leave_rate=0.05)
        config_a, regions_a, factors_a = regional_churn_config(spec, 40,
                                                               seed=5)
        config_b, regions_b, factors_b = regional_churn_config(spec, 40,
                                                               seed=5)
        assert config_a == config_b
        np.testing.assert_array_equal(regions_a, regions_b)
        np.testing.assert_array_equal(factors_a, factors_b)
        config_c, _, _ = regional_churn_config(spec, 40, seed=6)
        assert config_a != config_c


class TestAgents:
    def test_arm_costs_orderings(self):
        # Idle device, cheap offload → offload arm cheaper; and vice versa.
        local, offload = arm_costs(0.5, 0.1, 1.0, 0.2, 0.1,
                                   arrival_rate=3.9, service_rate=4.0)
        assert local > offload          # a ≈ s: keep-all is terrible
        local2, offload2 = arm_costs(50.0, 5.0, 1.0, 0.2, 3.0,
                                     arrival_rate=0.5, service_rate=4.0)
        assert local2 < offload2        # congested edge, light queue

    def test_epsilon_greedy_learns_cheaper_arm(self):
        policy = EpsilonGreedyPolicy(epsilon=0.05, learning_rate=0.3,
                                     rng=0)
        for _ in range(200):
            policy.act(local_cost=2.0, offload_cost=0.5)
        assert policy.q[1] < policy.q[0]
        assert policy.offload_probability > 0.9

    def test_epsilon_greedy_is_seed_deterministic(self):
        runs = []
        for _ in range(2):
            policy = EpsilonGreedyPolicy(rng=42)
            runs.append([policy.act(1.0 + 0.1 * k, 0.8) for k in range(50)])
        assert runs[0] == runs[1]

    def test_mwu_converges_to_better_arm_and_is_deterministic(self):
        policy = MultiplicativeWeightsPolicy(eta=0.5)
        mixes = [policy.act(local_cost=2.0, offload_cost=0.5)
                 for _ in range(100)]
        assert mixes[-1] > 0.99
        rerun = MultiplicativeWeightsPolicy(eta=0.5)
        assert mixes == [rerun.act(2.0, 0.5) for _ in range(100)]

    def test_make_policy(self):
        assert make_policy("lemma1") is None
        assert isinstance(make_policy("egreedy"), EpsilonGreedyPolicy)
        assert isinstance(make_policy("mwu"), MultiplicativeWeightsPolicy)
        with pytest.raises(ValueError, match="unknown agent policy"):
            make_policy("oracle")


@pytest.mark.net
class TestWorkloadNet:
    def test_constant_schedule_bit_identical_to_run_net_dtu(self,
                                                            population):
        """The acceptance pin: steady workload == run_net_dtu, to the bit."""
        base = run_net_dtu(population, NetConfig(seed=9))
        result = run_workload_net(population,
                                  build_workload_scenario("steady"),
                                  WorkloadNetConfig(seed=9))
        assert result.net.log == base.log
        assert result.net.estimated_utilization == \
            base.estimated_utilization
        assert result.net.rounds == base.rounds
        assert result.net.trace.estimated == base.trace.estimated
        assert result.net.trace.measured == base.trace.measured

    def test_degeneration_survives_faults_and_churn(self, population):
        """Seed prefix-stability: fault and churn streams match exactly."""
        config = with_faults(
            NetConfig(seed=4, max_rounds=120,
                      churn=ChurnConfig(leave_rate=0.02,
                                        mean_downtime=3.0)),
            loss=0.15, jitter=0.3)
        base = run_net_dtu(population, config)
        workload_config = WorkloadNetConfig(
            seed=4, max_rounds=120, faults=config.faults,
            churn=config.churn)
        result = run_workload_net(population,
                                  build_workload_scenario("steady"),
                                  workload_config)
        assert result.net.log == base.log
        assert result.net.estimated_utilization == \
            base.estimated_utilization

    def test_unit_schedule_scalar_devices_match_run_net_dtu(self,
                                                            population):
        """A drifting schedule pinned at m(t) = 1.0 sends every device
        down the scalar staircase, which must reproduce the kernel probes
        of run_net_dtu bit for bit — under loss and jitter too."""
        faults = FaultConfig(loss=0.1, jitter=0.2)
        base = run_net_dtu(population, NetConfig(seed=5, faults=faults))
        flat = WorkloadScenario("flat", DiurnalSchedule(amplitude=0.0))
        assert not flat.schedule.constant
        result = run_workload_net(population, flat,
                                  WorkloadNetConfig(seed=5, faults=faults))
        assert result.net.log == base.log
        assert result.net.rounds == base.rounds
        assert result.net.trace.estimated == base.trace.estimated
        assert result.net.trace.measured == base.trace.measured
        assert result.net.trace.heard == base.trace.heard

    def test_drifting_run_reports_bounded_lag(self, population):
        result = run_workload_net(
            population, build_workload_scenario("diurnal"),
            WorkloadNetConfig(seed=1, max_rounds=50,
                              stop_on_convergence=False),
            checkpoint_every=5)
        assert result.net.rounds == 50
        assert np.all(np.isfinite(result.lag.lag))
        assert result.max_lag <= 1.0
        assert result.final_gap < 0.1

    def test_regional_churn_is_deterministic_and_seed_sensitive(
            self, population):
        scenario = build_workload_scenario("regional-churn",
                                           leave_rate=0.05)
        runs = [run_workload_net(population, scenario,
                                 WorkloadNetConfig(seed=2, max_rounds=80))
                for _ in range(2)]
        assert runs[0].net.log == runs[1].net.log
        other = run_workload_net(population, scenario,
                                 WorkloadNetConfig(seed=12, max_rounds=80))
        assert other.net.log != runs[0].net.log

    def test_regional_and_flat_churn_conflict(self, population):
        with pytest.raises(ValueError, match="regional churn"):
            run_workload_net(
                population, build_workload_scenario("regional-churn"),
                WorkloadNetConfig(seed=0,
                                  churn=ChurnConfig(leave_rate=0.1)))

    def test_learning_agents_converge_near_equilibrium(self, population):
        from repro.core.equilibrium import solve_mfne
        from repro.core.meanfield import MeanFieldMap
        gamma_star = solve_mfne(MeanFieldMap(population)).utilization
        for policy in ("egreedy", "mwu"):
            result = run_workload_net(
                population, build_workload_scenario("steady"),
                WorkloadNetConfig(seed=5, agent_policy=policy,
                                  stop_on_convergence=False,
                                  max_rounds=60))
            assert abs(result.estimated_utilization - gamma_star) < 0.1, \
                policy

    def test_learning_runs_are_seed_deterministic(self, population):
        config = WorkloadNetConfig(seed=8, agent_policy="egreedy",
                                   stop_on_convergence=False,
                                   max_rounds=40)
        first = run_workload_net(population, None, config)
        second = run_workload_net(population, None, config)
        assert first.net.log == second.net.log
        assert first.estimated_utilization == second.estimated_utilization

    @pytest.mark.parametrize("scenario, policy", [("diurnal", "lemma1"),
                                                  ("steady", "egreedy")])
    def test_traced_run_carries_the_net_events(self, population, tmp_path,
                                               scenario, policy):
        """A workload run is a net run: its trace nests net.start/net.done
        inside workload.start/done, so the live watcher sees it finish."""
        from repro.obs import ObsRecorder, Tracer, read_events
        from repro.obs.watch import TraceWatcher
        with Tracer(tmp_path / "events.jsonl") as tracer:
            run_workload_net(population, build_workload_scenario(scenario),
                             WorkloadNetConfig(seed=1, max_rounds=20,
                                               agent_policy=policy),
                             recorder=ObsRecorder(tracer=tracer))
        order = ["workload.start", "net.start", "net.done", "workload.done"]
        kinds = [event["kind"]
                 for event in read_events(tmp_path / "events.jsonl")]
        assert [kind for kind in kinds if kind in order] == order
        watcher = TraceWatcher(tmp_path)
        watcher.poll()
        assert watcher.done_payload is not None

    def test_config_validation(self):
        with pytest.raises(ValueError, match="agent_policy"):
            WorkloadNetConfig(agent_policy="psychic")
        with pytest.raises(ValueError):
            WorkloadNetConfig(epsilon=1.5)


class TestFastpathModulation:
    def test_none_modulation_bit_identical(self, population):
        from repro.simulation.fastpath import simulate_devices_vectorized
        from repro.simulation.measurement import MeasurementConfig
        from repro.simulation.system import tro_policies
        policies = tro_policies(2.0, population.size)
        config = MeasurementConfig(horizon=30.0, warmup=5.0, seed=3)
        plain = simulate_devices_vectorized(population, policies, config)
        modless = simulate_devices_vectorized(population, policies, config,
                                              modulation=None)
        assert plain == modless

    def test_modulated_arrivals_scale(self, population):
        from repro.simulation.fastpath import simulate_devices_vectorized
        from repro.simulation.measurement import MeasurementConfig
        from repro.simulation.system import tro_policies
        policies = tro_policies(1e9, population.size)   # admit everything
        config = MeasurementConfig(horizon=60.0, warmup=0.0, seed=3)
        schedule = ConstantSchedule(level=1.5)
        base = simulate_devices_vectorized(population, policies, config)
        boosted = simulate_devices_vectorized(
            population, policies, config,
            modulation=schedule, modulation_bound=1.5)
        total = sum(s.arrivals for s in base)
        total_boosted = sum(s.arrivals for s in boosted)
        assert total_boosted / total == pytest.approx(1.5, rel=0.05)

    def test_bound_required_and_enforced(self, population):
        from repro.simulation.fastpath import simulate_devices_vectorized
        from repro.simulation.measurement import MeasurementConfig
        from repro.simulation.system import tro_policies
        policies = tro_policies(2.0, population.size)
        config = MeasurementConfig(horizon=10.0, warmup=0.0, seed=0)
        with pytest.raises(ValueError, match="modulation_bound"):
            simulate_devices_vectorized(population, policies, config,
                                        modulation=ConstantSchedule(2.0))
        with pytest.raises(ValueError, match="declared bound"):
            simulate_devices_vectorized(
                population, policies, config,
                modulation=ConstantSchedule(2.0), modulation_bound=1.1)


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class TestProperties:
    @given(
        amplitude=st.floats(0.0, 0.6),
        period=st.floats(5.0, 80.0),
        magnitude=st.floats(0.0, 0.9),
        onset=st.floats(0.0, 50.0),
        decay=st.floats(1.0, 20.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_bounded_schedule_keeps_gamma_hat_in_unit_interval(
            self, amplitude, period, magnitude, onset, decay):
        """Any bounded composite schedule ⇒ tracked γ̂ ∈ [0, 1]."""
        from repro.experiments.settings import theoretical_config
        population = sample_population(theoretical_config("E[A]<E[S]"),
                                       30, rng=np.random.default_rng(1))
        schedule = CompositeSchedule((
            DiurnalSchedule(period=period, amplitude=amplitude),
            FlashCrowdSchedule(onset=onset, magnitude=magnitude,
                               decay=decay),
        ))
        low, high = schedule.bounds(60.0)
        a_max = float(population.arrival_rates.max())
        hypothesis.assume(high * a_max < population.capacity * 0.98)
        result = track_equilibrium(
            population, WorkloadScenario("drawn", schedule),
            TrackingConfig(steps=60, checkpoint_every=10))
        assert np.all(result.estimated >= 0.0)
        assert np.all(result.estimated <= 1.0)
        assert np.all(np.isfinite(result.lag))
        assert np.all(result.gamma_star >= 0.0)
        assert np.all(result.gamma_star <= 1.0)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_constant_schedule_net_log_bit_identical(self, seed):
        """Any seed: steady workload run == run_net_dtu, to the bit."""
        from repro.experiments.settings import theoretical_config
        population = sample_population(theoretical_config("E[A]<E[S]"),
                                       25, rng=np.random.default_rng(2))
        base = run_net_dtu(population, NetConfig(seed=seed))
        result = run_workload_net(population, None,
                                  WorkloadNetConfig(seed=seed))
        assert result.net.log == base.log
        assert result.net.estimated_utilization == \
            base.estimated_utilization

    @given(seed=st.integers(0, 2**31 - 1),
           n_regions=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_regional_churn_pure_function_of_seed(self, seed, n_regions):
        spec = RegionalChurnSpec(n_regions=n_regions, leave_rate=0.05,
                                 factor_spread=0.5)
        first = regional_churn_config(spec, 30, seed=seed)
        second = regional_churn_config(spec, 30, seed=seed)
        assert first[0] == second[0]
        np.testing.assert_array_equal(first[1], second[1])
        rates = np.asarray(first[0].leave_rates(30))
        assert rates.min() >= 0.05 * 0.5 - 1e-12
        assert rates.max() <= 0.05 * 1.5 + 1e-12
