"""Tests for repro.simulation.online — the continuous-time system."""

import numpy as np
import pytest

from repro.core.edge_delay import ReciprocalDelay
from repro.core.equilibrium import solve_mfne
from repro.core.kernels import compile_mean_field
from repro.core.meanfield import MeanFieldMap
from repro.population.sampler import sample_population
from repro.simulation.online import OnlineSimulation, WindowedRateEstimator


@pytest.fixture(scope="module")
def online_population():
    from repro.experiments.settings import theoretical_config
    return sample_population(theoretical_config("E[A]<E[S]"), 120, rng=3)


class TestOnlineSimulation:
    def test_settles_on_mean_field_equilibrium(self, online_population,
                                               paper_delay):
        gamma_star = solve_mfne(
            MeanFieldMap(online_population, paper_delay)
        ).utilization
        simulation = OnlineSimulation(
            online_population, delay_model=paper_delay,
            broadcast_interval=5.0, update_interval=10.0, window=25.0,
            seed=1,
        )
        result = simulation.run(duration=400.0)
        assert result.tail_mean_measured() == pytest.approx(gamma_star,
                                                            abs=0.02)
        assert result.final_estimate == pytest.approx(gamma_star, abs=0.05)

    def test_trace_sampled_every_broadcast(self, online_population):
        simulation = OnlineSimulation(online_population,
                                      broadcast_interval=10.0, seed=2)
        result = simulation.run(duration=100.0)
        assert result.broadcasts == len(result.trace.times)
        times = np.asarray(result.trace.times)
        assert np.allclose(np.diff(times), 10.0)

    def test_estimates_within_unit_interval(self, online_population):
        simulation = OnlineSimulation(online_population, seed=4)
        result = simulation.run(duration=150.0)
        estimates = np.asarray(result.trace.estimated)
        assert np.all((estimates >= 0.0) & (estimates <= 1.0))

    def test_thresholds_move_from_zero(self, online_population):
        """Devices start offloading everything; update clocks must raise
        the mean threshold as they learn the edge is not free."""
        simulation = OnlineSimulation(online_population, seed=5)
        result = simulation.run(duration=200.0)
        thresholds = result.trace.mean_threshold
        assert thresholds[0] < thresholds[-1]
        assert thresholds[-1] > 0.5

    def test_deterministic_under_seed(self, online_population):
        runs = [
            OnlineSimulation(online_population, seed=7).run(duration=80.0)
            for _ in range(2)
        ]
        assert runs[0].trace.estimated == runs[1].trace.estimated
        assert runs[0].trace.measured == runs[1].trace.measured

    def test_as_arrays(self, online_population):
        result = OnlineSimulation(online_population, seed=8).run(duration=60.0)
        arrays = result.trace.as_arrays()
        assert set(arrays) == {"times", "estimated", "measured",
                               "mean_threshold"}
        assert all(isinstance(v, np.ndarray) for v in arrays.values())

    def test_kernel_fixes_the_delay_model(self, online_population,
                                          paper_delay):
        """A kernel compiled for one delay model is not run under
        another: the simulation adopts the kernel's and refuses a
        different one."""
        kernel = compile_mean_field(online_population,
                                    ReciprocalDelay(2.0, 3.0))
        simulation = OnlineSimulation(online_population, kernel=kernel)
        assert simulation.delay_model is kernel.delay_model
        with pytest.raises(ValueError, match="delay model"):
            OnlineSimulation(online_population, delay_model=paper_delay,
                             kernel=kernel)

    def test_validation(self, online_population):
        with pytest.raises(ValueError):
            OnlineSimulation(online_population, broadcast_interval=0.0)
        with pytest.raises(ValueError):
            OnlineSimulation(online_population, initial_step=0.0)
        simulation = OnlineSimulation(online_population, seed=9)
        with pytest.raises(ValueError):
            simulation.run(duration=0.0)


class TestWindowedRateEstimator:
    def test_empty_window_measures_zero(self):
        estimator = WindowedRateEstimator(window=10.0, total_capacity=5.0)
        assert estimator.measure(now=0.0) == 0.0
        assert estimator.measure(now=100.0) == 0.0
        assert estimator.count == 0

    def test_measure_at_time_zero_has_no_division_by_zero(self):
        estimator = WindowedRateEstimator(window=10.0, total_capacity=5.0)
        estimator.record(0.0)
        # span falls back to the nominal window: 1 event / 10 / 5.
        assert estimator.measure(now=0.0) == pytest.approx(0.02)

    def test_warmup_uses_elapsed_time_not_nominal_window(self):
        estimator = WindowedRateEstimator(window=10.0, total_capacity=1.0)
        for t in (0.5, 1.0, 1.5, 2.0):
            estimator.record(t)
        # Only 2 time units have elapsed: 4 events / 2 / 1, capped at 1.
        assert estimator.measure(now=2.0) == 1.0
        # With the nominal window it would have been 4 / 10 = 0.4.

    def test_events_leave_the_window(self):
        estimator = WindowedRateEstimator(window=10.0, total_capacity=1.0)
        for t in (1.0, 2.0, 12.0):
            estimator.record(t)
        # At t=13 the cutoff is 3: the first two events are pruned.
        assert estimator.measure(now=13.0) == pytest.approx(0.1)
        assert estimator.count == 1

    def test_broadcast_interval_shorter_than_window_is_consistent(self):
        # Measuring every 1 time unit with a 10-unit window must neither
        # lose nor double-count events: each measurement sees exactly the
        # events of the trailing window.
        estimator = WindowedRateEstimator(window=10.0, total_capacity=1.0)
        times = np.arange(0.5, 40.0, 0.5)     # steady 2 events/unit
        recorded = 0
        for now in np.arange(11.0, 40.0, 1.0):
            while recorded < times.size and times[recorded] <= now:
                estimator.record(float(times[recorded]))
                recorded += 1
            # 21 events land in the closed window [now−10, now] at 0.5
            # spacing; 21/10/1 caps at 1.
            assert estimator.measure(float(now)) == 1.0
            assert estimator.count == 21

    def test_cap_at_one(self):
        estimator = WindowedRateEstimator(window=1.0, total_capacity=1.0)
        for t in np.linspace(9.0, 10.0, 50):
            estimator.record(float(t))
        assert estimator.measure(now=10.0) == 1.0

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            WindowedRateEstimator(window=0.0, total_capacity=1.0)
        with pytest.raises(ValueError):
            WindowedRateEstimator(window=1.0, total_capacity=-2.0)

    # -- irregular window boundaries ----------------------------------
    # The virtual-clock runs measure on a fixed cadence; the wall-clock
    # serving layer (repro.serve) measures whenever /state is asked and
    # records whenever a request happens to land, so boundaries are
    # jittered, sparse, and sometimes empty mid-stream.

    def test_jittered_report_times_match_exact_window_count(self):
        # Arrivals at irregular offsets, measurements at irregular nows:
        # every measurement must equal the brute-force count over the
        # trailing window, never a cadence-dependent approximation.
        rng = np.random.default_rng(42)
        times = np.sort(rng.uniform(0.0, 60.0, size=300))
        nows = np.sort(rng.uniform(15.0, 60.0, size=40))
        estimator = WindowedRateEstimator(window=7.0, total_capacity=3.0)
        recorded = 0
        for now in nows:
            while recorded < times.size and times[recorded] <= now:
                estimator.record(float(times[recorded]))
                recorded += 1
            expected = np.sum((times >= now - 7.0) & (times <= now))
            assert estimator.measure(float(now)) == pytest.approx(
                min(1.0, expected / 7.0 / 3.0))

    def test_zero_report_window_mid_stream_measures_zero_then_recovers(self):
        estimator = WindowedRateEstimator(window=2.0, total_capacity=1.0)
        for t in (3.0, 3.5, 4.0):
            estimator.record(t)
        assert estimator.measure(now=4.0) > 0.0
        # Traffic stops; once the window has slid past the burst the
        # estimate is exactly zero (stale events must not linger).
        assert estimator.measure(now=7.0) == 0.0
        assert estimator.count == 0
        # ... and a later burst is measured afresh, unpolluted.
        estimator.record(10.0)
        assert estimator.measure(now=10.5) == pytest.approx(0.5)

    def test_measure_without_new_records_is_idempotent(self):
        # Polling /state repeatedly between arrivals must not change the
        # estimate: measure() prunes, it does not consume.
        estimator = WindowedRateEstimator(window=5.0, total_capacity=2.0)
        for t in (6.0, 6.2, 7.7):
            estimator.record(t)
        first = estimator.measure(now=8.0)
        for _ in range(5):
            assert estimator.measure(now=8.0) == first

    def test_warmup_boundary_is_continuous(self):
        # Crossing now == window must not jump: at the boundary the
        # elapsed span and the nominal window coincide.
        estimator = WindowedRateEstimator(window=4.0, total_capacity=1.0)
        for t in (1.0, 2.0, 3.0):
            estimator.record(t)
        before = estimator.measure(now=4.0 - 1e-9)
        after = estimator.measure(now=4.0)
        assert before == pytest.approx(after, rel=1e-6)

    def test_burst_straddling_the_warmup_boundary(self):
        # Events recorded during warm-up age out on the same cutoff rule
        # as steady-state events.
        estimator = WindowedRateEstimator(window=3.0, total_capacity=1.0)
        for t in (0.5, 1.0, 2.5, 4.0):
            estimator.record(t)
        # At now=5 the cutoff is 2: the first two events are gone.
        assert estimator.measure(now=5.0) == pytest.approx(2 / 3.0)
        assert estimator.count == 2


class TestOnlineExperiment:
    def test_run_reports_settling(self):
        from repro.experiments import online_experiment
        result = online_experiment.run(n_users=80, duration=250.0, seed=0)
        assert result.settled_gap < 0.03
        assert len(result.timescales.rows) == 3
        text = str(result)
        assert "Continuous" in text and "Timescale" in text
