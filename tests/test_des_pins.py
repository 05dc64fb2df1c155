"""Frozen outputs of every discrete-event simulation.

The device queue (:func:`~repro.simulation.device.simulate_device`, and
:func:`~repro.simulation.system.simulate_system` on its event backend),
the M/G/k edge queue and the continuous Algorithm-1 run all fire
callbacks off a virtual-time event heap ordered by (time, insertion).
Their outputs are pinned here, so a change to the loop that reorders a
single event, or to a call site that draws one more random number, fails
loudly.

Counts are pinned verbatim; per-device float columns and traces by a
digest of their little-endian float64 bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.dpo import optimal_offload_probabilities, solve_dpo_equilibrium
from repro.core.equilibrium import solve_mfne
from repro.core.meanfield import MeanFieldMap
from repro.experiments.settings import PAPER_G, theoretical_config
from repro.obs import ObsRecorder, use_recorder
from repro.population.distributions import Exponential, Uniform
from repro.population.sampler import sample_population
from repro.simulation.device import TroAdmission, simulate_device
from repro.simulation.edge_queue import simulate_edge_queue
from repro.simulation.measurement import (
    LogNormalService,
    MeasurementConfig,
    RenewalArrivals,
)
from repro.simulation.online import OnlineSimulation
from repro.simulation.system import dpo_policies, simulate_system, tro_policies
from repro.simulation.trace import TaskTraceRecorder

pytestmark = pytest.mark.des

_CONFIG = MeasurementConfig(horizon=60.0, warmup=10.0, seed=11)


def _digest(values) -> str:
    flat = np.asarray(values, dtype="<f8").ravel()
    return hashlib.sha256(flat.tobytes()).hexdigest()[:16]


def _stats_table(measurement) -> np.ndarray:
    """One row per device: every DeviceStats field the DES computes."""
    return np.array([
        (s.arrivals, s.admitted, s.offloaded, s.completed,
         s.time_avg_queue, s.mean_local_sojourn, s.busy_fraction)
        for s in measurement.device_stats
    ])


def _check_system(measurement, arrivals, offloaded, digest):
    table = _stats_table(measurement)
    assert int(table[:, 0].sum()) == arrivals
    assert int(table[:, 2].sum()) == offloaded
    assert _digest(table) == digest


@pytest.fixture(scope="module")
def population():
    return sample_population(theoretical_config("E[A]<E[S]"), 30, rng=5)


class TestSystemPins:
    def test_tro_at_gamma_star(self, population):
        mean_field = MeanFieldMap(population, PAPER_G)
        thresholds = mean_field.best_response(
            solve_mfne(mean_field).utilization)
        measurement = simulate_system(
            population, tro_policies(thresholds, population.size),
            config=_CONFIG, delay_model=PAPER_G)
        _check_system(measurement, 3110, 2045, "ead8abfa19f204d5")

    def test_dpo(self, population):
        gamma = solve_dpo_equilibrium(population, PAPER_G).utilization
        probabilities = optimal_offload_probabilities(
            population, PAPER_G(gamma))
        measurement = simulate_system(
            population, dpo_policies(probabilities, population.size),
            config=_CONFIG, delay_model=PAPER_G)
        _check_system(measurement, 3209, 2329, "b745ab75e2be16ae")

    def test_lognormal_service_with_renewal_arrivals(self, population):
        """Inputs only the event backend accepts."""
        measurement = simulate_system(
            population, tro_policies(2.5, population.size), config=_CONFIG,
            service_model=LogNormalService(cv=1.5),
            arrival_model=RenewalArrivals(cv=2.0), delay_model=PAPER_G)
        _check_system(measurement, 2977, 1343, "350b24dbc29fa9ba")


class TestDevicePins:
    def test_initial_backlog_with_task_trace(self):
        trace = TaskTraceRecorder()
        stats = simulate_device(
            1.5, Uniform(0.2, 1.0), TroAdmission(3.4), horizon=40.0, rng=9,
            warmup=5.0, initial_queue=3, recorder=trace)
        assert (stats.arrivals, stats.admitted, stats.offloaded,
                stats.completed) == (50, 42, 8, 42)
        assert _digest([stats.time_avg_queue, stats.mean_local_sojourn,
                        stats.busy_fraction]) == "9b6683f8ddc847f4"
        records = list(trace.records.values())
        assert len(records) == 56
        assert sum(r.departure_time is not None for r in records) == 45
        assert _digest([
            (r.task_id, r.arrival_time, r.admitted,
             np.nan if r.service_start is None else r.service_start,
             np.nan if r.departure_time is None else r.departure_time)
            for r in records
        ]) == "7dbe172606cc0c2b"


class TestEdgeQueuePins:
    def test_two_servers_with_warmup(self):
        stats = simulate_edge_queue(1.6, Exponential(1.0), servers=2,
                                    horizon=300.0, rng=4, warmup=50.0)
        assert (stats.arrivals, stats.completed) == (399, 404)
        assert _digest([
            stats.mean_waiting_time, stats.mean_sojourn_time,
            stats.time_avg_queue, stats.mean_busy_servers,
        ]) == "0a46c57c9f349578"


class TestOnlinePins:
    def test_trace(self, population):
        result = OnlineSimulation(population, delay_model=PAPER_G,
                                  seed=6).run(duration=150.0)
        trace = result.trace
        assert result.broadcasts == len(trace.times) == 30
        assert result.final_estimate == 0.13333333333333336
        assert _digest([trace.times, trace.estimated,
                        trace.measured]) == "c64795fa1e9ef1d6"
        assert _digest(trace.mean_threshold) == "2972f27596fbddfd"


class TestCounterPins:
    def test_des_counters_of_one_system_run(self, population):
        recorder = ObsRecorder()
        with use_recorder(recorder):
            simulate_system(population, tro_policies(1.5, population.size),
                            config=_CONFIG, delay_model=PAPER_G)
        registry = recorder.registry
        assert registry.counter("des.runs").value == population.size
        assert registry.counter("des.events_fired").value == 5919
