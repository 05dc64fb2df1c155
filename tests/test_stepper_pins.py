"""Frozen γ̂ trajectories of every caller of the Algorithm-1 edge stepper.

Each caller below moves γ̂ through :class:`repro.core.dtu.DtuStepper`:
the vector multi-edge DTU (one stepper per site, regrow rule), the
step-rule comparison, the stale-broadcast robustness run, the blind
(rate-learning) DTU, and the sharded message-passing runtime. Their γ̂
sequences are pinned here so that any refactor of the stepper or of a
caller that moves a single estimate fails loudly. The message-passing
runs also pin their message logs (every fate, sequence number and
delivery time) and event counts, so a refactor of the actor runtime
that reorders a single delivery or fault draw fails too.

The pins are on γ̂, not γ: γ̂ moves only by sums of step sizes, so it
does not depend on how a platform orders float reductions. Long series
are pinned by a digest of their little-endian float64 bytes plus their
length and final value; short ones verbatim. A message log is pinned by
a digest of its entries' ``repr`` plus its fate counts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.dtu import DtuConfig
from repro.core.edge_delay import ReciprocalDelay
from repro.core.meanfield import MeanFieldMap
from repro.core.multiedge import (
    EdgeSite,
    MultiEdgeSystem,
    run_multiedge_dtu,
    tiered_sites,
)
from repro.experiments.settings import (
    PAPER_G,
    theoretical_config,
    theoretical_population,
)
from repro.population.distributions import Gamma, Uniform
from repro.population.sampler import PopulationConfig, sample_population

_CONFIG = PopulationConfig(
    arrival=Uniform(0.0, 6.0),
    service=Uniform(1.0, 5.0),
    latency=Uniform(0.0, 1.0),
    energy_local=Uniform(0.0, 3.0),
    energy_offload=Uniform(0.0, 1.0),
    capacity=10.0,
)


def _digest(series) -> str:
    flat = np.asarray(series, dtype="<f8").ravel()
    return hashlib.sha256(flat.tobytes()).hexdigest()[:16]


def _check_series(series, length, final, digest):
    assert len(series) == length
    assert list(np.asarray(series[-1], dtype=float).ravel()) == final
    assert _digest(series) == digest


def _log_digest(log) -> str:
    return hashlib.sha256(repr(log.entries).encode()).hexdigest()[:16]


@pytest.mark.multiedge
class TestMultiEdgeDtuPins:
    def test_three_site_fixture(self):
        """The deployment of ``tests/test_multiedge.py``."""
        population = sample_population(_CONFIG, 1200, rng=0)
        sites = [
            EdgeSite("wifi-mec", 3.0, ReciprocalDelay(1.1, 0.5),
                     Uniform(0.0, 0.2)),
            EdgeSite("5g-mec", 4.0, ReciprocalDelay(1.2, 1.0),
                     Uniform(0.1, 0.5)),
            EdgeSite("cloud", 8.0, ReciprocalDelay(1.5, 2.0),
                     Gamma(shape=4.0, scale=0.2)),
        ]
        result = run_multiedge_dtu(MultiEdgeSystem(population, sites, rng=1))
        assert result.iterations == 33
        assert result.converged
        _check_series(result.trace.estimated, 34,
                      [0.6160256410256411, 0.13257575757575757, 0.0],
                      "9bed8ea7360d5b44")

    @pytest.mark.parametrize("n_sites, iterations, final, digest", [
        (4, 26, [0.3590909090909091, 0.0, 0.0, 0.315909090909091],
         "f1ba5f3bf35f187e"),
        (10, 32, [0.4583333333333333, 0.004166666666666667, 0.0,
                  0.425952380952381, 0.0, 0.0, 0.39999999999999997, 0.0,
                  0.0, 0.36742424242424243],
         "9a67a4d8ab374f4b"),
    ])
    def test_tiered_paper_theoretical(self, n_sites, iterations, final,
                                      digest):
        from repro.population.scenarios import build_scenario
        population = sample_population(
            build_scenario("paper-theoretical"), 10_000, rng=7)
        system = MultiEdgeSystem(population, tiered_sites(n_sites), rng=7)
        result = run_multiedge_dtu(system)
        assert result.iterations == iterations
        assert result.converged
        _check_series(result.trace.estimated, iterations + 1, final, digest)


class TestStepRulePins:
    @pytest.mark.parametrize("name, final, digest", [
        ("paper_rule", 0.12948717948717964, "0962618f30a5e1d1"),
        ("constant_rule", 0.10000000000000014, "7264370354fe8536"),
        ("robbins_monro_rule", 0.3336796253714932, "3764787084dd6194"),
    ])
    def test_rule_series(self, name, final, digest):
        from repro.core import dtu_variants
        population = theoretical_population("E[A]<E[S]", n_users=1500, rng=0)
        rule = getattr(dtu_variants, name)(0.1)
        series = dtu_variants.run_with_step_rule(
            MeanFieldMap(population, PAPER_G), rule, initial_step=0.1,
            iterations=60, initial_estimate=0.9)
        _check_series(series, 61, [final], digest)


class TestRobustnessPins:
    def test_stale_broadcast_at_zero_delay(self):
        from repro.experiments import robustness
        population = sample_population(theoretical_config("E[A]<E[S]"),
                                       600, rng=2)
        outcome = robustness.run_dtu_with_stale_broadcast(
            MeanFieldMap(population, PAPER_G), delay=0, config=DtuConfig())
        assert outcome["iterations"] == 23
        assert outcome["converged"]
        assert list(outcome["estimates"]) == [
            0.0, 0.1, 0.2, 0.1, 0.15000000000000002, 0.10000000000000002,
            0.13333333333333336, 0.10000000000000003, 0.12500000000000003,
            0.15000000000000002, 0.12500000000000003, 0.14500000000000002,
            0.12500000000000003, 0.1416666666666667, 0.12500000000000003,
            0.13928571428571432, 0.12500000000000003, 0.13750000000000004,
            0.12500000000000003, 0.13611111111111113, 0.12500000000000003,
            0.13500000000000004, 0.12500000000000003, 0.13409090909090912,
        ]


class TestLearningPins:
    def test_blind_dtu_gamma_hat_column(self):
        from repro.experiments import learning
        result = learning.run(n_users=60, iterations=12, window=20.0, seed=0)
        assert [row[1] for row in result.series.rows] == [
            0.0, 0.1, 0.2, 0.1, 0.15000000000000002, 0.10000000000000002,
            0.13333333333333336, 0.16666666666666669, 0.13333333333333336,
            0.15833333333333335, 0.13333333333333336, 0.15333333333333335,
        ]


@pytest.mark.net
@pytest.mark.multiedge
class TestShardedPins:
    def test_faulty_churning_three_sites(self):
        """The faulty, churning configuration of ``tests/test_sharded_net.py``."""
        from repro.net import (
            ChurnConfig,
            FaultConfig,
            ShardedNetConfig,
            run_sharded_dtu,
        )
        population = sample_population(_CONFIG, 120, rng=3)
        system = MultiEdgeSystem(population, tiered_sites(3), rng=11)
        result = run_sharded_dtu(system, ShardedNetConfig(
            faults=FaultConfig(loss=0.15, duplicate=0.05,
                               latency=0.05, jitter=0.3),
            churn=ChurnConfig(leave_rate=0.01, mean_downtime=5.0),
            seed=42, max_rounds=60, gossip_staleness=6.0,
        ))
        assert result.converged
        assert result.log.attempted == 12294
        assert result.migrations == 316
        assert result.events_fired == 10717
        assert result.rounds.tolist() == [41, 40, 40]
        assert result.iterations.tolist() == [40, 39, 39]
        assert _log_digest(result.log) == "0646ed6a526d6772"
        finals = [0.5344083694083694, 0.03769230769230768, 0.0]
        digests = ["61c170094d5df373", "a07e76739ae9cc7b", "7b6436b0c98f6238"]
        for trace, length, final, digest in zip(
                result.traces, (41, 40, 40), finals, digests):
            _check_series(trace.estimated, length, [final], digest)


@pytest.mark.net
class TestNetLogPins:
    """Single-site message-passing runs, pinned across commits: the
    message log, its fate counts, the virtual-clock event count and the
    γ̂ trace."""

    @staticmethod
    def _check(net, counts, events, log_digest, length, final, digest):
        assert dict(net.log.counts) == counts
        assert net.events_fired == events
        assert _log_digest(net.log) == log_digest
        _check_series(net.trace.estimated, length, [final], digest)

    @pytest.fixture(scope="class")
    def fleet(self):
        return sample_population(_CONFIG, 200, rng=1)

    def test_loss_jitter_duplication(self):
        from repro.net import FaultConfig, NetConfig, run_net_dtu
        population = sample_population(_CONFIG, 500, rng=0)
        net = run_net_dtu(population, NetConfig(
            faults=FaultConfig(loss=0.1, duplicate=0.05, jitter=0.2),
            seed=1))
        self._check(
            net, {"delivered": 23017, "dropped": 2382, "duplicated": 1128,
                  "sent": 23027},
            23042, "d0f5a5e43627fe54", 25, 0.22575757575757582,
            "4dd9156e0e5997e7")

    def test_partition_with_heartbeats(self, fleet):
        from repro.net import FaultConfig, NetConfig, Partition, run_net_dtu
        net = run_net_dtu(fleet, NetConfig(
            faults=FaultConfig(loss=0.05, jitter=0.1, partitions=(
                Partition(2.0, 9.0, frozenset(range(0, 200, 3))),)),
            heartbeat_interval=1.5, seed=2, max_rounds=80))
        self._check(
            net, {"delivered": 11382, "dropped": 582, "partitioned": 737,
                  "sent": 11382},
            14607, "0aa402bb63a61094", 25, 0.22575757575757582,
            "b6e0ed7bbeb64b38")

    def test_churn_stragglers_heartbeats(self, fleet):
        from repro.net import ChurnConfig, FaultConfig, NetConfig, run_net_dtu
        net = run_net_dtu(fleet, NetConfig(
            faults=FaultConfig(loss=0.1, jitter=0.2),
            churn=ChurnConfig(leave_rate=0.02, mean_downtime=3.0,
                              straggler_fraction=0.2, straggler_delay=0.4),
            heartbeat_interval=2.0, seed=3, max_rounds=80))
        self._check(
            net, {"delivered": 10782, "dropped": 1155, "sent": 10797},
            13397, "85b4d3ae980b4a16", 25, 0.21090909090909096,
            "b533e61ac0803b45")

    def test_diurnal_workload_scalar_devices(self, fleet):
        from repro.net import FaultConfig
        from repro.workload import (
            WorkloadNetConfig,
            build_workload_scenario,
            run_workload_net,
        )
        result = run_workload_net(
            fleet, build_workload_scenario("diurnal"),
            WorkloadNetConfig(faults=FaultConfig(loss=0.1, jitter=0.2),
                              seed=4, max_rounds=40,
                              stop_on_convergence=False))
        self._check(
            result.net, {"delivered": 13837, "dropped": 1517, "sent": 13844},
            13877, "ee594cde75e54611", 40, 0.19307359307359306,
            "81d0468b0055601a")

    def test_learning_policy_workload(self, fleet):
        from repro.net import FaultConfig
        from repro.workload import WorkloadNetConfig, run_workload_net
        result = run_workload_net(
            fleet, None,
            WorkloadNetConfig(faults=FaultConfig(loss=0.1, jitter=0.2),
                              seed=5, agent_policy="egreedy", max_rounds=40,
                              stop_on_convergence=False))
        self._check(
            result.net, {"delivered": 13746, "dropped": 1550, "sent": 13756},
            13786, "b10afe0b5902d501", 40, 0.254471182412359,
            "4d42d3558139e153")
