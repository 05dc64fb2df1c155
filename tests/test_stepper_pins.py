"""Frozen γ̂ trajectories of every caller of the Algorithm-1 edge stepper.

Each caller below moves γ̂ through :class:`repro.core.dtu.DtuStepper`:
the vector multi-edge DTU (one stepper per site, regrow rule), the
step-rule comparison, the stale-broadcast robustness run, the blind
(rate-learning) DTU, and the sharded message-passing runtime. Their γ̂
sequences are pinned here so that any refactor of the stepper or of a
caller that moves a single estimate fails loudly.

The pins are on γ̂, not γ: γ̂ moves only by sums of step sizes, so it
does not depend on how a platform orders float reductions. Long series
are pinned by a digest of their little-endian float64 bytes plus their
length and final value; short ones verbatim.
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
        finals = [0.5344083694083694, 0.03769230769230768, 0.0]
        digests = ["61c170094d5df373", "a07e76739ae9cc7b", "7b6436b0c98f6238"]
        for trace, length, final, digest in zip(
                result.traces, (41, 40, 40), finals, digests):
            _check_series(trace.estimated, length, [final], digest)
