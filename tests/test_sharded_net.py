"""Tests for repro.net.sharded — the multi-site message-passing protocol.

Four contracts:

* **degeneration** — with one site, no faults, and a synchronous schedule
  the sharded protocol reproduces ``run_net_dtu``'s γ̂ trajectory to the
  bit (which itself reproduces ``run_dtu``, so the whole tower agrees);
* **determinism** — the same :class:`ShardedNetConfig` (seed included)
  yields bit-identical per-site message logs, γ̂ trajectories, and final
  assignments on every rerun, under loss, duplication, jitter,
  partitions, and churn;
* **accuracy** — a fault-free multi-site run lands near the analytic
  :func:`solve_multiedge_equilibrium` fixed point, with devices
  distributed across sites by the argmin pricing rule;
* **resilience** — a partitioned site is quarantined by stale-gossip
  pessimism (devices stop migrating into the silence) and the run still
  converges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.multiedge import (
    EdgeSite,
    MultiEdgeSystem,
    solve_multiedge_equilibrium,
    tiered_sites,
)
from repro.core.edge_delay import ReciprocalDelay
from repro.net import (
    ChurnConfig,
    FaultConfig,
    NetConfig,
    Partition,
    ShardedNetConfig,
    run_net_dtu,
    run_sharded_dtu,
    site_address,
)
from repro.net.messages import ThresholdReport
from repro.net.sharded import SiteCoordinator
from repro.population.distributions import Uniform
from repro.population.sampler import PopulationConfig, sample_population

pytestmark = [pytest.mark.net, pytest.mark.multiedge]


@pytest.fixture(scope="module")
def population():
    config = PopulationConfig(
        arrival=Uniform(0.0, 6.0),
        service=Uniform(1.0, 5.0),
        latency=Uniform(0.0, 1.0),
        energy_local=Uniform(0.0, 3.0),
        energy_offload=Uniform(0.0, 1.0),
        capacity=10.0,
    )
    return sample_population(config, 120, rng=3)


@pytest.fixture(scope="module")
def system(population):
    return MultiEdgeSystem(population, tiered_sites(3), rng=11)


def _trace_arrays(result):
    return [trace.as_arrays() for trace in result.traces]


class TestSingleSiteDegeneration:
    def test_fault_free_matches_run_net_dtu_exactly(self, population):
        site = EdgeSite("solo", population.capacity,
                        ReciprocalDelay(1.1, 1.0), Uniform(0.0, 1.0))
        solo = MultiEdgeSystem(
            population, [site],
            latencies=population.offload_latencies[:, None])
        single = run_net_dtu(population, NetConfig())
        sharded = run_sharded_dtu(solo, ShardedNetConfig())
        assert sharded.converged
        assert sharded.estimated_utilizations[0] == \
            single.estimated_utilization
        assert np.array_equal(sharded.iterations,
                              np.array([single.iterations]))
        mine = sharded.traces[0].as_arrays()
        theirs = single.trace.as_arrays()
        assert np.array_equal(mine["estimated"], theirs["estimated"])
        assert np.array_equal(mine["measured"], theirs["measured"])
        assert sharded.migrations == 0
        assert np.all(sharded.final_homes == 0)

class TestScalarDevices:
    def test_unit_modulation_matches_kernel_run(self, system):
        """Modulated devices answer by the scalar staircase; at m(t) = 1.0
        it must reproduce the site kernels' probes bit for bit — site
        choice, migrations and reports included, under loss and jitter."""
        config = ShardedNetConfig(
            faults=FaultConfig(loss=0.1, jitter=0.2), seed=5,
            max_rounds=60)
        kernel = run_sharded_dtu(system, config)
        scalar = run_sharded_dtu(system, config, modulation=lambda t: 1.0)
        assert kernel.migrations > 0
        assert scalar.log == kernel.log
        assert scalar.migrations == kernel.migrations
        assert np.array_equal(scalar.final_homes, kernel.final_homes)
        assert np.array_equal(scalar.estimated_utilizations,
                              kernel.estimated_utilizations)
        for a, b in zip(_trace_arrays(scalar), _trace_arrays(kernel)):
            for key in ("times", "estimated", "measured", "heard",
                        "members"):
                assert np.array_equal(a[key], b[key]), key


class TestDeterminism:
    CONFIG = dict(
        faults=FaultConfig(loss=0.15, duplicate=0.05,
                           latency=0.05, jitter=0.3),
        churn=ChurnConfig(leave_rate=0.01, mean_downtime=5.0),
        seed=42, max_rounds=60, gossip_staleness=6.0,
    )

    def test_same_seed_bit_identical(self, system):
        config = ShardedNetConfig(**self.CONFIG)
        first = run_sharded_dtu(system, config)
        second = run_sharded_dtu(system, config)
        assert first.log == second.log
        assert np.array_equal(first.estimated_utilizations,
                              second.estimated_utilizations)
        assert np.array_equal(first.final_homes, second.final_homes)
        assert np.array_equal(first.delay_matrix, second.delay_matrix,
                              equal_nan=True)
        assert first.migrations == second.migrations
        for a, b in zip(_trace_arrays(first), _trace_arrays(second)):
            assert np.array_equal(a["estimated"], b["estimated"])
            assert np.array_equal(a["measured"], b["measured"])
            assert np.array_equal(a["heard"], b["heard"])

    def test_different_seed_different_schedule(self, system):
        first = run_sharded_dtu(
            system, ShardedNetConfig(**{**self.CONFIG, "seed": 42}))
        second = run_sharded_dtu(
            system, ShardedNetConfig(**{**self.CONFIG, "seed": 43}))
        assert first.log != second.log

    def test_faulty_run_still_converges_near_reference(self, system):
        eq = solve_multiedge_equilibrium(system)
        result = run_sharded_dtu(system, ShardedNetConfig(**self.CONFIG))
        assert result.converged
        assert result.delivered_fraction < 1.0
        # Loss + churn bias the measurement; stay within a loose band.
        gap = np.abs(result.estimated_utilizations - eq.utilizations).max()
        assert gap < 0.25


class TestAccuracy:
    def test_fault_free_lands_near_analytic_equilibrium(self, system):
        eq = solve_multiedge_equilibrium(system)
        result = run_sharded_dtu(system, ShardedNetConfig(tolerance=5e-3))
        assert result.converged
        gap = np.abs(result.estimated_utilizations - eq.utilizations).max()
        assert gap < 0.05
        assert np.all((result.estimated_utilizations >= 0.0)
                      & (result.estimated_utilizations <= 1.0))

    def test_devices_spread_by_argmin(self, system, population):
        eq = solve_multiedge_equilibrium(system)
        result = run_sharded_dtu(system, ShardedNetConfig(tolerance=5e-3))
        shares = np.bincount(result.final_homes, minlength=3) / \
            population.size
        analytic = eq.site_shares(3)
        assert np.abs(shares - analytic).max() < 0.1
        assert result.migrations > 0      # the initial γ̂=0 guess is wrong

    def test_migration_can_be_disabled(self, system):
        result = run_sharded_dtu(
            system, ShardedNetConfig(migrate=False, max_rounds=40))
        assert result.migrations == 0
        initial, _ = system.best_response(np.zeros(system.n_sites))
        assert np.array_equal(result.final_homes, initial)

    def test_frozen_devices_answer_their_home_site(self, system,
                                                   monkeypatch):
        """Without migration a device still prices and reports against
        its home: every report a site receives carries that site's round
        and the home kernel's best response to the home γ̂.  Reports
        reach a site's table through its drain, which writes them
        together, so the reports are read off the inbox it drains."""
        received = []
        drain = SiteCoordinator._drain

        def recording_drain(coordinator):
            for envelope in coordinator.inbox:
                if isinstance(envelope.message, ThresholdReport):
                    received.append((coordinator.site, coordinator.round,
                                     coordinator.stepper.estimate,
                                     envelope.message))
            drain(coordinator)

        monkeypatch.setattr(SiteCoordinator, "_drain", recording_drain)
        run_sharded_dtu(system, ShardedNetConfig(migrate=False,
                                                 max_rounds=40))
        assert received
        for site, round_, estimate, report in received:
            assert report.round == round_
            assert report.threshold == float(
                system.kernels[site].user_threshold(report.device,
                                                    estimate))

    def test_delay_matrix_is_measured(self, system):
        result = run_sharded_dtu(system, ShardedNetConfig(max_rounds=20))
        off_diagonal = ~np.eye(3, dtype=bool)
        assert np.all(np.isfinite(result.delay_matrix[off_diagonal]))
        assert np.all(result.delay_matrix[off_diagonal] > 0.0)
        assert np.all(np.diag(result.delay_matrix) == 0.0)

    def test_probes_can_be_disabled(self, system):
        result = run_sharded_dtu(
            system, ShardedNetConfig(probe_interval=0, max_rounds=20))
        off_diagonal = ~np.eye(3, dtype=bool)
        assert np.all(np.isnan(result.delay_matrix[off_diagonal]))


class TestStaleGossipQuarantine:
    """A partitioned site must look expensive, not idle."""

    @staticmethod
    def _partitioned_config(staleness):
        # Site 1 is cut off from everyone — peers and devices — for the
        # whole run. Every device starts at site 0 (strictly cheapest at
        # γ̂ = 0); as γ̂_0 rises toward its hot equilibrium, the peers can
        # only relay site 1's initial γ̂_1 = 0 — a lie that makes the dead
        # site look idle and cheap — unless staleness pessimism kicks in.
        return ShardedNetConfig(
            faults=FaultConfig(partitions=(
                Partition(0.0, 1e9, frozenset({site_address(1)})),
            )),
            max_rounds=40, gossip_staleness=staleness, seed=5)

    def test_without_pessimism_devices_are_lured_in(self, system):
        result = run_sharded_dtu(system, self._partitioned_config(None))
        lured = np.sum(result.final_homes == 1)
        assert lured > 0

    def test_pessimism_quarantines_the_partitioned_site(self, system):
        result = run_sharded_dtu(system, self._partitioned_config(4.0))
        lured = np.sum(result.final_homes == 1)
        assert lured == 0
        # The surviving sites still run the protocol.
        assert result.iterations[0] >= 1 and result.iterations[2] >= 1


class TestConfigValidation:
    def test_rejects_bad_backbone_knobs(self):
        with pytest.raises(ValueError, match="gossip_staleness"):
            ShardedNetConfig(gossip_staleness=0.0)
        with pytest.raises(ValueError, match="probe_interval"):
            ShardedNetConfig(probe_interval=-1)

    def test_inherits_netconfig_validation(self):
        with pytest.raises(ValueError):
            ShardedNetConfig(initial_step=0.0)
