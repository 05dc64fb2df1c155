"""Tests for repro.core.multiedge — the multi-site extension."""

import numpy as np
import pytest

from repro.core.best_response import optimal_threshold
from repro.core.edge_delay import ReciprocalDelay
from repro.core.equilibrium import solve_mfne
from repro.core.meanfield import MeanFieldMap
from repro.core.multiedge import (
    EdgeSite,
    MultiEdgeSystem,
    run_multiedge_dtu,
    solve_multiedge_equilibrium,
)
from repro.population.distributions import Deterministic, Gamma, Uniform
from repro.population.sampler import sample_population


@pytest.fixture(scope="module")
def population(request):
    from repro.population.sampler import PopulationConfig
    config = PopulationConfig(
        arrival=Uniform(0.0, 6.0),
        service=Uniform(1.0, 5.0),
        latency=Uniform(0.0, 1.0),     # unused by the multi-edge model
        energy_local=Uniform(0.0, 3.0),
        energy_offload=Uniform(0.0, 1.0),
        capacity=10.0,
    )
    return sample_population(config, 1200, rng=0)


def _three_sites():
    return [
        EdgeSite("wifi-mec", 3.0, ReciprocalDelay(1.1, 0.5),
                 Uniform(0.0, 0.2)),
        EdgeSite("5g-mec", 4.0, ReciprocalDelay(1.2, 1.0),
                 Uniform(0.1, 0.5)),
        EdgeSite("cloud", 8.0, ReciprocalDelay(1.5, 2.0),
                 Gamma(shape=4.0, scale=0.2)),
    ]


@pytest.fixture(scope="module")
def system(population):
    return MultiEdgeSystem(population, _three_sites(), rng=1)


class TestMultiEdgeSystem:
    def test_latency_matrix_shape(self, system, population):
        assert system.latencies.shape == (population.size, 3)
        assert np.all(system.latencies >= 0)

    def test_offload_prices(self, system):
        gammas = np.array([0.2, 0.4, 0.1])
        prices = system.offload_prices(gammas)
        for j, site in enumerate(system.sites):
            expected = system.latencies[:, j] + site.delay_model(gammas[j])
            assert np.allclose(prices[:, j], expected)

    def test_best_response_picks_cheapest_site(self, system):
        gammas = np.array([0.9, 0.1, 0.0])
        prices = system.offload_prices(gammas)
        site_indices, _ = system.best_response(gammas)
        chosen = prices[np.arange(prices.shape[0]), site_indices]
        assert np.allclose(chosen, prices.min(axis=1))

    def test_thresholds_match_scalar_lemma1(self, system, population):
        """Per user, the multi-edge threshold equals the scalar Lemma-1
        threshold at the chosen site's price."""
        gammas = np.array([0.3, 0.2, 0.1])
        prices = system.offload_prices(gammas)
        site_indices, thresholds = system.best_response(gammas)
        for i in range(0, population.size, 151):
            profile = population.profile(i).with_threshold_inputs(
                offload_latency=float(prices[i, site_indices[i]])
            )
            assert thresholds[i] == optimal_threshold(profile, 0.0)

    def test_utilizations_partition_load(self, system, population):
        gammas = np.array([0.2, 0.2, 0.2])
        site_indices, thresholds = system.best_response(gammas)
        per_site = system.utilizations(site_indices, thresholds)
        # Recompute the total offered offload load two ways.
        from repro.core.tro import queue_and_offload
        _, alpha = queue_and_offload(thresholds.astype(float),
                                     population.intensities)
        total = float((population.arrival_rates * alpha).sum())
        reconstructed = sum(
            per_site[j] * population.size * system.sites[j].capacity_per_user
            for j in range(3)
        )
        assert reconstructed == pytest.approx(total, rel=1e-9)

    def test_validation(self, population):
        with pytest.raises(ValueError, match="at least one"):
            MultiEdgeSystem(population, [])
        with pytest.raises(ValueError, match="aggregate capacity"):
            MultiEdgeSystem(population, [
                EdgeSite("tiny", 0.001, ReciprocalDelay(1.1), Uniform(0, 0.1))
            ])
        system = MultiEdgeSystem(population, _three_sites(), rng=1)
        with pytest.raises(ValueError):
            system.offload_prices(np.array([0.5, 0.5]))        # wrong length
        with pytest.raises(ValueError):
            system.offload_prices(np.array([0.5, 0.5, 1.5]))   # out of range


class TestMultiEdgeEquilibrium:
    def test_fixed_point_certificate(self, system):
        eq = solve_multiedge_equilibrium(system)
        assert eq.converged
        # Granularity floor: one user switching moves V by ~a_max/(N c_j)
        # ≈ 6/(1200·3) ≈ 0.0017, so the certified residual sits just above.
        assert eq.residual < 5e-3
        assert np.all((eq.utilizations >= 0) & (eq.utilizations <= 1))

    def test_cheap_fast_site_attracts_more(self, system):
        """The low-latency, low-delay WiFi MEC should run hotter than the
        distant cloud."""
        eq = solve_multiedge_equilibrium(system)
        assert eq.utilizations[0] > eq.utilizations[2]
        shares = eq.site_shares(3)
        assert shares[0] > shares[2]
        assert shares.sum() == pytest.approx(1.0)

    def test_single_site_reduces_to_scalar_mfne(self, population):
        """With one site whose latency matches the scalar model, the vector
        solver must reproduce solve_mfne."""
        site = EdgeSite("only", capacity_per_user=population.capacity,
                        delay_model=ReciprocalDelay(1.1, 1.0),
                        latency=Deterministic(0.5))
        system = MultiEdgeSystem(population, [site], rng=3)
        eq = solve_multiedge_equilibrium(system, residual_tolerance=1e-3)
        # Scalar reference: same population but all offload latencies 0.5.
        reference_pop = population.subset(np.arange(population.size))
        reference_pop.offload_latencies[:] = 0.5
        reference = solve_mfne(MeanFieldMap(reference_pop,
                                            ReciprocalDelay(1.1, 1.0)))
        assert eq.utilizations[0] == pytest.approx(reference.utilization,
                                                   abs=1e-3)

    def test_symmetric_sites_split_evenly(self, population):
        sites = [
            EdgeSite("a", 5.0, ReciprocalDelay(1.1, 1.0), Uniform(0, 0.3)),
            EdgeSite("b", 5.0, ReciprocalDelay(1.1, 1.0), Uniform(0, 0.3)),
        ]
        system = MultiEdgeSystem(population, sites, rng=4)
        eq = solve_multiedge_equilibrium(system)
        assert eq.utilizations[0] == pytest.approx(eq.utilizations[1],
                                                   abs=0.03)

    def test_invalid_damping(self, system):
        with pytest.raises(ValueError):
            solve_multiedge_equilibrium(system, damping=0.0)


class TestMultiEdgeDtu:
    def test_converges_near_fixed_point(self, system):
        eq = solve_multiedge_equilibrium(system)
        result = run_multiedge_dtu(system)
        assert result.converged
        assert result.iterations < 60
        gap = np.abs(result.actual_utilizations - eq.utilizations).max()
        assert gap < 0.05

    def test_trace_recorded(self, system):
        result = run_multiedge_dtu(system, max_iterations=30)
        assert len(result.trace.estimated) == len(result.trace.actual)
        assert len(result.trace.estimated) >= 2

    def test_invalid_step(self, system):
        """Out-of-range inputs are rejected on the vector path exactly as
        on the single-site one (both validate through DtuConfig)."""
        assert system.n_sites == 3
        for kwargs in ({"initial_step": 0.0}, {"initial_step": 1.5},
                       {"tolerance": 1.0}, {"tolerance": 0.0},
                       {"tolerance": -0.1}, {"max_iterations": 0}):
            with pytest.raises(ValueError):
                run_multiedge_dtu(system, **kwargs)


class TestRandomSiteConfigurations:
    """Property-style sweep over random site topologies."""

    @pytest.mark.parametrize("seed", range(5))
    def test_equilibrium_certified_for_random_sites(self, population, seed):
        gen = np.random.default_rng(seed)
        n_sites = int(gen.integers(1, 5))
        sites = [
            EdgeSite(
                name=f"site{j}",
                capacity_per_user=float(gen.uniform(2.0, 8.0)),
                delay_model=ReciprocalDelay(float(gen.uniform(1.05, 2.0)),
                                            float(gen.uniform(0.3, 2.0))),
                latency=Uniform(0.0, float(gen.uniform(0.1, 1.0))),
            )
            for j in range(n_sites)
        ]
        system = MultiEdgeSystem(population, sites, rng=seed)
        eq = solve_multiedge_equilibrium(system, residual_tolerance=5e-3)
        assert eq.residual < 2e-2
        assert np.all((eq.utilizations >= 0) & (eq.utilizations <= 1))
        shares = eq.site_shares(n_sites)
        assert shares.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_dtu_tracks_random_configurations(self, population, seed):
        gen = np.random.default_rng(100 + seed)
        sites = [
            EdgeSite(
                name=f"site{j}",
                capacity_per_user=float(gen.uniform(3.0, 8.0)),
                delay_model=ReciprocalDelay(float(gen.uniform(1.1, 1.6)),
                                            1.0),
                latency=Uniform(0.0, float(gen.uniform(0.2, 0.8))),
            )
            for j in range(2)
        ]
        system = MultiEdgeSystem(population, sites, rng=seed)
        eq = solve_multiedge_equilibrium(system, residual_tolerance=5e-3)
        dtu = run_multiedge_dtu(system)
        assert dtu.converged
        gap = np.abs(dtu.actual_utilizations - eq.utilizations).max()
        assert gap < 0.08


@pytest.mark.multiedge
class TestCompiledEquivalence:
    """The shared-table kernels are a pure optimisation: bit-identity."""

    GAMMA_GRID = [
        np.array([0.0, 0.0, 0.0]),
        np.array([0.3, 0.2, 0.1]),
        np.array([0.9, 0.1, 0.0]),
        np.array([1.0, 1.0, 1.0]),
        np.array([0.25, 0.75, 0.5]),
    ]

    @pytest.fixture(scope="class")
    def scalar_system(self, system, scalar_scan_system):
        return scalar_scan_system(system.population, system.sites,
                                  latencies=system.latencies)

    def test_kernels_share_tables(self, system):
        assert system.kernels is not None
        for kernel in system.kernels:
            assert kernel.shares_tables_with(system.base_kernel)

    def test_best_response_bit_identical(self, system, scalar_system):
        for gammas in self.GAMMA_GRID:
            ci, ti = system.best_response(gammas)
            si, ts = scalar_system.best_response(gammas)
            assert np.array_equal(ci, si)
            assert np.array_equal(ti.astype(float), ts.astype(float))

    def test_utilizations_bit_identical(self, system, scalar_system):
        for gammas in self.GAMMA_GRID:
            ci, ti = system.best_response(gammas)
            assert np.array_equal(system.utilizations(ci, ti),
                                  scalar_system.utilizations(ci, ti))
            assert np.array_equal(system.site_loads(ci, ti),
                                  scalar_system.site_loads(ci, ti))

    def test_solver_bit_identical(self, system, scalar_system):
        fast = solve_multiedge_equilibrium(system)
        slow = solve_multiedge_equilibrium(scalar_system)
        assert np.array_equal(fast.utilizations, slow.utilizations)
        assert np.array_equal(fast.site_indices, slow.site_indices)
        assert np.array_equal(fast.thresholds, slow.thresholds)
        assert fast.residual == slow.residual
        assert fast.average_cost == slow.average_cost

    def test_dtu_bit_identical(self, system, scalar_system):
        fast = run_multiedge_dtu(system)
        slow = run_multiedge_dtu(scalar_system)
        assert fast.iterations == slow.iterations
        assert np.array_equal(fast.estimated_utilizations,
                              slow.estimated_utilizations)
        assert np.array_equal(fast.thresholds, slow.thresholds)
        for a, b in zip(fast.trace.estimated, slow.trace.estimated):
            assert np.array_equal(a, b)
        for a, b in zip(fast.trace.actual, slow.trace.actual):
            assert np.array_equal(a, b)


@pytest.mark.multiedge
class TestSingleSiteDelegation:
    """m = 1 must *be* the paper's model, to the bit."""

    @pytest.fixture(scope="class")
    def solo(self, population):
        site = EdgeSite("only", capacity_per_user=population.capacity,
                        delay_model=ReciprocalDelay(1.1, 1.0),
                        latency=Uniform(0.0, 1.0))
        return MultiEdgeSystem(
            population, [site],
            latencies=population.offload_latencies[:, None])

    @pytest.fixture(scope="class")
    def scalar_map(self, population):
        return MeanFieldMap(population, ReciprocalDelay(1.1, 1.0))

    def test_as_single_site_shares_tables(self, solo):
        single = solo.as_single_site()
        assert single is not None
        assert single.shares_tables_with(solo.base_kernel)

    def test_solver_delegates_bit_identically(self, solo, scalar_map):
        eq = solve_multiedge_equilibrium(solo)
        reference = solve_mfne(scalar_map)
        assert eq.utilizations[0] == reference.utilization
        assert eq.iterations == reference.iterations
        assert eq.converged == reference.converged

    def test_dtu_delegates_bit_identically(self, solo, scalar_map):
        from repro.core.dtu import run_dtu
        vector = run_multiedge_dtu(solo)
        scalar = run_dtu(scalar_map)
        assert vector.iterations == scalar.iterations
        assert vector.estimated_utilizations[0] == \
            scalar.estimated_utilization
        assert np.array_equal(vector.thresholds,
                              np.asarray(scalar.thresholds, dtype=float))
        assert [g[0] for g in vector.trace.estimated] == \
            list(scalar.trace.estimated_utilization)
        assert [g[0] for g in vector.trace.actual] == \
            list(scalar.trace.actual_utilization)
        assert np.all(vector.site_indices == 0)

    def test_tight_capacity_falls_back_to_vector_path(self, population):
        """A lone site with a_n ≥ c_1 cannot be the scalar model; the
        vector solver must still converge."""
        site = EdgeSite("tight", capacity_per_user=5.0,
                        delay_model=ReciprocalDelay(1.1, 1.0),
                        latency=Uniform(0.0, 0.2))
        system = MultiEdgeSystem(population, [site], rng=9)
        assert system.as_single_site() is None
        eq = solve_multiedge_equilibrium(system)
        assert eq.converged
        assert 0.0 <= eq.utilizations[0] <= 1.0
