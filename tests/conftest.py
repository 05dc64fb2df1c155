"""Shared fixtures, options, and hypothesis profiles for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

try:  # hypothesis is optional — the property suites importorskip it.
    from hypothesis import HealthCheck, settings as hypothesis_settings

    hypothesis_settings.register_profile(
        "ci",
        max_examples=200,
        deadline=None,  # shared CI runners have unpredictable latency
        suppress_health_check=[HealthCheck.too_slow],
    )
    hypothesis_settings.register_profile("dev", max_examples=50, deadline=None)
    hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover
    pass


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="also run tests marked slow (multi-minute examples)")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: multi-minute test, needs --runslow")
    config.addinivalue_line(
        "markers",
        "des: exercises the discrete-event/vectorized simulators "
        "(seconds-scale; skipped by `make test-fast`)")
    config.addinivalue_line(
        "markers",
        "net: exercises the asynchronous message-passing runtime "
        "(repro.net actors over the virtual clock)")
    config.addinivalue_line(
        "markers",
        "kernels: exercises the compiled best-response kernel "
        "(repro.core.kernels bit-identity contracts)")
    config.addinivalue_line(
        "markers",
        "multiedge: exercises the multi-site system and the sharded "
        "net protocol")
    config.addinivalue_line(
        "markers",
        "serve: boots the wall-clock decision daemon "
        "(repro.serve over real threads and loopback HTTP)")
    config.addinivalue_line(
        "markers",
        "workload: exercises the non-stationary workload subsystem "
        "(repro.workload schedules, tracking, learning agents)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)

from repro.core.edge_delay import ReciprocalDelay
from repro.core.meanfield import MeanFieldMap
from repro.core.multiedge import MultiEdgeSystem, _thresholds_for_prices
from repro.population.distributions import Uniform
from repro.population.sampler import PopulationConfig, sample_population
from repro.population.user import UserProfile


class _ScalarScanSystem(MultiEdgeSystem):
    """A multi-edge system answering by the per-price scalar scan and the
    closed-form α: the reference its shared-table site kernels are pinned
    against."""

    def best_response(self, utilizations):
        prices = self.offload_prices(utilizations)
        sites = np.argmin(prices, axis=1)
        chosen = prices[np.arange(self.population.size), sites]
        return sites, _thresholds_for_prices(self.population, chosen)

    def _site_alphas(self, j, chosen, x):
        return None


@pytest.fixture(scope="session")
def scalar_scan_system():
    """The multi-edge reference class (construct it like MultiEdgeSystem)."""
    return _ScalarScanSystem


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def paper_delay():
    """The paper's edge-delay model g(γ) = 1/(1.1 − γ)."""
    return ReciprocalDelay(headroom=1.1, scale=1.0)


@pytest.fixture
def theoretical_config_small():
    """The Section IV-A E[A]<E[S] configuration."""
    return PopulationConfig(
        arrival=Uniform(0.0, 4.0),
        service=Uniform(1.0, 5.0),
        latency=Uniform(0.0, 1.0),
        energy_local=Uniform(0.0, 3.0),
        energy_offload=Uniform(0.0, 1.0),
        capacity=10.0,
    )


@pytest.fixture
def small_population(theoretical_config_small):
    """A 500-user population — big enough for stable aggregates, fast."""
    return sample_population(theoretical_config_small, 500, rng=7)


@pytest.fixture
def mean_field(small_population, paper_delay):
    return MeanFieldMap(small_population, paper_delay)


@pytest.fixture
def example_user():
    """A moderately loaded user (θ = 2) with energy-favoured offloading."""
    return UserProfile(
        arrival_rate=2.0,
        service_rate=1.0,
        offload_latency=1.0,
        energy_local=3.0,
        energy_offload=1.0,
    )
