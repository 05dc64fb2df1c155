"""Tests for repro.queueing.mdp — threshold optimality from first principles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.best_response import (
    optimal_threshold,
    optimal_threshold_from_surcharge,
)
from repro.core.cost import user_cost
from repro.population.user import UserProfile
from repro.queueing.mdp import solve_admission_mdp, solve_user_mdp


def _random_profile(rng):
    return UserProfile(
        arrival_rate=float(rng.uniform(0.3, 5.0)),
        service_rate=float(rng.uniform(0.5, 5.0)),
        offload_latency=float(rng.uniform(0.0, 3.0)),
        energy_local=float(rng.uniform(0.0, 3.0)),
        energy_offload=float(rng.uniform(0.0, 1.0)),
    )


class TestThresholdStructure:
    def test_optimal_policy_is_threshold(self, rng):
        """The average-cost-optimal policy, solved with no class assumed,
        is admit-below / offload-above — the paper's motivating fact."""
        for _ in range(10):
            profile = _random_profile(rng)
            solution = solve_user_mdp(profile, edge_delay=float(rng.uniform(0, 3)))
            assert solution.converged
            assert solution.is_threshold_policy

    def test_threshold_matches_lemma1(self, rng):
        """VI's threshold must equal Lemma 1's closed-form optimum."""
        for _ in range(15):
            profile = _random_profile(rng)
            edge_delay = float(rng.uniform(0.0, 3.0))
            solution = solve_user_mdp(profile, edge_delay)
            assert solution.threshold == optimal_threshold(profile, edge_delay)

    def test_gain_equals_arrival_times_cost(self, rng):
        """gain = a · T(x*|γ): the MDP's average cost rate is the paper's
        per-arrival cost scaled by the arrival rate."""
        for _ in range(10):
            profile = _random_profile(rng)
            edge_delay = float(rng.uniform(0.0, 3.0))
            solution = solve_user_mdp(profile, edge_delay)
            expected = profile.arrival_rate * user_cost(
                profile, float(solution.threshold), edge_delay
            )
            assert solution.gain == pytest.approx(expected, rel=1e-5)

    @given(
        arrival=st.floats(0.3, 4.0),
        theta=st.floats(0.2, 4.0),
        local_cost=st.floats(0.0, 3.0),
        offload_cost=st.floats(0.1, 8.0),
    )
    # Exact ties: Lemma 1 admits, 1 against the parent solver's 0 ...
    @example(arrival=2.0, theta=4.0, local_cost=1.0, offload_cost=2.0)
    # ... and here its own float comparison lands 1 ulp below the tie.
    @example(arrival=1.4671810348360383, theta=1.4671810348360383,
             local_cost=1.4671810348360383, offload_cost=1.0)
    @settings(max_examples=40, deadline=None)
    def test_property_threshold_agreement(self, arrival, theta, local_cost,
                                          offload_cost):
        solution = solve_admission_mdp(
            arrival_rate=arrival,
            service_rate=arrival / theta,
            local_energy_cost=local_cost,
            offload_cost=offload_cost + local_cost,   # keep surcharge > 0
        )
        profile = UserProfile(
            arrival_rate=arrival,
            service_rate=arrival / theta,
            offload_latency=offload_cost + local_cost,
            energy_local=local_cost,
            energy_offload=0.0,
        )
        # Lemma 1 with its comparison counted as a tie within relative
        # 1e-14: the admitting side of a tie, whichever way rounding fell.
        expected = optimal_threshold_from_surcharge(
            arrival, profile.intensity,
            profile.offload_surcharge(0.0) * (1 + 1e-14))
        assert solution.threshold == expected


class TestMdpMechanics:
    def test_free_offloading_gives_zero_threshold(self):
        solution = solve_admission_mdp(
            arrival_rate=1.0, service_rate=1.0,
            local_energy_cost=2.0, offload_cost=0.0,
        )
        assert solution.threshold == 0
        assert solution.gain == pytest.approx(0.0, abs=1e-8)

    def test_expensive_offloading_raises_threshold(self):
        cheap = solve_admission_mdp(1.0, 2.0, 0.5, 1.0)
        dear = solve_admission_mdp(1.0, 2.0, 0.5, 8.0)
        assert dear.threshold > cheap.threshold

    def test_bias_is_increasing(self):
        """More backlog can never be preferable: h is non-decreasing."""
        solution = solve_admission_mdp(1.5, 1.0, 1.0, 4.0)
        bias = solution.bias[: solution.threshold + 3]
        assert np.all(np.diff(bias) >= -1e-9)

    def test_cap_pressure_detected(self):
        with pytest.raises(ValueError, match="max_queue"):
            solve_admission_mdp(0.5, 1.0, 0.0, 1e9, max_queue=20)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_admission_mdp(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_admission_mdp(1.0, 1.0, -1.0, 1.0)
