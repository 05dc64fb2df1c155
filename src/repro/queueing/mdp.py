"""The single-user admission MDP — why thresholds are optimal at all.

The paper motivates the TRO class by the classical result that optimal
admission control of a single queue is threshold-based (its refs
[18, 19, 21]). This module makes that motivation *checkable*: it solves
the user's continuous-time average-cost Markov decision process directly,
by relative value iteration over the uniformized chain, with **no policy
class assumed** — and the optimal policy that falls out is a threshold
policy whose threshold equals Lemma 1's.

Formulation. State = number of tasks in the device ``n``. Arrivals are
Poisson(``a``); service is exponential(``s``). When a task arrives the
user picks an action:

* **admit** — pay the local energy ``w·p_L`` now and keep the task
  (``n → n+1``);
* **offload** — pay ``K = w·p_E + g(γ) + τ`` now (``n`` unchanged).

Holding cost accrues at rate ``n`` (each queued task contributes ``1/a``
to the per-task delay in Eq. (1); multiplying Eq. (1) through by ``a``
turns it into exactly this cost *rate*):

    a · cost(1)  =  E[N]  +  w·p_L · (admit rate)  +  K · (offload rate).

So the MDP's optimal average cost ``gain`` relates to the paper's optimal
per-arrival cost by ``gain = a · min_x T(x|γ)`` — an identity the test
suite checks numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.population.user import UserProfile
from repro.utils.validation import check_int_positive, check_non_negative, check_positive


@dataclass(frozen=True)
class MdpSolution:
    """The solved average-cost admission MDP."""

    gain: float                 # optimal average cost rate (= a · T(x*|γ))
    bias: np.ndarray            # relative value function h(n)
    admit: np.ndarray           # optimal action per state (True = admit)
    threshold: int              # smallest n with admit[n] == False
    iterations: int
    converged: bool

    @property
    def is_threshold_policy(self) -> bool:
        """True iff the optimal policy is admit-below / offload-above."""
        switched = False
        for action in self.admit:
            if action and switched:
                return False
            if not action:
                switched = True
        return True


def solve_admission_mdp(
    arrival_rate: float,
    service_rate: float,
    local_energy_cost: float,
    offload_cost: float,
    max_queue: int = 200,
    tolerance: float = 1e-10,
    max_iterations: int = 200_000,
) -> MdpSolution:
    """Relative value iteration for the admission MDP.

    Parameters
    ----------
    arrival_rate, service_rate:
        The device's ``a`` and ``s``.
    local_energy_cost:
        Instant cost of admitting (``w·p_L``).
    offload_cost:
        Instant cost of offloading (``K = w·p_E + g(γ) + τ``).
    max_queue:
        State-space truncation; must exceed the optimal threshold (the
        solver raises if the optimum presses against the cap).

    Notes
    -----
    Uniformized at ``Λ = a + s``. The span-seminorm stopping rule bounds
    the gain error by ``tolerance``.

    Ties go to admitting, as in Lemma 1: a state admits when its admit
    value exceeds its offload value by at most 8 ulps of the offload
    value (``8·spacing(|offload value|)``). Value iteration leaves the two
    values of an exact tie a few ulps apart either way; a genuine gap is
    far wider (≈500 ulps at the smallest seen), so a band as wide as
    ``tolerance`` would move real thresholds.
    """
    a = check_positive("arrival_rate", arrival_rate)
    s = check_positive("service_rate", service_rate)
    check_non_negative("local_energy_cost", local_energy_cost)
    cap = check_int_positive("max_queue", max_queue)
    rate_total = a + s
    p_arrival = a / rate_total
    p_service = s / rate_total

    states = np.arange(cap + 1, dtype=float)
    h = np.zeros(cap + 1)
    admit = np.zeros(cap + 1, dtype=bool)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # Value of the two arrival actions, per state.
        h_up = np.empty_like(h)
        h_up[:-1] = h[1:]
        h_up[-1] = h[-1] + 1e6          # discourage pressing the cap
        admit_value = local_energy_cost + h_up
        offload_value = offload_cost + h
        arrival_value = np.minimum(admit_value, offload_value)

        h_down = np.empty_like(h)
        h_down[1:] = h[:-1]
        h_down[0] = h[0]                # fictitious service in state 0

        new_h = (states / rate_total
                 + p_arrival * arrival_value
                 + p_service * h_down)
        span = float((new_h - h).max() - (new_h - h).min())
        h = new_h - new_h[0]            # relative normalisation
        if span < tolerance:
            converged = True
            break

    # Gain from one more Bellman application.
    h_up = np.empty_like(h)
    h_up[:-1] = h[1:]
    h_up[-1] = h[-1] + 1e6
    admit_value = local_energy_cost + h_up
    offload_value = offload_cost + h
    admit = admit_value - offload_value \
        <= 8 * np.spacing(np.abs(offload_value))
    h_down = np.empty_like(h)
    h_down[1:] = h[:-1]
    h_down[0] = h[0]
    applied = (states / rate_total
               + p_arrival * np.minimum(admit_value, offload_value)
               + p_service * h_down)
    gain = float((applied - h)[0]) * rate_total

    offload_states = np.flatnonzero(~admit)
    threshold = int(offload_states[0]) if offload_states.size else cap + 1
    if threshold > cap - 2:
        raise ValueError(
            f"optimal threshold ({threshold}) presses against max_queue "
            f"({cap}); raise max_queue"
        )
    return MdpSolution(
        gain=gain,
        bias=h,
        admit=admit,
        threshold=threshold,
        iterations=iterations,
        converged=converged,
    )


def solve_user_mdp(profile: UserProfile, edge_delay: float,
                   max_queue: int = 200) -> MdpSolution:
    """Solve the admission MDP for a :class:`UserProfile` at ``g(γ)``."""
    check_non_negative("edge_delay", edge_delay)
    return solve_admission_mdp(
        arrival_rate=profile.arrival_rate,
        service_rate=profile.service_rate,
        local_energy_cost=profile.weight * profile.energy_local,
        offload_cost=(profile.weight * profile.energy_offload + edge_delay
                      + profile.offload_latency),
        max_queue=max_queue,
    )
