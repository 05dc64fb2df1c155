"""Learning-agent device policies: beyond the Lemma-1 best response.

Algorithm 1 assumes every device can *compute* its best response — it
knows its rates, the cost model, and the M/M/1/k formulas behind
Lemma 1. These policies drop that assumption: a device sees only the two
per-task costs implied by the broadcast γ̂ (offload vs. keep local) and
*learns* which arm to play:

* :class:`EpsilonGreedyPolicy` — a bandit: Q-value per arm, updated only
  for the arm actually played, ε-greedy exploration off a per-device
  generator (seeded from the run's agent seed, so reruns are
  bit-identical);
* :class:`MultiplicativeWeightsPolicy` — the no-regret full-information
  benchmark: both arm losses are observed every round (they are computed
  from the same broadcast γ̂), weights decay by ``exp(−η·loss)`` with
  losses normalised by a running cost scale. Deterministic — no rng.

Against either policy the edge runs the *unchanged* Algorithm 1
coordinator: it still broadcasts γ̂ and measures offered offload rates
(Eq. 6); only the device-side response changed. The experiment
``repro.experiments.workload_learning`` measures the resulting
convergence gap ``|γ̂ − γ*|`` against the Lemma-1 baseline at matched
seeds.

The two arm costs are :func:`repro.core.cost.arm_costs`: the per-task
price of offloading (the Eq. 3 surcharge) and of keeping every task
local (energy plus the M/M/1 sojourn). The device that plays a policy is
:class:`repro.net.actors.LearningDeviceAgent`. A device playing
"offload" with probability ``p`` offers ``a_n·p`` to the edge — the
DPO-style fluid split the coordinator measures.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_unit_interval

__all__ = [
    "AGENT_POLICIES",
    "AgentPolicy",
    "EpsilonGreedyPolicy",
    "MultiplicativeWeightsPolicy",
    "make_policy",
]

#: Arm order used throughout: index 0 keeps the task local, 1 offloads.
ARM_LOCAL, ARM_OFFLOAD = 0, 1

#: Policy names accepted by :func:`make_policy` (``lemma1`` maps to None:
#: the classical best response, no learning state).
AGENT_POLICIES = ("lemma1", "egreedy", "mwu")


class AgentPolicy:
    """A two-arm decision rule: per-round probability of offloading.

    :meth:`act` receives both arm costs, updates internal state, and
    returns ``p_offload ∈ [0, 1]`` for the round. Implementations must be
    deterministic given their construction-time rng.
    """

    def act(self, local_cost: float, offload_cost: float) -> float:
        raise NotImplementedError

    @property
    def offload_probability(self) -> float:
        """The probability the *next* act would exploit into offloading."""
        raise NotImplementedError


class EpsilonGreedyPolicy(AgentPolicy):
    """ε-greedy Q-learning over the two arms (bandit feedback).

    Each round: explore a uniform arm with probability ε, else play the
    arm with the lowest Q; only the played arm's Q moves, by
    ``α·(cost − Q)``. Q starts at zero — optimistic under positive
    costs, so both arms get tried before the policy commits.
    """

    def __init__(
        self,
        epsilon: float = 0.1,
        learning_rate: float = 0.2,
        rng: SeedLike = None,
    ):
        check_unit_interval("epsilon", epsilon)
        check_unit_interval("learning_rate", learning_rate, open_left=True)
        self.epsilon = float(epsilon)
        self.learning_rate = float(learning_rate)
        self.rng = as_generator(rng)
        self.q = np.zeros(2)
        self.plays = np.zeros(2, dtype=np.int64)

    def act(self, local_cost: float, offload_cost: float) -> float:
        if self.rng.random() < self.epsilon:
            arm = int(self.rng.integers(0, 2))
        else:
            arm = int(np.argmin(self.q))
        cost = offload_cost if arm == ARM_OFFLOAD else local_cost
        self.q[arm] += self.learning_rate * (cost - self.q[arm])
        self.plays[arm] += 1
        return 1.0 if arm == ARM_OFFLOAD else 0.0

    @property
    def offload_probability(self) -> float:
        greedy = float(np.argmin(self.q) == ARM_OFFLOAD)
        return (1.0 - self.epsilon) * greedy + self.epsilon * 0.5


class MultiplicativeWeightsPolicy(AgentPolicy):
    """No-regret multiplicative weights (Hedge) with full information.

    Both arm costs are observable every round, so this is the exact
    exponential-weights update: ``w_i ← w_i·e^{−η·ℓ_i}`` with losses
    normalised into [0, 1] by a running cost scale, then renormalised.
    The played mix is the weight on the offload arm — a fluid
    DPO-style split rather than a coin flip, keeping the policy fully
    deterministic.
    """

    def __init__(self, eta: float = 0.5):
        check_positive("eta", eta)
        self.eta = float(eta)
        self.weights = np.full(2, 0.5)
        self.cost_scale = 1e-12

    def act(self, local_cost: float, offload_cost: float) -> float:
        costs = np.array([local_cost, offload_cost], dtype=float)
        self.cost_scale = max(self.cost_scale, float(costs.max()))
        losses = costs / self.cost_scale
        self.weights = self.weights * np.exp(-self.eta * losses)
        self.weights /= self.weights.sum()
        return float(self.weights[ARM_OFFLOAD])

    @property
    def offload_probability(self) -> float:
        return float(self.weights[ARM_OFFLOAD])


def make_policy(
    name: str,
    epsilon: float = 0.1,
    learning_rate: float = 0.2,
    eta: float = 0.5,
    rng: SeedLike = None,
) -> Optional[AgentPolicy]:
    """Instantiate a named policy (None for the Lemma-1 best response)."""
    if name == "lemma1":
        return None
    if name == "egreedy":
        return EpsilonGreedyPolicy(epsilon=epsilon,
                                   learning_rate=learning_rate, rng=rng)
    if name == "mwu":
        return MultiplicativeWeightsPolicy(eta=eta)
    raise ValueError(
        f"unknown agent policy {name!r}; expected one of "
        f"{', '.join(AGENT_POLICIES)}"
    )
