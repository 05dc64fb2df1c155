"""Network robustness: DTU convergence versus message loss.

The :mod:`repro.experiments.robustness` sweeps stress the *algorithm*
(noisy reports, churned populations, stale broadcasts) while keeping the
convenient fiction that messages always arrive. This experiment stresses
the *network*: the full message-passing protocol (:mod:`repro.net`) runs
over transports losing 0–60 % of messages, and the table reports, per
loss rate, how many Eq. 4 updates and broadcast rounds the edge needed,
how far the final γ̂ lands from the fault-free γ*, and the realised
delivery fraction.

The fault-free row doubles as a cross-check against ``core/dtu.py``: the
γ̂ trajectories must be bit-identical (also pinned by ``tests/test_net.py``),
so the ``dtu_gap`` column is exactly 0 there by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.dtu import DtuConfig, run_dtu
from repro.core.equilibrium import solve_mfne
from repro.core.meanfield import MeanFieldMap
from repro.experiments.report import SeriesResult
from repro.experiments.settings import PAPER_G, theoretical_config
from repro.net import FaultConfig, NetConfig, run_net_dtu
from repro.population.sampler import sample_population


@dataclass(frozen=True)
class NetRobustnessResult:
    """The loss sweep plus the fault-free equivalence cross-check."""

    sweep: SeriesResult
    trajectories_bit_identical: bool   # fault-free net vs core/dtu.py
    gamma_star: float

    def __str__(self) -> str:
        verdict = ("bit-identical" if self.trajectories_bit_identical
                   else "DIVERGED")
        return (f"{self.sweep}\n\n"
                f"fault-free net trajectory vs core/dtu.py: {verdict}")


def loss_sweep(
    loss_rates: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.45, 0.6),
    n_users: int = 500,
    seed: int = 0,
    jitter: float = 0.2,
    max_rounds: int = 300,
) -> NetRobustnessResult:
    """Convergence of the message-passing DTU as the network degrades."""
    population = sample_population(
        theoretical_config("E[A]<E[S]"), n_users, rng=seed)
    mean_field = MeanFieldMap(population, PAPER_G)
    gamma_star = solve_mfne(mean_field).utilization
    reference = run_dtu(mean_field, DtuConfig())

    rows: List[tuple] = []
    bit_identical = False
    for loss in loss_rates:
        faults = None
        if loss > 0.0:
            faults = FaultConfig(loss=loss, jitter=jitter)
        config = NetConfig(faults=faults, seed=seed, max_rounds=max_rounds,
                           log_messages=False)
        result = run_net_dtu(population, config, delay_model=PAPER_G)
        if loss == 0.0:
            bit_identical = (
                result.trace.estimated
                == list(reference.trace.estimated_utilization)
                and result.trace.measured
                == list(reference.trace.actual_utilization)
            )
        gap = abs(result.estimated_utilization - gamma_star)
        dtu_gap = abs(result.estimated_utilization
                      - reference.estimated_utilization)
        rows.append((
            float(loss), result.converged, result.iterations, result.rounds,
            result.silent_rounds, round(result.log.delivered_fraction, 4),
            round(gap, 6), round(dtu_gap, 6),
        ))
    sweep = SeriesResult(
        name="Network robustness — DTU convergence vs message loss",
        columns=("loss", "converged", "updates", "rounds", "silent",
                 "delivered", "gamma_gap", "dtu_gap"),
        rows=rows,
        notes=(f"γ* = {gamma_star:.4f} (N={n_users}); jitter={jitter}; "
               f"reference run_dtu: γ̂ = "
               f"{reference.estimated_utilization:.4f} in "
               f"{reference.iterations} iterations"),
    )
    return NetRobustnessResult(
        sweep=sweep,
        trajectories_bit_identical=bool(bit_identical),
        gamma_star=gamma_star,
    )


def run(n_users: int = 500, seed: int = 0) -> NetRobustnessResult:
    """The artifact entry point (``python -m repro.experiments robustness_net``)."""
    return loss_sweep(n_users=n_users, seed=seed)


if __name__ == "__main__":
    print(run())
