"""Continuous-time deployment trace: Algorithm 1 with no rounds at all.

Runs the single uninterrupted simulation of
:class:`~repro.simulation.online.OnlineSimulation` — shared clock, sliding-
window utilisation measurement, periodic γ̂ broadcasts, per-device Poisson
update clocks — and compares the trajectory's settling point against the
mean-field γ*. This validates the paper's quasi-stationary two-timescale
assumption in the most literal way available: nothing in the run is ever
synchronised or reset.

Also sweeps the timescale *separation* (device update interval vs
broadcast interval): the quasi-stationary argument needs updates slower
than measurement, and the sweep shows convergence degrading gracefully as
the separation shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.equilibrium import solve_mfne
from repro.core.kernels import compile_mean_field
from repro.experiments.report import SeriesResult, sparkline
from repro.experiments.settings import PAPER_G, theoretical_config
from repro.population.sampler import sample_population
from repro.simulation.online import OnlineSimulation
from repro.utils.rng import RngFactory


@dataclass
class OnlineExperimentResult:
    trajectory: SeriesResult
    timescales: SeriesResult
    gamma_star: float
    settled_gap: float

    def __str__(self) -> str:
        spark = sparkline(self.trajectory.column("estimated"))
        return "\n".join([
            f"Continuous-time DTU (γ* = {self.gamma_star:.4f}, settled gap "
            f"{self.settled_gap:.4f})",
            f"γ̂(t): {spark}",
            "",
            str(self.trajectory),
            "",
            str(self.timescales),
        ])


def run(
    n_users: int = 200,
    duration: float = 600.0,
    seed: int = 0,
) -> OnlineExperimentResult:
    """The continuous trajectory plus the timescale-separation sweep."""
    factory = RngFactory(seed)
    population = sample_population(
        theoretical_config("E[A]<E[S]"), n_users,
        rng=factory.stream("population"),
    )
    # One kernel serves the solve and all four continuous runs.
    kernel = compile_mean_field(population, PAPER_G)
    gamma_star = solve_mfne(kernel).utilization

    simulation = OnlineSimulation(
        population, kernel=kernel,
        broadcast_interval=5.0, update_interval=10.0, window=25.0,
        seed=factory.stream("run"),
    )
    result = simulation.run(duration=duration)
    arrays = result.trace.as_arrays()
    rows: List[tuple] = [
        (float(t), float(e), float(m), float(x))
        for t, e, m, x in zip(arrays["times"], arrays["estimated"],
                              arrays["measured"], arrays["mean_threshold"])
    ]
    trajectory = SeriesResult(
        name="Continuous run — broadcast-sampled trajectory",
        columns=("t", "estimated", "measured", "mean_threshold"),
        rows=rows,
        notes=(f"n_users={n_users}, duration={duration:g}; broadcast every "
               "5, device updates ~every 10, window 25 time units"),
    )

    # Timescale-separation sweep: updates faster/equal/slower than windows.
    sweep_rows: List[tuple] = []
    for update_interval in (2.0, 10.0, 40.0):
        sweep_sim = OnlineSimulation(
            population, kernel=kernel,
            broadcast_interval=5.0, update_interval=update_interval,
            window=25.0, seed=factory.stream(f"sweep/{update_interval}"),
        )
        sweep = sweep_sim.run(duration=duration)
        sweep_rows.append((
            float(update_interval),
            abs(sweep.tail_mean_measured() - gamma_star),
        ))
    timescales = SeriesResult(
        name="Timescale separation — device update interval vs settling",
        columns=("update_interval", "tail |gamma - gamma*|"),
        rows=sweep_rows,
        notes="quasi-stationarity wants updates slower than measurement",
    )

    return OnlineExperimentResult(
        trajectory=trajectory,
        timescales=timescales,
        gamma_star=gamma_star,
        settled_gap=abs(result.tail_mean_measured() - gamma_star),
    )
