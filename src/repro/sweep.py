"""Generic one-knob parameter sweeps of the equilibrium.

A practitioner's first question to a model is "what happens if X changes?".
:func:`run_sweep` turns any supported scalar knob into a table of
equilibrium outcomes — γ*, the population cost, the mean offloading
fraction, and DTU's iteration count — resampling the population per point
where the knob changes the generating distributions. Exposed on the CLI::

    python -m repro sweep --param capacity --values 9,10,12,16
    python -m repro sweep --param latency-scale --values 0.5,1,2,5 --jobs 4

Each point is an independent, seeded task, so the sweep fans out over the
:mod:`repro.runtime` engine: ``jobs=N`` solves N points concurrently and
``cache=DIR`` makes re-running any previously-solved point a cache hit —
with bit-identical tables for every ``jobs`` count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.dtu import run_dtu
from repro.core.edge_delay import ReciprocalDelay
from repro.core.equilibrium import solve_mfne
from repro.core.meanfield import MeanFieldMap
from repro.experiments.report import SeriesResult
from repro.population.distributions import Deterministic, Scaled, Uniform
from repro.population.sampler import PopulationConfig, sample_population
from repro.runtime import TaskRunner, TaskSpec
from repro.utils.rng import SeedLike, as_generator

#: Baseline knob values (the Section IV-A theoretical setting).
_BASE = dict(
    a_max=4.0,
    service_low=1.0,
    service_high=5.0,
    latency_scale=1.0,
    energy_local_max=3.0,
    energy_offload_max=1.0,
    capacity=10.0,
    weight=1.0,
    headroom=1.1,
)


def _config(**overrides) -> tuple:
    """Build (PopulationConfig, delay model) from base + overrides."""
    knobs = dict(_BASE)
    knobs.update(overrides)
    config = PopulationConfig(
        arrival=Uniform(0.0, knobs["a_max"]),
        service=Uniform(knobs["service_low"], knobs["service_high"]),
        latency=Scaled(Uniform(1e-9, 1.0), knobs["latency_scale"]),
        energy_local=Uniform(0.0, knobs["energy_local_max"]),
        energy_offload=Uniform(0.0, knobs["energy_offload_max"]),
        capacity=knobs["capacity"],
        weight=Deterministic(knobs["weight"]),
    )
    return config, ReciprocalDelay(knobs["headroom"], 1.0)


#: Supported sweep parameters → the override key they set.
PARAMETERS: Dict[str, str] = {
    "capacity": "capacity",
    "a-max": "a_max",
    "latency-scale": "latency_scale",
    "energy-local-max": "energy_local_max",
    "energy-offload-max": "energy_offload_max",
    "weight": "weight",
    "headroom": "headroom",
}


def _sweep_point(
    parameter: str,
    value: float,
    n_users: int,
    include_dtu: bool,
    seed: SeedLike,
    backend: Optional[str] = None,
    sim_horizon: float = 150.0,
) -> tuple:
    """Solve one sweep point (a pure, seeded :mod:`repro.runtime` task).

    With ``backend`` set, the solved equilibrium is cross-checked by
    actually simulating the sampled population at its best-response
    thresholds (``"vectorized"`` keeps this cheap even for large sweeps)
    and the measured γ̂ is appended to the row.

    The point's best-response map is compiled once
    (:meth:`~repro.core.meanfield.MeanFieldMap.compile`) and shared by the
    MFNE solve, the threshold/α/cost readout, and the DTU cross-run —
    bit-identical rows, one staircase precomputation per point.
    """
    key = PARAMETERS[parameter]
    config, delay_model = _config(**{key: float(value)})
    gen = as_generator(seed)
    population = sample_population(config, n_users, rng=gen)
    mean_field = MeanFieldMap(population, delay_model).compile()
    equilibrium = solve_mfne(mean_field)
    thresholds = mean_field.best_response(equilibrium.utilization)
    alpha = mean_field.offload_probabilities(thresholds)
    cost = mean_field.average_cost(equilibrium.utilization, thresholds)
    if include_dtu:
        dtu_iterations = run_dtu(mean_field).iterations
    else:
        dtu_iterations = None
    row = (
        float(value),
        float(equilibrium.utilization),
        float(cost),
        float(np.mean(alpha)),
        dtu_iterations if dtu_iterations is not None else "-",
    )
    if backend is not None:
        from repro.simulation.measurement import MeasurementConfig
        from repro.simulation.system import simulate_system, tro_policies

        measurement = simulate_system(
            population,
            tro_policies(thresholds, population.size),
            MeasurementConfig(horizon=sim_horizon, warmup=sim_horizon / 5,
                              seed=gen),
            delay_model=delay_model,
            backend=backend,
        )
        row += (float(measurement.utilization),)
    return row


def run_sweep(
    parameter: str,
    values: Sequence[float],
    n_users: int = 3000,
    seed: SeedLike = 0,
    include_dtu: bool = True,
    jobs: int = 1,
    cache: Optional[object] = None,
    timeout: Optional[float] = None,
    backend: Optional[str] = None,
    sim_horizon: float = 150.0,
) -> SeriesResult:
    """Sweep one knob over ``values``; solve the equilibrium at each point.

    Every point receives the *same* ``seed`` (common random numbers: the
    population redraw differences across points reflect only the knob, not
    sampling noise), so the per-point tasks are fully determined up front
    and ``jobs=4`` produces the identical table to ``jobs=1``. ``cache``
    (a directory or :class:`repro.runtime.ResultCache`) short-circuits
    previously-solved points.

    ``backend`` (``"event"`` or ``"vectorized"``) appends a simulated γ̂
    column: every point's equilibrium is re-measured by a full system
    simulation over ``sim_horizon`` time units. The vectorized fast path
    makes this validation affordable at every sweep point.
    """
    if parameter not in PARAMETERS:
        raise KeyError(
            f"unknown parameter {parameter!r}; "
            f"available: {', '.join(sorted(PARAMETERS))}"
        )
    if not values:
        raise ValueError("values must be non-empty")
    specs = [
        TaskSpec(
            fn=_sweep_point,
            kwargs=dict(parameter=parameter, value=float(value),
                        n_users=n_users, include_dtu=include_dtu,
                        backend=backend, sim_horizon=sim_horizon),
            seed=seed,
            name=f"sweep[{parameter}={value:g}]",
        )
        for value in values
    ]
    runner = TaskRunner(jobs=jobs, cache=cache, timeout=timeout)
    rows: List[tuple] = [result.unwrap() for result in runner.run(specs)]
    columns = (parameter, "gamma*", "avg cost", "mean offload frac",
               "DTU iters")
    if backend is not None:
        columns += (f"sim gamma ({backend})",)
    return SeriesResult(
        name=f"Sweep — {parameter}",
        columns=columns,
        rows=rows,
        notes=f"n_users={n_users}, other knobs at Section IV-A baselines",
    )


def parse_values(text: str) -> List[float]:
    """Parse a comma-separated value list (CLI helper)."""
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as error:
        raise ValueError(f"could not parse values {text!r}") from error
    if not values:
        raise ValueError("no values given")
    return values
