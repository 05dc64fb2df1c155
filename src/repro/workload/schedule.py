"""The workload schedule engine: seeded, precomputed non-stationarity.

Every run in this repository so far drew a *stationary* population and
let DTU settle onto the fixed MFNE. The paper, however, pitches DTU as
an online algorithm: its value is *tracking* the equilibrium as
conditions drift. This module supplies the drift — as pure, precomputed
functions of time, so the repository's bit-identical-rerun contract
survives:

* **rate schedules** — a :class:`Schedule` is a vectorized multiplier
  ``m(t)`` applied to every arrival rate: ``a_n(t) = a_n·m(t)``.
  :class:`DiurnalSchedule` models the daily load cycle,
  :class:`FlashCrowdSchedule` a sudden amplitude spike with exponential
  decay, :class:`CompositeSchedule` their product, and
  :class:`ConstantSchedule` (the default ``m ≡ 1``) degenerates every
  consumer bit-for-bit to today's stationary runs;
* **correlated regional churn** — :func:`regional_churn_config` draws
  one leave-rate factor per *region* from the scenario seed and assigns
  devices to regions, producing the per-device array-valued
  :class:`~repro.net.churn.ChurnConfig` that makes whole neighbourhoods
  flicker together while each device's timeline stays precomputed;
* the :class:`ScheduleEngine` binds a schedule to a population: it
  validates the stability margin (``sup m · A_max < c``, without which
  Theorem 1's interior MFNE does not exist at the peak), builds
  modulated :class:`~repro.core.meanfield.MeanFieldMap` snapshots, and
  solves the *instantaneous* MFNE ``γ*(t)`` — the moving target that
  :mod:`repro.workload.tracking` measures γ̂ lag against.

Schedules are deliberately rng-free: a schedule never consumes random
draws, so adding one to a run perturbs neither the fault stream nor the
churn stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.edge_delay import EdgeDelayModel
from repro.core.equilibrium import solve_mfne
from repro.core.meanfield import MeanFieldMap
from repro.net.churn import ChurnConfig
from repro.population.sampler import Population
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import (
    check_int_positive,
    check_non_negative,
    check_positive,
)

ArrayLike = Union[float, np.ndarray]


class Schedule:
    """A time-varying arrival-rate multiplier ``m(t)``.

    Subclasses implement :meth:`__call__` (vectorized over ``t``) and
    :meth:`bounds`; both must be pure functions — no rng, no state — so
    reruns and resumptions see the same workload.
    """

    def __call__(self, t: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def bounds(self, horizon: float) -> Tuple[float, float]:
        """``(inf, sup)`` of ``m(t)`` over ``[0, horizon]``."""
        raise NotImplementedError

    @property
    def constant(self) -> bool:
        """True iff ``m(t)`` is identically its level (no drift)."""
        return False


@dataclass(frozen=True)
class ConstantSchedule(Schedule):
    """``m(t) ≡ level`` — with ``level=1.0`` the stationary degenerate case."""

    level: float = 1.0

    def __post_init__(self) -> None:
        check_positive("level", self.level)

    def __call__(self, t: ArrayLike) -> ArrayLike:
        if np.isscalar(t):
            return self.level
        return np.full(np.shape(t), self.level)

    def bounds(self, horizon: float) -> Tuple[float, float]:
        return (self.level, self.level)

    @property
    def constant(self) -> bool:
        return True


@dataclass(frozen=True)
class DiurnalSchedule(Schedule):
    """A sinusoidal daily cycle: ``m(t) = base·(1 + A·sin(2π(t−φ)/P))``."""

    period: float = 40.0
    amplitude: float = 0.3       # A ∈ [0, 1): m stays strictly positive
    base: float = 1.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        check_positive("period", self.period)
        check_positive("base", self.base)
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1), got {self.amplitude}"
            )

    def __call__(self, t: ArrayLike) -> ArrayLike:
        angle = 2.0 * math.pi * (np.asarray(t, dtype=float) - self.phase) \
            / self.period
        value = self.base * (1.0 + self.amplitude * np.sin(angle))
        return float(value) if np.isscalar(t) else value

    def bounds(self, horizon: float) -> Tuple[float, float]:
        return (self.base * (1.0 - self.amplitude),
                self.base * (1.0 + self.amplitude))


@dataclass(frozen=True)
class FlashCrowdSchedule(Schedule):
    """A sudden spike at ``onset`` decaying exponentially back to base.

    ``m(t) = base·(1 + M·e^{−(t−onset)/decay})`` for ``t ≥ onset`` —
    the canonical flash-crowd shape: instantaneous ramp, slow drain.
    """

    onset: float = 15.0
    magnitude: float = 0.8       # peak is base·(1 + magnitude)
    decay: float = 10.0          # e-folding time of the spike
    base: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative("onset", self.onset)
        check_non_negative("magnitude", self.magnitude)
        check_positive("decay", self.decay)
        check_positive("base", self.base)

    def __call__(self, t: ArrayLike) -> ArrayLike:
        times = np.asarray(t, dtype=float)
        elapsed = times - self.onset
        spike = np.where(elapsed >= 0.0,
                         self.magnitude * np.exp(-np.maximum(elapsed, 0.0)
                                                 / self.decay),
                         0.0)
        value = self.base * (1.0 + spike)
        return float(value) if np.isscalar(t) else value

    def bounds(self, horizon: float) -> Tuple[float, float]:
        high = self.base * (1.0 + self.magnitude) if horizon > self.onset \
            else self.base
        return (self.base, high)


@dataclass(frozen=True)
class CompositeSchedule(Schedule):
    """The product of component schedules (e.g. diurnal × flash crowd)."""

    parts: Tuple[Schedule, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("CompositeSchedule needs at least one part")

    def __call__(self, t: ArrayLike) -> ArrayLike:
        value = self.parts[0](t)
        for part in self.parts[1:]:
            value = value * part(t)
        return value

    def bounds(self, horizon: float) -> Tuple[float, float]:
        low, high = 1.0, 1.0
        for part in self.parts:
            part_low, part_high = part.bounds(horizon)
            low *= part_low
            high *= part_high
        return (low, high)

    @property
    def constant(self) -> bool:
        return all(part.constant for part in self.parts)


@dataclass(frozen=True)
class RegionalChurnSpec:
    """Correlated churn: devices in a region share one leave-rate factor."""

    n_regions: int = 4
    leave_rate: float = 0.02      # fleet-baseline leave rate
    mean_downtime: float = 4.0
    factor_spread: float = 0.6    # region factors ~ U[1−s, 1+s]·baseline

    def __post_init__(self) -> None:
        check_int_positive("n_regions", self.n_regions)
        check_non_negative("leave_rate", self.leave_rate)
        check_non_negative("mean_downtime", self.mean_downtime)
        if not 0.0 <= self.factor_spread < 1.0:
            raise ValueError(
                f"factor_spread must be in [0, 1), got {self.factor_spread}"
            )


def regional_churn_config(
    spec: RegionalChurnSpec,
    n_devices: int,
    seed: SeedLike = 0,
) -> Tuple[ChurnConfig, np.ndarray, np.ndarray]:
    """``(churn_config, regions, factors)`` for a correlated-churn fleet.

    One factor per region, one region per device — both drawn from
    ``seed`` alone, so the array-valued :class:`ChurnConfig` (and hence
    every per-device timeline built from it) is a pure function of the
    scenario seed. The factors multiply the baseline leave rate; the
    downtime stays fleet-wide.
    """
    rng = as_generator(seed)
    factors = 1.0 + spec.factor_spread * rng.uniform(-1.0, 1.0,
                                                     spec.n_regions)
    regions = rng.integers(0, spec.n_regions, size=n_devices)
    leave = spec.leave_rate * factors[regions]
    config = ChurnConfig(leave_rate=leave, mean_downtime=spec.mean_downtime)
    return config, regions, factors


@dataclass(frozen=True)
class WorkloadScenario:
    """A named non-stationary workload: rate schedule + optional churn."""

    name: str
    schedule: Schedule
    regional: Optional[RegionalChurnSpec] = None


def _scenarios() -> Dict[str, WorkloadScenario]:
    diurnal = DiurnalSchedule()
    flash = FlashCrowdSchedule()
    return {
        "steady": WorkloadScenario("steady", ConstantSchedule()),
        "diurnal": WorkloadScenario("diurnal", diurnal),
        "flash-crowd": WorkloadScenario("flash-crowd", flash),
        "diurnal-flash": WorkloadScenario(
            "diurnal-flash", CompositeSchedule((diurnal, flash))),
        "regional-churn": WorkloadScenario(
            "regional-churn", ConstantSchedule(),
            regional=RegionalChurnSpec()),
    }


def workload_scenario_names() -> List[str]:
    """All registered workload scenario names."""
    return sorted(_scenarios())


def build_workload_scenario(
    name: str,
    period: Optional[float] = None,
    amplitude: Optional[float] = None,
    onset: Optional[float] = None,
    magnitude: Optional[float] = None,
    decay: Optional[float] = None,
    regions: Optional[int] = None,
    leave_rate: Optional[float] = None,
) -> WorkloadScenario:
    """Construct a named workload scenario, with optional knob overrides.

    Overrides apply to the matching component: ``period``/``amplitude``
    reshape the diurnal cycle, ``onset``/``magnitude``/``decay`` the
    flash crowd, ``regions``/``leave_rate`` the regional churn.
    """
    try:
        base = _scenarios()[name]
    except KeyError:
        raise KeyError(
            f"unknown workload scenario {name!r}; available: "
            f"{', '.join(workload_scenario_names())}"
        ) from None

    def rebuild(schedule: Schedule) -> Schedule:
        if isinstance(schedule, DiurnalSchedule):
            return DiurnalSchedule(
                period=period if period is not None else schedule.period,
                amplitude=amplitude if amplitude is not None
                else schedule.amplitude,
                base=schedule.base, phase=schedule.phase,
            )
        if isinstance(schedule, FlashCrowdSchedule):
            return FlashCrowdSchedule(
                onset=onset if onset is not None else schedule.onset,
                magnitude=magnitude if magnitude is not None
                else schedule.magnitude,
                decay=decay if decay is not None else schedule.decay,
                base=schedule.base,
            )
        if isinstance(schedule, CompositeSchedule):
            return CompositeSchedule(
                tuple(rebuild(part) for part in schedule.parts))
        return schedule

    regional = base.regional
    if regional is not None and (regions is not None
                                 or leave_rate is not None):
        regional = RegionalChurnSpec(
            n_regions=regions if regions is not None
            else regional.n_regions,
            leave_rate=leave_rate if leave_rate is not None
            else regional.leave_rate,
            mean_downtime=regional.mean_downtime,
            factor_spread=regional.factor_spread,
        )
    return WorkloadScenario(name=base.name, schedule=rebuild(base.schedule),
                            regional=regional)


class ScheduleEngine:
    """A schedule bound to a population: modulated maps and moving γ*.

    Parameters
    ----------
    population:
        The stationary fleet; the engine scales its arrival rates by
        ``m(t)``.
    scenario:
        The workload (schedule + optional regional churn).
    horizon:
        The run's time span — schedule bounds and the stability margin
        are validated over ``[0, horizon]``.
    seed:
        Drives the regional churn assignment only (rate schedules are
        rng-free); keep it independent of the run's fault/churn seeds.
    delay_model:
        The edge delay ``g(γ)`` of the modulated maps (None: paper's).
    levels:
        ``> 1`` quantizes ``m(t)`` onto a uniform grid and caches one
        compiled kernel per grid level — ``O(N log m)`` re-pricing per
        step instead of an ``O(N·m_max)`` staircase sweep, which is what
        makes N = 10⁵ tracking affordable. Both pricing *and* γ*(t) use
        the quantized level, so lag metrics stay self-consistent. ``0``
        (default) evaluates the schedule exactly.
    """

    def __init__(
        self,
        population: Population,
        scenario: WorkloadScenario,
        horizon: float,
        seed: SeedLike = 0,
        delay_model: Optional[EdgeDelayModel] = None,
        levels: int = 0,
    ):
        check_positive("horizon", horizon)
        if levels < 0:
            raise ValueError(f"levels must be >= 0, got {levels}")
        self.population = population
        self.scenario = scenario
        self.horizon = float(horizon)
        self.delay_model = delay_model
        low, high = scenario.schedule.bounds(self.horizon)
        if not (np.isfinite(low) and np.isfinite(high)) or low <= 0.0:
            raise ValueError(
                f"schedule must be positive and bounded on [0, {horizon:g}]; "
                f"got bounds ({low}, {high})"
            )
        a_max = float(population.arrival_rates.max())
        if high * a_max >= population.capacity:
            raise ValueError(
                f"schedule peak violates the stability margin: "
                f"sup m(t)·A_max = {high:g}·{a_max:g} >= "
                f"c = {population.capacity:g}; no interior MFNE exists at "
                f"the peak (Theorem 1 requires A_max < c)"
            )
        self.min_factor, self.max_factor = float(low), float(high)
        self.levels = int(levels)
        self._grid: Optional[np.ndarray] = None
        if self.levels > 1 and high > low:
            self._grid = np.linspace(low, high, self.levels)
        self._maps: Dict[float, MeanFieldMap] = {}
        self._gamma_cache: Dict[float, float] = {}
        self.regions: Optional[np.ndarray] = None
        self.region_factors: Optional[np.ndarray] = None
        self.churn: Optional[ChurnConfig] = None
        if scenario.regional is not None:
            self.churn, self.regions, self.region_factors = \
                regional_churn_config(scenario.regional, population.size,
                                      seed)

    # -- schedule evaluation ---------------------------------------------

    def factor(self, t: ArrayLike) -> ArrayLike:
        """The exact modulation ``m(t)``."""
        return self.scenario.schedule(t)

    def quantized_factor(self, t: float) -> float:
        """``m(t)``, snapped to the level grid when quantizing."""
        exact = float(self.scenario.schedule(float(t)))
        if self._grid is None:
            return exact
        index = int(np.argmin(np.abs(self._grid - exact)))
        return float(self._grid[index])

    @property
    def modulation(self):
        """The schedule as a device-side ``m(t)`` callable."""
        return self.scenario.schedule

    # -- modulated mean-field snapshots ----------------------------------

    def modulated_population(self, factor: float) -> Population:
        """The population with every arrival rate scaled by ``factor``."""
        if factor == 1.0:
            return self.population
        pop = self.population
        return Population(
            arrival_rates=pop.arrival_rates * factor,
            service_rates=pop.service_rates,
            offload_latencies=pop.offload_latencies,
            energy_local=pop.energy_local,
            energy_offload=pop.energy_offload,
            weights=pop.weights,
            capacity=pop.capacity,
        )

    def mean_field_at(self, t: float) -> MeanFieldMap:
        """The instantaneous best-response map at (quantized) ``m(t)``.

        With ``levels`` set, maps are compiled once per grid level and
        reused; otherwise a plain :class:`MeanFieldMap` is built fresh
        (construction is free — the staircase runs at evaluation time).
        """
        factor = self.quantized_factor(t)
        if self._grid is None:
            return MeanFieldMap(self.modulated_population(factor),
                                self.delay_model)
        cached = self._maps.get(factor)
        if cached is None:
            cached = MeanFieldMap(self.modulated_population(factor),
                                  self.delay_model).compile()
            self._maps[factor] = cached
        return cached

    def gamma_star(self, t: float) -> float:
        """The instantaneous MFNE γ*(t) of the modulated population.

        Solved by :func:`repro.core.equilibrium.solve_mfne` on the
        snapshot map and cached per (quantized) factor, so constant
        stretches of the schedule cost one bisection, not one per call.
        """
        factor = self.quantized_factor(t)
        key = round(factor, 12)
        cached = self._gamma_cache.get(key)
        if cached is None:
            cached = solve_mfne(self.mean_field_at(t)).utilization
            self._gamma_cache[key] = cached
        return cached
