"""Vectorized fast-path simulator: all N device queues stepped as arrays.

The event DES (:func:`repro.simulation.device.simulate_device`, each
device a set of callbacks on a :class:`repro.net.clock.Runtime`) executes
one Python callback per event, which caps practical populations at
~10³–10⁴ devices.
In the *Markovian* setting — Poisson arrivals, exponential service, TRO or
DPO admission — each device's queue is a continuous-time Markov chain, and
the whole population can be advanced simultaneously by **uniformization**:

* give every device one Poisson tick clock at the common rate
  ``R = max_i a_i + max_i s_i`` (equivalently: one global Poisson clock at
  rate ``N·R`` whose ticks are assigned to devices uniformly at random —
  by Poisson thinning the two constructions are the same process, and the
  per-device view lets all N chains advance in lock-step as array ops);
* at each tick a device draws one uniform ``u``: ``u·R < a_i`` is an
  arrival attempt (admitted by the threshold rule, with its own coin for
  the fractional part ``δ``), ``a_i ≤ u·R < a_i + s_i`` is a service
  attempt (a departure when the queue is busy), anything else is a
  self-loop;
* holding times between ticks are i.i.d. ``Exp(R)`` *independent of the
  state*, so time-weighted statistics (queue areas, busy time) accumulate
  exactly from per-tick exponential draws.

The jump chain plus exponential holding times reproduce the law of the
original CTMC exactly — this is not a discretization, so the fast path is
statistically equivalent to the event DES (pinned by
``tests/test_fastpath.py`` against both the DES and the Eq. 7/Eq. 8 closed
forms) while running ~R·T synchronized array steps instead of ~N·R·T
Python events.

The edge couples devices only through measured offload counts, so the
utilization signal is reduced from the batched ``offloaded`` array after
stepping, exactly like the event backend.

Supported models: :class:`~repro.simulation.measurement.ExponentialService`,
:class:`~repro.simulation.measurement.PoissonArrivals`, and
:class:`~repro.simulation.device.TroAdmission` /
:class:`~repro.simulation.device.DpoAdmission` policies (mixes allowed).
Anything non-Markovian (empirical/lognormal/deterministic service, renewal
arrivals) must use ``backend="event"``.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.obs.context import resolve_recorder
from repro.obs.recorder import Recorder
from repro.population.sampler import Population
from repro.simulation.device import AdmissionPolicy, DeviceStats, DpoAdmission, TroAdmission
from repro.simulation.measurement import (
    ArrivalModel,
    ExponentialService,
    MeasurementConfig,
    PoissonArrivals,
    ServiceModel,
)
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "FastpathUnsupportedError",
    "check_fastpath_supported",
    "simulate_devices_vectorized",
]


class FastpathUnsupportedError(ValueError):
    """The requested models violate the fast path's Markovian assumptions."""


def check_fastpath_supported(
    policies: Sequence[AdmissionPolicy],
    service_model: Optional[ServiceModel] = None,
    arrival_model: Optional[ArrivalModel] = None,
) -> None:
    """Raise :class:`FastpathUnsupportedError` unless the setting is Markovian.

    The vectorized backend is exact only for Poisson arrivals, exponential
    service, and queue-threshold (TRO) or queue-oblivious (DPO) admission;
    everything else needs the event DES.
    """
    if service_model is not None and not isinstance(service_model, ExponentialService):
        raise FastpathUnsupportedError(
            f"backend='vectorized' requires exponential service times; "
            f"got {service_model!r} (use backend='event')"
        )
    if arrival_model is not None and not isinstance(arrival_model, PoissonArrivals):
        raise FastpathUnsupportedError(
            f"backend='vectorized' requires Poisson arrivals; "
            f"got {arrival_model!r} (use backend='event')"
        )
    for index, policy in enumerate(policies):
        if not isinstance(policy, (TroAdmission, DpoAdmission)):
            raise FastpathUnsupportedError(
                f"backend='vectorized' supports TroAdmission/DpoAdmission "
                f"policies only; policy {index} is {policy!r}"
            )


def _policy_arrays(policies: Sequence[AdmissionPolicy]):
    """Split policies into (is_dpo, floor k, fraction δ, DPO admit prob)."""
    n = len(policies)
    is_dpo = np.zeros(n, dtype=bool)
    floor = np.zeros(n, dtype=np.int64)
    fraction = np.zeros(n)
    dpo_admit = np.zeros(n)
    for i, policy in enumerate(policies):
        if isinstance(policy, DpoAdmission):
            is_dpo[i] = True
            dpo_admit[i] = 1.0 - policy.offload_prob
        else:
            floor[i] = int(math.floor(policy.threshold))
            fraction[i] = policy.threshold - floor[i]
    return is_dpo, floor, fraction, dpo_admit


def simulate_devices_vectorized(
    population: Population,
    policies: Sequence[AdmissionPolicy],
    config: Optional[MeasurementConfig] = None,
    rng: SeedLike = None,
    recorder: Optional[Recorder] = None,
    max_steps: Optional[int] = None,
    modulation: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    modulation_bound: Optional[float] = None,
) -> List[DeviceStats]:
    """Simulate all devices at once; return per-device :class:`DeviceStats`.

    Drop-in statistics for the event backend's per-device loop: counts are
    collected for events at times ``≥ warmup`` and time averages over
    ``[warmup, horizon]``, mirroring :func:`repro.simulation.device.simulate_device`.
    ``mean_local_sojourn`` is the Little's-law estimate ``∫Q dt / completions``
    (the fast path tracks occupancies, not per-task lifecycles).

    ``rng`` seeds one generator for the whole batch (default: ``config.seed``),
    so a given seed fully determines the output — the property
    :func:`repro.simulation.system.simulate_system_replicated` relies on for
    bit-identical results at any ``--jobs`` count. ``max_steps`` bounds the
    synchronized tick loop (a safety valve; the loop terminates almost
    surely after ~``R·horizon`` steps).

    ``modulation`` makes the arrival processes *inhomogeneous* Poisson:
    a vectorized schedule ``m(t)`` (see :mod:`repro.workload.schedule`)
    evaluated at each device's own tick time scales its arrival rate to
    ``a_i·m(t)``. This is time-dependent uniformization — thinning a
    homogeneous clock at ``R = max_i a_i · sup m + max_i s_i`` — so an
    explicit ``modulation_bound ≥ sup_t m(t)`` is required (exceeding it
    at runtime is an error: the thinning probabilities would silently
    saturate). ``modulation=None`` draws the exact rng sequence the
    stationary path always drew.
    """
    config = config or MeasurementConfig()
    n = population.size
    if len(policies) != n:
        raise ValueError(f"need {n} policies, got {len(policies)}")
    check_fastpath_supported(policies)

    arrival = population.arrival_rates
    service = population.service_rates
    horizon = float(config.horizon)
    warmup = float(config.warmup)
    if modulation is not None:
        if modulation_bound is None or not modulation_bound > 0:
            raise ValueError(
                "modulation requires modulation_bound > 0 with "
                "modulation_bound >= sup_t m(t) (the uniformization rate "
                "must dominate the peak arrival rate)"
            )
        bound = float(modulation_bound)
        rate = float(arrival.max() * bound + service.max())
    else:
        rate = float(arrival.max() + service.max())   # uniformization rate R
    gen = as_generator(config.seed if rng is None else rng)
    is_dpo, floor, fraction, dpo_admit = _policy_arrays(policies)

    queue = np.zeros(n, dtype=np.int64)
    clock = np.zeros(n)                   # per-device current time
    queue_area = np.zeros(n)              # ∫ Q dt over [warmup, horizon]
    busy_time = np.zeros(n)               # ∫ 1{Q>0} dt over [warmup, horizon]
    arrivals = np.zeros(n, dtype=np.int64)
    admitted = np.zeros(n, dtype=np.int64)
    offloaded = np.zeros(n, dtype=np.int64)
    completed = np.zeros(n, dtype=np.int64)

    # The tick loop runs ~R·horizon times; at N = 10⁶⁺ devices every
    # throwaway N-element temporary costs more than the arithmetic it
    # carries. All per-tick arrays live in these preallocated buffers and
    # are filled with `out=` ufunc calls — the draws, the operations, and
    # their order are unchanged, so every accumulated float (and the rng
    # stream) is bit-identical to the allocating loop this replaces.
    stationary_band = arrival + service   # λ + s, fixed unless modulated
    tick = np.empty(n)
    segment = np.empty(n)
    lower = np.empty(n)
    scratch = np.empty(n)
    coins = np.empty((2, n))
    scaled = np.empty(n)
    admit_prob = np.empty(n)
    busy = np.empty(n, dtype=bool)
    active = np.empty(n, dtype=bool)
    fires = np.empty(n, dtype=bool)
    arrival_event = np.empty(n, dtype=bool)
    service_event = np.empty(n, dtype=bool)
    admit_event = np.empty(n, dtype=bool)
    offload_event = np.empty(n, dtype=bool)
    observed = np.empty(n, dtype=bool)

    obs = resolve_recorder(recorder)
    steps = 0
    with obs.timer("fastpath.seconds"):
        while True:
            if max_steps is not None and steps >= max_steps:
                raise RuntimeError(
                    f"fastpath exceeded max_steps={max_steps} "
                    f"(clock range [{clock.min():g}, {clock.max():g}], "
                    f"horizon {horizon:g})"
                )
            steps += 1
            # One synchronized tick: state `queue` holds for Exp(R) on every
            # still-running device, then one uniformized transition fires.
            holding = gen.exponential(1.0 / rate, size=n)
            np.add(clock, holding, out=tick)
            np.less(clock, horizon, out=active)
            np.minimum(tick, horizon, out=segment)
            np.maximum(clock, warmup, out=lower)
            segment -= lower
            np.clip(segment, 0.0, None, out=segment)
            segment *= active
            np.greater(queue, 0, out=busy)
            np.multiply(queue, segment, out=scratch)
            queue_area += scratch
            np.multiply(busy, segment, out=scratch)
            busy_time += scratch

            np.less(tick, horizon, out=fires)
            fires &= active
            if not fires.any():
                break
            gen.random(out=coins)
            np.multiply(coins[0], rate, out=scaled)
            if modulation is None:
                lam = arrival
                band = stationary_band
            else:
                # Inhomogeneous thinning: λ_i(t) = a_i·m(t) at device i's
                # own tick time. The factors must stay under the declared
                # bound or the uniformized bands overflow R.
                factors = np.asarray(modulation(tick), dtype=float)
                if factors.max() > bound * (1.0 + 1e-12):
                    raise ValueError(
                        f"modulation exceeded its declared bound: "
                        f"m(t)={factors.max():g} > {bound:g}"
                    )
                lam = arrival * factors
                band = lam + service
            np.less(scaled, lam, out=arrival_event)
            arrival_event &= fires
            # service band: λ ≤ u·R < λ + s, queue busy.
            np.less(scaled, band, out=service_event)
            service_event &= ~arrival_event
            service_event &= fires
            service_event &= busy
            # Admission probability given the pre-arrival queue (PASTA):
            # TRO admits below ⌊x⌋, coin-flips δ at ⌊x⌋, refuses above;
            # DPO ignores the queue entirely. Disjoint masked writes give
            # the same floats as the nested np.where this replaces.
            admit_prob[:] = 0.0
            np.copyto(admit_prob, fraction, where=(queue == floor))
            np.copyto(admit_prob, 1.0, where=(queue < floor))
            np.copyto(admit_prob, dpo_admit, where=is_dpo)
            np.less(coins[1], admit_prob, out=admit_event)
            admit_event &= arrival_event

            np.greater_equal(tick, warmup, out=observed)
            np.logical_and(arrival_event, ~admit_event, out=offload_event)
            arrival_event &= observed
            admit_event_obs = admit_event & observed
            offload_event &= observed
            service_event_obs = service_event & observed
            arrivals += arrival_event
            admitted += admit_event_obs
            offloaded += offload_event
            completed += service_event_obs
            queue += admit_event
            queue -= service_event
            clock, tick = tick, clock

    if obs.enabled:
        obs.count("fastpath.runs")
        obs.count("fastpath.devices", n)
        obs.count("fastpath.ticks", steps * n)
        obs.observe("fastpath.steps", steps)
        obs.event(
            "fastpath.run",
            n_devices=n,
            uniformization_rate=rate,
            steps=steps,
            horizon=horizon,
            warmup=warmup,
        )

    observation = horizon - warmup
    with np.errstate(invalid="ignore"):
        sojourn = np.where(completed > 0, queue_area / np.maximum(completed, 1), 0.0)
    return [
        DeviceStats(
            observation_time=observation,
            arrivals=int(arrivals[i]),
            admitted=int(admitted[i]),
            offloaded=int(offloaded[i]),
            completed=int(completed[i]),
            time_avg_queue=float(queue_area[i] / observation),
            mean_local_sojourn=float(sojourn[i]),
            busy_fraction=float(busy_time[i] / observation),
        )
        for i in range(n)
    ]
