"""Simulation of a single mobile device's local queue.

Each device is an FCFS single-server queue fed by a Poisson task stream.
An :class:`AdmissionPolicy` decides, per arriving task and based on the
current number of tasks in the device, whether the task joins the local
queue or is offloaded (the paper's TRO policy, plus the queue-oblivious
DPO policy for the baseline). Service times come from any
:class:`~repro.population.distributions.Distribution`, which is exactly
what the "practical settings" need — empirical YOLOv3 processing times
instead of exponentials.

Devices do not interact through their queues (the edge's influence enters
only through costs and threshold choices), so the system simulator runs
one device process per user on its own event loop. Every discrete-event
simulation of :mod:`repro.simulation` (this one, the edge queue, the
continuous Algorithm-1 run) is a set of callbacks on the actors' virtual
clock, :class:`~repro.net.clock.Runtime`, and ends through
:func:`run_des`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.simulation.trace import TaskTraceRecorder

import numpy as np

from repro.net.clock import Runtime
from repro.obs.context import get_recorder
from repro.population.distributions import Distribution
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_non_negative, check_positive, check_probability


def run_des(runtime: Runtime, horizon: float) -> None:
    """Fire ``runtime``'s events up to ``horizon`` (an event at exactly
    ``horizon`` fires) and count the run on the ambient recorder."""
    runtime.run((), until=horizon)
    obs = get_recorder()
    if obs.enabled:
        obs.count("des.runs")
        obs.count("des.events_fired", runtime.events_fired)


class AdmissionPolicy(ABC):
    """Decides whether an arriving task is processed locally."""

    @abstractmethod
    def admits(self, queue_length: int, rng: np.random.Generator) -> bool:
        """True → join the local queue; False → offload to the edge."""


class TroAdmission(AdmissionPolicy):
    """The paper's Threshold-based Randomized Offloading policy.

    With threshold ``x = k + δ``: admit when the queue is below ``k``,
    admit with probability ``δ`` at exactly ``k``, offload above.
    """

    def __init__(self, threshold: float):
        check_non_negative("threshold", threshold)
        self.threshold = float(threshold)
        self._floor = int(math.floor(threshold))
        self._fraction = self.threshold - self._floor

    def admits(self, queue_length: int, rng: np.random.Generator) -> bool:
        if queue_length < self._floor:
            return True
        if queue_length == self._floor:
            return self._fraction > 0.0 and rng.random() < self._fraction
        return False

    def __repr__(self) -> str:
        return f"TroAdmission(threshold={self.threshold:g})"


class DpoAdmission(AdmissionPolicy):
    """Queue-oblivious probabilistic offloading (the DPO baseline).

    Every arriving task is offloaded with probability ``offload_prob``
    regardless of the queue state.
    """

    def __init__(self, offload_prob: float):
        self.offload_prob = check_probability("offload_prob", offload_prob)

    def admits(self, queue_length: int, rng: np.random.Generator) -> bool:
        return rng.random() >= self.offload_prob

    def __repr__(self) -> str:
        return f"DpoAdmission(offload_prob={self.offload_prob:g})"


@dataclass(frozen=True)
class DeviceStats:
    """Measured behaviour of one device over the observation window."""

    observation_time: float
    arrivals: int                  # tasks arriving during observation
    admitted: int                  # processed locally
    offloaded: int
    completed: int                 # local completions during observation
    time_avg_queue: float          # measured Q̂
    mean_local_sojourn: float      # mean time-in-device of completed tasks
    busy_fraction: float           # fraction of time the server worked

    @property
    def offload_fraction(self) -> float:
        """Measured α̂ — the empirical offloading probability."""
        if self.arrivals == 0:
            return 0.0
        return self.offloaded / self.arrivals

    @property
    def admitted_rate(self) -> float:
        if self.observation_time <= 0:
            return 0.0
        return self.admitted / self.observation_time


def simulate_device(
    arrival_rate: float,
    service: Distribution,
    policy: AdmissionPolicy,
    horizon: float,
    rng: SeedLike = None,
    warmup: float = 0.0,
    initial_queue: int = 0,
    recorder: "Optional[TaskTraceRecorder]" = None,
    interarrival: Optional[Distribution] = None,
) -> DeviceStats:
    """Simulate one device for ``horizon`` time units.

    Statistics are collected only after ``warmup``; the queue state carries
    over so the observation window starts near stationarity. Pass a
    :class:`~repro.simulation.trace.TaskTraceRecorder` as ``recorder`` to
    capture every task's lifecycle (arrival, decision, service start,
    departure) for distributional analysis.

    By default arrivals are Poisson(``arrival_rate``); pass an
    ``interarrival`` distribution to simulate a general renewal arrival
    process instead (its mean should be ``1/arrival_rate`` for the rate
    bookkeeping to stay meaningful) — used by the burstiness-robustness
    experiments, since the paper's theory assumes Poisson arrivals.
    """
    check_positive("arrival_rate", arrival_rate)
    check_positive("horizon", horizon)
    check_non_negative("warmup", warmup)
    if warmup >= horizon:
        raise ValueError(f"warmup ({warmup}) must be < horizon ({horizon})")
    gen = as_generator(rng)
    sim = Runtime()

    state = _DeviceState(initial_queue=initial_queue)

    def sample_service() -> float:
        return float(service.sample(gen))

    def sample_interarrival() -> float:
        if interarrival is None:
            return float(gen.exponential(1.0 / arrival_rate))
        return float(interarrival.sample(gen))

    def on_departure() -> None:
        state.close_queue_interval(sim.now)
        state.queue -= 1
        finished_id, finished_enqueue_time = state.pending.pop(0)
        if recorder is not None:
            recorder.on_departure(finished_id, sim.now)
        if sim.now >= warmup:
            state.completed += 1
            # Tasks admitted before the warmup boundary still count: their
            # sojourn is measured exactly, and dropping them would bias the
            # estimate toward short stays.
            state.sojourn_total += sim.now - finished_enqueue_time
            # Busy time accrues per completed service; back-to-back services
            # within one busy period each contribute their own interval.
            state.busy_time += sim.now - max(state.service_started, warmup)
        if state.queue > 0:
            _start_service(sim.now)

    def _start_service(now: float) -> None:
        state.service_started = now
        if recorder is not None:
            recorder.on_service_start(state.pending[0][0], now)
        sim.call_later(sample_service(), on_departure)

    def on_arrival() -> None:
        state.close_queue_interval(sim.now)
        task_id = state.next_task_id
        state.next_task_id += 1
        if sim.now >= warmup:
            state.arrivals += 1
        admitted = policy.admits(state.queue, gen)
        if recorder is not None:
            recorder.on_arrival(task_id, sim.now, admitted)
        if admitted:
            state.pending.append((task_id, sim.now))
            state.queue += 1
            if sim.now >= warmup:
                state.admitted += 1
            if state.queue == 1:
                _start_service(sim.now)
        else:
            if sim.now >= warmup:
                state.offloaded += 1
        sim.call_later(sample_interarrival(), on_arrival)

    # Seed the initial backlog (tasks already in the device at t = 0).
    # Seeded tasks carry negative ids, which the recorder ignores: they
    # model pre-existing work, not arrivals of the traced process.
    for seeded in range(initial_queue):
        state.pending.append((-1 - seeded, 0.0))
    if initial_queue > 0:
        _start_service(0.0)
    sim.call_later(sample_interarrival(), on_arrival)

    def start_observation() -> None:
        state.reset_observation(warmup)

    if warmup > 0:
        sim.call_at(warmup, start_observation)
    run_des(sim, horizon)
    state.close_queue_interval(horizon)
    if state.queue > 0:
        # A service is still in flight at the horizon; count its elapsed part.
        state.busy_time += horizon - max(state.service_started, warmup)

    observation = horizon - warmup
    return DeviceStats(
        observation_time=observation,
        arrivals=state.arrivals,
        admitted=state.admitted,
        offloaded=state.offloaded,
        completed=state.completed,
        time_avg_queue=state.queue_area / observation,
        mean_local_sojourn=(state.sojourn_total / state.completed
                            if state.completed else 0.0),
        busy_fraction=state.busy_time / observation,
    )


class _DeviceState:
    """Mutable bookkeeping shared by the event callbacks."""

    def __init__(self, initial_queue: int = 0):
        if initial_queue < 0:
            raise ValueError("initial_queue must be >= 0")
        self.queue = initial_queue
        self.pending: List[Tuple[int, float]] = []   # (task_id, enqueue time)
        self.next_task_id = 0
        self.arrivals = 0
        self.admitted = 0
        self.offloaded = 0
        self.completed = 0
        self.sojourn_total = 0.0
        self.queue_area = 0.0
        self.busy_time = 0.0
        self.service_started = 0.0
        self._last_update = 0.0
        self._observing_from = 0.0

    def close_queue_interval(self, now: float) -> None:
        """Accumulate queue area for [last_update, now] ∩ observation."""
        start = max(self._last_update, self._observing_from)
        if now > start:
            self.queue_area += self.queue * (now - start)
        self._last_update = now

    def reset_observation(self, warmup: float) -> None:
        """Forget pre-warmup statistics; keep the queue state."""
        self._observing_from = warmup
        self.queue_area = 0.0
        self.busy_time = 0.0
        self.arrivals = 0
        self.admitted = 0
        self.offloaded = 0
        self.completed = 0
        self.sojourn_total = 0.0
