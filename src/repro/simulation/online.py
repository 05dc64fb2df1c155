"""One continuous simulation of the whole system — no iteration restarts.

The paper justifies its analysis with a *quasi-stationary* two-timescale
argument: the edge utilisation equilibrates fast, devices update their
thresholds slowly, so each update sees an effectively stationary γ. The
iteration-based experiments discretise that into rounds; this module
simulates it literally, in one uninterrupted discrete-event run:

* every device's arrivals, admissions, and services run on one shared
  event loop (the actors' :class:`~repro.net.clock.Runtime`) — queues are
  never reset;
* the edge measures its utilisation over a *sliding window* of recent
  offload arrivals and, every ``broadcast_interval``, applies the
  Algorithm-1 sign-step update to its estimate γ̂ and broadcasts it;
* each device carries an independent Poisson *update clock* (mean interval
  ``update_interval``); on each tick it best-responds to the latest
  broadcast with Lemma 1 — devices are never synchronised.

The resulting trajectory ``γ̂(t), γ_window(t)`` converging onto the
mean-field γ* is the closest thing in this repository to watching a real
deployment run Algorithm 1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.dtu import DtuStepper
from repro.core.edge_delay import EdgeDelayModel
from repro.core.kernels import (
    CompiledMeanField,
    check_kernel,
    compile_mean_field,
)
from repro.net.clock import Runtime
from repro.population.sampler import Population
from repro.simulation.device import run_des
from repro.simulation.measurement import ExponentialService, ServiceModel
from repro.utils.rng import SeedLike, spawn_streams
from repro.utils.validation import check_positive


class WindowedRateEstimator:
    """Sliding-window event-rate → utilisation estimator (the edge side).

    Records ``(time, count)`` entries and reports the utilisation over the
    trailing ``window``: ``count / span / total_capacity``, capped at 1.
    A running total keeps both ``record`` and the per-entry pruning of
    ``measure`` O(1), however many events one entry carries.
    During warm-up (``now < window``) the span is the time actually
    elapsed, so early estimates are not biased low by a mostly-empty
    window; at ``now == 0`` the span falls back to the nominal window
    (never a division by zero), and an empty window measures 0 — edge
    cases the continuous run hits on its first broadcasts.
    """

    def __init__(self, window: float, total_capacity: float):
        self.window = check_positive("window", window)
        self.total_capacity = check_positive("total_capacity", total_capacity)
        self._entries: deque = deque()
        self._total = 0

    def record(self, time: float, count: int = 1) -> None:
        """Log ``count`` events at ``time`` (times must be non-decreasing)."""
        self._entries.append((time, count))
        self._total += count

    @property
    def count(self) -> int:
        """Events currently retained (pruning happens on ``measure``)."""
        return self._total

    def measure(self, now: float) -> float:
        """Utilisation over ``(now − window, now]``, in ``[0, 1]``."""
        cutoff = now - self.window
        entries = self._entries
        while entries and entries[0][0] < cutoff:
            self._total -= entries.popleft()[1]
        span = min(self.window, now) or self.window
        return min(1.0, self._total / span / self.total_capacity)


@dataclass
class OnlineTrace:
    """Sampled trajectory of the continuous run (one row per broadcast)."""

    times: List[float] = field(default_factory=list)
    estimated: List[float] = field(default_factory=list)     # γ̂(t)
    measured: List[float] = field(default_factory=list)      # window γ(t)
    mean_threshold: List[float] = field(default_factory=list)

    def as_arrays(self) -> dict:
        return {key: np.asarray(value) for key, value in (
            ("times", self.times), ("estimated", self.estimated),
            ("measured", self.measured),
            ("mean_threshold", self.mean_threshold),
        )}


@dataclass(frozen=True)
class OnlineResult:
    trace: OnlineTrace
    final_estimate: float
    final_measured: float
    broadcasts: int

    def tail_mean_measured(self, fraction: float = 0.25) -> float:
        """Mean window-measured γ over the last ``fraction`` of the run."""
        measured = self.trace.measured
        start = int(len(measured) * (1.0 - fraction))
        return float(np.mean(measured[start:]))


class OnlineSimulation:
    """The continuous-time, asynchronous form of Algorithm 1.

    Every device update is an ``O(log M_n)`` probe into one shared
    compiled kernel — built here, or passed in as ``kernel``, which then
    fixes the population and the delay model (see
    :func:`~repro.core.kernels.check_kernel`).
    """

    def __init__(
        self,
        population: Population,
        delay_model: Optional[EdgeDelayModel] = None,
        service_model: Optional[ServiceModel] = None,
        broadcast_interval: float = 5.0,
        update_interval: float = 10.0,
        window: float = 20.0,
        initial_step: float = 0.1,
        seed: SeedLike = None,
        kernel: Optional[CompiledMeanField] = None,
    ):
        self.population = population
        self.kernel = compile_mean_field(population, delay_model) \
            if kernel is None \
            else check_kernel(kernel, population, delay_model)
        self.delay_model = self.kernel.delay_model
        self.service_model = service_model or ExponentialService()
        self.broadcast_interval = check_positive("broadcast_interval",
                                                 broadcast_interval)
        self.update_interval = check_positive("update_interval",
                                              update_interval)
        self.window = check_positive("window", window)
        if not 0.0 < initial_step <= 1.0:
            raise ValueError("initial_step must be in (0, 1]")
        self.initial_step = initial_step
        self.seed = seed

    def run(self, duration: float) -> OnlineResult:
        check_positive("duration", duration)
        population = self.population
        n = population.size
        streams = spawn_streams(self.seed, n + 2)
        device_rngs = streams[:n]
        update_rng = streams[n]

        sim = Runtime()
        trace = OnlineTrace()

        # --- shared state -------------------------------------------------
        queues = np.zeros(n, dtype=np.int64)
        thresholds = np.zeros(n)          # devices start offloading all
        floors = np.zeros(n, dtype=np.int64)
        fractions = np.zeros(n)
        estimator = WindowedRateEstimator(
            self.window, n * population.capacity
        )
        stepper = DtuStepper(initial_step=self.initial_step)
        broadcasts = 0
        kernel = self.kernel
        services = [
            self.service_model.distribution(float(population.service_rates[i]))
            for i in range(n)
        ]

        def set_threshold(i: int, value: float) -> None:
            thresholds[i] = value
            floors[i] = int(np.floor(value))
            fractions[i] = value - floors[i]

        def admits(i: int) -> bool:
            q = queues[i]
            if q < floors[i]:
                return True
            if q == floors[i] and fractions[i] > 0.0:
                return bool(device_rngs[i].random() < fractions[i])
            return False

        # --- device processes ----------------------------------------------
        def on_departure(i: int) -> None:
            queues[i] -= 1
            if queues[i] > 0:
                sim.call_later(float(services[i].sample(device_rngs[i])),
                               lambda: on_departure(i))

        def on_arrival(i: int) -> None:
            if admits(i):
                queues[i] += 1
                if queues[i] == 1:
                    sim.call_later(
                        float(services[i].sample(device_rngs[i])),
                        lambda: on_departure(i),
                    )
            else:
                estimator.record(sim.now)
            sim.call_later(
                float(device_rngs[i].exponential(
                    1.0 / population.arrival_rates[i])),
                lambda: on_arrival(i),
            )

        def on_threshold_update(i: int) -> None:
            set_threshold(i, float(kernel.user_threshold(i, stepper.estimate)))
            sim.call_later(
                float(update_rng.exponential(self.update_interval)),
                lambda: on_threshold_update(i),
            )

        # --- edge process ---------------------------------------------------
        def on_broadcast() -> None:
            nonlocal broadcasts
            measured = estimator.measure(sim.now)
            # Eq. 4 sign step + oscillation rule (Algorithm 1, lines 9–14).
            new_estimate = stepper.update(measured)
            broadcasts += 1
            trace.times.append(sim.now)
            trace.estimated.append(new_estimate)
            trace.measured.append(measured)
            trace.mean_threshold.append(float(thresholds.mean()))
            sim.call_later(self.broadcast_interval, on_broadcast)

        # --- bootstrap -------------------------------------------------------
        for i in range(n):
            sim.call_later(
                float(device_rngs[i].exponential(
                    1.0 / population.arrival_rates[i])),
                lambda i=i: on_arrival(i),
            )
            sim.call_later(
                float(update_rng.exponential(self.update_interval)),
                lambda i=i: on_threshold_update(i),
            )
        sim.call_later(self.broadcast_interval, on_broadcast)
        run_des(sim, duration)

        return OnlineResult(
            trace=trace,
            final_estimate=stepper.estimate,
            final_measured=trace.measured[-1] if trace.measured else 0.0,
            broadcasts=broadcasts,
        )
