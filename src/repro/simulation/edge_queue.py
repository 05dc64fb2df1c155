"""A multi-server FCFS edge queue, simulated on the virtual-time event loop.

The paper treats the edge as a delay curve; this simulator treats it as a
physical M/G/k system — ``k`` parallel servers behind one FCFS queue — so
the delay curve can be *measured* instead of assumed
(:mod:`repro.experiments.edge_model` does exactly that, and validates the
measurement against the Erlang-C closed forms of
:mod:`repro.queueing.erlang`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.net.clock import Runtime
from repro.population.distributions import Distribution
from repro.simulation.device import run_des
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_int_positive, check_non_negative, check_positive


@dataclass(frozen=True)
class EdgeQueueStats:
    """Measured behaviour of the multi-server edge over the observation."""

    observation_time: float
    arrivals: int
    completed: int
    mean_waiting_time: float        # time in queue before a server
    mean_sojourn_time: float        # queue + service
    time_avg_queue: float           # tasks in system (waiting + in service)
    mean_busy_servers: float

    @property
    def utilization(self) -> float:
        """Average busy-server fraction (ρ for an M/M/k)."""
        return self.mean_busy_servers


def simulate_edge_queue(
    arrival_rate: float,
    service: Distribution,
    servers: int,
    horizon: float,
    rng: SeedLike = None,
    warmup: float = 0.0,
) -> EdgeQueueStats:
    """Simulate a k-server FCFS queue for ``horizon`` time units."""
    check_positive("arrival_rate", arrival_rate)
    check_int_positive("servers", servers)
    check_positive("horizon", horizon)
    check_non_negative("warmup", warmup)
    if warmup >= horizon:
        raise ValueError(f"warmup ({warmup}) must be < horizon ({horizon})")
    gen = as_generator(rng)
    sim = Runtime()

    state = _EdgeState(servers=servers)

    def on_departure(arrival_time=None) -> None:
        state.close_intervals(sim.now, warmup)
        state.in_system -= 1
        state.busy -= 1
        if sim.now >= warmup:
            state.completed += 1
            if arrival_time is not None:
                # Only tasks whose service started inside the observation
                # window carry a tracked sojourn (see _start_service).
                state.sojourn_total += sim.now - arrival_time
                state.tracked_completions += 1
        if state.waiting:
            _start_service(state.waiting.pop(0))

    def _start_service(arrival_time: float) -> None:
        state.busy += 1
        duration = float(service.sample(gen))
        if sim.now >= warmup:
            state.wait_total += sim.now - arrival_time
            state.started += 1
            sim.call_later(
                duration, lambda t=arrival_time: on_departure(t)
            )
        else:
            sim.call_later(duration, on_departure)

    def on_arrival() -> None:
        state.close_intervals(sim.now, warmup)
        if sim.now >= warmup:
            state.arrivals += 1
        state.in_system += 1
        if state.busy < state.servers:
            _start_service(sim.now)
        else:
            state.waiting.append(sim.now)
        sim.call_later(gen.exponential(1.0 / arrival_rate), on_arrival)

    sim.call_later(gen.exponential(1.0 / arrival_rate), on_arrival)
    if warmup > 0:
        sim.call_at(warmup, lambda: state.reset_observation(warmup))
    run_des(sim, horizon)
    state.close_intervals(horizon, warmup)

    observation = horizon - warmup
    return EdgeQueueStats(
        observation_time=observation,
        arrivals=state.arrivals,
        completed=state.completed,
        mean_waiting_time=(state.wait_total / state.started
                           if state.started else 0.0),
        mean_sojourn_time=(state.sojourn_total / state.tracked_completions
                           if state.tracked_completions else 0.0),
        time_avg_queue=state.queue_area / observation,
        mean_busy_servers=state.busy_area / observation / state.servers,
    )


class _EdgeState:
    """Mutable bookkeeping for the multi-server simulation."""

    def __init__(self, servers: int):
        self.servers = servers
        self.in_system = 0
        self.busy = 0
        self.waiting: List[float] = []      # arrival times of queued tasks
        self.arrivals = 0
        self.completed = 0
        self.tracked_completions = 0
        self.started = 0
        self.wait_total = 0.0
        self.sojourn_total = 0.0
        self.queue_area = 0.0
        self.busy_area = 0.0
        self._last_update = 0.0
        self._observing_from = 0.0

    def close_intervals(self, now: float, warmup: float) -> None:
        start = max(self._last_update, self._observing_from)
        if now > start:
            self.queue_area += self.in_system * (now - start)
            self.busy_area += self.busy * (now - start)
        self._last_update = now

    def reset_observation(self, warmup: float) -> None:
        self._observing_from = warmup
        self.queue_area = 0.0
        self.busy_area = 0.0
        self.arrivals = 0
        self.completed = 0
        self.tracked_completions = 0
        self.started = 0
        self.wait_total = 0.0
        self.sojourn_total = 0.0
