"""Wire the actors together: configuration, runner, and result types.

:func:`run_net_dtu` is the network-runtime analogue of
:func:`repro.core.dtu.run_dtu`, and the one code that builds and runs a
single-edge fleet: it takes a run's environment from
:func:`build_environment` (a deterministic
:class:`~repro.net.clock.Runtime`, a
:class:`~repro.net.transport.LocalTransport` optionally wrapped in a
:class:`~repro.net.transport.FaultyTransport`, and the churn timelines),
one device per user of a
:class:`~repro.population.sampler.Population` from :func:`build_devices`,
and an :class:`~repro.net.actors.EdgeCoordinator`, then drives the whole
fleet to convergence (or the horizon) in virtual time through
:func:`run_fleet`. The sharded runner
(:func:`repro.net.sharded.run_sharded_dtu`) shares the environment and
the drive; the workload runner
(:func:`repro.workload.runner.run_workload_net`) is this function with a
rate schedule ``modulation`` and learning ``policies``.

Two contracts, both pinned by ``tests/test_net.py``:

* with no faults, no churn, and a synchronous schedule the γ̂ trajectory
  equals the one from ``run_dtu`` with the analytic ``J1`` oracle **to the
  bit**;
* the same ``NetConfig`` (including ``seed``) yields a bit-identical
  message log on every rerun — fault draws, churn timelines, and delivery
  order are all functions of the seed alone.

Seeds for the fault process and the churn process are derived from
``NetConfig.seed`` via :func:`repro.runtime.task.derive_seeds`, so the two
random streams stay independent however many draws each consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.edge_delay import PAPER_DELAY_MODEL, EdgeDelayModel
from repro.net.actors import (
    DeviceAgent, EdgeCoordinator, FleetResponses, LearningDeviceAgent,
    NetTrace,
)
from repro.core.kernels import (
    CompiledMeanField,
    check_kernel,
    compile_mean_field,
)
from repro.net.churn import ChurnConfig, ChurnModel
from repro.net.clock import Runtime
from repro.net.messages import MessageLog
from repro.net.transport import (
    FaultConfig, FaultyTransport, LocalTransport, Transport,
)
from repro.obs.context import resolve_recorder
from repro.obs.recorder import Recorder, finish_spans
from repro.population.sampler import Population
from repro.runtime.task import derive_seeds
from repro.utils.rng import SeedLike
from repro.utils.validation import (
    check_int_positive,
    check_positive,
    check_unit_interval,
)


@dataclass(frozen=True)
class NetConfig:
    """Everything that parameterises a network DTU run.

    The DTU hyperparameters (``initial_step``, ``tolerance``,
    ``initial_estimate``) mean exactly what they do in
    :class:`repro.core.dtu.DtuConfig`; the rest governs timing, fault
    injection, and churn.  All times are virtual-clock units.
    """

    # -- Algorithm 1 hyperparameters --
    initial_step: float = 0.1
    tolerance: float = 1e-2
    initial_estimate: float = 0.0
    max_rounds: int = 500            # broadcast budget (incl. retries)

    # -- coordinator timing --
    report_timeout: float = 1.0      # wait after a broadcast before measuring
    report_window: float = 3.0       # sliding window for usable reports
    liveness_timeout: Optional[float] = 10.0   # silence ⇒ presumed dead
    heartbeat_interval: float = 0.0  # 0 disables device heartbeats
    silence_decay: float = 0.5       # η multiplier on a fully-silent round
    backoff: float = 2.0             # wait multiplier after silence
    max_backoff: float = 8.0         # wait ceiling

    # -- environment --
    faults: Optional[FaultConfig] = None
    churn: Optional[ChurnConfig] = None
    seed: SeedLike = 0               # pins fault draws and churn timelines
    log_messages: bool = True        # False keeps only counters (big runs)
    horizon: Optional[float] = None  # None → derived from the round budget

    def __post_init__(self) -> None:
        check_unit_interval("initial_step", self.initial_step, open_left=True)
        check_unit_interval("tolerance", self.tolerance,
                            open_left=True, open_right=True)
        check_unit_interval("initial_estimate", self.initial_estimate)
        check_int_positive("max_rounds", self.max_rounds)
        check_positive("report_timeout", self.report_timeout)
        check_positive("report_window", self.report_window)
        if self.liveness_timeout is not None:
            check_positive("liveness_timeout", self.liveness_timeout)
        check_unit_interval("silence_decay", self.silence_decay)
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        check_positive("max_backoff", self.max_backoff)
        if self.max_backoff < self.report_timeout:   # would shorten waits
            raise ValueError(f"max_backoff must be >= report_timeout, "
                             f"got {self.max_backoff}")

    def resolved_horizon(self) -> float:
        """The run's hard virtual-time limit.

        Every coordinator round waits at most ``max_backoff``, so the
        budgeted rounds fit under this horizon with one round of slack
        for in-flight deliveries.
        """
        if self.horizon is not None:
            return self.horizon
        return self.max_backoff * (self.max_rounds + 1)


@dataclass(frozen=True)
class NetDtuResult:
    """Final state of a network DTU run."""

    estimated_utilization: float     # final γ̂ at the coordinator
    measured_utilization: float      # last windowed measurement (NaN if none)
    iterations: int                  # Eq. 4 updates applied
    rounds: int                      # broadcasts sent (incl. retries)
    silent_rounds: int               # rounds degraded for lack of reports
    converged: bool
    trace: NetTrace
    log: MessageLog
    events_fired: int                # virtual-clock events processed
    virtual_time: float              # clock value when the run ended

    @property
    def delivered_fraction(self) -> float:
        return self.log.delivered_fraction


def build_environment(
    config: NetConfig,
    n_devices: int,
    recorder: Optional[Recorder] = None,
) -> Tuple[Runtime, Transport, Optional[ChurnModel]]:
    """``(runtime, transport, churn_model)`` for a run over ``n_devices``.

    A fresh :class:`Runtime`; the :class:`LocalTransport`, wrapped in a
    :class:`FaultyTransport` when the config injects faults (both share
    one message log); and the devices' churn timelines up to the run's
    horizon, or None when nothing churns. The fault and churn seeds are
    the first two children of ``config.seed``
    (:func:`~repro.runtime.task.derive_seeds` is prefix-stable), so every
    runner draws the same streams from the same config.
    """
    fault_seed, churn_seed = derive_seeds(config.seed, 2)
    runtime = Runtime()
    transport = LocalTransport(runtime, record_log=config.log_messages,
                               recorder=recorder)
    if config.faults is not None and not config.faults.faultless:
        transport = FaultyTransport(transport, config.faults,
                                    seed=fault_seed, recorder=recorder)
    churn_model = None
    if config.churn is not None and not config.churn.static:
        churn_model = ChurnModel(config.churn, n_devices,
                                 config.resolved_horizon(), seed=churn_seed)
    return runtime, transport, churn_model


def build_devices(
    population: Population,
    delay_model: EdgeDelayModel,
    runtime: Runtime,
    transport,
    heartbeat_interval: float = 0.0,
    churn_model: Optional[ChurnModel] = None,
    kernel: Optional[CompiledMeanField] = None,
    recorder: Optional[Recorder] = None,
    *,
    modulation: Optional[Callable[[float], float]] = None,
    policies: Optional[Sequence] = None,
) -> List[DeviceAgent]:
    """One device per user, in index order.

    ``kernel`` (a :class:`repro.core.kernels.CompiledMeanField` built for
    ``population`` + ``delay_model``, checked by
    :func:`~repro.core.kernels.check_kernel`) is shared by the whole
    fleet: each broadcast estimate is answered by one bracketed probe into
    the precompiled staircase (:class:`~repro.net.actors.FleetResponses`),
    and each agent reads its row. Without one the agents run the scalar
    staircase search — the path for modulated fleets.

    ``modulation`` is a rate schedule ``m(t)`` every device answers at
    (``a_n·m(t)``; it needs ``kernel=None``). With ``policies``, one
    learning policy per user (:mod:`repro.workload.agents`), device ``n``
    is a :class:`~repro.net.actors.LearningDeviceAgent` playing
    ``policies[n]``; otherwise every device is a Lemma-1
    :class:`DeviceAgent`.
    """
    responses = None
    if kernel is not None:
        check_kernel(kernel, population, delay_model)
        responses = FleetResponses(kernel)
    devices = []
    for index in range(population.size):
        agent = DeviceAgent if policies is None else partial(
            LearningDeviceAgent, policy=policies[index])
        report_delay = churn_model.report_delay(index) if churn_model else 0.0
        devices.append(agent(
            index=index,
            arrival_rate=float(population.arrival_rates[index]),
            service_rate=float(population.service_rates[index]),
            offload_latency=float(population.offload_latencies[index]),
            energy_local=float(population.energy_local[index]),
            energy_offload=float(population.energy_offload[index]),
            weight=float(population.weights[index]),
            delay_model=delay_model,
            runtime=runtime,
            transport=transport,
            heartbeat_interval=heartbeat_interval,
            report_delay=report_delay,
            responses=responses,
            modulation=modulation,
            recorder=recorder,
        ))
    return devices


def run_fleet(
    runtime: Runtime,
    coordinators: Sequence[EdgeCoordinator],
    devices: Sequence[DeviceAgent],
    churn_model: Optional[ChurnModel],
    horizon: float,
    recorder: Optional[Recorder] = None,
) -> None:
    """Drive ``coordinators`` and their device fleet to the end of a run.

    The coordinators' first broadcasts go out, then the devices start in
    index order, with no clock event in between. Spans of messages still
    in flight at the horizon are closed "cancelled", so span logs always
    balance (pinned by ``tests/test_net_spans.py``).
    """
    if churn_model is not None:
        for device, timeline in zip(devices, churn_model.timelines):
            for when, alive_after in timeline:
                runtime.call_at(when, partial(device.set_alive, alive_after))

    runtime.run([coordinator.start for coordinator in coordinators]
                + [device.start for device in devices], until=horizon)

    finish_spans(resolve_recorder(recorder), runtime.now)


def run_net_dtu(
    population: Population,
    config: Optional[NetConfig] = None,
    delay_model: Optional[EdgeDelayModel] = None,
    recorder: Optional[Recorder] = None,
    *,
    modulation: Optional[Callable[[float], float]] = None,
    policies: Optional[Sequence] = None,
) -> NetDtuResult:
    """Run the message-passing DTU protocol over ``population``.

    Parameters
    ----------
    population:
        The heterogeneous fleet; device ``n`` gets user ``n``'s parameters.
    config:
        Timing, fault, and churn settings; defaults are fault-free and
        synchronous, which reproduces :func:`repro.core.dtu.run_dtu`.
    delay_model:
        The edge delay ``g(γ)``; defaults to the paper's ``1/(1.1 − γ)``.
    recorder:
        Observability sink (see :mod:`repro.obs`); defaults to the ambient
        recorder.
    modulation:
        Optional arrival-rate schedule ``m(t)`` (see
        :mod:`repro.workload.schedule`): every device answers at its
        instantaneous rate ``a_n·m(t)`` by the scalar staircase.
    policies:
        Optional learning policy per device (see
        :mod:`repro.workload.agents`), played in place of Lemma 1.

    With neither, the fleet shares one
    :class:`repro.core.kernels.CompiledMeanField`, so every broadcast
    estimate is answered by one batched probe over the fleet; compiled
    tables are stationary and learning devices have no threshold, so
    either input leaves the kernel out.
    """
    config = config or NetConfig()
    delay_model = delay_model if delay_model is not None else PAPER_DELAY_MODEL
    obs = resolve_recorder(recorder)
    runtime, transport, churn_model = build_environment(
        config, population.size, recorder=recorder)
    horizon = config.resolved_horizon()

    kernel = None
    if modulation is None and policies is None:
        kernel = compile_mean_field(population, delay_model)
    devices = build_devices(
        population, delay_model, runtime, transport,
        heartbeat_interval=config.heartbeat_interval,
        churn_model=churn_model,
        kernel=kernel,
        recorder=recorder,
        modulation=modulation,
        policies=policies,
    )
    coordinator = EdgeCoordinator(
        runtime=runtime,
        transport=transport,
        devices=range(population.size),
        capacity=population.capacity,
        config=config,
        recorder=recorder,
    )
    if obs.enabled:
        obs.event(
            "net.start", n_devices=population.size,
            seed=str(config.seed), horizon=horizon,
            faulty=isinstance(transport, FaultyTransport),
            churning=churn_model is not None,
        )

    run_fleet(runtime, [coordinator], devices, churn_model, horizon,
              recorder=recorder)

    measured = (coordinator.final_measured
                if coordinator.final_measured is not None else float("nan"))
    if obs.enabled:
        obs.event(
            "net.done", converged=coordinator.converged,
            iterations=coordinator.iterations, rounds=coordinator.round,
            gamma_hat=coordinator.stepper.estimate,
            virtual_time=runtime.now, events=runtime.events_fired,
        )
    return NetDtuResult(
        estimated_utilization=coordinator.stepper.estimate,
        measured_utilization=measured,
        iterations=coordinator.iterations,
        rounds=coordinator.round,
        silent_rounds=coordinator.silent_rounds,
        converged=coordinator.converged,
        trace=coordinator.trace,
        log=transport.log,
        events_fired=runtime.events_fired,
        virtual_time=runtime.now,
    )


def with_faults(config: NetConfig, **fault_kwargs) -> NetConfig:
    """Convenience: a copy of ``config`` with the given fault parameters."""
    base = config.faults or FaultConfig()
    return replace(config, faults=replace(base, **fault_kwargs))
