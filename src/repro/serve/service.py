"""The decision service: coordinator + compiled kernel behind one facade.

:class:`DecisionService` is the serving-layer object everything else
(HTTP surface, replay client, tests) talks to.  It owns

* one :class:`~repro.core.kernels.CompiledMeanField` for the provisioned
  population, answered through one
  :class:`~repro.net.actors.FleetResponses`: the whole fleet once per
  broadcast estimate, by a bracketed probe;
* one :class:`ServingCoordinator` — the :mod:`repro.net` edge actor
  running *unmodified protocol logic* on a
  :class:`~repro.serve.wallclock.WallClockDriver`: re-estimation rounds
  on a wall-clock period, report windows from real arrivals, the shared
  Eq. 4 :class:`~repro.core.dtu.DtuStepper`, graceful degradation on
  silent rounds.  Each round's broadcast publishes the fleet's answer at
  the new γ̂ (:class:`FleetAnswer`);
* an :class:`AdmissionController` — a bounded in-flight watermark so
  overload sheds (the HTTP layer answers 503 + ``Retry-After``) instead
  of collapsing latency;
* the thread model: the coordinator's callbacks, the report ingest and
  the daemon's HTTP connections (:class:`~repro.serve.httpd.DecisionServer`)
  all run on the driver's one loop thread.  ``decide`` and friends stay
  safe to call from other threads too (tests and in-process callers):
  they only *read* actor state and hand every write to the loop;
* a :class:`~repro.simulation.online.WindowedRateEstimator` measuring
  decision arrivals against a nominal capacity (the ``load`` gauge in
  ``/state``), exercised here on irregular wall-clock windows rather
  than the lockstep virtual clock.

**The published answer.**  At each broadcast (and once at construction)
the loop thread answers the provisioned fleet at the new γ̂ and
publishes one immutable :class:`FleetAnswer` — round, γ̂, the threshold
column and the α column — by a single reference assignment.  ``decide``
reads that reference once and gathers its B rows: no kernel probe, no
lock on the request path, and a response's round, γ and rows always
come from the same record.  A round whose γ̂ did not move (silent rounds
hold it) reuses the columns.  ``serve.fleet_answers`` and
``serve.fleet_answer_seconds`` on ``/metrics`` count the records and
time their computation.

Every ``decide`` answers with columns (:class:`Decisions`) and doubles
as one :class:`~repro.net.messages.ReportBatch` to the coordinator
(``decide → WallClockDriver.submit → ServingCoordinator.receive``: one
message on the loop thread, whatever the batch size, written into the
base coordinator's report table as it arrives by the batch rule the net
drain uses), so the service measures
γ from the traffic it actually serves; with a frozen population querying
steadily, the γ̂ trajectory settles onto the same fixed point as the
offline :func:`repro.core.dtu.run_dtu` (pinned by
``tests/test_serve.py``).

**Staleness semantics** — responses carry ``stale: true`` when the γ̂
they answer from predates the last re-estimation deadline by more than
:data:`STALENESS_FACTOR` round periods: a round is still in flight (backed
off after silence, or starved under overload) and the served estimate
may be superseded.  Clients that care re-query; clients that don't still
get the best available answer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.edge_delay import EdgeDelayModel
from repro.core.kernels import (
    CompiledMeanField,
    check_kernel,
    compile_mean_field,
)
from repro.net.actors import EdgeCoordinator, FleetResponses
from repro.net.messages import JoinLeave, ReportBatch
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import ObsRecorder, Recorder, finish_spans
from repro.population.sampler import Population
from repro.serve.wallclock import WallClockDriver
from repro.simulation.online import WindowedRateEstimator
from repro.utils.validation import (
    check_int_positive,
    check_positive,
    check_unit_interval,
)

#: Round periods a served γ̂ may be overdue before a response is "stale".
STALENESS_FACTOR = 2.0


@dataclass(frozen=True)
class ServeConfig:
    """Everything that parameterises the serving daemon.

    The DTU hyperparameters mean exactly what they do in
    :class:`repro.core.dtu.DtuConfig`; the rest governs wall-clock
    timing and admission control.  All times are wall seconds.
    """

    # -- Algorithm 1 hyperparameters --
    initial_step: float = 0.1
    tolerance: float = 1e-2
    initial_estimate: float = 0.0

    # -- re-estimation timing (wall seconds) --
    round_period: float = 1.0        #: wait between broadcast and measure
    report_window: Optional[float] = None    #: default 3 × round_period
    backoff: float = 2.0             #: wait multiplier after a silent round
    max_backoff: Optional[float] = None      #: default 4 × round_period
    silence_decay: float = 1.0       #: η multiplier on silence (1 = hold η:
    #: an idle server is normal, not a partition)
    liveness_timeout: Optional[float] = None  #: None: members leave
    #: explicitly; the report window already bounds measurement staleness
    max_rounds: int = 2 ** 31 - 1    #: effectively unbounded

    # -- serving behaviour --
    watermark: int = 64              #: max in-flight decide requests
    max_batch: int = 100_000         #: devices per decide request
    auto_join: bool = True           #: first decide implies a JoinLeave
    load_window: float = 10.0        #: trailing window for the load gauge
    #: nominal decisions/s (load = 1.0): what one daemon serves —
    #: perfbench serve-batch's ``decisions_per_s`` on the recording host
    #: (2-CPU, one serving thread; median ≈970k), rounded down
    rate_capacity: float = 900_000.0

    def __post_init__(self) -> None:
        check_unit_interval("initial_step", self.initial_step, open_left=True)
        check_unit_interval("tolerance", self.tolerance,
                            open_left=True, open_right=True)
        check_unit_interval("initial_estimate", self.initial_estimate)
        check_positive("round_period", self.round_period)
        if self.report_window is not None:
            check_positive("report_window", self.report_window)
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_backoff is not None:
            check_positive("max_backoff", self.max_backoff)
        if self.resolved_max_backoff() < self.round_period:   # see NetConfig
            raise ValueError(f"max_backoff must be >= round_period, "
                             f"got {self.max_backoff}")
        check_unit_interval("silence_decay", self.silence_decay)
        if self.liveness_timeout is not None:
            check_positive("liveness_timeout", self.liveness_timeout)
        check_int_positive("max_rounds", self.max_rounds)
        check_int_positive("watermark", self.watermark)
        check_int_positive("max_batch", self.max_batch)
        check_positive("load_window", self.load_window)
        check_positive("rate_capacity", self.rate_capacity)

    def resolved_report_window(self) -> float:
        return self.report_window if self.report_window is not None \
            else 3.0 * self.round_period

    def resolved_max_backoff(self) -> float:
        return self.max_backoff if self.max_backoff is not None \
            else 4.0 * self.round_period

    def protocol(self) -> SimpleNamespace:
        """The coordinator-facing view (NetConfig-shaped attributes)."""
        return SimpleNamespace(
            initial_step=self.initial_step,
            tolerance=self.tolerance,
            initial_estimate=self.initial_estimate,
            max_rounds=self.max_rounds,
            report_timeout=self.round_period,
            report_window=self.resolved_report_window(),
            liveness_timeout=self.liveness_timeout,
            silence_decay=self.silence_decay,
            backoff=self.backoff,
            max_backoff=self.resolved_max_backoff(),
            stop_on_convergence=False,
        )


@dataclass(frozen=True, eq=False)
class FleetAnswer:
    """One round's answer for the whole provisioned fleet.

    Row ``d`` of ``thresholds`` (int64) and ``alpha`` is device ``d``'s
    Lemma-1 threshold and offload probability at ``gamma``, the γ̂
    broadcast in ``round``; both columns are read-only.
    """

    round: int
    gamma: float
    thresholds: np.ndarray
    alpha: np.ndarray


class ServingCoordinator(EdgeCoordinator):
    """The edge actor adapted to the pull-model daemon.

    Three deviations from the virtual-time coordinator:

    * **broadcast publishes, it does not push** — HTTP clients pull γ̂
      via ``/decide``, so a round opens (round counter + span) and
      publishes the fleet's answer at γ̂ from ``responses``
      (:attr:`published`, a :class:`FleetAnswer`; one is published at
      construction too) without fanning N messages out to devices that
      don't exist;
    * **membership starts empty** (``joined=False``) — the provisioned
      fleet joins explicitly, or implicitly on first decide;
    * **reports are applied on arrival, a batch at a time** — nothing
      sends to it, so it builds its base with ``transport=None`` (no
      inbox registered) and the service calls the inherited
      :meth:`~repro.net.actors.EdgeCoordinator.receive` on the loop
      thread, which writes each :class:`ReportBatch` into the report
      table by the batch rule the net drain uses, in O(B).

    The round timer, the report table and its batch rule, the
    measurement, the stepper and the degradation logic are inherited
    untouched; the inherited drain finds the inbox empty.
    """

    def __init__(self, *args, responses: FleetResponses,
                 joined: bool = False, **kwargs):
        super().__init__(*args, transport=None, joined=joined, **kwargs)
        self.responses = responses
        self.last_round_ended = 0.0
        self.last_round_status = "init"
        self.rounds_completed = 0
        self._publish()

    def _publish(self) -> None:
        """Answer the fleet at the current γ̂ and publish it with the round."""
        estimate = self.stepper.estimate
        with self._obs.timer("serve.fleet_answer_seconds"):
            thresholds, alpha = self.responses.columns(estimate)
        self.published = FleetAnswer(self.round, estimate, thresholds, alpha)
        self._obs.count("serve.fleet_answers")

    def _broadcast(self) -> None:
        self.round += 1
        self._publish()
        if self._obs.enabled:
            self._round_span = self._obs.span_start(
                "coordinator.broadcast", trace=self.round,
                virtual_time=self.runtime.now,
                round=self.round, estimate=self.stepper.estimate,
            )
            self._obs.count("net.broadcasts")

    def _close_round_span(self, status: str, **tags) -> None:
        self.last_round_status = status
        self.last_round_ended = self.runtime.now
        self.rounds_completed += 1
        super()._close_round_span(status, **tags)

    @property
    def joined(self) -> int:
        """Devices currently joined (explicit membership only)."""
        return int(np.count_nonzero(self._member))


@dataclass(frozen=True, eq=False)
class Decisions:
    """One ``decide`` call's answer, as columns.

    Row ``i`` is device ``devices[i]``'s Lemma-1 threshold, its offload
    probability α and offered rate ``a·α`` at ``gamma`` (the γ̂ of
    ``round``).  ``single`` records that the query named one device
    rather than a list, which the HTTP body spells differently.
    """

    round: int
    gamma: float
    stale: bool
    devices: np.ndarray                  # int64
    thresholds: np.ndarray               # int64
    offload_probabilities: np.ndarray
    offload_rates: np.ndarray
    single: bool


class AdmissionController:
    """A bounded in-flight watermark: enter or shed, never queue unbounded.

    "Queue depth" is the number of ``/decide`` requests read off the
    wire and not yet answered: the HTTP layer enters when it reads a
    request whole and exits once it answered it, reading every
    connection's ready request before answering any.  Past the
    watermark new work is shed immediately (503 + ``Retry-After``) and
    latency for admitted requests stays bounded instead of collapsing
    under a pile-up.  The lock lets callers outside the loop thread
    hold slots too.
    """

    def __init__(self, watermark: int):
        self.watermark = int(watermark)
        self._lock = threading.Lock()
        self.in_flight = 0
        self.admitted_total = 0
        self.shed_total = 0

    def try_enter(self) -> bool:
        with self._lock:
            if self.in_flight >= self.watermark:
                self.shed_total += 1
                return False
            self.in_flight += 1
            self.admitted_total += 1
            return True

    def exit(self) -> None:
        with self._lock:
            self.in_flight -= 1


class DecisionService:
    """The long-lived DTU decision service (transport-agnostic core).

    Thread model: the coordinator runs on the driver's loop thread, and
    so do the daemon's request handlers, which call
    ``decide``/``join``/``leave``/``state`` there; any other thread may
    call them too.  They only *read* actor state (the published
    :class:`FleetAnswer` reference and plain floats/ints, GIL-atomic) —
    every write is a real protocol message that a callable handed to the
    loop (:meth:`WallClockDriver.submit`) passes to
    :meth:`ServingCoordinator.receive`.
    """

    def __init__(
        self,
        population: Population,
        config: Optional[ServeConfig] = None,
        delay_model: Optional[EdgeDelayModel] = None,
        recorder: Optional[Recorder] = None,
        kernel: Optional[CompiledMeanField] = None,
    ):
        self.population = population
        self.config = config or ServeConfig()
        # A kernel passed in fixes the population and the delay model.
        self.kernel = compile_mean_field(population, delay_model) \
            if kernel is None \
            else check_kernel(kernel, population, delay_model)
        self.delay_model = self.kernel.delay_model
        # The registry always exists (it feeds /metrics); tracer/spans
        # arrive via an explicit recorder from the caller.  The
        # coordinator and the HTTP handlers share this one recorder.
        if recorder is not None and getattr(recorder, "enabled", False):
            self.recorder = recorder
            self.registry = getattr(recorder, "registry", MetricsRegistry())
        else:
            self.registry = MetricsRegistry()
            self.recorder = ObsRecorder(self.registry)
        self.driver = WallClockDriver()
        self.coordinator = ServingCoordinator(
            runtime=self.driver,
            devices=range(population.size),
            capacity=population.capacity,
            config=self.config.protocol(),
            recorder=self.recorder,
            responses=FleetResponses(self.kernel),
        )
        self.admission = AdmissionController(self.config.watermark)
        self.load = WindowedRateEstimator(
            window=self.config.load_window,
            total_capacity=self.config.rate_capacity,
        )
        self._load_lock = threading.Lock()
        self._started = False
        # Pre-create the serving instruments so first-touch registry
        # mutation never races with a caller on another thread.
        for name in ("serve.requests", "serve.decisions", "serve.shed",
                     "serve.joins", "serve.leaves", "serve.errors"):
            self.registry.counter(name)
        self.registry.histogram("serve.batch_size")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "DecisionService":
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self.recorder.event("serve.start", n_users=self.population.size,
                            round_period=self.config.round_period,
                            watermark=self.config.watermark)
        self.driver.start([self.coordinator.start])
        return self

    def stop(self) -> None:
        if self._started:
            self.driver.stop()
            finish_spans(self.recorder, self.driver.now)
            self.recorder.event("serve.stop",
                                rounds=self.coordinator.round,
                                gamma_hat=self.coordinator.stepper.estimate)

    def __enter__(self) -> "DecisionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def healthy(self) -> bool:
        return self._started and not self.driver.stopping \
            and self.driver.failure is None

    # -- queries -----------------------------------------------------------

    def decide(self, devices: Union[int, Sequence[int]],
               report: bool = True) -> Decisions:
        """Thresholds for a device batch from the published fleet answer.

        One read of :attr:`ServingCoordinator.published` and a gather of
        the batch's rows: round, γ̂ and rows come from the same record.
        ``report=True`` (the default) also feeds the decisions back to the
        coordinator as one :class:`ReportBatch`, so served traffic *is*
        the measurement population.  Raises :class:`ValueError` for
        unknown device ids or an oversized batch (the HTTP layer maps
        that to 400/413).
        """
        single = np.isscalar(devices)
        ids = self._device_ids(devices)
        if ids.size == 0:
            raise ValueError("empty device batch")
        if ids.size > self.config.max_batch:
            raise ValueError(
                f"batch of {ids.size} exceeds max_batch="
                f"{self.config.max_batch}")

        # One read of the published record; a concurrent broadcast gives
        # the next request the new round, never a torn one.
        answer = self.coordinator.published
        thresholds = answer.thresholds[ids]
        alphas = answer.alpha[ids]
        rates = self.population.arrival_rates[ids] * alphas

        if report:
            batch = ReportBatch(ids, answer.round, thresholds, rates,
                                joining=self.config.auto_join)
            self.driver.submit(lambda: self.coordinator.receive(
                batch, self.driver.now))
        # Read the clock under the lock: the estimator needs its record
        # times in order across calling threads.
        with self._load_lock:
            self.load.record(self.driver.now, ids.size)
        self.registry.inc("serve.requests")
        self.registry.inc("serve.decisions", float(ids.size))
        self.registry.observe("serve.batch_size", float(ids.size))
        return Decisions(round=answer.round, gamma=answer.gamma,
                         stale=self.stale,
                         devices=ids, thresholds=thresholds,
                         offload_probabilities=alphas, offload_rates=rates,
                         single=single)

    def join(self, devices: Union[int, Iterable[int]]) -> int:
        """Announce membership — one :class:`JoinLeave` per device."""
        return self._membership(devices, joining=True)

    def leave(self, devices: Union[int, Iterable[int]]) -> int:
        return self._membership(devices, joining=False)

    def _device_ids(self, devices) -> np.ndarray:
        """``devices`` as an int64 column; :class:`ValueError` for any id
        outside ``[0, N)``, including ints that int64 cannot hold."""
        message = f"device ids must be in [0, {self.population.size})"
        try:
            ids = np.array(devices, dtype=np.int64, ndmin=1)
        except OverflowError:
            raise ValueError(message) from None
        if ids.size and (ids.min() < 0 or ids.max() >= self.population.size):
            raise ValueError(message)
        return ids

    def _membership(self, devices, joining: bool) -> int:
        ids = self._device_ids(devices).tolist()
        self.driver.submit(lambda: self._ingest_membership(ids, joining))
        self.registry.inc("serve.joins" if joining else "serve.leaves",
                          float(len(ids)))
        return len(ids)

    # -- loop-thread ingestion (called via driver.submit only) -------------

    def _ingest_membership(self, ids: List[int], joining: bool) -> None:
        receive = self.coordinator.receive
        at = self.driver.now
        for device in ids:
            receive(JoinLeave(device, joining), at)

    # -- state -------------------------------------------------------------

    @property
    def stale(self) -> bool:
        """True when the served γ̂ predates the re-estimation deadline.

        A round is in flight past its period — silence backoff or an
        overloaded loop — so the estimate may be superseded shortly.
        """
        if self.coordinator.rounds_completed == 0:
            return True      # nothing measured yet: γ̂ is the initial guess
        overdue = self.driver.now - self.coordinator.last_round_ended
        return overdue > STALENESS_FACTOR * self.config.round_period

    def state(self) -> dict:
        """The service's JSON-ready ``/state`` document."""
        coordinator = self.coordinator
        now = self.driver.now
        with self._load_lock:
            load = self.load.measure(now)
        return {
            "gamma": coordinator.stepper.estimate,
            "eta": coordinator.stepper.step,
            "round": coordinator.round,
            "iterations": coordinator.iterations,
            "silent_rounds": coordinator.silent_rounds,
            "converged": coordinator.stepper.converged,
            "stale": self.stale,
            "last_round_status": coordinator.last_round_status,
            "population": self.population.size,
            "members": coordinator.joined,
            "uptime_seconds": now,
            "load": load,
            "in_flight": self.admission.in_flight,
            "admitted_total": self.admission.admitted_total,
            "shed_total": self.admission.shed_total,
            "healthy": self.healthy,
        }

    def __repr__(self) -> str:
        return (f"DecisionService(n={self.population.size}, "
                f"round={self.coordinator.round}, "
                f"gamma={self.coordinator.stepper.estimate:.4f}, "
                f"{'running' if self.healthy else 'stopped'})")
