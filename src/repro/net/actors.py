"""The two actor roles of the distributed DTU protocol.

:class:`DeviceAgent` is Algorithm 1's device side, taken literally: it
best-responds (Lemma 1) to the **latest γ̂ broadcast it actually
received** — which under faults may be stale, duplicated, or arbitrarily
delayed — and reports the threshold plus the offered offload rate
``a_n·α_n(x_n)`` back to the edge, inside the delivery event: a device is
a delivery handler (:meth:`DeviceAgent.deliver`).

:class:`EdgeCoordinator` is the edge side, a timer: it broadcasts γ̂ and,
``report_timeout`` later, measures the utilisation from the
:class:`~repro.net.messages.ThresholdReport`s received within a sliding
window, applies the shared Eq. 4 sign step
(:class:`repro.core.dtu.DtuStepper`) and opens the next round.  Silence —
a round with no usable reports at all — triggers graceful degradation: γ̂
is held, the step size decays, and the next broadcast backs off
exponentially, so a partitioned edge neither diverges nor spins.  Its
report table, columns over the fleet's device ids, is the only one: the
sharded :class:`~repro.net.sharded.SiteCoordinator` and the serving
daemon's :class:`~repro.serve.service.ServingCoordinator` write the same
table by the same batch rule and measure with the same masked
reductions.

A stationary device reads its row of one bracketed fleet probe per
estimate (:class:`FleetResponses`), bit-identical to the vectorised
:class:`repro.core.meanfield.MeanFieldMap` path, which is what lets the
fault-free synchronous run reproduce ``run_dtu`` trajectories exactly
(pinned by ``tests/test_net.py``); a modulated device, whose rate no
kernel tabulates, runs the same arithmetic as a scalar staircase search
(:func:`repro.core.best_response.optimal_threshold_from_surcharge`).
A :class:`LearningDeviceAgent` replaces Lemma 1 with a learning policy
(:mod:`repro.workload.agents`) and keeps the rest of the device.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.best_response import optimal_threshold_from_surcharge
from repro.core.cost import arm_costs
from repro.core.dtu import DtuStepper
from repro.core.edge_delay import EdgeDelayModel
from repro.core.kernels import CompiledMeanField
from repro.core.tro import offload_probability
from repro.net.clock import Runtime
from repro.net.messages import (
    Envelope,
    GammaBroadcast,
    Heartbeat,
    JoinLeave,
    ReportBatch,
    ThresholdReport,
)
from repro.net.transport import Transport
from repro.obs.context import resolve_recorder
from repro.obs.recorder import Recorder

EDGE_ADDRESS = "edge"

#: ``tuple.__new__(ThresholdReport, fields)`` builds a report without the
#: named tuple's Python-level ``__new__``: one is built per answer.
_new_tuple = tuple.__new__

#: An envelope's message kind (the drain's run key), and the fields the
#: batch rule reads from a report envelope, gathered at C level.
_kind = attrgetter("message.__class__")
_device, _round = attrgetter("message.device"), attrgetter("message.round")
_delivered_at = attrgetter("delivered_at")
_offload_rate = attrgetter("message.offload_rate")


class FleetResponses:
    """A fleet's Lemma-1 responses on one compiled kernel, one bracketed
    probe per broadcast estimate.

    The first reader of an estimate answers the whole fleet through one
    :class:`~repro.core.kernels.ProbeState`: ``thresholds(γ, probe=)``
    and the state's α column, bit-identical per row to
    ``user_threshold``/``user_alpha``.  A new estimate therefore
    re-searches only the users whose threshold can still move between
    the nearest estimates probed before.  :meth:`columns` hands the
    answer out as read-only arrays (the serving daemon publishes them
    once a round); :meth:`row` reads one device's entry from lists built
    on the first row read (net devices read rows).  The last :attr:`KEEP`
    estimates are kept: jitter delivers a round's broadcast after the
    next round's, not many rounds late, and an evicted answer is only
    recomputed.
    """

    KEEP = 4

    def __init__(self, kernel: CompiledMeanField):
        self.kernel = kernel
        self._probe = kernel.probe_state()
        #: estimate -> [threshold column, α column, rows or None]
        self._answers: Dict[float, list] = {}

    def _answer(self, estimate: float) -> list:
        """The kept answer at ``estimate``, probed on first use."""
        answer = self._answers.get(estimate)
        if answer is None:
            thresholds = self.kernel.thresholds(estimate, probe=self._probe)
            alpha = self._probe.alpha.copy()
            thresholds.flags.writeable = alpha.flags.writeable = False
            answer = [thresholds, alpha, None]
            if len(self._answers) == self.KEEP:     # drop the oldest
                del self._answers[next(iter(self._answers))]
            self._answers[estimate] = answer
        return answer

    def columns(self, estimate: float) -> Tuple[np.ndarray, np.ndarray]:
        """The fleet's threshold (int64) and α columns at ``estimate``,
        read-only and in device order."""
        thresholds, alpha, _ = self._answer(estimate)
        return thresholds, alpha

    def row(self, index: int, estimate: float) -> Tuple[float, float]:
        """Device ``index``'s ``(threshold, α)`` at broadcast ``estimate``."""
        answer = self._answers.get(estimate)
        if answer is None or answer[2] is None:
            answer = self._answer(estimate)
            answer[2] = (answer[0].astype(float).tolist(),
                         answer[1].tolist())
        thresholds, alphas = answer[2]
        return thresholds[index], alphas[index]


class DeviceAgent:
    """One device: joins, heartbeats, best-responds to received broadcasts."""

    def __init__(
        self,
        index: int,
        arrival_rate: float,
        service_rate: float,
        offload_latency: float,
        energy_local: float,
        energy_offload: float,
        weight: float,
        delay_model: EdgeDelayModel,
        runtime: Runtime,
        transport: Transport,
        heartbeat_interval: float = 0.0,
        report_delay: float = 0.0,
        responses: Optional[FleetResponses] = None,
        modulation: Optional[Callable[[float], float]] = None,
        recorder: Optional[Recorder] = None,
    ):
        self.address = index
        self.arrival_rate = float(arrival_rate)
        self.service_rate = float(service_rate)
        self.intensity = self.arrival_rate / self.service_rate
        self.offload_latency = float(offload_latency)
        self.energy_local = float(energy_local)
        self.energy_offload = float(energy_offload)
        self.weight = float(weight)
        self.delay_model = delay_model
        self.runtime = runtime
        self.transport = transport
        self.heartbeat_interval = heartbeat_interval
        self.report_delay = report_delay
        # Where this device's coordinator lives. Single-site fleets talk
        # to "edge"; sharded devices re-point this at their current home
        # site when they migrate.
        self.edge_address = EDGE_ADDRESS
        # The fleet's shared answers on a compiled kernel (row ``index``);
        # the device then reads its row of one batched probe instead of
        # running the scalar staircase search. Bit-identical responses.
        self.responses = responses
        # Optional arrival-rate modulation m(t) (repro.workload): a
        # non-stationary device best-responds with the *instantaneous*
        # rate a_n·m(t). Compiled kernels tabulate the stationary rates,
        # so a modulated device must take the scalar path.
        self.modulation = modulation
        if modulation is not None and responses is not None:
            raise ValueError(
                "modulation requires the scalar response path; pass "
                "responses=None (compiled staircase tables are stationary)"
            )
        self._obs = resolve_recorder(recorder)
        transport.register(index, self.deliver)
        # Thresholds start at 0 (offload everything); the first received
        # broadcast replaces this with the Lemma-1 response, exactly like
        # run_dtu's initial best response to γ̂_0.
        self.threshold = 0.0
        self.offload_rate = self.arrival_rate      # α(0) = 1
        self.alive = True
        self.last_round = -1
        self.broadcasts_handled = 0
        self.reports_sent = 0

    @property
    def kernel(self) -> Optional[CompiledMeanField]:
        """The compiled kernel the device answers from (None: scalar)."""
        return self.responses.kernel if self.responses is not None else None

    def start(self) -> None:
        """Join the edge and start heartbeating (the device's first step)."""
        self.transport.send(self.address, self.edge_address,
                            JoinLeave(self.address, True))
        if self.heartbeat_interval > 0.0:
            self.runtime.call_later(self.heartbeat_interval,
                                    self._heartbeat)

    def deliver(self, envelope: Envelope) -> None:
        """The delivery handler: it runs inside the delivery event."""
        message = envelope.message
        if not self.alive or not self._fresh(message):
            return   # powered off, or not a broadcast to answer
        self.broadcasts_handled += 1
        span = None
        if self._obs.enabled:
            span = self._obs.span_start(
                "device.best_response", parent=envelope.span,
                virtual_time=self.runtime.now,
                device=self.address, round=message.round,
            )
        self._answer(message, span)
        if span is not None:
            self._obs.span_end(span, virtual_time=self.runtime.now,
                               threshold=self.threshold)

    def _fresh(self, message) -> bool:
        """Whether ``message`` is a broadcast newer than every one answered
        (duplicates and reordered older rounds are not); notes its round."""
        if not isinstance(message, GammaBroadcast) \
                or message.round <= self.last_round:
            return False
        self.last_round = message.round
        return True

    def _answer(self, broadcast: GammaBroadcast,
                parent: Optional[int]) -> None:
        """Answer a fresh broadcast; sharded devices first pick a site."""
        self._respond(broadcast.estimate, broadcast.round, parent)

    def _respond(self, estimate: float, broadcast_round: int,
                 parent: Optional[int] = None) -> None:
        """Lemma 1 best response to ``estimate`` + a report stamped with
        ``broadcast_round`` (Algorithm 1, device side)."""
        if self.responses is not None:
            self.threshold, alpha = self.responses.row(self.address,
                                                       estimate)
            self.offload_rate = self.arrival_rate * alpha
        else:
            self._scalar_response(estimate)
        self.reports_sent += 1
        self.transport.send(
            self.address, self.edge_address,
            _new_tuple(ThresholdReport, (self.address, broadcast_round,
                                         self.threshold, self.offload_rate)),
            self.report_delay, parent,
        )

    def instantaneous_rate(self) -> float:
        """The device's arrival rate right now: ``a_n·m(t)``, or ``a_n``.

        With no modulation this returns exactly ``self.arrival_rate`` (no
        float multiply), keeping stationary runs bit-identical.
        """
        if self.modulation is None:
            return self.arrival_rate
        return self.arrival_rate * float(self.modulation(self.runtime.now))

    def _scalar_response(self, estimate: float) -> None:
        """Staircase search at the instantaneous rate; sets the report.

        The one scalar Lemma-1 response of the actors, for modulated
        devices: a kernel tabulates stationary rates only.
        """
        rate = self.instantaneous_rate()
        intensity = rate / self.service_rate if self.modulation is not None \
            else self.intensity
        surcharge = (self.delay_model(estimate)
                     + self.offload_latency
                     + self.weight
                     * (self.energy_offload - self.energy_local))
        best = float(optimal_threshold_from_surcharge(
            rate, intensity, surcharge,
        ))
        self.threshold = best
        self.offload_rate = rate * offload_probability(best, intensity)

    def _heartbeat(self) -> None:
        if self.runtime.stopping:
            return
        if self.alive:
            self.transport.send(self.address, self.edge_address,
                                Heartbeat(self.address, self.runtime.now))
        self.runtime.call_later(self.heartbeat_interval, self._heartbeat)

    def set_alive(self, alive: bool) -> None:
        """Churn hook: power the device off/on, announcing gracefully.

        The announcement travels over the (possibly faulty) transport, so
        the coordinator may never hear it — that is what heartbeat-based
        pruning is for.
        """
        if alive == self.alive:
            return
        self.alive = alive
        self.transport.send(self.address, self.edge_address,
                            JoinLeave(self.address, alive))


class LearningDeviceAgent(DeviceAgent):
    """A device that *learns* whether to offload instead of computing it.

    Inherits the whole protocol plumbing (delivery handler, heartbeats,
    churn hooks) from :class:`DeviceAgent`; only the broadcast response
    is replaced. Each round the agent prices both arms at the broadcast γ̂
    (:func:`repro.core.cost.arm_costs`), asks its ``policy`` (a
    :class:`repro.workload.agents.AgentPolicy`) for an offload mix
    ``p``, and reports the offered rate ``a_n·m(t)·p``.

    Learning devices have no threshold; the report's threshold field
    carries ``p`` instead (purely diagnostic — the coordinator's Eq. 6
    measurement reads only the offered rate).
    """

    def __init__(self, *args, policy, **kwargs):
        super().__init__(*args, **kwargs)
        self.policy = policy

    def _respond(self, estimate: float, broadcast_round: int,
                 parent: Optional[int] = None) -> None:
        rate = self.instantaneous_rate()
        local, offload = arm_costs(
            edge_delay=float(self.delay_model(estimate)),
            offload_latency=self.offload_latency,
            weight=self.weight,
            energy_local=self.energy_local,
            energy_offload=self.energy_offload,
            arrival_rate=rate,
            service_rate=self.service_rate,
        )
        mix = self.policy.act(local, offload)
        self.threshold = float(mix)
        self.offload_rate = rate * float(mix)
        self.reports_sent += 1
        self.transport.send(
            self.address, self.edge_address,
            _new_tuple(ThresholdReport, (self.address, broadcast_round,
                                         self.threshold, self.offload_rate)),
            self.report_delay, parent,
        )

@dataclass
class NetTrace:
    """One row per *measured* coordinator round (silent rounds excluded)."""

    times: List[float] = field(default_factory=list)
    estimated: List[float] = field(default_factory=list)   # γ̂ before update
    measured: List[float] = field(default_factory=list)    # window γ
    heard: List[int] = field(default_factory=list)         # reports used
    members: List[int] = field(default_factory=list)       # alive devices

    def as_arrays(self) -> dict:
        return {key: np.asarray(value) for key, value in (
            ("times", self.times), ("estimated", self.estimated),
            ("measured", self.measured), ("heard", self.heard),
            ("members", self.members),
        )}


class EdgeCoordinator:
    """The edge side of the protocol: broadcast, measure, sign-step.

    ``config`` is a :class:`repro.net.protocol.NetConfig`; only its plain
    attributes are read, so the coordinator stays import-independent of
    the high-level runner module.

    ``devices`` are the provisioned ids; :attr:`known` keeps them sorted,
    the broadcast order, and a join of any other id inserts it.  The
    report table spans ids ``0..fleet_size-1`` (default: one past the
    largest provisioned id) as columns: a known mask (provisioned or ever
    joined), a member mask (known and not left), the last-heard time
    (0.0 before first contact), and the stored report's time, round
    (−1: none) and rate.  Provisioned devices start as members unless
    ``joined`` is false.  A message reaches the table through
    :meth:`receive`, or, for a round's reports, through the drain, which
    writes them together; either way reports are written by one batch
    rule (:meth:`_write_reports`, O(rows) in numpy; a daemon
    :class:`~repro.net.messages.ReportBatch` is its one-round case), and
    every other message is a few scalar writes, under these rules:

    * the newest round wins, and a tie goes to the later message;
    * a leave clears the device's report;
    * a device is live while it was last heard within
      ``liveness_timeout``;
    * an answer to the current round is never stale; an older one must
      lie inside ``report_window``.

    A round's measurement, census and member list are masked reductions
    over the table.
    """

    def __init__(
        self,
        runtime: Runtime,
        transport: Optional[Transport],
        devices: Sequence[int],
        capacity: float,
        config,
        recorder: Optional[Recorder] = None,
        address: str = EDGE_ADDRESS,
        fleet_size: Optional[int] = None,
        joined: bool = True,
    ):
        self.runtime = runtime
        self.transport = transport
        self.known = sorted(devices)
        if fleet_size is None:
            fleet_size = self.known[-1] + 1 if self.known else 0
        self._known = np.zeros(fleet_size, dtype=bool)
        self._known[self.known] = True
        self._member = self._known & joined
        self._heard_at = np.zeros(fleet_size)
        self._report_at = np.zeros(fleet_size)
        self._report_round = np.full(fleet_size, -1, dtype=np.int64)
        self._report_rate = np.zeros(fleet_size)
        #: Scratch column, −1 between uses: the drain's marks while it
        #: holds reports, then the batch rule's per-device scatter-max.
        self._scratch = np.full(fleet_size, -1, dtype=np.int64)
        self.capacity = float(capacity)
        self.config = config
        self.address = address
        #: Envelopes delivered since the last drain; ``append`` is the
        #: transport handler.  A coordinator that nothing sends to (the
        #: serving daemon's, whose service calls :meth:`receive`) is
        #: built with ``transport=None`` and registers none.
        self.inbox: List[Envelope] = []
        if transport is not None:
            transport.register(address, self.inbox.append)
        self.stepper = DtuStepper(
            initial_step=config.initial_step,
            tolerance=config.tolerance,
            initial_estimate=config.initial_estimate,
        )
        self._obs = resolve_recorder(recorder)
        self.trace = NetTrace()
        self.round = 0               # broadcast sequence number
        self._round_span: Optional[int] = None
        self.iterations = 0          # Eq. 4 updates applied
        self.silent_rounds = 0
        self.converged = False
        self.final_measured: Optional[float] = None
        self._wait = config.report_timeout    # this round's report timeout

    def start(self) -> None:
        """Open the first round (the coordinator's first step)."""
        self._open_round()

    def _open_round(self) -> None:
        """Broadcast γ̂ and set the timer that closes the round, or end
        the round loop once ``max_rounds`` broadcasts have gone out."""
        if self.round >= self.config.max_rounds:
            self._finish()
            return
        self._before_broadcast()
        self._broadcast()
        self.runtime.call_later(self._wait, self._close_round)

    def _close_round(self) -> None:
        """Drain, measure and sign-step (or degrade), then open the next
        round unless the stop test ends the loop."""
        config = self.config
        self._drain()
        measured = self._measure(self.runtime.now)
        if measured is None:
            # Graceful degradation: hold γ̂, decay η, back off, retry.
            self.silent_rounds += 1
            self.stepper.decay(config.silence_decay)
            self._wait = min(self._wait * config.backoff, config.max_backoff)
            if self._obs.enabled:
                self._obs.count("net.silent_rounds")
                self._obs.event("net.silence", round=self.round,
                                **self._event_tags, next_wait=self._wait,
                                eta=self.stepper.step)
            self._close_round_span("silent")
        else:
            self.final_measured = measured
            self._record(measured)
            self._close_round_span("measured", measured=measured)
            if self._stop_test():
                self.converged = True
                # A long-lived serving coordinator (repro.serve) keeps
                # re-estimating after convergence so γ̂ tracks a
                # changing population; the virtual-time runs stop, as
                # Algorithm 1 specifies.
                if getattr(config, "stop_on_convergence", True):
                    self._finish()
                    return
            self.iterations += 1
            self.stepper.update(measured)
            self._wait = config.report_timeout
        self._open_round()

    # -- round-loop hooks (the sharded SiteCoordinator overrides these) ---

    #: Extra tags on this coordinator's silence events.
    _event_tags: Dict[str, int] = {}

    def _before_broadcast(self) -> None:
        """Hook: work a round does before its broadcast; none here."""

    def _stop_test(self) -> bool:
        """Hook: the Algorithm-1 stop test, checked after each measurement."""
        return self.stepper.converged

    def _finish(self) -> None:
        """Hook: the round loop ended; a lone coordinator stops the run."""
        self.runtime.stop()

    # -- protocol steps --------------------------------------------------

    def _broadcast(self) -> None:
        self.round += 1
        if self._obs.enabled:
            # Root of this round's causal tree; trace = round number, so
            # every message/response span downstream carries the round.
            self._round_span = self._obs.span_start(
                "coordinator.broadcast", trace=self.round,
                virtual_time=self.runtime.now,
                round=self.round, estimate=self.stepper.estimate,
            )
        # One call for the round: ``known`` is sorted, so the fault draws
        # come in device order.
        self.transport.broadcast(self.address, self.known,
                                 self._broadcast_message(),
                                 parent=self._round_span)
        if self._obs.enabled:
            self._obs.count("net.broadcasts")

    def _broadcast_message(self) -> GammaBroadcast:
        """What a round's broadcast carries; sharded sites extend this."""
        return GammaBroadcast(self.round, self.stepper.estimate,
                              self.stepper.step)

    def _close_round_span(self, status: str, **tags) -> None:
        if self._round_span is not None:
            self._obs.span_end(self._round_span, status=status,
                               virtual_time=self.runtime.now, **tags)
            self._round_span = None

    def _drain(self) -> None:
        """Apply the envelopes delivered since the last drain, as if one
        at a time in inbox order.

        Reports are held and written together, in one step of the batch
        rule (:meth:`_write_reports`); every other message goes through
        :meth:`receive` in inbox order.  A report touches only its own
        device's heard time and stored report, so it commutes with every
        other device's messages.  Of its own device's messages, a
        heartbeat or join writes only the heard time and membership, so a
        held report keeps its place by setting the heard time only if no
        such message came after it; a leave, or any kind but these,
        writes the held reports first.  With the recorder on, each report
        still opens and closes its ``report.receive`` span in inbox order.
        """
        inbox = self.inbox[:]
        self.inbox.clear()     # in place: the transport holds its append
        held: List[Envelope] = []
        marked: List[int] = []     # devices heard from while reports held
        for kind, run in groupby(inbox, _kind):
            if kind is ThresholdReport:
                if self._obs.enabled:
                    run = list(run)
                    for envelope in run:
                        self._report_span(envelope.message,
                                          envelope.delivered_at,
                                          envelope.span)
                held += run
                continue
            for envelope in run:
                message = envelope.message
                hearing = kind is Heartbeat or (kind is JoinLeave
                                                and message.joining)
                if held and hearing:
                    # Reports held so far come before this message.
                    self._scratch[message.device] = len(held)
                    marked.append(message.device)
                elif held:
                    self._write_held(held, marked)
                    held, marked = [], []
                self.receive(message, envelope.delivered_at, envelope.span)
        if held:
            self._write_held(held, marked)

    def _write_held(self, held: List[Envelope], marked: List[int]) -> None:
        """Write the drain's held reports; a report held before its
        device's last heartbeat or join (marked in ``_scratch`` with the
        count held then) does not set the heard time."""
        rows = len(held)
        devices = np.fromiter(map(_device, held), np.int64, rows)
        heard = None
        if marked:
            heard = np.arange(rows) >= self._scratch[devices]
            self._scratch[marked] = -1
        self._write_reports(
            devices,
            np.fromiter(map(_round, held), np.int64, rows),
            np.fromiter(map(_delivered_at, held), np.float64, rows),
            np.fromiter(map(_offload_rate, held), np.float64, rows),
            heard)

    def receive(self, message, at: float,
                parent: Optional[int] = None) -> None:
        """Apply one message, delivered at ``at``, to the coordinator state.

        The way a message changes a coordinator: the drain calls it for
        every buffered envelope but reports (which it holds and writes
        together, by the same rule), with the delivery span as
        ``parent``, and the serving daemon calls it on its loop thread
        with each :class:`~repro.net.messages.ReportBatch`.  The sharded
        :class:`~repro.net.sharded.SiteCoordinator` takes its backbone
        kinds and falls back to this for the common ones.
        """
        if isinstance(message, ThresholdReport):
            if self._obs.enabled:
                self._report_span(message, at, parent)
            self._write_reports(np.array([message.device]), message.round,
                                at, np.array([message.offload_rate]))
        elif isinstance(message, ReportBatch):
            devices = message.devices
            if message.joining:
                self._member[devices] = True
                # As a scalar join would, an id not provisioned becomes
                # known (never on the daemon, which provisions every id).
                if not self._known[devices].all():
                    self._known[devices] = True
                    self.known = np.flatnonzero(self._known).tolist()
            self._write_reports(devices, message.round, at,
                                message.offload_rates)
        elif isinstance(message, Heartbeat):
            self._heard_at[message.device] = at
        elif isinstance(message, JoinLeave):
            device = message.device
            self._heard_at[device] = at
            if message.joining:
                if not self._known[device]:   # not provisioned: a migrant
                    self._known[device] = True
                    insort(self.known, device)
                self._member[device] = True
            else:
                self._member[device] = False
                self._report_round[device] = -1

    def _report_span(self, message: ThresholdReport, at: float,
                     parent: Optional[int]) -> None:
        """Instant leaf completing the causal chain
        broadcast → deliver → best_response → report.receive."""
        span = self._obs.span_start(
            "report.receive", parent=parent, virtual_time=at,
            device=message.device, round=message.round,
        )
        self._obs.span_end(span, virtual_time=at)

    def _write_reports(self, devices: np.ndarray, rounds, at,
                       rates: np.ndarray,
                       heard: Optional[np.ndarray] = None) -> None:
        """The report table's one batch rule: rows of reports, in delivery
        order, written as if one at a time, in O(rows).

        ``rounds`` and ``at`` are columns, or one value for every row (a
        :class:`~repro.net.messages.ReportBatch`).  A device's heard time
        becomes its last row's delivery time, unless ``heard`` (a row
        mask) rules that row out.  Its row with the largest (round,
        delivery order) replaces the stored report when that round is at
        least the stored round: rounds only grow while rows are taken one
        at a time, so that row is the last one taken.
        """
        rows = np.arange(devices.size)
        last = self._top_rows(devices, rows)
        per_row_at = isinstance(at, np.ndarray)
        hearing = last if heard is None else last & heard
        self._heard_at[devices[hearing]] = at[hearing] if per_row_at else at
        newest = last
        per_row_rounds = isinstance(rounds, np.ndarray)
        if per_row_rounds:          # rank rows by (round, delivery order)
            rank = rounds - rounds.min()
            rank *= rows.size
            rank += rows
            newest = self._top_rows(devices, rank)
        keep = newest & (rounds >= self._report_round[devices])
        updated = devices[keep]
        self._report_at[updated] = at[keep] if per_row_at else at
        self._report_round[updated] = rounds[keep] if per_row_rounds \
            else rounds
        self._report_rate[updated] = rates[keep]

    def _top_rows(self, devices: np.ndarray, rank: np.ndarray) -> np.ndarray:
        """Mask of each device's highest-``rank`` row (ranks distinct and
        non-negative): a scatter-max into ``_scratch``, reset after."""
        top = self._scratch
        np.maximum.at(top, devices, rank)
        mask = top[devices] == rank
        top[devices] = -1
        return mask

    def _live(self, now: float) -> np.ndarray:
        """The member mask, less devices silent past the liveness timeout."""
        timeout = self.config.liveness_timeout
        if timeout is None:
            return self._member
        return self._member & (now - self._heard_at <= timeout)

    def members(self, now: float) -> List[int]:
        """Devices currently considered part of the fleet, in id order."""
        return np.flatnonzero(self._live(now)).tolist()

    def _measure(self, now: float) -> Optional[float]:
        """Utilisation from the reports in the sliding window, or None.

        The mean offered rate over the live devices with a usable report —
        an unbiased estimate of the population mean under
        device-independent loss — divided by the per-user capacity,
        mirroring ``MeanFieldMap.utilization``: the rates come out in
        device order, so the all-devices case is bit-equal to the closed
        form.
        """
        usable = self._live(now) & (self._report_round >= 0) & (
            (now - self._report_at <= self.config.report_window)
            | (self._report_round == self.round))
        rates = self._report_rate[usable]
        if rates.size == 0:
            return None
        return float(np.mean(rates) / self.capacity)

    def _census(self, now: float) -> Tuple[int, int]:
        """(known devices with a stored report, live members) at ``now``."""
        heard = self._known & (self._report_round >= 0)
        return (int(np.count_nonzero(heard)),
                int(np.count_nonzero(self._live(now))))

    def _record(self, measured: float) -> None:
        now = self.runtime.now
        heard, members = self._census(now)
        trace = self.trace
        trace.times.append(now)
        trace.estimated.append(self.stepper.estimate)
        trace.measured.append(measured)
        trace.heard.append(heard)
        trace.members.append(members)
        if self._obs.enabled:
            self._obs.count("net.rounds")
            self._obs.event("net.round", round=self.round,
                            gamma_hat=self.stepper.estimate,
                            measured=measured, heard=heard, members=members)
