"""The coordinators' one report table against a per-message reference.

:class:`~repro.net.actors.EdgeCoordinator` keeps its report table as
columns over the fleet's ids and writes reports by one batch rule, from
two paths: the net drain (``JoinLeave``, ``ThresholdReport`` and
``Heartbeat`` envelopes buffered in the inbox; the drain holds the
reports and writes them together) and the daemon
(:class:`~repro.serve.service.ServingCoordinator`: one
:class:`~repro.net.messages.ReportBatch` per ``/decide`` request, passed
to ``receive`` as the daemon does, with no transport).  The reference,
:class:`_Reference`, is the per-message dict table the columns replaced.
All three see the same traffic: a batch is one ``ReportBatch`` to the
serving coordinator and, to the net coordinator and the reference, one
``JoinLeave`` (when the batch joins) plus one ``ThresholdReport`` per
row.

Scripts mix duplicate ids within a batch, stale and out-of-order rounds
(callers on two threads interleaving), heartbeats, leaves and re-joins, and
round ends at arbitrary points, with and without a liveness timeout and
auto-join, from three starting memberships: provisioned (the net
runtimes), empty (the daemon), and partial (a sharded site), where
unprovisioned ids join and a report may arrive before its device's join.
The measured γ must agree to the bit, and the census, the member list,
the ``known`` broadcast list and the joined count exactly: after every
event when the net coordinator drains each message as it arrives, and
after every drain when it buffers a script's messages the way a round
does, so one drain holds reports of several rounds, duplicated and late
ones among them, between heartbeats, joins and leaves.
"""

from __future__ import annotations

from bisect import insort

import numpy as np
import pytest

from repro.core.edge_delay import PAPER_DELAY_MODEL
from repro.core.kernels import compile_mean_field
from repro.net.actors import EDGE_ADDRESS, EdgeCoordinator, FleetResponses
from repro.net.clock import Runtime
from repro.net.messages import Envelope, Heartbeat, JoinLeave, \
    ReportBatch, ThresholdReport
from repro.population.sampler import sample_population
from repro.population.scenarios import build_scenario
from repro.serve import ServeConfig, ServingCoordinator

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

N_DEVICES = 6
CAPACITY = 3.0
#: The fleet's kernel: the serving coordinator publishes its answers.
KERNEL = compile_mean_field(
    sample_population(build_scenario("paper-theoretical"), N_DEVICES, rng=0),
    PAPER_DELAY_MODEL)
#: Times and windows on a quarter grid, so report ages land exactly on
#: the window and timeout boundaries.
QUARTERS = st.integers(min_value=0, max_value=8).map(lambda q: q / 4.0)
DEVICE = st.integers(0, N_DEVICES - 1)

rows = st.tuples(DEVICE, st.floats(0.0, 5.0, allow_nan=False),
                 st.integers(0, 30))
batch = st.tuples(st.just("batch"), QUARTERS, st.integers(0, 4),
                  st.lists(rows, min_size=1, max_size=8))
single = st.tuples(st.sampled_from(["join", "leave", "heartbeat"]),
                   QUARTERS, DEVICE)
#: A round end: both coordinators drain their inboxes.
drain = st.tuples(st.just("drain"), st.just(0.0))
#: (provisioned ids, whether they start joined); ``None``: the whole fleet.
memberships = st.one_of(
    st.tuples(st.none(), st.booleans()),
    st.tuples(st.sets(DEVICE, max_size=N_DEVICES - 1), st.just(True)))


class _Reference:
    """The per-message report table: one dict entry per device."""

    def __init__(self, devices, joined: bool, config):
        self.known = sorted(devices)
        self.left = set() if joined else set(self.known)
        self.last_heard = {}
        self.reports = {}    # device -> (delivered_at, round, offload_rate)
        self.config = config
        self.round = 0

    def handle(self, message, at: float) -> None:
        device = message.device
        self.last_heard[device] = at
        if isinstance(message, ThresholdReport):
            stored = self.reports.get(device)
            if stored is None or message.round >= stored[1]:
                self.reports[device] = (at, message.round,
                                        message.offload_rate)
        elif isinstance(message, JoinLeave):
            if message.joining:
                self.left.discard(device)
                if device not in self.known:
                    insort(self.known, device)
            else:
                self.left.add(device)
                self.reports.pop(device, None)

    def alive(self, device: int, now: float) -> bool:
        timeout = self.config.liveness_timeout
        return device not in self.left and (
            timeout is None
            or now - self.last_heard.get(device, 0.0) <= timeout)

    def members(self, now: float):
        return [device for device in self.known if self.alive(device, now)]

    def measure(self, now: float):
        rates = []
        for device in self.known:
            stored = self.reports.get(device)
            if stored is None or not self.alive(device, now):
                continue
            delivered_at, report_round, rate = stored
            if now - delivered_at <= self.config.report_window \
                    or report_round == self.round:
                rates.append(rate)
        return float(np.mean(np.asarray(rates)) / CAPACITY) if rates \
            else None

    def census(self, now: float):
        heard = len([d for d in self.known if d in self.reports])
        return heard, len(self.members(now))


class _Wire:
    """A transport that keeps the handler each address registers."""

    def __init__(self):
        self.handlers = {}

    def register(self, address, handler) -> None:
        self.handlers[address] = handler


def _coordinator(cls, config, devices, joined: bool):
    # The serving coordinator has no transport: nothing sends to it.
    extra = {"responses": FleetResponses(KERNEL)} \
        if cls is ServingCoordinator else {"transport": _Wire()}
    return cls(runtime=Runtime(), devices=devices, capacity=CAPACITY,
               config=config, fleet_size=N_DEVICES, joined=joined, **extra)


def _deliver(coordinator, message, at: float, drain: bool = True) -> None:
    """Hand ``message`` to ``coordinator`` at ``at``: the daemon's takes
    it on arrival; the net one buffers it, and drains unless told not to."""
    if coordinator.transport is None:
        coordinator.receive(message, at)
        return
    coordinator.transport.handlers[EDGE_ADDRESS](Envelope(
        seq=0, src=0, dst=EDGE_ADDRESS, sent_at=at, delivered_at=at,
        message=message))
    if drain:
        coordinator._drain()


def _bits(value):
    return None if value is None else value.hex()


def _assert_agree(coordinators, reference, now: float,
                  current_round: int) -> None:
    reference.round = current_round
    for coordinator in coordinators:
        coordinator.round = current_round
        assert coordinator.known == reference.known
        assert all(type(device) is int for device in coordinator.known)
    for later in (0.0, 0.25, 0.5, 0.75, 1.5, 2.0, 2.25, 5.0):
        at = now + later
        expected = (_bits(reference.measure(at)), reference.census(at),
                    reference.members(at))
        for coordinator in coordinators:
            assert (_bits(coordinator._measure(at)), coordinator._census(at),
                    coordinator.members(at)) == expected
    assert coordinators[1].joined == \
        len([d for d in reference.known if d not in reference.left])


# A sharded site provisioned with {0, 1}: device 4's report arrives
# before its join, and counts once the join lands.
@example(script=[("batch", 0.25, 1, [(4, 2.0, 3)]), ("join", 0.25, 4)],
         membership=({0, 1}, True), liveness=None, auto_join=False,
         window=1.5, current_round=1)
@given(script=st.lists(st.one_of(batch, single, drain), max_size=25),
       membership=memberships,
       liveness=st.sampled_from([None, 0.75, 2.0]),
       auto_join=st.booleans(),
       window=st.sampled_from([0.5, 1.5]),
       current_round=st.integers(0, 4))
def test_columnar_table_matches_per_message_table(
        script, membership, liveness, auto_join, window, current_round):
    _play(script, membership, liveness, auto_join, window, current_round,
          buffered=False)


# One drain holding late and duplicated reports: device 2's round-3
# report (delivered at 0.25) outranks its later round-2 one, which sets
# its heard time (0.5); of device 1's two round-3 rows the last wins.
@example(script=[("batch", 0.25, 3, [(2, 1.0, 4)]),
                 ("batch", 0.25, 2, [(2, 3.0, 5), (1, 0.5, 6)]),
                 ("batch", 0.25, 3, [(1, 2.0, 7), (1, 4.0, 8)]),
                 ("drain", 0.0)],
         membership=(None, True), liveness=0.75, auto_join=False,
         window=0.5, current_round=3)
# One device's heartbeats and reports alternating within drains, after
# a drain that held nothing: its heard time is its last message's.
@example(script=[("heartbeat", 0.25, 2), ("drain", 0.0),
                 ("batch", 0.25, 1, [(2, 1.0, 3)]), ("heartbeat", 0.5, 2),
                 ("batch", 0.5, 1, [(2, 2.0, 4)]), ("drain", 0.0),
                 ("batch", 0.25, 1, [(2, 3.0, 5)]), ("heartbeat", 0.25, 2),
                 ("drain", 0.0)],
         membership=(None, True), liveness=0.75, auto_join=False,
         window=1.5, current_round=1)
# Reports around a leave and a re-join in one drain.
@example(script=[("batch", 0.0, 1, [(0, 1.0, 1)]), ("leave", 0.25, 0),
                 ("batch", 0.25, 0, [(0, 2.0, 1), (3, 1.5, 2)]),
                 ("join", 0.25, 0), ("batch", 0.0, 0, [(0, 3.0, 1)]),
                 ("heartbeat", 0.25, 3), ("drain", 0.0)],
         membership=(None, True), liveness=0.75, auto_join=False,
         window=1.5, current_round=1)
@given(script=st.lists(st.one_of(batch, single, drain), max_size=25),
       membership=memberships,
       liveness=st.sampled_from([None, 0.75, 2.0]),
       auto_join=st.booleans(),
       window=st.sampled_from([0.5, 1.5]),
       current_round=st.integers(0, 4))
def test_buffered_drains_match_per_message_table(
        script, membership, liveness, auto_join, window, current_round):
    _play(script, membership, liveness, auto_join, window, current_round,
          buffered=True)


def _play(script, membership, liveness, auto_join, window, current_round,
          buffered: bool) -> None:
    """Feed ``script`` to the net and serving coordinators and the
    reference, checking them after every event, or only after every
    drain when the net coordinator ``buffered`` its messages."""
    provisioned, joined = membership
    devices = range(N_DEVICES) if provisioned is None else provisioned
    config = ServeConfig(liveness_timeout=liveness, report_window=window,
                         auto_join=auto_join).protocol()
    net = _coordinator(EdgeCoordinator, config, devices, joined)
    table = _coordinator(ServingCoordinator, config, devices, joined)
    reference = _Reference(devices, joined, config)
    coordinators = (net, table)

    now = 0.0
    for event in script:
        kind, step, *rest = event
        now += step
        if kind == "batch":
            report_round, entries = rest
            ids = [device for device, _, _ in entries]
            rates = [rate for _, rate, _ in entries]
            thresholds = [threshold for _, _, threshold in entries]
            _deliver(table, ReportBatch(ids, report_round, thresholds,
                                        rates, joining=auto_join), now)
            for device, rate, threshold in entries:
                messages = [ThresholdReport(device, report_round,
                                            float(threshold), rate)]
                if auto_join:
                    messages.insert(0, JoinLeave(device, True))
                for message in messages:
                    _deliver(net, message, now, drain=not buffered)
                    reference.handle(message, now)
        elif kind == "drain":
            for coordinator in coordinators:
                coordinator._drain()
        else:
            device = rest[0]
            message = Heartbeat(device, now) if kind == "heartbeat" \
                else JoinLeave(device, kind == "join")
            for coordinator in coordinators:
                _deliver(coordinator, message, now, drain=not buffered)
            reference.handle(message, now)
        if kind == "drain" or not buffered:
            _assert_agree(coordinators, reference, now, current_round)
    for coordinator in coordinators:
        coordinator._drain()
    _assert_agree(coordinators, reference, now, current_round)
    assert len(net.inbox) == len(table.inbox) == 0
