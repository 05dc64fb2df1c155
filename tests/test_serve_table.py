"""The serving coordinator's columnar report table vs the per-message one.

:class:`~repro.serve.service.ServingCoordinator` applies one
:class:`~repro.net.messages.ReportBatch` per ``/decide`` request with
vector ops as it is delivered.  The reference is the plain
:class:`~repro.net.actors.EdgeCoordinator` fed the same traffic as one
``JoinLeave`` (when the batch joins) plus one ``ThresholdReport`` per row,
with membership starting empty as the daemon's does.  Both get each
message through the handler they registered with the transport, then
drain: the reference's mailbox empties into its table, the serving
table's mailbox is already empty.  Scripts mix duplicate ids within a
batch, stale and out-of-order rounds (two handler threads interleaving),
leaves and re-joins between batches, and round ends at arbitrary points,
with and without a liveness timeout and auto-join; after every event the
measured γ must agree to the bit and the heard/member counts exactly.
"""

from __future__ import annotations

import pytest

from repro.core.edge_delay import PAPER_DELAY_MODEL
from repro.core.kernels import compile_mean_field
from repro.net.actors import EDGE_ADDRESS, EdgeCoordinator, FleetResponses
from repro.net.clock import Runtime
from repro.net.messages import Envelope, JoinLeave, ReportBatch, \
    ThresholdReport
from repro.population.sampler import sample_population
from repro.population.scenarios import build_scenario
from repro.serve import ServeConfig, ServingCoordinator

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

N_DEVICES = 6
CAPACITY = 3.0
#: The fleet's kernel: the serving coordinator publishes its answers.
KERNEL = compile_mean_field(
    sample_population(build_scenario("paper-theoretical"), N_DEVICES, rng=0),
    PAPER_DELAY_MODEL)
#: Times and windows on a quarter grid, so report ages land exactly on
#: the window and timeout boundaries.
QUARTERS = st.integers(min_value=0, max_value=8).map(lambda q: q / 4.0)

rows = st.tuples(st.integers(0, N_DEVICES - 1),
                 st.floats(0.0, 5.0, allow_nan=False),
                 st.integers(0, 30))
batch = st.tuples(st.just("batch"), QUARTERS, st.integers(0, 4),
                  st.lists(rows, min_size=1, max_size=8))
membership = st.tuples(st.sampled_from(["join", "leave"]), QUARTERS,
                       st.integers(0, N_DEVICES - 1))
#: A round end: both coordinators drain their mailboxes.
drain = st.tuples(st.just("drain"), st.just(0.0))


class _Wire:
    """A transport that keeps the handler each address registers."""

    def __init__(self):
        self.handlers = {}

    def register(self, address, handler) -> None:
        self.handlers[address] = handler


def _coordinator(cls, config):
    extra = {"responses": FleetResponses(KERNEL)} \
        if cls is ServingCoordinator else {}
    return cls(runtime=Runtime(), transport=_Wire(),
               devices=range(N_DEVICES), capacity=CAPACITY, config=config,
               **extra)


def _deliver(coordinator, message, at: float) -> None:
    coordinator.transport.handlers[EDGE_ADDRESS](Envelope(
        seq=0, src=0, dst=EDGE_ADDRESS, sent_at=at, delivered_at=at,
        message=message))
    coordinator._drain()


def _bits(value):
    return None if value is None else value.hex()


def _assert_agree(table, reference, now: float, current_round: int) -> None:
    table.round = reference.round = current_round
    for later in (0.0, 0.25, 0.5, 0.75, 1.5, 2.0, 2.25, 5.0):
        at = now + later
        assert _bits(table._measure(at)) == _bits(reference._measure(at))
        assert table._census(at) == reference._census(at)
        assert table.members(at) == reference.members(at)
    assert table.joined == len(reference.known) - len(reference._left)


@given(script=st.lists(st.one_of(batch, membership, drain), max_size=25),
       liveness=st.sampled_from([None, 0.75, 2.0]),
       auto_join=st.booleans(),
       window=st.sampled_from([0.5, 1.5]),
       current_round=st.integers(0, 4))
def test_columnar_table_matches_per_message_table(
        script, liveness, auto_join, window, current_round):
    config = ServeConfig(liveness_timeout=liveness, report_window=window,
                         auto_join=auto_join).protocol()
    table = _coordinator(ServingCoordinator, config)
    reference = _coordinator(EdgeCoordinator, config)
    reference._left = set(reference.known)

    now = 0.0
    for event in script:
        kind, step, *rest = event
        now += step
        if kind == "batch":
            report_round, entries = rest
            devices = [device for device, _, _ in entries]
            rates = [rate for _, rate, _ in entries]
            thresholds = [threshold for _, _, threshold in entries]
            _deliver(table, ReportBatch(devices, report_round, thresholds,
                                        rates, joining=auto_join), now)
            for device, rate, threshold in entries:
                if auto_join:
                    _deliver(reference, JoinLeave(device, True), now)
                _deliver(reference, ThresholdReport(
                    device, report_round, float(threshold), rate), now)
        elif kind == "drain":
            table._drain()
            reference._drain()
        else:
            message = JoinLeave(rest[0], kind == "join")
            _deliver(table, message, now)
            _deliver(reference, message, now)
        _assert_agree(table, reference, now, current_round)
    table._drain()
    reference._drain()
    _assert_agree(table, reference, now, current_round)
    assert len(table.mailbox) == 0
