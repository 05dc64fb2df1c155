"""Tests of the load generator's timing accounting.

Run: ``python3 -m pytest perfbench/test_loadgen.py -q``
"""

import json
import threading
import time

import numpy as np
import pytest

import loadgen


class FakeClock:
    """A clock that only moves when the code under test sleeps or sends."""

    def __init__(self):
        self.now = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.now += seconds

    def sender(self, costs):
        def send(connection, index):
            self.sleep(costs.get(index, 0.0))
            return 200, b"{}"
        return send


def _by_index(samples):
    return {s.index: s for s in samples}


def test_open_loop_charges_a_stall_to_the_requests_queued_behind_it():
    clock = FakeClock()
    samples = _by_index(loadgen.open_loop(
        clock.sender({0: 0.2}), [0.0, 0.01, 0.02, 0.03], connections=1,
        clock=clock, sleep=clock.sleep))
    assert samples[0].latency == pytest.approx(0.2)
    assert samples[0].lag == 0.0
    # Requests 1-3 were due during the stall and sent when it ended: each
    # is timed from its due time, and the lateness shows as lag.
    for index, due in ((1, 0.01), (2, 0.02), (3, 0.03)):
        assert samples[index].due == pytest.approx(due)
        assert samples[index].sent == pytest.approx(0.2)
        assert samples[index].latency == pytest.approx(0.2 - due)
        assert samples[index].lag == pytest.approx(0.2 - due)


def test_open_loop_sends_on_time_when_the_server_keeps_up():
    clock = FakeClock()
    samples = loadgen.open_loop(clock.sender({}), [0.5, 1.0, 1.25],
                                connections=1, clock=clock, sleep=clock.sleep)
    assert [s.sent for s in samples] == [0.5, 1.0, 1.25]
    assert all(s.lag == 0.0 and s.latency == 0.0 for s in samples)


def test_open_loop_uses_the_second_connection_during_a_stall():
    stall = threading.Event()

    def send(connection, index):
        if index < 2:
            stall.wait(1.0)          # both connections busy until released
        return 200, b"{}"

    def release():
        time.sleep(0.3)
        stall.set()

    threading.Thread(target=release, daemon=True).start()
    samples = _by_index(loadgen.open_loop(send, [0.0, 0.02, 0.04],
                                          connections=2))
    # Request 1 found the idle second connection; request 2 had to wait
    # for one to come free, and that wait counts against it.
    assert samples[1].lag < 0.1
    assert samples[2].lag >= 0.2
    assert samples[2].latency >= samples[2].lag


def test_transport_errors_are_recorded_as_status_zero():
    def send(connection, index):
        raise ConnectionResetError("peer went away")

    samples = loadgen.open_loop(send, [0.0, 0.0], connections=1)
    assert [s.status for s in samples] == [0, 0]


def test_closed_loop_stops_starting_requests_at_the_deadline():
    clock = FakeClock()
    samples = loadgen.closed_loop(clock.sender({i: 1.0 for i in range(10)}),
                                  n_bodies=10, connections=1, duration=3.5,
                                  keep_every=2, clock=clock)
    assert [s.index for s in samples] == [0, 1, 2, 3]
    assert all(s.latency == pytest.approx(1.0) for s in samples)
    assert [s.body is not None for s in samples] == [True, False, True,
                                                     False]


def test_poisson_schedule_is_seeded_sorted_and_at_the_rate():
    first = loadgen.poisson_schedule(np.random.default_rng(7), 1000.0, 10.0)
    again = loadgen.poisson_schedule(np.random.default_rng(7), 1000.0, 10.0)
    assert np.array_equal(first, again)
    assert np.all(np.diff(first) > 0) and first[-1] < 10.0
    assert 9000 < first.size < 11000


def test_decide_bodies_encode_single_and_batched_requests():
    rng = np.random.default_rng(0)
    single = loadgen.decide_bodies(rng, 50, 1, 3)
    batched = loadgen.decide_bodies(rng, 50, 4, 2)
    assert all(0 <= json.loads(b)["device"] < 50 for b in single)
    assert all(len(json.loads(b)["devices"]) == 4 for b in batched)
