"""Tests for repro.net — the asynchronous message-passing DTU runtime.

The two load-bearing contracts:

* **Equivalence** — fault-free, synchronous-schedule ``run_net_dtu``
  reproduces the ``run_dtu`` γ̂/γ trajectory *to the bit* (the network
  runtime is Algorithm 1, not an approximation of it);
* **Determinism** — the same seed yields bit-identical message logs and
  traces on every rerun, faults and churn included.

Plus unit coverage of the virtual clock, transports and their delivery
handlers, fault injection, churn model, graceful degradation,
and a hypothesis property:
any seeded fault schedule with loss < 1 terminates with γ̂ ∈ [0, 1].
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.dtu import DtuConfig, run_dtu
from repro.core.edge_delay import PAPER_DELAY_MODEL, ReciprocalDelay
from repro.core.kernels import compile_mean_field
from repro.core.meanfield import MeanFieldMap
from repro.net import (
    ChurnConfig,
    ChurnModel,
    Envelope,
    FaultConfig,
    FaultyTransport,
    GammaBroadcast,
    LocalTransport,
    MessageLog,
    NetConfig,
    Partition,
    Runtime,
    ThresholdReport,
    build_devices,
    run_net_dtu,
    with_faults,
)
from repro.obs import ObsRecorder, SpanCollector
from repro.population.distributions import Uniform
from repro.population.sampler import PopulationConfig, sample_population

pytestmark = pytest.mark.net


def fleet_config():
    """Section IV-A style population knobs, scaled down."""
    return PopulationConfig(
        arrival=Uniform(0.0, 4.0),
        service=Uniform(1.0, 5.0),
        latency=Uniform(0.0, 1.0),
        energy_local=Uniform(0.0, 3.0),
        energy_offload=Uniform(0.0, 1.0),
        capacity=10.0,
    )


@pytest.fixture(scope="module")
def fleet():
    """A 60-device heterogeneous fleet."""
    return sample_population(fleet_config(), 60, rng=7)


# ---------------------------------------------------------------------------
# Virtual clock
# ---------------------------------------------------------------------------


class TestVirtualClock:
    def test_events_fire_in_time_order_with_fifo_ties(self):
        runtime = Runtime()
        fired = []
        runtime.call_at(2.0, lambda: fired.append("late"))
        runtime.call_at(1.0, lambda: fired.append("early"))
        runtime.call_at(1.0, lambda: fired.append("early-second"))

        def idle():
            runtime.call_later(10.0, lambda: fired.append("idle"))

        runtime.run([idle], until=5.0)
        assert fired == ["early", "early-second", "late"]

    def test_rejects_past_and_nan(self):
        runtime = Runtime()
        runtime.call_at(5.0, lambda: None)
        runtime.run([])
        assert runtime.now == 5.0
        with pytest.raises(ValueError):
            runtime.call_at(4.0, lambda: None)
        with pytest.raises(ValueError):
            runtime.call_at(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            runtime.call_later(-1.0, lambda: None)

    def test_pending_counts_heap(self):
        runtime = Runtime()
        assert runtime.pending == 0
        runtime.call_later(1.0, lambda: None)
        runtime.call_later(2.0, lambda: None)
        assert runtime.pending == 2


class TestRuntime:
    def test_timer_ordering(self):
        runtime = Runtime()
        order = []

        def actor(name, delay):
            return lambda: runtime.call_later(
                delay, lambda: order.append((name, runtime.now)))

        runtime.run([actor("b", 2.0), actor("a", 1.0)])
        assert order == [("a", 1.0), ("b", 2.0)]
        assert runtime.events_fired == 2

    def test_until_caps_virtual_time(self):
        runtime = Runtime()
        reached = []

        def tick():
            reached.append(runtime.now)
            runtime.call_later(1.0, tick)

        runtime.run([lambda: runtime.call_later(1.0, tick)], until=3.5)
        assert reached == [1.0, 2.0, 3.0]

    def test_actor_exception_propagates(self):
        runtime = Runtime()
        later = []

        def bomb():
            raise ValueError("boom")

        def start():
            runtime.call_later(1.0, bomb)
            runtime.call_later(2.0, lambda: later.append(runtime.now))

        with pytest.raises(ValueError, match="boom"):
            runtime.run([start])
        assert later == [] and runtime.now == 1.0     # raised at once

    def test_handler_exception_propagates(self):
        runtime = Runtime()
        transport = LocalTransport(runtime)

        def bomb(envelope):
            raise ValueError("boom")

        transport.register(1, bomb)

        def sender():
            transport.send("edge", 1, GammaBroadcast(1, 0.5, 0.1), delay=1.0)
            runtime.call_later(5.0, lambda: None)

        with pytest.raises(ValueError, match="boom"):
            runtime.run([sender])
        assert runtime.now == 1.0

    def test_runtimes_import_no_asyncio(self):
        """Every actor is a callback: a fresh interpreter importing the
        virtual-time runtimes loads no asyncio."""
        code = ("import sys\n"
                "import repro.net, repro.net.sharded, repro.workload\n"
                "assert 'asyncio' not in sys.modules, 'asyncio imported'\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class TestLocalTransport:
    def test_delivery_with_latency_and_log(self):
        runtime = Runtime()
        transport = LocalTransport(runtime)
        received = []
        transport.register(1, lambda envelope: received.append(
            (runtime.now, envelope.latency, envelope.message)))

        def sender():
            transport.send("edge", 1, GammaBroadcast(1, 0.5, 0.1), delay=0.25)

        runtime.run([lambda: runtime.call_later(1.0, sender)])
        assert received == [(1.25, 0.25, GammaBroadcast(1, 0.5, 0.1))]
        assert transport.log.count("sent") == 1
        assert transport.log.count("delivered") == 1

    def test_unroutable_destination_is_logged_not_fatal(self):
        runtime = Runtime()
        transport = LocalTransport(runtime)

        def sender():
            transport.send("edge", 99, GammaBroadcast(1, 0.5, 0.1))

        runtime.run([sender])
        assert transport.log.count("unroutable") == 1
        assert transport.log.count("delivered") == 0


class TestFaultyTransport:
    def _net(self, faults, seed=0):
        runtime = Runtime()
        transport = FaultyTransport(LocalTransport(runtime), faults, seed=seed)
        return runtime, transport

    def test_total_loss_drops_everything(self):
        runtime, transport = self._net(FaultConfig(loss=1.0))
        transport.register(1, [].append)

        def sender():
            for _ in range(10):
                transport.send("edge", 1, GammaBroadcast(1, 0.5, 0.1))

        runtime.run([sender])
        assert transport.log.count("dropped") == 10
        assert transport.log.count("delivered") == 0
        assert transport.log.delivered_fraction == 0.0

    def test_partition_blocks_both_directions_inside_window(self):
        faults = FaultConfig(partitions=(Partition(1.0, 3.0, frozenset({1})),))
        runtime, transport = self._net(faults)
        transport.register(1, [].append)
        transport.register("edge", [].append)

        def sender():
            transport.send("edge", 1, GammaBroadcast(1, 0.5, 0.1))   # t=0: flows
            runtime.call_later(2.0, inside)

        def inside():
            transport.send("edge", 1, GammaBroadcast(2, 0.5, 0.1))   # blocked
            transport.send(1, "edge", ThresholdReport(1, 2, 0.0, 0.0))  # blocked
            runtime.call_later(2.0, healed)

        def healed():
            transport.send("edge", 1, GammaBroadcast(3, 0.5, 0.1))   # healed

        runtime.run([sender])
        assert transport.log.count("partitioned") == 2
        assert transport.log.count("delivered") == 2

    def test_duplication_delivers_extra_copies(self):
        runtime, transport = self._net(FaultConfig(duplicate=1.0), seed=5)
        transport.register(1, [].append)

        def sender():
            transport.send("edge", 1, GammaBroadcast(1, 0.5, 0.1))

        runtime.run([sender])
        assert transport.log.count("duplicated") == 1
        assert transport.log.count("delivered") == 2

    def test_jitter_reorders_messages(self):
        runtime, transport = self._net(FaultConfig(jitter=1.0), seed=2)
        arrivals = []
        transport.register(
            1, lambda envelope: arrivals.append(envelope.message.round))

        def sender():
            for round_number in range(20):
                transport.send("edge", 1, GammaBroadcast(round_number, 0.5, 0.1))

        runtime.run([sender])
        assert sorted(arrivals) == list(range(20))
        assert arrivals != list(range(20))   # exponential jitter reordered

    def test_same_seed_same_schedule(self):
        for _ in range(2):
            logs = []
            for attempt in range(2):
                runtime, transport = self._net(
                    FaultConfig(loss=0.3, duplicate=0.2, jitter=0.5), seed=9)
                transport.register(1, [].append)

                def sender():
                    for round_number in range(50):
                        transport.send("edge", 1,
                                       GammaBroadcast(round_number, 0.5, 0.1))

                runtime.run([sender])
                logs.append(transport.log)
            assert logs[0] == logs[1]


class TestThresholdReport:
    """The report is a named tuple; its contract is the dataclass's."""

    def test_keyword_construction_and_field_names(self):
        report = ThresholdReport(device=3, round=2, threshold=1.5,
                                 offload_rate=0.25)
        assert report == ThresholdReport(3, 2, 1.5, 0.25)
        assert list(inspect.signature(ThresholdReport).parameters) == [
            "device", "round", "threshold", "offload_rate"]
        assert (report.device, report.round, report.threshold,
                report.offload_rate) == (3, 2, 1.5, 0.25)

    def test_fields_are_read_only(self):
        report = ThresholdReport(3, 2, 1.5, 0.25)
        for name in ("device", "round", "threshold", "offload_rate"):
            with pytest.raises(AttributeError):
                setattr(report, name, 0)
        assert report == ThresholdReport(3, 2, 1.5, 0.25)

    def test_hashable(self):
        first = ThresholdReport(3, 2, 1.5, 0.25)
        second = ThresholdReport(3, 2, 1.5, 0.25)
        assert hash(first) == hash(second)
        assert len({first, second, ThresholdReport(4, 2, 1.5, 0.25)}) == 2

    def test_kind_in_log_entries_and_span_names(self):
        runtime = Runtime()
        spans = SpanCollector()
        transport = LocalTransport(runtime,
                                   recorder=ObsRecorder(spans=spans))
        transport.register("edge", [].append)

        def device():
            transport.send(7, "edge", ThresholdReport(7, 1, 2.0, 0.5))

        runtime.run([device])
        assert [entry[:5] for entry in transport.log.entries] == [
            ("sent", 0, 7, "edge", "ThresholdReport"),
            ("delivered", 0, 7, "edge", "ThresholdReport"),
        ]
        assert [span.name for span in spans.spans] == ["msg.ThresholdReport"]


class TestRejectedSend:
    """A send whose delivery time is in the past or NaN raises before the
    transport stamps it: no log row, count, metric, span, heap entry or
    fault draw."""

    @staticmethod
    def _transport(faults, runtime, recorder):
        local = LocalTransport(runtime, recorder=recorder)
        if faults is None:
            return local
        return FaultyTransport(local, faults, seed=3, recorder=recorder)

    @pytest.mark.parametrize("delay", [-1.0, float("nan")],
                             ids=["negative", "nan"])
    @pytest.mark.parametrize("faults", [
        None,
        FaultConfig(duplicate=1.0, latency=0.5),
        FaultConfig(loss=0.5, duplicate=1.0, jitter=2.0),
    ], ids=["local", "faulty", "lossy-jittered"])
    def test_rejected_send_leaves_no_trace(self, faults, delay):
        runtime = Runtime()
        spans = SpanCollector()
        recorder = ObsRecorder(spans=spans)
        transport = self._transport(faults, runtime, recorder)
        transport.register(1, [].append)
        rng = getattr(transport, "rng", None)
        draws = rng.bit_generator.state if rng is not None else None
        for _ in range(5):   # whatever fate the fault draws would pick
            with pytest.raises(ValueError, match="cannot schedule"):
                transport.send("edge", 1, GammaBroadcast(1, 0.5, 0.1),
                               delay=delay)
        if rng is not None:
            assert rng.bit_generator.state == draws
        assert transport.log.counts == {}
        assert transport.log.attempted == 0
        assert len(transport.log) == 0
        assert recorder.registry.snapshot()["counters"] == {}
        assert spans.open_count == 0 and len(spans) == 0
        assert runtime.pending == 0

        def sender():            # the transport still works afterwards
            transport.send("edge", 1, GammaBroadcast(2, 0.5, 0.1))

        runtime.run([sender])
        assert transport.log.attempted > 0
        assert spans.open_count == 0 and len(spans) > 0


def _broadcast(transport, src, dsts, message, delay, parent):
    transport.broadcast(src, dsts, message, delay, parent)


def _send_loop(transport, src, dsts, message, delay, parent):
    for dst in dsts:
        transport.send(src, dst, message, delay, parent)


class TestBroadcast:
    """One ``broadcast`` is the ``send`` loop it stands for: twin
    runtimes, one fanning out each message in one call and the other
    sending it destination by destination, end with equal message logs
    and fate counts, equal heap entries after every fan-out, equal span
    records, equal deliveries and equal generator states, whatever the
    faults and with log entries on or off."""

    #: 99 is never registered: its copies end "unroutable".
    DESTINATIONS = (0, 1, 2, 3, 4, 99, "site/1")
    #: (virtual time, delay) of each fan-out; the second falls inside
    #: the first partition window below, the last two inside the second.
    ROUNDS = ((0.0, 0.0), (1.5, 0.25), (3.0, 0.0), (3.0, 1.0))

    FAULTS = {
        "local": None,
        "faultless": FaultConfig(),
        "lossy": FaultConfig(loss=0.4),
        "duplicating": FaultConfig(duplicate=0.5, jitter=0.5),
        "latency": FaultConfig(latency=0.25, jitter=0.1, duplicate=1.0),
        "all": FaultConfig(
            loss=0.2, duplicate=0.3, latency=0.1, jitter=0.4,
            partitions=(Partition(1.0, 2.0, frozenset({1, 3})),
                        Partition(2.5, 4.0, frozenset({"edge"})))),
    }

    def _run(self, faults, record_log: bool, fan_out):
        runtime = Runtime()
        spans = SpanCollector()
        recorder = ObsRecorder(spans=spans)
        transport = LocalTransport(runtime, record_log=record_log,
                                   recorder=recorder)
        if faults is not None:
            transport = FaultyTransport(transport, faults, seed=5,
                                        recorder=recorder)
        delivered = []
        for address in self.DESTINATIONS:
            if address != 99:
                transport.register(address, delivered.append)
        heaps = []

        def fan_out_at(when, delay, message):
            root = recorder.span_start("round", virtual_time=when)
            fan_out(transport, "edge", self.DESTINATIONS, message, delay,
                    root)
            heaps.append([(at, seq, arg)
                          for at, seq, _, arg in runtime._heap
                          if isinstance(arg, Envelope)])
            recorder.span_end(root, virtual_time=when)

        for number, (when, delay) in enumerate(self.ROUNDS):
            runtime.call_at(when, partial(
                fan_out_at, when, delay, GammaBroadcast(number, 0.5, 0.1)))
        runtime.run([])
        rng = getattr(transport, "rng", None)
        return {
            "log": transport.log,
            "counts": dict(transport.log.counts),
            "heaps": heaps,
            "spans": spans.canonical(),
            "delivered": delivered,
            "events": runtime.events_fired,
            "rng": rng.bit_generator.state if rng is not None else None,
            "metrics": recorder.registry.snapshot()["counters"],
        }

    @pytest.mark.parametrize("record_log", [True, False],
                             ids=["entries", "counts"])
    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_broadcast_equals_send_loop(self, name, record_log):
        faults = self.FAULTS[name]
        one_call = self._run(faults, record_log, _broadcast)
        sends = self._run(faults, record_log, _send_loop)
        assert one_call == sends
        assert (len(one_call["log"]) > 0) == record_log
        # The scenario reaches the fates its faults can produce.
        counts = one_call["counts"]
        assert counts["unroutable"] > 0
        if faults is not None and faults.loss:
            assert counts["dropped"] > 0
        if faults is not None and faults.duplicate:
            assert counts["duplicated"] > 0
        if faults is not None and faults.partitions:
            assert counts["partitioned"] > 0

    @pytest.mark.parametrize("delay", [-1.0, float("nan")],
                             ids=["negative", "nan"])
    @pytest.mark.parametrize("faults", [None, FAULTS["all"]],
                             ids=["local", "faulty"])
    def test_rejected_broadcast_leaves_no_trace(self, faults, delay):
        runtime = Runtime()
        spans = SpanCollector()
        recorder = ObsRecorder(spans=spans)
        transport = TestRejectedSend._transport(faults, runtime, recorder)
        transport.register(1, [].append)
        rng = getattr(transport, "rng", None)
        draws = rng.bit_generator.state if rng is not None else None
        with pytest.raises(ValueError, match="cannot schedule"):
            transport.broadcast("edge", self.DESTINATIONS,
                                GammaBroadcast(1, 0.5, 0.1), delay=delay)
        if rng is not None:
            assert rng.bit_generator.state == draws
        assert transport.log.counts == {} and len(transport.log) == 0
        assert recorder.registry.snapshot()["counters"] == {}
        assert len(spans) == 0 and runtime.pending == 0


class TestMessageLog:
    @staticmethod
    def _faulty_scenario(record_log: bool) -> MessageLog:
        """Loss, duplication, jitter, a partition and an unroutable
        address, all from one seed."""
        runtime = Runtime()
        faults = FaultConfig(
            loss=0.2, duplicate=0.3, jitter=0.5,
            partitions=(Partition(2.0, 4.0, frozenset({2})),))
        transport = FaultyTransport(
            LocalTransport(runtime, record_log=record_log), faults, seed=11)
        for address in (1, 2, "edge"):
            transport.register(address, [].append)

        def send_round(round_number):
            for device in (1, 2, 99):
                transport.send("edge", device,
                               GammaBroadcast(round_number, 0.5, 0.1))
                transport.send(device, "edge", ThresholdReport(
                    device, round_number, 1.0, 0.5))
            if round_number < 7:
                runtime.call_later(1.0, partial(send_round, round_number + 1))

        runtime.run([partial(send_round, 0)])
        return transport.log

    def test_counts_only_log_agrees_with_entry_log(self):
        full = self._faulty_scenario(record_log=True)
        counted = self._faulty_scenario(record_log=False)
        for fate in ("sent", "delivered", "dropped", "partitioned",
                     "duplicated", "unroutable"):
            assert full.count(fate) > 0, fate
        assert len(full) > 0 and len(counted) == 0
        assert counted.counts == full.counts
        assert counted.attempted == full.attempted
        assert counted.delivered_fraction == full.delivered_fraction

    def test_counts_only_mode_keeps_no_entries(self):
        log = MessageLog(record_entries=False)
        runtime = Runtime()
        transport = LocalTransport(runtime, record_log=False)
        transport.register(1, [].append)

        def sender():
            transport.send("edge", 1, GammaBroadcast(1, 0.5, 0.1))

        runtime.run([sender])
        assert transport.log.count("delivered") == 1
        assert len(transport.log) == 0
        assert len(log) == 0


# ---------------------------------------------------------------------------
# Churn
# ---------------------------------------------------------------------------


class TestChurnModel:
    def test_static_config_is_empty(self):
        model = ChurnModel(ChurnConfig(), 10, horizon=100.0, seed=3)
        assert model.churn_events == 0
        assert not model.stragglers.any()
        assert model.report_delay(0) == 0.0

    def test_timelines_alternate_and_stay_in_horizon(self):
        config = ChurnConfig(leave_rate=0.1, mean_downtime=5.0)
        model = ChurnModel(config, 20, horizon=200.0, seed=3)
        assert model.churn_events > 0
        for timeline in model.timelines:
            times = [t for t, _ in timeline]
            assert times == sorted(times)
            assert all(0.0 < t < 200.0 for t in times)
            # Strictly alternating leave / rejoin, starting with a leave.
            expected = [i % 2 == 1 for i in range(len(timeline))]
            assert [alive for _, alive in timeline] == expected

    def test_zero_downtime_means_permanent_departure(self):
        config = ChurnConfig(leave_rate=1.0, mean_downtime=0.0)
        model = ChurnModel(config, 50, horizon=1000.0, seed=3)
        for timeline in model.timelines:
            assert len(timeline) <= 1
            if timeline:
                assert timeline[0][1] is False

    def test_stragglers_get_the_delay(self):
        config = ChurnConfig(straggler_fraction=1.0, straggler_delay=2.5)
        model = ChurnModel(config, 5, horizon=10.0, seed=3)
        assert model.stragglers.all()
        assert model.report_delay(4) == 2.5


# ---------------------------------------------------------------------------
# End-to-end protocol
# ---------------------------------------------------------------------------


class TestEquivalence:
    """Acceptance: fault-free net == run_dtu, bit for bit."""

    def test_fault_free_run_matches_run_dtu_exactly(self, fleet):
        reference = run_dtu(
            MeanFieldMap(fleet),
            DtuConfig(initial_step=0.1, tolerance=1e-2),
        )
        result = run_net_dtu(
            fleet, NetConfig(initial_step=0.1, tolerance=1e-2))
        assert result.converged and reference.converged
        assert result.iterations == reference.iterations
        assert result.estimated_utilization == reference.estimated_utilization
        ref_estimated = np.asarray(reference.trace.estimated_utilization)
        ref_actual = np.asarray(reference.trace.actual_utilization)
        net_estimated = np.asarray(result.trace.estimated)
        net_measured = np.asarray(result.trace.measured)
        assert np.array_equal(ref_estimated, net_estimated)
        assert np.array_equal(ref_actual, net_measured)

    def test_initial_estimate_above_equilibrium(self, fleet):
        reference = run_dtu(MeanFieldMap(fleet), initial_estimate=1.0)
        result = run_net_dtu(fleet, NetConfig(initial_estimate=1.0))
        assert result.iterations > 0
        assert result.estimated_utilization == reference.estimated_utilization
        assert result.iterations == reference.iterations


class TestDeterminism:
    def test_same_seed_bit_identical_logs_and_traces(self, fleet):
        config = NetConfig(
            faults=FaultConfig(loss=0.2, duplicate=0.05, latency=0.02,
                               jitter=0.3),
            churn=ChurnConfig(leave_rate=0.01, mean_downtime=4.0,
                              straggler_fraction=0.1, straggler_delay=0.5),
            heartbeat_interval=2.0, seed=42, max_rounds=80,
        )
        first = run_net_dtu(fleet, config)
        second = run_net_dtu(fleet, config)
        assert first.log == second.log
        assert first.trace.estimated == second.trace.estimated
        assert first.trace.measured == second.trace.measured
        assert first.events_fired == second.events_fired
        assert first.estimated_utilization == second.estimated_utilization

    def test_different_seed_different_fault_schedule(self, fleet):
        base = NetConfig(faults=FaultConfig(loss=0.3, jitter=0.5),
                         seed=1, max_rounds=40)
        other = NetConfig(faults=FaultConfig(loss=0.3, jitter=0.5),
                          seed=2, max_rounds=40)
        assert run_net_dtu(fleet, base).log != run_net_dtu(fleet, other).log


class TestFaultTolerance:
    def test_converges_near_reference_under_loss(self, fleet):
        reference = run_dtu(MeanFieldMap(fleet))
        result = run_net_dtu(
            fleet,
            NetConfig(faults=FaultConfig(loss=0.2, jitter=0.2), seed=5,
                      max_rounds=200),
        )
        assert result.converged
        # Loss biases the measurement but the sign-step still homes in on a
        # neighbourhood of γ*; a few step-sizes is the right scale.
        assert abs(result.estimated_utilization
                   - reference.estimated_utilization) < 0.05

    def test_blackout_degrades_gracefully(self, fleet):
        config = NetConfig(faults=FaultConfig(loss=1.0), seed=1,
                           max_rounds=25, initial_estimate=0.4)
        result = run_net_dtu(fleet, config)
        assert not result.converged
        assert result.silent_rounds == 25
        # γ̂ held, step decayed, no measurement ever recorded.
        assert result.estimated_utilization == 0.4
        assert np.isnan(result.measured_utilization)
        assert len(result.trace.times) == 0
        assert result.log.count("delivered") == 0

    def test_partition_heals_and_run_converges(self, fleet):
        config = NetConfig(
            faults=FaultConfig(
                partitions=(Partition(0.0, 6.0, frozenset(range(60))),)),
            seed=3, max_rounds=100,
        )
        result = run_net_dtu(fleet, config)
        assert result.silent_rounds > 0    # everyone unreachable at first
        assert result.converged

    def test_churned_fleet_still_converges(self, fleet):
        config = NetConfig(
            churn=ChurnConfig(leave_rate=0.02, mean_downtime=3.0,
                              straggler_fraction=0.2, straggler_delay=0.4),
            heartbeat_interval=2.0, seed=8, max_rounds=200,
        )
        result = run_net_dtu(fleet, config)
        assert result.converged
        assert 0.0 <= result.estimated_utilization <= 1.0
        assert result.log.count("delivered") > 0


class TestBuildDevices:
    def test_kernel_fixes_population_and_delay_model(self, fleet):
        """The fleet kernel must have been compiled for this population
        and this delay model; a mismatch is refused, not served."""
        kernel = compile_mean_field(fleet, PAPER_DELAY_MODEL)

        def build(population, delay_model):
            runtime = Runtime()
            return build_devices(population, delay_model, runtime,
                                 LocalTransport(runtime), kernel=kernel)

        with pytest.raises(ValueError, match="delay model"):
            build(fleet, ReciprocalDelay(1.05, 4.0))
        other = sample_population(fleet_config(), 60, rng=8)
        with pytest.raises(ValueError, match="population"):
            build(other, PAPER_DELAY_MODEL)
        assert all(d.kernel is kernel
                   for d in build(fleet, PAPER_DELAY_MODEL))


class TestConfig:
    def test_with_faults_helper(self):
        config = with_faults(NetConfig(), loss=0.25)
        assert config.faults.loss == 0.25
        richer = with_faults(config, jitter=0.5)
        assert richer.faults.loss == 0.25 and richer.faults.jitter == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            NetConfig(backoff=0.5)
        with pytest.raises(ValueError):
            NetConfig(report_timeout=0.0)
        with pytest.raises(ValueError):
            FaultConfig(loss=1.5)
        with pytest.raises(ValueError):
            ChurnConfig(straggler_fraction=-0.1)

    def test_max_backoff_below_report_timeout_rejected(self):
        """A ceiling under the base wait would shorten the wait after a
        silent round (10, 8, 8, 8) instead of backing off."""
        with pytest.raises(ValueError, match="max_backoff"):
            NetConfig(report_timeout=10.0, max_backoff=8.0)
        assert NetConfig(report_timeout=8.0, max_backoff=8.0)

    def test_horizon_covers_round_budget(self):
        config = NetConfig(max_rounds=10, report_timeout=1.0, max_backoff=8.0)
        assert config.resolved_horizon() == pytest.approx(88.0)
        assert NetConfig(horizon=42.0).resolved_horizon() == 42.0


# ---------------------------------------------------------------------------
# Property: any fault schedule with loss < 1 terminates with γ̂ ∈ [0, 1]
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@pytest.fixture(scope="module")
def tiny_fleet():
    config = PopulationConfig(
        arrival=Uniform(0.0, 4.0),
        service=Uniform(1.0, 5.0),
        latency=Uniform(0.0, 1.0),
        energy_local=Uniform(0.0, 3.0),
        energy_offload=Uniform(0.0, 1.0),
        capacity=10.0,
    )
    return sample_population(config, 8, rng=11)


class TestNetProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        loss=st.floats(min_value=0.0, max_value=0.95),
        duplicate=st.floats(min_value=0.0, max_value=0.3),
        jitter=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_estimate_stays_in_unit_interval_and_run_terminates(
            self, tiny_fleet, loss, duplicate, jitter, seed):
        config = NetConfig(
            faults=FaultConfig(loss=loss, duplicate=duplicate, jitter=jitter),
            seed=seed, max_rounds=40, log_messages=False,
        )
        result = run_net_dtu(tiny_fleet, config)   # must return, not hang
        assert 0.0 <= result.estimated_utilization <= 1.0
        assert result.rounds <= 40
        assert result.virtual_time <= config.resolved_horizon()
        for estimate in result.trace.estimated:
            assert 0.0 <= estimate <= 1.0
