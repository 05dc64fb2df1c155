"""The serving layer: wall-clock driver, decision service, HTTP surface.

Three contracts pin :mod:`repro.serve` to the rest of the repo:

* the batched kernel probe answers **bit-identically** to the scalar
  staircase search (``user_thresholds`` vs ``user_threshold``), and
  every fleet answer the coordinator publishes equals it over the whole
  fleet, so a served decision equals what the solver computes for the
  same γ̂;
* a fault-free serving session over a frozen population reproduces the
  offline :func:`repro.core.dtu.run_dtu` fixed point (the integration
  test at the bottom);
* overload sheds with 503 + ``Retry-After`` — bounded in-flight work —
  instead of queueing without limit.
"""

from __future__ import annotations

import concurrent.futures
import http.client
import json
import logging
import select
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.core.dtu import DtuConfig, run_dtu
from repro.core.edge_delay import PAPER_DELAY_MODEL, ReciprocalDelay
from repro.core.kernels import CompiledMeanField, compile_mean_field
from repro.core.meanfield import MeanFieldMap
from repro.population.sampler import sample_population
from repro.population.scenarios import build_scenario
from repro.serve import (
    AdmissionController,
    Decisions,
    DecisionServer,
    DecisionService,
    ServeConfig,
    WallClockDriver,
)
from repro.serve.httpd import encode_decisions
from repro.serve.replay import ReplayConfig, run_replay
from repro.utils import httpd
from repro.utils.httpd import HttpDaemon, QuietHandler


@pytest.fixture(scope="module")
def population():
    return sample_population(build_scenario("paper-theoretical"), 64, rng=0)


@pytest.fixture(scope="module")
def kernel(population):
    return compile_mean_field(population, PAPER_DELAY_MODEL)


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


def _raw_post(url, head: bytes, timeout: float = 10.0):
    """``head`` (request line + headers) over a fresh socket, no body.

    Returns ``(status, reply)``; reading the reply to EOF also proves the
    server closed the connection instead of waiting for body bytes.
    """
    host, port = url.rsplit("/", 1)[-1].split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(head)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    return int(reply.split(b" ", 2)[1]), reply


def _old_payload(decisions):
    """The ``/decide`` document as a dict, as the service once built it."""
    rows = [
        {"device": int(device), "threshold": int(threshold),
         "offload_probability": float(alpha),
         "offload_rate": float(rate)}
        for device, threshold, alpha, rate in zip(
            decisions.devices, decisions.thresholds,
            decisions.offload_probabilities, decisions.offload_rates)
    ]
    payload = {"round": decisions.round, "gamma": decisions.gamma,
               "stale": decisions.stale, "decisions": rows}
    if decisions.single:
        payload.update(rows[0])
    return payload


def _dumped(decisions) -> bytes:
    """The ``/decide`` body ``json.dumps`` writes for ``decisions``."""
    return (json.dumps(_old_payload(decisions)) + "\n").encode()


def _post_body(url, document) -> bytes:
    request = urllib.request.Request(url, data=json.dumps(document).encode())
    with urllib.request.urlopen(request) as response:
        return response.read()


def _recording(service):
    """Keep every :class:`Decisions` the service's ``decide`` returns."""
    served = []
    decide = service.decide

    def recorded(devices, report=True):
        served.append(decide(devices, report))
        return served[-1]

    service.decide = recorded
    return served


def _publish_gamma(service, gamma: float) -> None:
    """Move γ̂ to ``gamma`` and publish it, as a round's broadcast does —
    on the loop thread while the service runs."""
    coordinator = service.coordinator

    def broadcast():
        coordinator.stepper.estimate = gamma
        coordinator._broadcast()

    if not service._started:
        broadcast()
        return
    done = threading.Event()
    service.driver.submit(lambda: (broadcast(), done.set()))
    assert done.wait(10.0)


def _deep_body() -> bytes:
    """A 200 kB ``/decide`` body nested past the JSON decoder's depth."""
    return b'{"devices": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"


def _post_raw(url, body: bytes):
    request = urllib.request.Request(url, data=body)
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(url, document):
    request = urllib.request.Request(
        url, data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read()), \
                response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def _healthz(server) -> int:
    """``GET /healthz``'s status code, 503 included."""
    try:
        with urllib.request.urlopen(server.url + "/healthz") as response:
            return response.status
    except urllib.error.HTTPError as error:
        return error.code


def _wait_until(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


class TestServeConfig:
    def test_defaults_validate(self):
        config = ServeConfig()
        assert config.resolved_report_window() == 3.0 * config.round_period
        assert config.resolved_max_backoff() == 4.0 * config.round_period

    @pytest.mark.parametrize("kwargs", [
        {"round_period": 0.0},
        {"backoff": 0.5},
        {"watermark": 0},
        {"max_batch": 0},
        {"silence_decay": 1.5},
        {"initial_step": 0.0},
        {"load_window": 0.0},
        # A backoff ceiling under the base wait would shorten the wait.
        {"round_period": 2.0, "max_backoff": 1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            ServeConfig(**kwargs)

    def test_protocol_adapter_speaks_netconfig(self):
        protocol = ServeConfig(round_period=0.5).protocol()
        # The exact attribute set EdgeCoordinator's round timer reads.
        assert protocol.report_timeout == 0.5
        assert protocol.report_window == 1.5
        assert protocol.max_backoff == 2.0
        assert protocol.silence_decay == 1.0
        assert protocol.liveness_timeout is None
        # The one serving-specific extension: daemons outlive convergence.
        assert protocol.stop_on_convergence is False


@pytest.mark.kernels
class TestBatchedProbe:
    """``user_thresholds``/``user_alphas`` vs their scalar counterparts."""

    @pytest.mark.parametrize("gamma", [0.0, 0.05, 0.134, 0.5, 0.99, 1.0])
    def test_batch_matches_scalar_search(self, kernel, population, gamma):
        ids = np.arange(population.size)
        batched = kernel.user_thresholds(ids, gamma)
        scalar = np.array([kernel.user_threshold(int(i), gamma)
                           for i in ids])
        np.testing.assert_array_equal(batched, scalar)

    @pytest.mark.parametrize("gamma", [0.0, 0.134, 0.7])
    def test_batch_matches_population_sweep(self, kernel, population, gamma):
        ids = np.arange(population.size)
        np.testing.assert_array_equal(kernel.user_thresholds(ids, gamma),
                                      kernel.thresholds(gamma))

    def test_subset_and_duplicates(self, kernel):
        ids = np.array([3, 3, 0, 17, 3])
        batched = kernel.user_thresholds(ids, 0.2)
        assert batched[0] == batched[1] == batched[4]
        scalar = [kernel.user_threshold(int(i), 0.2) for i in ids]
        np.testing.assert_array_equal(batched, scalar)

    def test_alphas_match_scalar_lookup(self, kernel, population):
        ids = np.arange(population.size)
        thresholds = kernel.user_thresholds(ids, 0.3)
        alphas = kernel.user_alphas(ids, thresholds)
        scalar = [kernel.user_alpha(int(i), int(level))
                  for i, level in zip(ids, thresholds)]
        np.testing.assert_array_equal(alphas, scalar)


class TestAdmissionController:
    def test_watermark_bounds_in_flight(self):
        admission = AdmissionController(2)
        assert admission.try_enter() and admission.try_enter()
        assert not admission.try_enter()        # past the watermark: shed
        assert admission.shed_total == 1
        admission.exit()
        assert admission.try_enter()            # capacity freed
        assert admission.admitted_total == 3


@pytest.mark.serve
class TestWallClockDriver:
    def test_now_advances_in_real_time(self):
        driver = WallClockDriver()
        assert driver.now == 0.0

        def idle():
            driver.call_later(10.0, lambda: None)

        driver.start([idle])
        time.sleep(0.05)
        assert driver.now > 0.0
        driver.stop()
        assert driver.stopping
        driver.stop()                           # idempotent

    def test_submit_runs_on_the_loop_thread(self):
        driver = WallClockDriver()
        seen = {}
        done = threading.Event()

        def idle():
            driver.call_later(10.0, lambda: None)

        driver.start([idle])
        try:
            def probe():
                seen["thread"] = threading.current_thread().name
                done.set()
            driver.submit(probe)
            assert done.wait(2.0)
            assert seen["thread"] == "repro-serve-driver"
        finally:
            driver.stop()

    def test_actor_crash_is_surfaced(self):
        driver = WallClockDriver()

        def doomed():
            raise RuntimeError("actor died")

        driver.start([doomed])
        deadline = time.monotonic() + 2.0
        while driver.failure is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert isinstance(driver.failure, RuntimeError)
        assert driver.stopping
        driver.stop()


@pytest.mark.serve
class TestDecisionService:
    def test_decisions_match_kernel_at_served_gamma(self, population,
                                                    kernel):
        with DecisionService(population, ServeConfig()) as service:
            ids = [0, 5, 9]
            decisions = service.decide(ids)
            gamma = decisions.gamma
            expected = kernel.user_thresholds(np.asarray(ids), gamma)
            got = decisions.thresholds
            np.testing.assert_array_equal(got, expected)
            alphas = kernel.user_alphas(np.asarray(ids), expected)
            for row, (alpha, index) in enumerate(zip(alphas, ids)):
                assert decisions.devices[row] == index
                assert decisions.offload_probabilities[row] == alpha
                assert decisions.offload_rates[row] == \
                    population.arrival_rates[index] * alpha

    def test_kernel_fixes_population_and_delay_model(self, population,
                                                     kernel):
        """A kernel serves what it was compiled for: the service adopts
        its delay model and refuses another model or population."""
        service = DecisionService(population, kernel=kernel)
        assert service.delay_model is kernel.delay_model
        with pytest.raises(ValueError, match="delay model"):
            DecisionService(population, kernel=kernel,
                            delay_model=ReciprocalDelay(1.05, 4.0))
        other = sample_population(build_scenario("paper-theoretical"), 64,
                                  rng=1)
        with pytest.raises(ValueError, match="population"):
            DecisionService(other, kernel=kernel)

    def test_single_decide_inlines_the_decision(self, population):
        with DecisionService(population) as service:
            payload = json.loads(encode_decisions(service.decide(7)))
            assert payload["device"] == 7
            assert payload["threshold"] == \
                payload["decisions"][0]["threshold"]

    def test_caller_mutation_does_not_reach_the_table(self, population):
        # The service is never started: its loop-thread closures are
        # captured and run here, so the drain is deterministic.
        service = DecisionService(population, ServeConfig())
        submitted = []
        service.driver.submit = submitted.append
        ids = np.array([1, 2, 3])
        decisions = service.decide(ids)
        ids[:] = [10, 11, 12]
        for action in submitted:
            action()
        coordinator = service.coordinator
        coordinator._drain()
        assert decisions.devices.tolist() == [1, 2, 3]
        assert coordinator.members(0.0) == [1, 2, 3]
        assert coordinator._census(0.0) == (3, 3)
        assert coordinator._measure(0.0) == float(
            np.mean(decisions.offload_rates) / population.capacity)

    def test_rejects_bad_devices_and_batches(self, population):
        config = ServeConfig(max_batch=8)
        with DecisionService(population, config) as service:
            with pytest.raises(ValueError):
                service.decide(population.size)         # out of range
            with pytest.raises(ValueError):
                service.decide(-1)
            with pytest.raises(ValueError):
                service.decide([])
            with pytest.raises(ValueError):
                service.decide(list(range(9)))          # > max_batch

    def test_ids_beyond_int64_are_out_of_range(self, population):
        service = DecisionService(population)
        for devices in (2 ** 63, [2 ** 63], -2 ** 70, [1, 2 ** 70]):
            with pytest.raises(ValueError, match=r"must be in \[0, 64\)"):
                service.decide(devices)
        for devices in (2 ** 64, [2 ** 70]):
            with pytest.raises(ValueError, match=r"must be in \[0, 64\)"):
                service.join(devices)
            with pytest.raises(ValueError, match=r"must be in \[0, 64\)"):
                service.leave(devices)

    def test_load_counts_decisions_not_requests(self, population):
        # Never started, so the driver's clock reads 0 and the gauge
        # divides by the nominal window: decisions / window / capacity.
        config = ServeConfig(load_window=10.0, rate_capacity=1000.0)
        loads = []
        for batch in (1, 64):
            service = DecisionService(population, config)
            for _ in range(10):
                service.decide(list(range(batch)), report=False)
            loads.append(service.state()["load"])
        assert loads == [10 / 10.0 / 1000.0, 640 / 10.0 / 1000.0]

    def test_default_capacity_keeps_batch_traffic_below_the_cap(
            self, population):
        # 200 batches of B=1000 in the 10 s window: 20k decisions/s, far
        # below what one daemon serves, must not read as saturated.
        service = DecisionService(population)
        batch = [device % population.size for device in range(1000)]
        for _ in range(200):
            service.decide(batch, report=False)
        assert 0.0 < service.state()["load"] < 1.0

    def test_decides_feed_membership_and_rounds(self, population):
        config = ServeConfig(round_period=0.02)
        with DecisionService(population, config) as service:
            for _ in range(20):
                service.decide([1, 2, 3])
                time.sleep(0.01)
            state = service.state()
            assert state["members"] == 3                # auto-joined
            assert state["round"] > 1                   # rounds advanced
            assert state["iterations"] > 0              # ... and measured
            service.leave([3])
            time.sleep(0.1)
            assert service.state()["members"] == 2
        assert not service.healthy                      # stopped


@pytest.mark.serve
class TestPublishedAnswer:
    """``decide`` reads the round's published fleet answer."""

    def test_decide_answers_the_published_round(self, population, kernel):
        # Never started: the report batch's delivery runs here.
        service = DecisionService(population, ServeConfig())
        submitted = []
        service.driver.submit = submitted.append
        coordinator = service.coordinator
        coordinator._broadcast()                # round 1 publishes γ̂ = 0
        coordinator.stepper.update(0.9)         # γ̂ moves before round 2
        assert coordinator.stepper.estimate != 0.0
        ids = np.arange(population.size)
        decisions = service.decide(ids)
        assert (decisions.round, decisions.gamma) == (1, 0.0)
        thresholds = kernel.user_thresholds(ids, 0.0)
        np.testing.assert_array_equal(decisions.thresholds, thresholds)
        np.testing.assert_array_equal(decisions.offload_probabilities,
                                      kernel.user_alphas(ids, thresholds))
        for action in submitted:
            action()
        assert set(coordinator._report_round.tolist()) == {1}

    def test_every_published_answer_matches_the_kernel(self, population,
                                                        kernel):
        service = DecisionService(population, ServeConfig(round_period=0.02))
        coordinator = service.coordinator
        published = [coordinator.published]
        publish = coordinator._publish

        def recorded():
            publish()
            published.append(coordinator.published)

        coordinator._publish = recorded
        ids = np.arange(population.size)
        with service:
            deadline = time.monotonic() + 30.0
            while coordinator.iterations < 4 \
                    and time.monotonic() < deadline:
                service.decide(ids)
                time.sleep(0.005)
        assert [answer.round for answer in published] \
            == list(range(len(published)))
        assert len({answer.gamma for answer in published}) > 2
        for answer in published:
            thresholds = kernel.user_thresholds(ids, answer.gamma)
            assert answer.thresholds.dtype == thresholds.dtype
            np.testing.assert_array_equal(answer.thresholds, thresholds)
            assert answer.alpha.tobytes() \
                == kernel.user_alphas(ids, thresholds).tobytes()
            assert not answer.thresholds.flags.writeable
            assert not answer.alpha.flags.writeable

    def test_decide_probes_nothing(self, population, monkeypatch):
        calls = []
        for name in ("user_thresholds", "user_alphas", "thresholds"):
            original = getattr(CompiledMeanField, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(CompiledMeanField, name, counted)
        service = DecisionService(population)
        assert calls == ["thresholds"]          # the round-0 answer
        calls.clear()
        service.driver.submit = lambda action: None
        for devices in (7, [0, 5, 9], list(range(64))):
            service.decide(devices)
            service.decide(devices, report=False)
        assert calls == []


class TestDecisionEncoding:
    """``encode_decisions`` against ``json.dumps`` of the dict document."""

    @pytest.mark.parametrize("devices", [
        [0, 5, 9], [3, 3, 0, 17, 3], list(range(64)), [7], 7])
    def test_matches_json_dumps_of_the_dict(self, population, devices):
        service = DecisionService(population)
        decisions = service.decide(devices, report=False)
        assert decisions.single == isinstance(devices, int)
        for variant in (decisions,
                        replace(decisions, stale=False, gamma=0.1 + 0.2,
                                round=12)):
            assert encode_decisions(variant) == _dumped(variant)


@pytest.mark.serve
class TestDecisionServer:
    @pytest.fixture()
    def server(self, population):
        config = ServeConfig(round_period=0.05)
        with DecisionServer(DecisionService(population, config)) as live:
            yield live

    def test_healthz_and_state(self, server):
        status, body = _get(server.url + "/healthz")
        assert (status, body["status"]) == (200, "ok")
        status, state = _get(server.url + "/state")
        assert status == 200
        for key in ("gamma", "eta", "round", "members", "population",
                    "stale", "load", "shed_total", "healthy"):
            assert key in state
        assert state["population"] == 64

    def test_decide_over_http(self, server):
        status, body, _ = _post(server.url + "/decide",
                                {"devices": [0, 1, 2]})
        assert status == 200
        assert len(body["decisions"]) == 3
        status, body, _ = _post(server.url + "/decide", {"device": 5})
        assert status == 200 and body["device"] == 5

    def test_error_mapping(self, server):
        assert _post(server.url + "/decide", {})[0] == 400
        assert _post(server.url + "/decide", {"device": "x"})[0] == 400
        assert _post(server.url + "/decide", {"devices": []})[0] == 400
        assert _post(server.url + "/decide", {"device": 10**6})[0] == 400
        assert _post(server.url + "/nope", {"device": 1})[0] == 404
        big = {"devices": list(range(100_001))}
        assert _post(server.url + "/decide", big)[0] == 413
        for path in ("/decide", "/join"):
            for devices in ([1, True], [1, 2.0], [1, "2"], [1, None],
                            [1, [2]]):
                assert _post(server.url + path,
                             {"devices": devices})[0] == 400

    @pytest.mark.parametrize("path", ["/decide", "/join", "/leave"])
    def test_nesting_past_the_decoder_answers_400(self, server, path):
        errors = server.service.registry.counter("serve.errors")
        before = errors.value
        status, body = _post_raw(server.url + path, _deep_body())
        assert status == 400 and "nests too deeply" in body["error"]
        assert errors.value == before + 1
        # The next request, on a new connection, is served.
        assert _post(server.url + "/decide", {"device": 1})[0] == 200

    def test_ids_beyond_int64_answer_400(self, server):
        errors = server.service.registry.counter("serve.errors")
        before = errors.value
        for path, document in (
                ("/decide", {"devices": [9223372036854775808]}),
                ("/decide", {"device": -2 ** 70}),
                ("/join", {"devices": [2 ** 70]})):
            status, body, _ = _post(server.url + path, document)
            assert status == 400 and "must be in" in body["error"]
        assert errors.value == before + 3
        assert _post(server.url + "/decide", {"device": 1})[0] == 200

    def test_decide_body_is_json_dumps_output(self, server):
        for document in ({"devices": [4, 0, 4, 63, 17]}, {"device": 9}):
            request = urllib.request.Request(
                server.url + "/decide", data=json.dumps(document).encode())
            with urllib.request.urlopen(request) as response:
                body = response.read()
            # Floats round-trip through repr, so re-dumping the decoded
            # document reproduces json.dumps's bytes exactly.
            assert body == (json.dumps(json.loads(body)) + "\n").encode()

    def test_negative_content_length_is_refused(self, server):
        status, _ = _raw_post(
            server.url, b"POST /decide HTTP/1.1\r\nHost: t\r\n"
                        b"Content-Length: -1\r\n\r\n")
        assert status == 400

    def test_huge_content_length_is_refused_unread(self, server):
        status, reply = _raw_post(
            server.url, b"POST /decide HTTP/1.1\r\nHost: t\r\n"
                        b"Content-Length: 99999999999\r\n\r\n")
        assert status == 413
        assert b"exceeds" in reply
        # The daemon is still healthy and serving.
        assert _post(server.url + "/decide", {"device": 1})[0] == 200

    def test_metrics_exposition(self, server):
        _post(server.url + "/decide", {"device": 1})
        with urllib.request.urlopen(server.url + "/metrics") as response:
            text = response.read().decode()
        assert "repro_serve_decisions_total" in text
        assert "repro_serve_gamma_hat" in text

    def test_metrics_count_and_time_published_answers(self, population):
        # No round ends inside the test: only the publishes below count.
        config = ServeConfig(round_period=60.0)
        with DecisionServer(DecisionService(population, config)) as live:
            _publish_gamma(live.service, GAMMA_MOVED)
            with urllib.request.urlopen(live.url + "/metrics") as response:
                lines = response.read().decode().splitlines()
        # Construction, round 1's broadcast, and the γ̂ move.
        assert "repro_serve_fleet_answers_total 3.0" in lines
        assert "repro_serve_fleet_answer_seconds_count 3.0" in lines
        total = next(line for line in lines if line.startswith(
            "repro_serve_fleet_answer_seconds_sum "))
        assert float(total.split()[1]) > 0.0

    def test_overload_sheds_with_retry_after(self, population):
        config = ServeConfig(round_period=0.05, watermark=2)
        with DecisionServer(DecisionService(population, config)) as live:
            # Fill the watermark from outside, deterministically: the
            # next real request must be shed, not queued.
            assert live.service.admission.try_enter()
            assert live.service.admission.try_enter()
            status, body, headers = _post(live.url + "/decide",
                                          {"device": 1})
            assert status == 503 and body["shed"] is True
            assert float(headers["Retry-After"]) == config.round_period
            live.service.admission.exit()
            live.service.admission.exit()
            # Keep-alive safety: the shed request's body was drained, so
            # the connection serves the next request normally.
            status, _, _ = _post(live.url + "/decide", {"device": 1})
            assert status == 200
            assert live.service.state()["shed_total"] == 1

    def test_idle_connection_is_closed(self, population, monkeypatch):
        assert QuietHandler.timeout == 30.0
        # A short idle timeout stands in for the 30 s one.
        monkeypatch.setattr(QuietHandler, "timeout", 0.3)
        config = ServeConfig(round_period=0.05)
        with DecisionServer(DecisionService(population, config)) as live:
            host, port = live.url.rsplit("/", 1)[-1].split(":")
            with socket.create_connection((host, int(port)),
                                          timeout=5.0) as idle:
                idle.sendall(b"POST /deci")         # half a request line
                assert _post(live.url + "/decide", {"device": 1})[0] == 200
                # Closed unanswered once silent past the timeout, not held.
                assert idle.recv(1024) == b""

    def test_non_numeric_content_length_on_the_shed_path(self, population):
        config = ServeConfig(round_period=0.05, watermark=1)
        with DecisionServer(DecisionService(population, config)) as live:
            assert live.service.admission.try_enter()
            status, _ = _raw_post(
                live.url, b"POST /decide HTTP/1.1\r\nHost: t\r\n"
                          b"Content-Length: ten\r\n\r\n")
            assert status == 400
            live.service.admission.exit()
            assert _post(live.url + "/decide", {"device": 1})[0] == 200


def _address(server):
    host, port = server.url.rsplit("/", 1)[-1].split(":")
    return host, int(port)


def _read_response(sock, pending: bytes = b""):
    """One ``Content-Length``-framed response off ``sock``:
    ``(status, headers, body, bytes read past it)``."""
    while b"\r\n\r\n" not in pending:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-response"
        pending += chunk
    head, rest = pending.split(b"\r\n\r\n", 1)
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    length = int(headers.get("Content-Length", 0))
    while len(rest) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        rest += chunk
    return int(lines[0].split()[1]), headers, rest[:length], rest[length:]


@pytest.mark.serve
class TestConnections:
    """Every connection is callbacks on the coordinator's loop thread."""

    @pytest.fixture()
    def live(self, population):
        config = ServeConfig(round_period=0.05)
        with DecisionServer(DecisionService(population, config)) as server:
            yield server

    def test_no_thread_per_connection(self, live):
        before = threading.active_count()
        host, port = _address(live)
        connections = [http.client.HTTPConnection(host, port, timeout=10)
                       for _ in range(32)]
        try:
            for device, connection in enumerate(connections):
                connection.request("POST", "/decide",
                                   json.dumps({"device": device}).encode())
            for connection in connections:
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            # All 32 keep-alive connections are still open.
            assert threading.active_count() == before
        finally:
            for connection in connections:
                connection.close()

    def test_pipelined_requests_answer_in_order(self, live):
        def request(device):
            body = json.dumps({"device": device}).encode()
            return (b"POST /decide HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body) + body)

        with socket.create_connection(_address(live), timeout=10) as sock:
            sock.sendall(request(3) + request(5))
            status, _, body, rest = _read_response(sock)
            assert (status, json.loads(body)["device"]) == (200, 3)
            status, _, body, rest = _read_response(sock, rest)
            assert (status, json.loads(body)["device"]) == (200, 5)
            assert rest == b""

    def test_expect_100_continue_is_answered_before_the_body(self, live):
        body = json.dumps({"devices": list(range(64))}).encode()
        with socket.create_connection(_address(live), timeout=10) as sock:
            sock.sendall(b"POST /decide HTTP/1.1\r\nHost: t\r\n"
                         b"Expect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            sock.settimeout(0.5)
            assert sock.recv(65536).startswith(b"HTTP/1.1 100 Continue\r\n")
            sock.settimeout(10)
            sock.sendall(body)
            status, _, payload, _ = _read_response(sock)
            assert status == 200
            assert len(json.loads(payload)["decisions"]) == 64

    def test_http_1_0_request_is_answered_then_closed(self, live):
        status, reply = _raw_post(live.url, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert status == 200
        assert json.loads(reply.split(b"\r\n\r\n", 1)[1]) == {
            "status": "ok"}

    def test_burst_past_the_watermark_is_shed(self, population):
        config = ServeConfig(round_period=0.05, watermark=2)
        with DecisionServer(DecisionService(population, config)) as live:
            host, port = _address(live)
            connections = [http.client.HTTPConnection(host, port, timeout=10)
                           for _ in range(8)]
            try:
                for connection in connections:      # connected and idle
                    connection.request("GET", "/healthz")
                    connection.getresponse().read()
                held = threading.Event()
                live.service.driver.submit(
                    lambda: (held.set(), time.sleep(0.3)))
                assert held.wait(5.0)
                # All eight arrive while the loop is held, so it reads
                # them in one pass: two are admitted, the rest shed.
                for connection in connections:
                    connection.request("POST", "/decide", b'{"device": 1}')
                answers = []
                for connection in connections:
                    response = connection.getresponse()
                    response.read()
                    answers.append((response.status,
                                    response.getheader("Retry-After")))
            finally:
                for connection in connections:
                    connection.close()
        statuses = [status for status, _ in answers]
        assert 503 in statuses
        assert set(statuses) == {200, 503}
        for status, retry_after in answers:
            if status == 503:
                assert float(retry_after) == config.round_period
        assert live.service.admission.in_flight == 0

    def test_stop_closes_open_connections_and_joins(self, population):
        before = threading.active_count()
        server = DecisionServer(DecisionService(population)).start()
        try:
            with socket.create_connection(_address(server), timeout=5) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                assert _read_response(sock)[0] == 200   # kept alive
                server.stop()
                try:
                    assert sock.recv(1024) == b""
                except ConnectionResetError:
                    pass
        finally:
            server.stop()
        assert threading.active_count() == before

    def test_raising_handler_closes_only_its_connection(self, live,
                                                        monkeypatch):
        def broken(devices, report=True):
            raise RuntimeError("decide broke")

        monkeypatch.setattr(live.service, "decide", broken)
        with pytest.raises((http.client.HTTPException, OSError)):
            _post(live.url + "/decide", {"device": 1})
        assert _healthz(live) == 200
        assert live.service.driver.failure is None
        assert live.service.admission.in_flight == 0

    def test_trickled_request_is_closed_at_its_deadline(self, population,
                                                         monkeypatch):
        # A short deadline stands in for the 30 s one; the client sends a
        # byte every 0.1 s, so no single read ever waits 0.3 s.
        monkeypatch.setattr(QuietHandler, "timeout", 0.3)
        config = ServeConfig(round_period=0.05)
        head = b"POST /decide HTTP/1.1\r\n"
        with DecisionServer(DecisionService(population, config)) as live:
            with socket.create_connection(_address(live), timeout=5) as slow:
                started = time.monotonic()
                reply, closed_after = b"", None
                for index in range(len(head)):
                    try:
                        slow.sendall(head[index:index + 1])
                        if index == 1:
                            # Served meanwhile, on another connection.
                            assert _post(live.url + "/decide",
                                         {"device": 1})[0] == 200
                        if select.select([slow], [], [], 0.1)[0]:
                            reply = slow.recv(1024)
                            closed_after = time.monotonic() - started
                            break
                    except ConnectionError:
                        closed_after = time.monotonic() - started
                        break
            with urllib.request.urlopen(live.url + "/metrics") as response:
                lines = response.read().decode().splitlines()
        assert reply == b""                 # closed unanswered
        assert closed_after is not None and closed_after < 1.0
        assert "repro_serve_timeouts_total 1.0" in lines


class _Payload(QuietHandler):
    """Answers every ``GET`` with ``size`` bytes."""

    protocol_version = "HTTP/1.1"
    size = 2

    def do_GET(self):
        self.send_payload(200, b"x" * self.size)


def _on_loop(daemon, function):
    """``function()``'s result, called on the daemon's loop thread."""
    done = concurrent.futures.Future()
    daemon._loop.call_soon_threadsafe(
        lambda: done.set_result(function()))
    return done.result(10.0)


def _slow_reader(daemon) -> socket.socket:
    """A client socket whose receive buffer holds almost nothing."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(10)
    sock.connect(_address(daemon))
    return sock


@pytest.mark.serve
class TestConnectionFlow:
    """A connection's reads follow its client's: heads, bodies, answers."""

    def test_answer_past_every_buffer_logs_nothing(self, monkeypatch,
                                                  caplog):
        # 8 MB outgrows the client's and the kernel's buffers, so the
        # transport holds the rest and pauses the connection until the
        # client catches up.
        caplog.set_level(logging.WARNING, logger="asyncio")
        monkeypatch.setattr(_Payload, "size", 8 << 20)
        with HttpDaemon(_Payload) as daemon, _slow_reader(daemon) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n"
                         b"GET / HTTP/1.1\r\nHost: t\r\n\r\n")
            time.sleep(0.3)
            status, _, body, rest = _read_response(sock)
            assert (status, len(body)) == (200, _Payload.size)
            status, _, body, rest = _read_response(sock, rest)
            assert (status, len(body), rest) == (200, _Payload.size, b"")
        assert [record for record in caplog.records
                if record.name == "asyncio"] == []

    def test_client_reading_nothing_is_not_buffered_for(self, monkeypatch):
        # 64 pipelined requests for 256 KiB each, none of it read: the
        # daemon answers until its output passes the high-water mark,
        # then reads no further request.
        monkeypatch.setattr(_Payload, "size", 256 << 10)
        monkeypatch.setattr(QuietHandler, "timeout", 1.0)
        with HttpDaemon(_Payload) as daemon, _slow_reader(daemon) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n" * 64)
            time.sleep(0.3)
            (connection,) = daemon._connections
            unsent = _on_loop(daemon,
                              connection.transport.get_write_buffer_size)
            assert 0 < unsent < 1 << 20         # one answer, not 64
            # An answer left unread past the deadline drops the
            # connection: a close would wait for the client forever.
            assert _wait_until(lambda: not daemon._connections, 3.0)

    def test_head_in_small_chunks_is_scanned_once(self, monkeypatch):
        scanned = []
        head_end = httpd._head_end

        def counting(buffer, start):
            scanned.append(len(buffer) - start)
            return head_end(buffer, start)

        monkeypatch.setattr(httpd, "_head_end", counting)
        head = b"GET / HTTP/1.1\r\nHost: t\r\n" + b"".join(
            b"X-Pad-%d: %s\r\n" % (index, b"a" * 1000)
            for index in range(32)) + b"\r\n"
        with HttpDaemon(_Payload) as daemon, \
                socket.create_connection(_address(daemon),
                                         timeout=10) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n")
            assert _read_response(sock)[0] == 200
            (connection,) = daemon._connections
            scanned.clear()

            def trickle():
                for index in range(0, len(head), 16):
                    connection.data_received(head[index:index + 16])

            _on_loop(daemon, trickle)
            status, _, body, _ = _read_response(sock)
        assert (status, body) == (200, b"xx")
        # Each 16-byte chunk scans itself and the three bytes before it,
        # not the whole buffer again: ≈ 1.2 × the head, where rescans
        # would total ≈ 1,000 ×.
        assert len(scanned) >= len(head) // 16
        assert sum(scanned) < 2 * len(head)

    def test_content_length_is_read_from_the_parsed_head(self, population):
        # "13\xa0" strips to 13 as a header value: the body is buffered by
        # the length the handler reads, so the next request stays whole.
        body = b'{"device": 3}'
        request = (b"POST /decide HTTP/1.1\r\nHost: t\r\n"
                   b"Content-Length: %d\xa0\r\n\r\n" % len(body) + body)
        config = ServeConfig(round_period=0.05)
        with DecisionServer(DecisionService(population, config)) as live, \
                socket.create_connection(_address(live), timeout=10) as sock:
            sock.sendall(request + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            status, _, payload, rest = _read_response(sock)
            assert (status, json.loads(payload)["device"]) == (200, 3)
            status, _, payload, rest = _read_response(sock, rest)
            assert (status, json.loads(payload), rest) == (
                200, {"status": "ok"}, b"")


@pytest.mark.serve
class TestDaemonShutdown:
    """The daemon ends on its loop thread: a failure, or a spent budget."""

    def test_loop_thread_failure_is_the_daemons(self, population):
        service = DecisionService(population, ServeConfig(round_period=0.05))
        with DecisionServer(service) as server:
            assert _healthz(server) == 200
            error = RuntimeError("ingest failed")

            def explode():
                raise error

            service.driver.submit(explode)
            assert _wait_until(lambda: service.driver.failure is not None)
            assert service.driver.failure is error
            assert not service.healthy
            assert _healthz(server) == 503

    def test_spent_round_budget_stops_cleanly(self, population):
        config = ServeConfig(round_period=0.02, max_rounds=2)
        service = DecisionService(population, config)
        with DecisionServer(service) as server:
            assert _wait_until(lambda: not service.healthy)
            assert service.driver.failure is None
            assert service.coordinator.round == 2
            assert _healthz(server) == 503
            started = time.monotonic()
            service.stop()
            assert time.monotonic() - started < 1.0


#: A γ̂ that moves some, not all, of the test population's thresholds
#: away from their values at γ̂ = 0.
GAMMA_MOVED = 0.3


@pytest.mark.serve
class TestRowCache:
    """Bodies built from cached rows against ``json.dumps`` of the dict."""

    @pytest.fixture()
    def live(self, population):
        # No round ends inside a test: γ̂ moves only when a test sets it.
        config = ServeConfig(round_period=60.0)
        with DecisionServer(DecisionService(population, config)) as server:
            yield server, _recording(server.service)

    @staticmethod
    def _move(server, gamma: float) -> None:
        _publish_gamma(server.service, gamma)

    def test_same_devices_across_a_gamma_move(self, live, kernel):
        server, served = live
        ids = list(range(0, 64, 3))
        moved = kernel.user_thresholds(np.array(ids), GAMMA_MOVED) \
            != kernel.user_thresholds(np.array(ids), 0.0)
        assert 0 < np.count_nonzero(moved) < len(ids)
        for gamma in (0.0, 0.0, GAMMA_MOVED, GAMMA_MOVED, 0.0):
            self._move(server, gamma)
            body = _post_body(server.url + "/decide", {"devices": ids})
            assert served[-1].gamma == gamma
            assert body == _dumped(served[-1])

    def test_duplicate_ids_in_one_batch(self, live):
        server, served = live
        for gamma in (0.0, 0.0, GAMMA_MOVED):
            self._move(server, gamma)
            body = _post_body(server.url + "/decide",
                              {"devices": [5, 5, 9, 5, 9, 0]})
            assert body == _dumped(served[-1])

    def test_single_and_batch_queries_share_rows(self, live):
        server, served = live
        for gamma in (0.0, GAMMA_MOVED):
            self._move(server, gamma)
            for document in ({"devices": [11, 12, 13]}, {"device": 12},
                             {"device": 20}, {"devices": [19, 20, 21]}):
                body = _post_body(server.url + "/decide", document)
                assert served[-1].single == ("device" in document)
                assert body == _dumped(served[-1])

    def test_rows_rendered_counts_moved_thresholds(self, live, kernel):
        server, _ = live
        rendered = server.service.registry.counter("serve.rows_rendered")
        ids = np.arange(0, 64, 2)
        document = {"devices": ids.tolist()}
        _post_body(server.url + "/decide", document)
        assert rendered.value == ids.size              # never served
        _post_body(server.url + "/decide", document)
        assert rendered.value == ids.size              # all cached
        self._move(server, GAMMA_MOVED)
        _post_body(server.url + "/decide", document)
        moved = np.count_nonzero(kernel.user_thresholds(ids, GAMMA_MOVED)
                                 != kernel.user_thresholds(ids, 0.0))
        assert rendered.value == ids.size + moved
        with urllib.request.urlopen(server.url + "/metrics") as response:
            lines = response.read().decode().splitlines()
        assert f"repro_serve_rows_rendered_total {ids.size + moved}.0" \
            in lines
        assert "repro_serve_decisions_total 96.0" in lines

    def test_threads_share_rows_while_gamma_moves(self, population):
        service = DecisionService(population)
        server = DecisionServer(service)
        gammas = (0.0, GAMMA_MOVED, 0.6, 0.9)
        wrong, done = [], threading.Event()

        def client(ids):
            for _ in range(200):
                decisions = service.decide(ids, report=False)
                if server.encode(decisions) != _dumped(decisions):
                    wrong.append(decisions.gamma)

        def mover():
            while not done.is_set():
                for gamma in gammas:
                    _publish_gamma(service, gamma)
                    time.sleep(0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(ids,))
                       for ids in (list(range(48)), list(range(16, 64)))]
            moving = threading.Thread(target=mover)
            moving.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            done.set()
            moving.join(timeout=5.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [moving])
        assert not wrong
        assert service.registry.counter("serve.rows_rendered").value > 64
        # Every slot still holds the row of the threshold stored beside it.
        for gamma in gammas:
            _publish_gamma(service, gamma)
            decisions = service.decide(list(range(64)), report=False)
            assert server.encode(decisions) == _dumped(decisions)

    def test_row_at_the_width_bound_is_whole(self, population):
        service = DecisionService(population)
        server = DecisionServer(service)
        widest = (-2.2250738585072014e-308, -1.7976931348623157e+308)
        assert [len(repr(value)) for value in widest] == [24, 24]
        decisions = Decisions(
            round=0, gamma=0.5, stale=False,
            devices=np.array([population.size - 1]),
            thresholds=np.array([service.kernel.stats.max_threshold]),
            offload_probabilities=np.array(widest[:1]),
            offload_rates=np.array(widest[1:]), single=True)
        for _ in range(2):          # rendered, then read from its slot
            assert server.encode(decisions) == _dumped(decisions)
        row = json.dumps(_old_payload(decisions)["decisions"][0])
        assert server._rows.dtype.itemsize == len(row)


@pytest.mark.serve
class TestReplay:
    def test_closed_loop_replay_counts_and_columns(self, population):
        config = ServeConfig(round_period=0.05)
        with DecisionServer(DecisionService(population, config)) as live:
            report = run_replay(ReplayConfig(
                url=live.url, requests=60, batch=4, workers=3, seed=5))
        assert report.ok == 60
        assert report.errors == 0 and report.shed == 0
        assert report.decisions == 60 * 4
        row = report.workload("smoke")
        for column in ("decisions_per_second", "p50_seconds",
                       "p99_seconds", "p999_seconds", "shed_rate",
                       "errors", "mode", "batch"):
            assert column in row
        assert row["n_users"] == population.size

    def test_open_loop_charges_a_stall_to_the_requests_behind_it(self):
        # The first /decide stalls; the other five (seed 0, 200/s) fall
        # due within 32 ms of it, so each waits behind the stall and its
        # latency, timed from its due time, must carry most of it.
        stall = 0.3
        stalled = []

        class Stalling(QuietHandler):
            def do_GET(self):
                self.send_json(200, {"status": "ok"})

            def do_POST(self):
                if not stalled:
                    stalled.append(True)
                    time.sleep(stall)
                self.send_json(200, {"decisions": [{}]})

        with HttpDaemon(Stalling) as daemon:
            report = run_replay(ReplayConfig(
                url=daemon.url, requests=6, rate=200.0, workers=1,
                devices=10, seed=0))
        assert report.mode == "open" and report.ok == 6
        assert report.latencies.min() > stall - 0.1

    def test_bench_normalizer_reads_serve_shape(self, population):
        from repro.obs.bench import metric_direction, normalize
        from repro.serve.replay import bench_document

        assert metric_direction("p99_seconds") == "lower"
        assert metric_direction("p999_seconds") == "lower"
        assert metric_direction("latency_p50") == "lower"
        assert metric_direction("decisions_per_second") == "higher"
        assert metric_direction("shed_rate") is None    # config, not perf
        row = {"workload": "single", "mode": "closed", "batch": 1,
               "n_users": 64, "p99_seconds": 0.004,
               "decisions_per_second": 1000.0, "shed_rate": 0.0}
        document = normalize(bench_document([row]))
        ids = {metric["id"]: metric["direction"]
               for metric in document["metrics"]}
        key = "serve/workload=single,n_users=64,mode=closed,batch=1"
        assert ids[f"{key}/p99_seconds"] == "lower"
        assert ids[f"{key}/decisions_per_second"] == "higher"
        assert f"{key}/shed_rate" not in ids


@pytest.mark.serve
class TestFixedPointIntegration:
    def test_serving_session_reproduces_run_dtu(self, population):
        """A fault-free replayed session lands on the offline fixed point.

        Frozen population, steady full-fleet decide traffic, wall-clock
        rounds: the coordinator must walk the same γ̂ trajectory as
        :func:`run_dtu` (same stepper, same measured utilisation) and
        settle on the same estimate.
        """
        offline = run_dtu(MeanFieldMap(population, PAPER_DELAY_MODEL),
                          DtuConfig(initial_step=0.1, tolerance=1e-2))
        assert offline.converged

        config = ServeConfig(round_period=0.02, initial_step=0.1,
                             tolerance=1e-2)
        all_ids = list(range(population.size))
        with DecisionService(population, config) as service:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                service.decide(all_ids)
                time.sleep(0.005)
                if service.coordinator.stepper.converged and \
                        service.coordinator.iterations >= 5:
                    break
            state = service.state()

        assert state["converged"]
        assert state["gamma"] == pytest.approx(
            offline.estimated_utilization, abs=0.05)
        assert not state["stale"]       # rounds were measuring on period
