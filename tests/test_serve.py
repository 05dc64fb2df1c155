"""The serving layer: wall-clock driver, decision service, HTTP surface.

Three contracts pin :mod:`repro.serve` to the rest of the repo:

* the batched kernel probe answers **bit-identically** to the scalar
  staircase search (``user_thresholds`` vs ``user_threshold``), so a
  served decision equals what the solver computes for the same γ̂;
* a fault-free serving session over a frozen population reproduces the
  offline :func:`repro.core.dtu.run_dtu` fixed point (the integration
  test at the bottom);
* overload sheds with 503 + ``Retry-After`` — bounded in-flight work —
  instead of queueing without limit.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.core.dtu import DtuConfig, run_dtu
from repro.core.edge_delay import PAPER_DELAY_MODEL, ReciprocalDelay
from repro.core.kernels import compile_mean_field
from repro.core.meanfield import MeanFieldMap
from repro.population.sampler import sample_population
from repro.population.scenarios import build_scenario
from repro.serve import (
    AdmissionController,
    DecisionServer,
    DecisionService,
    ServeConfig,
    WallClockDriver,
)
from repro.serve.httpd import encode_decisions
from repro.serve.replay import ReplayConfig, run_replay


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
        {"staleness_factor": -1.0},
        # A backoff ceiling under the base wait would shorten the wait.
        {"round_period": 2.0, "max_backoff": 1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            ServeConfig(**kwargs)

    def test_protocol_adapter_speaks_netconfig(self):
        protocol = ServeConfig(round_period=0.5).protocol()
        # The exact attribute set EdgeCoordinator.run() reads.
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

        async def idle():
            await driver.sleep(10.0)

        driver.start([idle()])
        time.sleep(0.05)
        assert driver.now > 0.0
        driver.stop()
        assert driver.stopping
        driver.stop()                           # idempotent

    def test_submit_runs_on_the_loop_thread(self):
        driver = WallClockDriver()
        seen = {}
        done = threading.Event()

        async def idle():
            await driver.sleep(10.0)

        driver.start([idle()])
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

        async def doomed():
            raise RuntimeError("actor died")

        driver.start([doomed()])
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
            assert encode_decisions(variant) == \
                (json.dumps(_old_payload(variant)) + "\n").encode()


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
