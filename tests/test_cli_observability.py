"""The observed entry points: ``repro net``/``sharded``/``serve`` and
``repro.experiments`` with ``--trace`` and ``--serve-metrics``.

The contracts pinned here:

* **Observation does not perturb** -- CI's ``net`` and ``sharded`` trace
  commands print exactly their untraced stdout plus one footer line, and
  their canonical span log and ``(kind, data)`` event sequence match the
  digests recorded when the commands were first pinned;
* **A trace is complete** -- all four files exist, every span is closed,
  ``repro.obs.spans`` and ``repro.obs.report`` render it, and its
  manifest records every parsed argument, so the run can be repeated;
* **A daemon trace sees the coordinator** -- ``repro serve --trace``
  logs the handlers' ``serve.decide`` spans beside the coordinator's
  ``coordinator.broadcast`` round spans, all closed;
* **Threads share one collector** -- concurrent ``start``/``end`` calls
  never tear a ``spans.jsonl`` line or reuse an id;
* **A finished trace renders** -- ``repro.obs.spans`` prints one line
  for a finished run that opened no spans, and errors only while the
  trace is still being written;
* **Teardown always happens** -- a live-metrics port is closed once
  ``main`` returns, a daemon that cannot bind its port stops its
  coordinator and exits non-zero with a one-line error, and a daemon
  started with SIGINT ignored stops on SIGTERM as on Ctrl-C;
* **The option sets are fixed** -- every subcommand's
  ``(option strings, dest, default, type)`` table is pinned.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.__main__ import build_parser
from repro.__main__ import main as repro_main
from repro.obs.report import main as report_main
from repro.obs.spans import SpanCollector, read_spans
from repro.obs.spans import main as spans_main
from repro.obs.tracer import read_events
from repro.population.sampler import sample_population
from repro.population.scenarios import build_scenario
from repro.serve import DecisionServer, DecisionService, ServeConfig

#: CI's span-trace commands (the ``Sample span trace`` step).
NET_ARGV = ["net", "--users", "200", "--loss", "0.2"]
SHARDED_ARGV = ["sharded", "--users", "300", "--sites", "3", "--loss",
                "0.1", "--leave-rate", "0.01", "--mean-downtime", "5"]

#: (span count, span digest, event count, event digest) of each command's
#: trace -- see :func:`_digest` for the canonical forms hashed.
TRACE_DIGESTS = {
    "net": (14375, "b0f4aa2034011820", 24, "ed359b135eb9392c"),
    "sharded": (32560, "db0d2a6364d2af88", 172, "7e681c008fabea30"),
}

TRACE_FILES = ("manifest.json", "events.jsonl", "spans.jsonl",
               "metrics.json")

DRIVER_THREAD = "repro-serve-driver"


def _run(main, argv):
    """``(exit code, stdout, stderr)`` of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(document) -> str:
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()[:16]


def _parsed(argv) -> dict:
    """Every argument ``argv`` parses to, minus the handler."""
    parsed = vars(build_parser().parse_args(argv))
    parsed.pop("func")
    return parsed


def _manifest_config(trace_dir) -> dict:
    return json.loads((trace_dir / "manifest.json").read_text())["config"]


def _assert_closed(spans) -> None:
    assert spans
    for span in spans:
        assert span.t_end is not None and span.status != "open", span


def _assert_port_closed(port: int) -> None:
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=1.0).close()


def _served_port(line: str) -> int:
    prefix = "serving live metrics at http://127.0.0.1:"
    assert line.startswith(prefix) and line.endswith("/metrics"), line
    return int(line[len(prefix):-len("/metrics")])


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _open_files_under(directory) -> list:
    """Paths under ``directory`` this process holds open (Linux only)."""
    fds = "/proc/self/fd"
    if not os.path.isdir(fds):
        return []
    held = []
    for fd in os.listdir(fds):
        try:
            target = os.readlink(os.path.join(fds, fd))
        except OSError:
            continue
        if target.startswith(str(directory)):
            held.append(target)
    return held


def _driver_threads() -> set:
    return {thread for thread in threading.enumerate()
            if thread.name == DRIVER_THREAD and thread.is_alive()}


@pytest.fixture(scope="module")
def untraced():
    """Untraced stdout of each CI command, run once per module."""
    outputs = {}
    for argv in (NET_ARGV, SHARDED_ARGV):
        code, out, _ = _run(repro_main, argv)
        assert code == 0
        outputs[argv[0]] = out
    return outputs


@pytest.mark.net
@pytest.mark.parametrize("argv", [NET_ARGV, SHARDED_ARGV],
                         ids=["net", "sharded"])
class TestCiTraceCommands:
    def test_trace_matches_recorded_run(self, argv, untraced, tmp_path):
        trace = tmp_path / "trace"
        code, out, _ = _run(repro_main, argv + ["--trace", str(trace)])
        assert code == 0
        lines = out.splitlines()
        assert lines[:-1] == untraced[argv[0]].splitlines()
        assert lines[-1].startswith(f"trace written to {trace}")
        for name in TRACE_FILES:
            assert (trace / name).is_file(), name

        spans = read_spans(trace / "spans.jsonl")
        _assert_closed(spans)
        events = [[event["kind"], event.get("data")]
                  for event in read_events(trace / "events.jsonl")]
        assert (len(spans), _digest([list(span.canonical())
                                     for span in spans]),
                len(events), _digest(events)) == TRACE_DIGESTS[argv[0]]
        counters = json.loads(
            (trace / "metrics.json").read_text())["counters"]
        assert counters["spans.opened"] == counters["spans.closed"] \
            == len(spans)

        assert _manifest_config(trace) == _parsed(
            argv + ["--trace", str(trace)])
        assert spans_main([str(trace)]) == 0
        assert report_main([str(trace)]) == 0

    def test_live_metrics_port_closes_on_return(self, argv, untraced):
        code, out, _ = _run(repro_main, argv + ["--serve-metrics", "0"])
        assert code == 0
        first, rest = out.split("\n", 1)
        port = _served_port(first)
        assert rest == untraced[argv[0]]
        _assert_port_closed(port)


class TestManifest:
    @pytest.mark.net
    def test_net_manifest_records_every_argument(self, tmp_path):
        argv = ["net", "--users", "200", "--loss", "0.2", "--jitter", "0.3",
                "--trace", str(tmp_path)]
        assert _run(repro_main, argv)[0] == 0
        config = _manifest_config(tmp_path)
        assert config == _parsed(argv)
        for name in ("jitter", "duplicate", "latency", "leave_rate",
                     "mean_downtime", "stragglers", "straggler_delay",
                     "step", "tolerance", "heartbeat"):
            assert name in config, name
        assert config["jitter"] == 0.3

    def test_experiments_manifest_records_every_argument(self, tmp_path):
        from repro.experiments.__main__ import main

        assert _run(main, ["fig2", "--trace", str(tmp_path),
                           "--quiet"]) == (0, "", "")
        assert _manifest_config(tmp_path) == {
            "artifacts": ["fig2"], "full": False, "seed": 0, "only": None,
            "export": None, "trace": str(tmp_path), "metrics": False,
            "serve_metrics": None, "profile": False, "quiet": True,
            "jobs": 1, "cache": None, "backend": None, "list": False,
        }
        for name in TRACE_FILES:
            assert (tmp_path / name).is_file(), name

    def test_experiments_live_metrics_port_closes_on_return(self):
        from repro.experiments.__main__ import main

        code, out, _ = _run(main, ["fig2", "--serve-metrics", "0"])
        assert code == 0
        _assert_port_closed(_served_port(out.splitlines()[0]))


class TestSpansCli:
    def test_finished_trace_without_spans_renders_one_line(self, tmp_path):
        from repro.experiments.__main__ import main

        assert _run(main, ["fig2", "--trace", str(tmp_path),
                           "--quiet"]) == (0, "", "")
        assert read_spans(tmp_path / "spans.jsonl") == []
        code, out, err = _run(spans_main, [str(tmp_path)])
        assert (code, err) == (0, "")
        assert out == f"{tmp_path}: the run finished and recorded no spans\n"

    def test_trace_still_being_written_is_an_error(self, tmp_path):
        from repro.obs import observed_run

        args = argparse.Namespace(seed=0)
        with observed_run(0, args, trace=str(tmp_path), quiet=True):
            assert (tmp_path / "spans.jsonl").is_file()
            code, out, err = _run(spans_main, [str(tmp_path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "no completed spans yet" in err
        assert len(err.splitlines()) == 1


class TestSharedCollector:
    def test_threads_never_tear_a_line_or_reuse_an_id(self, tmp_path):
        threads, calls = 8, 2_000
        path = tmp_path / "spans.jsonl"
        collector = SpanCollector(path)

        def work():
            for step in range(calls):
                span = collector.start("t", virtual_time=float(step))
                collector.end(span, virtual_time=float(step))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
        collector.close()

        spans = collector.spans
        assert len(spans) == threads * calls
        assert len({span.id for span in spans}) == threads * calls
        assert collector.open_count == 0
        lines = path.read_bytes().splitlines()
        assert len(lines) == threads * calls
        records = [json.loads(line) for line in lines]
        assert sorted(record["id"] for record in records) \
            == list(range(threads * calls))


def _post_decides(port: int, deadline: float, answered: list) -> None:
    """POST ``/decide`` until ``deadline``, counting the 200s."""
    url = f"http://127.0.0.1:{port}/decide"
    body = json.dumps({"devices": [0, 1, 2]}).encode()
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(urllib.request.Request(
                    url, data=body), timeout=2.0) as response:
                if response.status == 200:
                    answered.append(response.read())
        except (urllib.error.URLError, OSError):
            time.sleep(0.02)
            continue
        time.sleep(0.01)


@pytest.mark.serve
class TestServeCli:
    def test_traced_daemon_logs_request_and_round_spans(self, tmp_path):
        port = _free_port()
        argv = ["serve", "--users", "200", "--port", str(port),
                "--round-period", "0.05", "--duration", "1.0",
                "--trace", str(tmp_path)]
        answered: list = []
        client = threading.Thread(target=_post_decides, args=(
            port, time.monotonic() + 0.8, answered))
        client.start()
        try:
            code, out, err = _run(repro_main, argv)
        finally:
            client.join()
        assert (code, err) == (0, "")
        assert answered
        assert out.splitlines()[-1].startswith(
            f"trace written to {tmp_path}")
        for name in TRACE_FILES:
            assert (tmp_path / name).is_file(), name

        lines = (tmp_path / "spans.jsonl").read_bytes().splitlines()
        spans = read_spans(tmp_path / "spans.jsonl")
        assert len(spans) == len(lines)
        _assert_closed(spans)
        names = {span.name for span in spans}
        assert {"serve.decide", "coordinator.broadcast"} <= names
        decides = [span for span in spans if span.name == "serve.decide"]
        assert len(decides) >= len(answered)
        assert _manifest_config(tmp_path) == _parsed(argv)
        assert spans_main([str(tmp_path)]) == 0
        assert report_main([str(tmp_path)]) == 0
        assert _open_files_under(tmp_path) == []

    def test_taken_port_exits_with_one_line_error(self, tmp_path):
        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        port = holder.getsockname()[1]
        before = _driver_threads()
        try:
            code, out, err = _run(repro_main, [
                "serve", "--users", "100", "--port", str(port),
                "--duration", "0.1", "--trace", str(tmp_path)])
        finally:
            holder.close()
        assert code != 0
        assert len(err.strip().splitlines()) == 1
        assert str(port) in err
        assert "serving decisions" not in out
        assert _driver_threads() <= before
        for name in TRACE_FILES:
            assert (tmp_path / name).is_file(), name
        assert _open_files_under(tmp_path) == []

    def test_sigterm_shuts_down_like_ctrl_c(self, tmp_path):
        """A non-interactive shell starts a background job with SIGINT
        ignored, so ``kill -INT`` cannot stop it; SIGTERM must, with the
        summary line, a closed trace and exit 0."""
        src = str(Path(repro.__file__).resolve().parents[1])
        # The launcher ignores SIGINT and execs the daemon, which inherits
        # the ignored signal as a shell's background job does.
        launcher = ("import os, signal, sys; "
                    "signal.signal(signal.SIGINT, signal.SIG_IGN); "
                    "os.execv(sys.executable, "
                    "[sys.executable] + sys.argv[1:])")
        daemon = subprocess.Popen(
            [sys.executable, "-c", launcher, "-u", "-m", "repro", "serve",
             "--users", "200", "--port", "0", "--round-period", "0.2",
             "--trace", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONPATH": src})
        # A daemon that never gets ready is killed, which ends its output.
        watchdog = threading.Timer(60.0, daemon.kill)
        watchdog.start()
        try:
            out = ""
            for line in daemon.stdout:
                out += line
                if line.startswith("serving decisions at"):
                    break
            daemon.send_signal(signal.SIGTERM)
            code = daemon.wait(timeout=5.0)
            out += daemon.stdout.read()
        finally:
            watchdog.cancel()
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            daemon.stdout.close()
        assert code == 0, out
        assert re.search(r"^served \d+ requests", out, re.MULTILINE), out
        assert (tmp_path / "metrics.json").is_file()


@pytest.mark.serve
def test_failed_bind_stops_the_service():
    population = sample_population(build_scenario("paper-theoretical"), 64,
                                   rng=0)
    service = DecisionService(population, ServeConfig(round_period=0.05))
    holder = socket.socket()
    holder.bind(("127.0.0.1", 0))
    holder.listen()
    before = _driver_threads()
    try:
        server = DecisionServer(service, port=holder.getsockname()[1])
        with pytest.raises(OSError):
            server.start()
    finally:
        holder.close()
    assert not service.healthy
    assert not server.running
    assert _driver_threads() <= before


#: Every subcommand's ``(option strings, dest, default, type name)``.
OPTIONS = {
    'scenarios': set(),
    'solve': {
        (('--scenario',), 'scenario', 'paper-theoretical', None),
        (('--seed',), 'seed', 0, 'int'),
        (('--social',), 'social', False, None),
        (('--users',), 'users', 5000, 'int'),
    },
    'dtu': {
        (('--plot',), 'plot', False, None),
        (('--scenario',), 'scenario', 'paper-theoretical', None),
        (('--seed',), 'seed', 0, 'int'),
        (('--step',), 'step', 0.1, 'float'),
        (('--tolerance',), 'tolerance', 0.01, 'float'),
        (('--update-probability',), 'update_probability', 1.0, 'float'),
        (('--users',), 'users', 5000, 'int'),
    },
    'net': {
        (('--duplicate',), 'duplicate', 0.0, 'float'),
        (('--heartbeat',), 'heartbeat', 0.0, 'float'),
        (('--jitter',), 'jitter', 0.0, 'float'),
        (('--latency',), 'latency', 0.0, 'float'),
        (('--leave-rate',), 'leave_rate', 0.0, 'float'),
        (('--loss',), 'loss', 0.0, 'float'),
        (('--max-rounds',), 'max_rounds', 500, 'int'),
        (('--mean-downtime',), 'mean_downtime', 0.0, 'float'),
        (('--plot',), 'plot', False, None),
        (('--scenario',), 'scenario', 'paper-theoretical', None),
        (('--seed',), 'seed', 0, 'int'),
        (('--serve-metrics',), 'serve_metrics', None, 'int'),
        (('--step',), 'step', 0.1, 'float'),
        (('--straggler-delay',), 'straggler_delay', 1.0, 'float'),
        (('--stragglers',), 'stragglers', 0.0, 'float'),
        (('--tolerance',), 'tolerance', 0.01, 'float'),
        (('--trace',), 'trace', None, 'str'),
        (('--users',), 'users', 5000, 'int'),
    },
    'sharded': {
        (('--duplicate',), 'duplicate', 0.0, 'float'),
        (('--gossip-staleness',), 'gossip_staleness', None, 'float'),
        (('--jitter',), 'jitter', 0.0, 'float'),
        (('--latency',), 'latency', 0.0, 'float'),
        (('--leave-rate',), 'leave_rate', 0.0, 'float'),
        (('--loss',), 'loss', 0.0, 'float'),
        (('--max-rounds',), 'max_rounds', 500, 'int'),
        (('--mean-downtime',), 'mean_downtime', 0.0, 'float'),
        (('--no-migrate',), 'no_migrate', False, None),
        (('--probe-interval',), 'probe_interval', 1, 'int'),
        (('--scenario',), 'scenario', 'paper-theoretical', None),
        (('--seed',), 'seed', 0, 'int'),
        (('--serve-metrics',), 'serve_metrics', None, 'int'),
        (('--sites',), 'sites', 3, 'int'),
        (('--step',), 'step', 0.1, 'float'),
        (('--straggler-delay',), 'straggler_delay', 1.0, 'float'),
        (('--stragglers',), 'stragglers', 0.0, 'float'),
        (('--tolerance',), 'tolerance', 0.01, 'float'),
        (('--total-capacity',), 'total_capacity', 15.0, 'float'),
        (('--trace',), 'trace', None, 'str'),
        (('--users',), 'users', 5000, 'int'),
    },
    'serve': {
        (('--duration',), 'duration', 0.0, 'float'),
        (('--host',), 'host', '127.0.0.1', None),
        (('--port',), 'port', 8080, 'int'),
        (('--round-period',), 'round_period', 1.0, 'float'),
        (('--scenario',), 'scenario', 'paper-theoretical', None),
        (('--seed',), 'seed', 0, 'int'),
        (('--step',), 'step', 0.1, 'float'),
        (('--tolerance',), 'tolerance', 0.01, 'float'),
        (('--trace',), 'trace', None, 'str'),
        (('--users',), 'users', 5000, 'int'),
        (('--watermark',), 'watermark', 64, 'int'),
    },
    'replay': {
        (('--batch',), 'batch', 1, 'int'),
        (('--devices',), 'devices', None, 'int'),
        (('--fail-on-errors',), 'fail_on_errors', False, None),
        (('--output',), 'output', None, 'str'),
        (('--rate',), 'rate', 0.0, 'float'),
        (('--requests',), 'requests', 1000, 'int'),
        (('--seed',), 'seed', 0, 'int'),
        (('--timeout',), 'timeout', 10.0, 'float'),
        (('--url',), 'url', 'http://127.0.0.1:8080', None),
        (('--wait',), 'wait', 10.0, 'float'),
        (('--workers',), 'workers', 4, 'int'),
        (('--workload',), 'workload', 'replay', None),
    },
    'workload': {
        (('--amplitude',), 'amplitude', None, 'float'),
        (('--analytic',), 'analytic', False, None),
        (('--checkpoint-every',), 'checkpoint_every', 5, 'int'),
        (('--churn-leave-rate',), 'churn_leave_rate', None, 'float'),
        (('--decay',), 'decay', None, 'float'),
        (('--dt',), 'dt', 1.0, 'float'),
        (('--epsilon',), 'epsilon', 0.1, 'float'),
        (('--eta',), 'eta', 0.5, 'float'),
        (('--learning-rate',), 'learning_rate', 0.2, 'float'),
        (('--levels',), 'levels', 0, 'int'),
        (('--list',), 'list', False, None),
        (('--magnitude',), 'magnitude', None, 'float'),
        (('--max-rounds',), 'max_rounds', 60, 'int'),
        (('--onset',), 'onset', None, 'float'),
        (('--period',), 'period', None, 'float'),
        (('--policy',), 'policy', 'lemma1', None),
        (('--regions',), 'regions', None, 'int'),
        (('--scenario',), 'scenario', 'paper-theoretical', None),
        (('--seed',), 'seed', 0, 'int'),
        (('--step',), 'step', 0.1, 'float'),
        (('--steps',), 'steps', 120, 'int'),
        (('--stop-on-convergence',), 'stop_on_convergence', False, None),
        (('--tolerance',), 'tolerance', 0.01, 'float'),
        (('--users',), 'users', 5000, 'int'),
        (('--workload',), 'workload', 'diurnal', None),
    },
    'compare': {
        (('--scenario',), 'scenario', 'paper-theoretical', None),
        (('--seed',), 'seed', 0, 'int'),
        (('--users',), 'users', 5000, 'int'),
    },
    'sweep': {
        (('--backend',), 'backend', None, None),
        (('--cache',), 'cache', None, 'str'),
        (('--jobs',), 'jobs', 1, 'int'),
        (('--param',), 'param', None, None),
        (('--seed',), 'seed', 0, 'int'),
        (('--sim-horizon',), 'sim_horizon', 150.0, 'float'),
        (('--users',), 'users', 3000, 'int'),
        (('--values',), 'values', None, None),
    },
}


def test_subcommand_option_sets_are_pinned():
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(OPTIONS)
    for name, subparser in subparsers.choices.items():
        table = {(tuple(action.option_strings), action.dest, action.default,
                  getattr(action.type, "__name__", None))
                 for action in subparser._actions
                 if not isinstance(action, argparse._HelpAction)}
        assert table == OPTIONS[name], name
