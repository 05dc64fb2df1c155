"""The serve workloads' daemon: ``python -m repro serve`` plus tracing.

Builds the population, kernel, :class:`DecisionService` and
:class:`DecisionServer` the way ``python -m repro serve`` does, binds an
ephemeral loopback port and prints one JSON line ``{"port": ...}``.  It
then obeys one command per stdin line:

``reset``  start the measured window (clears the trace), answers one
           JSON line with the CPU seconds the process has used so far
``stop``   (or end of input) shut down, print one JSON line of statistics

With ``--trace 1`` the benchmark's wrappers time ``service.decide``, the
kernel probes inside it, ``send_json`` and every callable handed to
``WallClockDriver.submit`` (its wait in the loop's queue and its run).

Run: ``PYTHONPATH=src python3 perfbench/daemon.py --users 1000 --seed 0``
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import SCENARIO, Tracer, peak_rss_mb, use_checkout_sources

KEPT = ("service.decide", "httpd.encode", "wallclock.wait",
        "wallclock.ingest")


def _trace_driver(driver, tracer: Tracer) -> None:
    """Time each submitted callable's queue wait and its run."""
    submit = driver.submit

    def traced_submit(action):
        queued = time.perf_counter()

        def timed():
            started = time.perf_counter()
            tracer.record("wallclock.wait", started - queued)
            try:
                action()
            finally:
                tracer.record("wallclock.ingest",
                              time.perf_counter() - started)

        submit(timed)

    driver.submit = traced_submit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_sources()
    from repro.core.edge_delay import PAPER_DELAY_MODEL
    from repro.core.kernels import compile_mean_field
    from repro.population import sample_population
    from repro.population.scenarios import build_scenario
    from repro.serve import DecisionServer, DecisionService, ServeConfig
    from repro.serve import httpd

    started = time.perf_counter()
    population = sample_population(build_scenario(SCENARIO), args.users,
                                   rng=args.seed)
    sampled = time.perf_counter()
    kernel = compile_mean_field(population, PAPER_DELAY_MODEL)
    compiled = time.perf_counter()
    # ServeConfig's defaults are `python -m repro serve`'s: round period
    # 1 s, η₀ 0.1, ε 0.01, watermark 64.
    service = DecisionService(population, ServeConfig(), kernel=kernel)
    server = DecisionServer(service, port=0)

    tracer = Tracer(keep=KEPT)
    if args.trace:
        _trace_driver(service.driver, tracer)
        service.decide = tracer.wrap(service.decide, "service.decide")
        kernel.user_thresholds = tracer.wrap(kernel.user_thresholds,
                                             "kernels.probe")
        kernel.user_alphas = tracer.wrap(kernel.user_alphas, "kernels.probe")
        httpd._Handler.send_json = tracer.wrap(httpd._Handler.send_json,
                                               "httpd.encode")

    window = {"start": time.perf_counter(), "cpu": 0.0, "admitted": 0,
              "shed": 0}
    with server:
        print(json.dumps({"port": server.port, "sample_s": sampled - started,
                          "compile_s": compiled - sampled,
                          "table_bytes": kernel.stats.bytes}), flush=True)
        for line in sys.stdin:
            if line.strip() != "reset":
                break
            tracer.reset()
            window.update(start=time.perf_counter(), cpu=time.process_time(),
                          admitted=service.admission.admitted_total,
                          shed=service.admission.shed_total)
            print(json.dumps({"cpu_s": window["cpu"]}), flush=True)
        ended = time.perf_counter()
        window_cpu = time.process_time() - window["cpu"]
        state = service.state()
        failure = service.driver.failure
    print(json.dumps({
        "peak_rss_mb": peak_rss_mb(),
        "window_s": ended - window["start"],
        "window_cpu_s": window_cpu,
        "admitted": service.admission.admitted_total - window["admitted"],
        "shed": service.admission.shed_total - window["shed"],
        "rounds": state["round"],
        "members": state["members"],
        "healthy": failure is None,
        "trace": tracer.summary(),
    }), flush=True)
    return 0 if failure is None else 1


if __name__ == "__main__":
    sys.exit(main())
