"""Command-line interface.

The subcommands cover the common workflows without writing any Python
(``python -m repro --help`` lists them all, generated from the parser
registry)::

    python -m repro solve    --scenario paper-theoretical --users 10000
    python -m repro dtu      --scenario vision-fleet --plot
    python -m repro net      --scenario paper-theoretical --loss 0.2
    python -m repro serve    --scenario paper-theoretical --port 8080
    python -m repro replay   --url http://127.0.0.1:8080 --requests 10000
    python -m repro compare  --scenario paper-practical
    python -m repro sweep    --param capacity --values 9,10,12,16 --jobs 4
    python -m repro workload --workload flash-crowd --policy egreedy
    python -m repro scenarios

``serve`` boots the wall-clock decision daemon (:mod:`repro.serve`):
DTU's edge coordinator as a long-lived HTTP service answering batched
``POST /decide`` queries from the compiled kernel at the current γ̂;
``replay`` load-tests it with seeded open- or closed-loop traffic and
can write a ``BENCH_serve.json``.

``sweep`` accepts ``--jobs N`` (solve points on N worker processes) and
``--cache DIR`` (content-addressed result cache; re-running a point is a
hit) via the :mod:`repro.runtime` engine — the table is bit-identical for
any jobs count — plus ``--backend event|vectorized`` to re-measure every
solved point by full system simulation (``vectorized`` uses the
uniformized-CTMC fast path, see :mod:`repro.simulation.fastpath`).
``net`` runs DTU as a real message-passing protocol over the
:mod:`repro.net` actor runtime, with optional seeded loss/jitter/
duplication, churn, and stragglers — fault-free it reproduces ``dtu``
exactly. (`python -m repro.experiments` separately regenerates the
paper's tables and figures.)

All analytical subcommands evaluate ``V(γ)`` through the compiled
best-response kernel (:mod:`repro.core.kernels`) — precomputed staircase
breakpoints probed in ``O(N log m_max)``, bit-identical to the uncompiled
search.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.dpo import solve_dpo_equilibrium
from repro.core.dtu import DtuConfig, run_dtu
from repro.core.equilibrium import solve_mfne
from repro.core.meanfield import MeanFieldMap
from repro.core.social import solve_social_optimum
from repro.obs import observed_run
from repro.population.sampler import sample_population
from repro.population.scenarios import build_scenario, scenario_names
from repro.utils.asciiplot import convergence_plot


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="paper-theoretical",
                        help="named scenario (see `scenarios` subcommand)")
    parser.add_argument("--users", type=int, default=5000,
                        help="population size (default 5000)")
    parser.add_argument("--seed", type=int, default=0)


def _add_faults(parser: argparse.ArgumentParser) -> None:
    """The seeded fault and churn flags of ``net`` and ``sharded``."""
    parser.add_argument("--loss", type=float, default=0.0,
                        help="P(message dropped)")
    parser.add_argument("--duplicate", type=float, default=0.0,
                        help="P(message duplicated)")
    parser.add_argument("--latency", type=float, default=0.0,
                        help="base one-way delay (virtual time)")
    parser.add_argument("--jitter", type=float, default=0.0,
                        help="mean exponential extra delay (causes "
                             "reordering)")
    parser.add_argument("--leave-rate", type=float, default=0.0,
                        help="per-device churn rate (exponential)")
    parser.add_argument("--mean-downtime", type=float, default=0.0,
                        help="mean off-time before rejoining (0: gone for "
                             "good)")
    parser.add_argument("--stragglers", type=float, default=0.0,
                        help="fraction of devices with slow reports")
    parser.add_argument("--straggler-delay", type=float, default=1.0,
                        help="extra report delay for stragglers")


def _faults(args):
    """``(FaultConfig | None, ChurnConfig | None)`` from :func:`_add_faults`'s
    flags: None when every flag of the kind is off."""
    from repro.net import ChurnConfig, FaultConfig

    faults = churn = None
    if args.loss or args.duplicate or args.latency or args.jitter:
        faults = FaultConfig(loss=args.loss, duplicate=args.duplicate,
                             latency=args.latency, jitter=args.jitter)
    if args.leave_rate or args.stragglers:
        churn = ChurnConfig(leave_rate=args.leave_rate,
                            mean_downtime=args.mean_downtime,
                            straggler_fraction=args.stragglers,
                            straggler_delay=args.straggler_delay)
    return faults, churn


def _add_observability(parser: argparse.ArgumentParser,
                       live_metrics: bool = True) -> None:
    """``--trace`` (and ``--serve-metrics``), read by :func:`observed_run`."""
    parser.add_argument("--trace", type=str, default=None, metavar="DIR",
                        help="write manifest/events/spans/metrics to DIR "
                             "(span trees: python -m repro.obs.spans DIR)")
    if live_metrics:
        parser.add_argument("--serve-metrics", type=int, default=None,
                            metavar="PORT",
                            help="serve a live Prometheus /metrics endpoint "
                                 "on localhost:PORT while the run lasts")


def _population(args):
    config = build_scenario(args.scenario)
    return sample_population(config, args.users, rng=args.seed)


def _print_messages(result) -> None:
    """The virtual-time and message-fate line of a net or sharded run."""
    log = result.log
    print(f"virtual time {result.virtual_time:.1f}, "
          f"{result.events_fired} events; messages: "
          f"{log.attempted} attempted, {log.count('delivered')} delivered "
          f"({100 * log.delivered_fraction:.1f}%), "
          f"{log.count('dropped') + log.count('partitioned')} lost, "
          f"{log.count('duplicated')} duplicated")


def cmd_scenarios(_args) -> int:
    for name in scenario_names():
        config = build_scenario(name)
        print(f"{name:20s} {config.describe()}")
    return 0


def cmd_solve(args) -> int:
    population = _population(args)
    mean_field = MeanFieldMap(population).compile()
    result = solve_mfne(mean_field)
    print(f"scenario: {args.scenario} (N={population.size}, "
          f"c={population.capacity:g})")
    print(f"MFNE γ* = {result.utilization:.6f} "
          f"(residual {result.residual:.2e}, "
          f"{result.iterations} bisections)")
    print(f"equilibrium population cost = "
          f"{mean_field.average_cost(result.utilization):.6f}")
    if args.social:
        social = solve_social_optimum(population)
        print(f"social optimum: γ = {social.utilization:.6f}, "
              f"cost = {social.average_cost:.6f}, "
              f"PoA = {social.price_of_anarchy:.4f}, "
              f"toll = {social.toll:.4f}")
    return 0


def cmd_dtu(args) -> int:
    population = _population(args)
    mean_field = MeanFieldMap(population).compile()
    gamma_star = solve_mfne(mean_field).utilization
    config = DtuConfig(
        initial_step=args.step,
        tolerance=args.tolerance,
        update_probability=args.update_probability,
        seed=args.seed,
    )
    result = run_dtu(mean_field, config)
    print(f"scenario: {args.scenario} (N={population.size})")
    print(f"γ* = {gamma_star:.4f}; DTU converged={result.converged} in "
          f"{result.iterations} iterations; final γ = "
          f"{result.actual_utilization:.4f}, γ̂ = "
          f"{result.estimated_utilization:.4f}")
    if args.plot:
        print()
        print(convergence_plot(
            result.trace.estimated_utilization,
            result.trace.actual_utilization,
            gamma_star,
        ))
    return 0


def cmd_net(args) -> int:
    from repro.net import NetConfig, run_net_dtu

    population = _population(args)
    gamma_star = solve_mfne(MeanFieldMap(population)).utilization
    faults, churn = _faults(args)
    config = NetConfig(
        initial_step=args.step, tolerance=args.tolerance,
        max_rounds=args.max_rounds, heartbeat_interval=args.heartbeat,
        faults=faults, churn=churn, seed=args.seed,
        log_messages=False,    # CLI runs can be large; counters suffice
    )
    with observed_run(args.seed, args, args.trace,
                      args.serve_metrics) as recorder:
        result = run_net_dtu(population, config, recorder=recorder)
        print(f"scenario: {args.scenario} (N={population.size}, "
              f"seed={args.seed})")
        print(f"γ* = {gamma_star:.4f}; net DTU converged={result.converged} "
              f"in {result.iterations} updates / {result.rounds} rounds "
              f"({result.silent_rounds} silent); final γ̂ = "
              f"{result.estimated_utilization:.4f}, last measured γ = "
              f"{result.measured_utilization:.4f}")
        _print_messages(result)
        if args.plot:
            print()
            print(convergence_plot(result.trace.estimated,
                                   result.trace.measured, gamma_star))
    return 0


def cmd_sharded(args) -> int:
    import numpy as np

    from repro.core.multiedge import (
        MultiEdgeSystem,
        solve_multiedge_equilibrium,
        tiered_sites,
    )
    from repro.net import ShardedNetConfig, run_sharded_dtu

    population = _population(args)
    sites = tiered_sites(args.sites, total_capacity=args.total_capacity)
    system = MultiEdgeSystem(population, sites, rng=args.seed)
    eq = solve_multiedge_equilibrium(system)
    faults, churn = _faults(args)
    config = ShardedNetConfig(
        initial_step=args.step, tolerance=args.tolerance,
        max_rounds=args.max_rounds, faults=faults, churn=churn,
        seed=args.seed, log_messages=False,
        gossip_staleness=args.gossip_staleness,
        probe_interval=args.probe_interval,
        migrate=not args.no_migrate,
    )
    with observed_run(args.seed, args, args.trace,
                      args.serve_metrics) as recorder:
        result = run_sharded_dtu(system, config, recorder=recorder)
        print(f"scenario: {args.scenario} (N={population.size}, "
              f"m={system.n_sites}, seed={args.seed})")
        print(f"sharded DTU converged={result.converged} in "
              f"{int(result.iterations.max())} updates / "
              f"{int(result.rounds.max())} rounds "
              f"({int(result.silent_rounds.sum())} silent); "
              f"{result.migrations} migrations")
        shares = np.bincount(result.final_homes, minlength=system.n_sites) \
            / population.size
        print(f"{'site':<12s} {'γ*':>8s} {'γ̂':>8s} {'share':>7s} "
              f"{'members':>8s}")
        for j, site in enumerate(system.sites):
            print(f"{site.name:<12s} {eq.utilizations[j]:8.4f} "
                  f"{result.estimated_utilizations[j]:8.4f} "
                  f"{shares[j]:6.1%} {int(result.site_members[j]):8d}")
        _print_messages(result)
    return 0


def cmd_serve(args) -> int:
    import signal
    import time as _time

    from repro.serve import DecisionServer, DecisionService, ServeConfig

    population = _population(args)
    config = ServeConfig(
        round_period=args.round_period,
        initial_step=args.step,
        tolerance=args.tolerance,
        watermark=args.watermark,
    )
    with observed_run(args.seed, args, args.trace) as recorder:
        service = DecisionService(population, config, recorder=recorder)
        server = DecisionServer(service, port=args.port, host=args.host)
        print(f"scenario: {args.scenario} (N={population.size}, "
              f"c={population.capacity:g})")
        try:
            server.start()
        except OSError as error:
            print(f"error: cannot listen on {args.host}:{args.port}: "
                  f"{error}", file=sys.stderr)
            return 1
        # SIGTERM (a service manager's stop, or `kill` of a background
        # job, which starts with SIGINT ignored) shuts down like Ctrl-C.
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            print(f"serving decisions at {server.url} "
                  f"(round period {config.round_period:g}s, "
                  f"watermark {config.watermark})")
            if args.duration > 0:
                _time.sleep(args.duration)
            else:
                while service.healthy:
                    _time.sleep(0.5)
        except KeyboardInterrupt:
            print("\ninterrupted, shutting down")
        finally:
            signal.signal(signal.SIGTERM, previous)
            server.stop()
        state = service.state()
        print(f"served {state['admitted_total']} requests "
              f"({state['shed_total']} shed) over {state['round']} rounds; "
              f"final γ̂ = {state['gamma']:.4f}, "
              f"converged={state['converged']}")
    if service.driver.failure is not None:
        print(f"coordinator failed: {service.driver.failure!r}",
              file=sys.stderr)
        return 1
    return 0


def cmd_replay(args) -> int:
    import json
    from pathlib import Path

    from repro.serve.replay import ReplayConfig, bench_document, run_replay

    config = ReplayConfig(
        url=args.url, requests=args.requests, batch=args.batch,
        rate=args.rate, workers=args.workers, devices=args.devices,
        seed=args.seed, timeout=args.timeout, wait_secs=args.wait,
    )
    report = run_replay(config)
    print(f"{report.mode}-loop replay of {report.requests} requests "
          f"x batch {report.batch} against {args.url}")
    print(f"ok={report.ok} shed={report.shed} errors={report.errors} "
          f"({100 * report.shed_rate:.1f}% shed)")
    print(f"{report.decisions_per_second:,.0f} decisions/s "
          f"({report.requests_per_second:,.0f} req/s) over "
          f"{report.wall_seconds:.2f}s")
    print(f"latency p50={1e3 * report.p50_seconds:.2f}ms "
          f"p99={1e3 * report.p99_seconds:.2f}ms "
          f"p99.9={1e3 * report.p999_seconds:.2f}ms")
    if args.output is not None:
        document = bench_document([report.workload(args.workload)])
        Path(args.output).write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.fail_on_errors and (report.errors or report.shed):
        print(f"FAIL: {report.errors} errors, {report.shed} shed "
              "(--fail-on-errors)", file=sys.stderr)
        return 1
    return 0


def cmd_workload(args) -> int:
    from repro.workload import (
        TrackingConfig,
        WorkloadNetConfig,
        build_workload_scenario,
        run_workload_net,
        track_equilibrium,
        workload_scenario_names,
    )

    if args.list:
        for name in workload_scenario_names():
            print(name)
        return 0
    population = _population(args)
    scenario = build_workload_scenario(
        args.workload,
        period=args.period, amplitude=args.amplitude,
        onset=args.onset, magnitude=args.magnitude, decay=args.decay,
        regions=args.regions, leave_rate=args.churn_leave_rate,
    )
    print(f"scenario: {args.scenario} (N={population.size}), "
          f"workload: {scenario.name}, policy: {args.policy}")

    if args.analytic:
        tracking = TrackingConfig(
            steps=args.steps, dt=args.dt,
            initial_step=args.step, tolerance=args.tolerance,
            checkpoint_every=args.checkpoint_every, levels=args.levels,
        )
        result = track_equilibrium(population, scenario, tracking)
        print(f"analytic tracker: {result.steps} steps, "
              f"{result.retargets} retargets")
        indices = range(0, result.steps, args.checkpoint_every)
        rows = [(result.times[i], result.factors[i], result.estimated[i],
                 star, lag)
                for i, star, lag in zip(indices, result.gamma_star,
                                        result.lag)]
        max_lag, mean_lag, final = (result.max_lag, result.mean_lag,
                                    result.final_lag)
    else:
        config = WorkloadNetConfig(
            initial_step=args.step, tolerance=args.tolerance,
            max_rounds=args.max_rounds, seed=args.seed,
            log_messages=False,
            stop_on_convergence=args.stop_on_convergence,
            agent_policy=args.policy, epsilon=args.epsilon,
            learning_rate=args.learning_rate, eta=args.eta,
        )
        result = run_workload_net(
            population, scenario, config,
            checkpoint_every=args.checkpoint_every,
        )
        net = result.net
        print(f"net run: converged={net.converged} in {net.iterations} "
              f"updates / {net.rounds} rounds; final γ̂ = "
              f"{net.estimated_utilization:.4f}")
        rows = result.lag.rows
        max_lag, mean_lag, final = (result.max_lag, result.mean_lag,
                                    result.final_gap)

    print(f"{'t':>8s} {'m(t)':>7s} {'γ̂':>8s} {'γ*(t)':>8s} {'lag':>8s}")
    for t, factor, estimate, star, lag in rows:
        print(f"{t:8.1f} {factor:7.3f} {estimate:8.4f} {star:8.4f} "
              f"{lag:8.4f}")
    print(f"max lag {max_lag:.4f}, mean lag {mean_lag:.4f}, "
          f"final gap {final:.4f}")
    return 0


def cmd_compare(args) -> int:
    population = _population(args)
    mean_field = MeanFieldMap(population).compile()
    mfne = solve_mfne(mean_field)
    dtu_cost = mean_field.average_cost(mfne.utilization)
    dpo = solve_dpo_equilibrium(population)
    saving = 100 * (dpo.average_cost - dtu_cost) / dpo.average_cost
    print(f"scenario: {args.scenario} (N={population.size})")
    print(f"DTU: γ* = {mfne.utilization:.4f}, cost = {dtu_cost:.4f}")
    print(f"DPO: γ* = {dpo.utilization:.4f}, cost = {dpo.average_cost:.4f}")
    print(f"threshold policy saves {saving:.1f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Distributed threshold-based offloading toolkit "
                    "(ICDCS 2023 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    scenarios = subparsers.add_parser(
        "scenarios", help="list the named population scenarios",
        description="List the named population scenarios with their "
                    "sampling distributions.")
    scenarios.set_defaults(func=cmd_scenarios)

    solve = subparsers.add_parser(
        "solve", help="solve the MFNE for a scenario",
        description="Solve the mean-field Nash equilibrium (bisection on "
                    "V(γ) − γ) and report γ*, residual, and cost.")
    _add_common(solve)
    solve.add_argument("--social", action="store_true",
                       help="also compute the social optimum / PoA")
    solve.set_defaults(func=cmd_solve)

    dtu = subparsers.add_parser(
        "dtu", help="run the DTU algorithm on a scenario",
        description="Run Algorithm 1 (distributed threshold update) "
                    "against the analytical best-response map.")
    _add_common(dtu)
    dtu.add_argument("--step", type=float, default=0.1, help="η₀")
    dtu.add_argument("--tolerance", type=float, default=0.01, help="ε")
    dtu.add_argument("--update-probability", type=float, default=1.0,
                     help="per-user update probability (async < 1)")
    dtu.add_argument("--plot", action="store_true",
                     help="draw the convergence trace")
    dtu.set_defaults(func=cmd_dtu)

    net = subparsers.add_parser(
        "net", help="run DTU as a message-passing protocol (repro.net)",
        description="Run DTU over the asynchronous actor runtime with "
                    "seeded faults, churn, and stragglers; fault-free it "
                    "reproduces `dtu` exactly.")
    _add_common(net)
    net.add_argument("--step", type=float, default=0.1, help="η₀")
    net.add_argument("--tolerance", type=float, default=0.01, help="ε")
    net.add_argument("--max-rounds", type=int, default=500,
                     help="broadcast budget, retries included")
    _add_faults(net)
    net.add_argument("--heartbeat", type=float, default=0.0,
                     help="device heartbeat interval (0: disabled)")
    _add_observability(net)
    net.add_argument("--plot", action="store_true",
                     help="draw the convergence trace")
    net.set_defaults(func=cmd_net)

    sharded = subparsers.add_parser(
        "sharded", help="run multi-site DTU with per-site coordinators",
        description="Run the sharded multi-edge protocol (repro.net."
                    "sharded): one coordinator per tiered site on a "
                    "shared virtual clock, inter-site γ̂ gossip and delay "
                    "probes, and devices migrating to the argmin site — "
                    "with the same seeded fault/churn machinery as `net`.")
    _add_common(sharded)
    sharded.add_argument("--sites", type=int, default=3,
                         help="edge site count (tiered deployment)")
    sharded.add_argument("--total-capacity", type=float, default=15.0,
                         help="aggregate per-user capacity split across "
                              "the tiers (default 15)")
    sharded.add_argument("--step", type=float, default=0.1, help="η₀")
    sharded.add_argument("--tolerance", type=float, default=0.01, help="ε")
    sharded.add_argument("--max-rounds", type=int, default=500,
                         help="per-site broadcast budget")
    _add_faults(sharded)
    sharded.add_argument("--gossip-staleness", type=float, default=None,
                         help="age after which a peer's gossiped γ̂ is "
                              "relayed as the pessimistic 1.0")
    sharded.add_argument("--probe-interval", type=int, default=1,
                         help="rounds between inter-site delay probes "
                              "(0: disabled)")
    sharded.add_argument("--no-migrate", action="store_true",
                         help="freeze the initial device→site assignment")
    _add_observability(sharded)
    sharded.set_defaults(func=cmd_sharded)

    serve = subparsers.add_parser(
        "serve", help="run DTU as a wall-clock HTTP decision daemon",
        description="Boot the repro.serve daemon: the edge coordinator "
                    "on a wall-clock round period, answering batched "
                    "POST /decide queries from the compiled kernel at "
                    "the current γ̂, with admission control and "
                    "/state, /healthz, /metrics endpoints.")
    _add_common(serve)
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0: ephemeral, default 8080)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--round-period", type=float, default=1.0,
                       help="wall seconds between re-estimation rounds")
    serve.add_argument("--step", type=float, default=0.1, help="η₀")
    serve.add_argument("--tolerance", type=float, default=0.01, help="ε")
    serve.add_argument("--watermark", type=int, default=64,
                       help="max in-flight /decide requests before "
                            "shedding with 503 (default 64)")
    serve.add_argument("--duration", type=float, default=0.0,
                       help="serve for N seconds then exit "
                            "(default 0: until Ctrl-C or SIGTERM)")
    _add_observability(serve, live_metrics=False)
    serve.set_defaults(func=cmd_serve)

    replay = subparsers.add_parser(
        "replay", help="load-test a running decision daemon",
        description="Replay seeded decision traffic against a live "
                    "`serve` daemon (open-loop Poisson arrivals or "
                    "closed loop), report throughput / latency "
                    "percentiles / shed rate, and optionally write a "
                    "BENCH_serve.json.")
    replay.add_argument("--url", default="http://127.0.0.1:8080",
                        help="server base URL")
    replay.add_argument("--requests", type=int, default=1000)
    replay.add_argument("--batch", type=int, default=1,
                        help="devices per /decide request")
    replay.add_argument("--rate", type=float, default=0.0,
                        help="open-loop arrival rate in req/s "
                             "(default 0: closed loop)")
    replay.add_argument("--workers", type=int, default=4,
                        help="concurrent client connections")
    replay.add_argument("--devices", type=int, default=None,
                        help="device id space (default: ask /state)")
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--timeout", type=float, default=10.0,
                        help="per-request socket timeout (seconds)")
    replay.add_argument("--wait", type=float, default=10.0,
                        help="readiness budget polling /healthz")
    replay.add_argument("--workload", default="replay",
                        help="workload label in the --output document")
    replay.add_argument("--output", type=str, default=None, metavar="FILE",
                        help="write a BENCH_serve.json-shaped report")
    replay.add_argument("--fail-on-errors", action="store_true",
                        help="exit 1 if any request errored or was shed "
                             "(CI smoke: zero 5xx at sub-watermark load)")
    replay.set_defaults(func=cmd_replay)

    workload = subparsers.add_parser(
        "workload", help="run DTU under a non-stationary workload",
        description="Run DTU against a drifting population "
                    "(repro.workload): diurnal cycles, flash crowds, "
                    "correlated regional churn, and optional learning-"
                    "agent devices, reporting the γ̂ lag behind the "
                    "instantaneous MFNE γ*(t) at checkpoints.")
    _add_common(workload)
    workload.add_argument("--workload", default="diurnal", metavar="NAME",
                          help="workload scenario name (--list shows all; "
                               "default diurnal)")
    workload.add_argument("--list", action="store_true",
                          help="list the workload scenario names and exit")
    workload.add_argument("--policy", default="lemma1",
                          choices=("lemma1", "egreedy", "mwu"),
                          help="device policy: Lemma-1 best response, "
                               "ε-greedy Q-learning, or multiplicative "
                               "weights")
    workload.add_argument("--step", type=float, default=0.1, help="η₀")
    workload.add_argument("--tolerance", type=float, default=0.01,
                          help="ε")
    workload.add_argument("--max-rounds", type=int, default=60,
                          help="broadcast budget for the net run")
    workload.add_argument("--stop-on-convergence", action="store_true",
                          help="stop at the Algorithm-1 test instead of "
                               "tracking for the whole budget")
    workload.add_argument("--checkpoint-every", type=int, default=5,
                          help="rounds between γ*(t) checkpoints in the "
                               "lag table")
    workload.add_argument("--period", type=float, default=None,
                          help="diurnal period override")
    workload.add_argument("--amplitude", type=float, default=None,
                          help="diurnal amplitude override")
    workload.add_argument("--onset", type=float, default=None,
                          help="flash-crowd onset override")
    workload.add_argument("--magnitude", type=float, default=None,
                          help="flash-crowd magnitude override")
    workload.add_argument("--decay", type=float, default=None,
                          help="flash-crowd decay-time override")
    workload.add_argument("--regions", type=int, default=None,
                          help="regional-churn region count override")
    workload.add_argument("--churn-leave-rate", type=float, default=None,
                          help="regional-churn baseline leave rate")
    workload.add_argument("--epsilon", type=float, default=0.1,
                          help="ε-greedy exploration rate")
    workload.add_argument("--learning-rate", type=float, default=0.2,
                          help="ε-greedy Q step α")
    workload.add_argument("--eta", type=float, default=0.5,
                          help="multiplicative-weights rate η")
    workload.add_argument("--analytic", action="store_true",
                          help="run the analytic moving-equilibrium "
                               "tracker instead of the net runtime")
    workload.add_argument("--steps", type=int, default=120,
                          help="analytic tracker iterations")
    workload.add_argument("--dt", type=float, default=1.0,
                          help="schedule time per analytic iteration")
    workload.add_argument("--levels", type=int, default=0,
                          help="quantize m(t) onto this many compiled "
                               "kernel levels (0: exact; big N wants "
                               "8–16)")
    workload.set_defaults(func=cmd_workload)

    compare = subparsers.add_parser(
        "compare", help="DTU vs DPO on a scenario",
        description="Equilibrium utilisation and population cost of the "
                    "threshold policy (DTU) versus the probabilistic "
                    "baseline (DPO).")
    _add_common(compare)
    compare.set_defaults(func=cmd_compare)

    sweep = subparsers.add_parser(
        "sweep", help="sweep one model knob against the equilibrium",
        description="Sweep one model knob across values and tabulate the "
                    "equilibrium response, optionally validated by "
                    "simulation (--backend).")
    sweep.add_argument("--param", required=True,
                       help="knob to sweep (see repro.sweep.PARAMETERS)")
    sweep.add_argument("--values", required=True,
                       help="comma-separated values, e.g. 9,10,12,16")
    sweep.add_argument("--users", type=int, default=3000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes solving points in parallel "
                            "(default 1: inline; results identical)")
    sweep.add_argument("--cache", type=str, default=None, metavar="DIR",
                       help="content-addressed result cache directory "
                            "(re-running a solved point is a cache hit)")
    sweep.add_argument("--backend", choices=("event", "vectorized"),
                       default=None,
                       help="validate each point by simulation and append "
                            "a measured-γ̂ column (vectorized: the fast "
                            "uniformized-CTMC path)")
    sweep.add_argument("--sim-horizon", type=float, default=150.0,
                       help="simulated time units per --backend validation "
                            "run (default 150)")
    sweep.set_defaults(func=cmd_sweep)

    # The epilog is generated from the registry, not maintained as
    # prose: adding a subcommand above is all it takes to document it.
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    width = max(len(name) for name in subparsers.choices)
    parser.epilog = "subcommands:\n" + "\n".join(
        f"  {name:<{width}}  {sub.description}"
        for name, sub in subparsers.choices.items())
    return parser


def cmd_sweep(args) -> int:
    from repro.sweep import parse_values, run_sweep
    result = run_sweep(args.param, parse_values(args.values),
                       n_users=args.users, seed=args.seed,
                       jobs=args.jobs, cache=args.cache,
                       backend=args.backend, sim_horizon=args.sim_horizon)
    print(result)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as error:
        # A value argparse accepted but the library refuses (say
        # ``--users 0``): one line and exit 2, as argparse answers its own.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
