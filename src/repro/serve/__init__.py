"""DTU as a long-lived offloading decision service.

Every other execution path in this repository terminates at a fixed
point in *virtual* time.  This package bridges the :mod:`repro.net`
coordinator to the wall clock and exposes it as a persistent daemon
serving threshold decisions over HTTP:

* :class:`~repro.serve.wallclock.WallClockDriver` — the
  :class:`repro.net.clock.Runtime` surface a coordinator uses (``now`` /
  ``call_later`` / ``stop``) adapted to real time, so the
  :class:`~repro.net.actors.EdgeCoordinator`'s round timer runs
  unmodified as a daemon;
* :class:`~repro.serve.service.DecisionService` — the coordinator +
  compiled kernel pair behind a thread-safe facade (the daemon itself
  calls it from the coordinator's own loop thread): ``decide`` queries
  answered as column arrays (:class:`~repro.serve.service.Decisions`)
  from the fleet answer each round publishes, and reported to the
  coordinator as one message passed to its ``receive`` on the loop
  thread, ``join``/``leave`` mapped onto the
  :class:`~repro.net.messages.JoinLeave` protocol messages, admission
  control past a queue-depth watermark;
* :class:`~repro.serve.httpd.DecisionServer` — the HTTP surface
  (``POST /decide``, ``POST /join``, ``POST /leave``, ``GET /state``,
  ``GET /healthz``, ``GET /metrics``) on the shared
  :mod:`repro.utils.httpd` plumbing, its connections callbacks on the
  driver's loop, keeping each device's rendered ``/decide`` row until
  its threshold moves;
* :mod:`repro.serve.replay` — a seeded open-loop load-test client that
  replays synthetic decision traffic and writes ``BENCH_serve.json``.

``python -m repro serve`` boots the daemon; ``python -m repro replay``
drives it.
"""

from repro.serve.httpd import DecisionServer
from repro.serve.replay import ReplayConfig, ReplayReport, run_replay
from repro.serve.service import (
    AdmissionController,
    Decisions,
    DecisionService,
    ServeConfig,
    ServingCoordinator,
)
from repro.serve.wallclock import WallClockDriver

__all__ = [
    "AdmissionController",
    "DecisionServer",
    "Decisions",
    "DecisionService",
    "ReplayConfig",
    "ReplayReport",
    "run_replay",
    "ServeConfig",
    "ServingCoordinator",
    "WallClockDriver",
]
