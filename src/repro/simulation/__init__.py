"""Discrete-event simulation of the mobile edge computing system.

The paper's theory is exact for exponential local processing; its
"practical settings" experiments (Section IV-B/IV-C) replace the
exponential assumption with measured YOLOv3 processing times and WiFi
latencies. This subpackage provides the machinery for those experiments.
Every discrete-event simulation in it runs on the actors' event loop,
:class:`repro.net.clock.Runtime`:

* :mod:`repro.simulation.device` — one device's FCFS queue under a TRO or
  DPO admission policy with an arbitrary service-time distribution;
* :mod:`repro.simulation.edge` — the edge server model (utilisation
  accounting plus the ``g(γ)`` delay models);
* :mod:`repro.simulation.system` — the N-device system: measured
  utilisation, per-user offload fractions and queue lengths, and a
  simulation-backed utilisation oracle for the DTU algorithm;
* :mod:`repro.simulation.fastpath` — the vectorized fast path: all N
  device queues advanced simultaneously by uniformized-CTMC array
  stepping (``backend="vectorized"`` in :func:`simulate_system`);
* :mod:`repro.simulation.measurement` — warmup handling and statistics.
"""

from repro.simulation.device import DeviceStats, DpoAdmission, TroAdmission, simulate_device
from repro.simulation.edge import EdgeServer
from repro.simulation.edge_queue import EdgeQueueStats, simulate_edge_queue
from repro.simulation.fastpath import (
    FastpathUnsupportedError,
    check_fastpath_supported,
    simulate_devices_vectorized,
)
from repro.simulation.measurement import MeasurementConfig
from repro.simulation.online import OnlineResult, OnlineSimulation
from repro.simulation.trace import TaskRecord, TaskTraceRecorder
from repro.simulation.system import (
    BACKENDS,
    ReplicatedMeasurement,
    SimulatedUtilizationOracle,
    SystemMeasurement,
    simulate_system,
    simulate_system_replicated,
)

__all__ = [
    "BACKENDS",
    "FastpathUnsupportedError",
    "check_fastpath_supported",
    "simulate_devices_vectorized",
    "DeviceStats",
    "TroAdmission",
    "DpoAdmission",
    "simulate_device",
    "EdgeServer",
    "MeasurementConfig",
    "SystemMeasurement",
    "simulate_system",
    "ReplicatedMeasurement",
    "simulate_system_replicated",
    "SimulatedUtilizationOracle",
    "TaskRecord",
    "TaskTraceRecorder",
    "EdgeQueueStats",
    "simulate_edge_queue",
    "OnlineSimulation",
    "OnlineResult",
]
