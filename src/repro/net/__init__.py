"""repro.net — asynchronous message-passing runtime for DTU.

The other executions of Algorithm 1 in this repository (``core.dtu``,
``simulation.online``, ``simulation.fastpath``) share one convenient
fiction: the edge and the devices exchange state by function call.  This
package drops that fiction.  An :class:`~repro.net.actors.EdgeCoordinator`
round timer and N :class:`~repro.net.actors.DeviceAgent` delivery handlers
— callbacks on one virtual-time event loop — run the protocol over an
explicit :class:`~repro.net.transport.Transport` carrying typed messages,
and a :class:`~repro.net.transport.FaultyTransport` plus
:class:`~repro.net.churn.ChurnModel` subject it to seeded loss, latency,
jitter, duplication, reordering, partitions, churn, and stragglers —
while the :class:`~repro.net.clock.Runtime` keeps every run bit-identical
for a given seed.

Entry points: :func:`~repro.net.protocol.run_net_dtu` (single edge; CLI:
``python -m repro net``; a rate schedule and learning policies make it
the workload runner, :func:`repro.workload.run_workload_net`) and
:func:`~repro.net.sharded.run_sharded_dtu` (one coordinator per site
with γ̂ gossip, delay probes, and device migration; CLI:
``python -m repro sharded``). Both take their runtime, transport and
churn from :func:`~repro.net.protocol.build_environment` and are driven
by :func:`~repro.net.protocol.run_fleet`.
"""

from repro.net.actors import (EDGE_ADDRESS, DeviceAgent, EdgeCoordinator,
                              FleetResponses, LearningDeviceAgent, NetTrace)
from repro.net.churn import ChurnConfig, ChurnModel
from repro.net.clock import Runtime
from repro.net.messages import (
    Address,
    DelayProbe,
    DelayProbeReply,
    Envelope,
    GammaBroadcast,
    GammaGossip,
    Heartbeat,
    JoinLeave,
    Message,
    MessageLog,
    ShardBroadcast,
    ThresholdReport,
)
from repro.net.protocol import (
    NetConfig,
    NetDtuResult,
    build_devices,
    build_environment,
    run_net_dtu,
    with_faults,
)
from repro.net.sharded import (
    ShardedDeviceAgent,
    ShardedDtuResult,
    ShardedNetConfig,
    SiteCoordinator,
    run_sharded_dtu,
    site_address,
)
from repro.net.transport import (
    FaultConfig,
    FaultyTransport,
    LocalTransport,
    Partition,
    Transport,
)

__all__ = [
    "EDGE_ADDRESS",
    "Address",
    "ChurnConfig",
    "ChurnModel",
    "DelayProbe",
    "DelayProbeReply",
    "DeviceAgent",
    "EdgeCoordinator",
    "Envelope",
    "FaultConfig",
    "FaultyTransport",
    "FleetResponses",
    "GammaBroadcast",
    "GammaGossip",
    "Heartbeat",
    "JoinLeave",
    "LearningDeviceAgent",
    "LocalTransport",
    "Message",
    "MessageLog",
    "NetConfig",
    "NetDtuResult",
    "NetTrace",
    "Partition",
    "Runtime",
    "ShardBroadcast",
    "ShardedDeviceAgent",
    "ShardedDtuResult",
    "ShardedNetConfig",
    "SiteCoordinator",
    "ThresholdReport",
    "Transport",
    "build_devices",
    "build_environment",
    "run_net_dtu",
    "run_sharded_dtu",
    "site_address",
    "with_faults",
]
