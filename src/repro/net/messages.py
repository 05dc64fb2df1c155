"""Typed protocol messages and the append-only message log.

The single-site DTU protocol needs exactly four message kinds:

* :class:`GammaBroadcast` — edge → devices: the estimate γ̂ for a round;
* :class:`ThresholdReport` — device → edge: the Lemma-1 best response and
  the offered offload rate ``a_n·α_n(x_n)`` it induces (what the edge
  aggregates into its utilisation measurement);
* :class:`Heartbeat` — device → edge: liveness, so silent devices can be
  pruned from the measurement denominator;
* :class:`JoinLeave` — device → edge: graceful membership changes (churn
  *and* inter-site migration — leaving one site's fleet for another's).

The serving daemon (:mod:`repro.serve`) adds one more device → edge kind:

* :class:`ReportBatch` — the reports of many devices for one round, as
  columns: one message per ``/decide`` request.

The sharded multi-edge protocol (:mod:`repro.net.sharded`) adds a
coordinator↔coordinator backbone:

* :class:`GammaGossip` — site → site: one site's γ̂ for its peers' views;
* :class:`DelayProbe` / :class:`DelayProbeReply` — site → site: measured
  inter-site link latency (RTT/2), the EINES-style probing loop;
* :class:`ShardBroadcast` — site → devices: a :class:`GammaBroadcast`
  carrying the whole gossiped γ̂ vector, so devices can price every site
  from measured quantities.

Messages travel inside :class:`Envelope` records stamped by the transport
with a global sequence number, send time and delivery time.  The
:class:`MessageLog` records every fate (sent / delivered / dropped / …) as
a plain tuple; two runs with the same seed must produce *equal* logs —
the reproducibility contract ``tests/test_net.py`` pins.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, List, NamedTuple, Optional, Tuple, Union

import numpy as np

Address = Union[int, str]   # devices are ints; coordinators are "edge"
                            # (single-site) or "site/<j>" (sharded)


@dataclass(frozen=True)
class GammaBroadcast:
    """The edge's estimate γ̂ for ``round`` (Algorithm 1's broadcast)."""

    round: int
    estimate: float     # γ̂
    step: float         # current η (diagnostic, lets devices reason about it)


class ThresholdReport(NamedTuple):
    """A device's best response to the latest broadcast it received.

    A named tuple, like :class:`Envelope`: every device builds one per
    broadcast it answers, and a tuple builds in under half a frozen
    dataclass's time.  Its fields are read-only all the same.
    """

    device: int
    round: int          # the broadcast round being answered
    threshold: float    # Lemma-1 optimal x*
    offload_rate: float  # a_n · α_n(x*) — the device's offered edge load


@dataclass(frozen=True, eq=False)
class ReportBatch:
    """The :class:`ThresholdReport` of many devices for one round, as columns.

    Row ``i`` means ``ThresholdReport(devices[i], round, thresholds[i],
    offload_rates[i])``, and a later row for the same device supersedes
    an earlier one.  ``joining=True`` prefixes every row with
    ``JoinLeave(devices[i], True)``; ``False`` leaves membership as it is.
    The batch owns read-only copies of its columns, so a sender that
    reuses its arrays cannot rewrite a report in flight.
    """

    devices: np.ndarray        # int64
    round: int
    thresholds: np.ndarray     # Lemma-1 optimal x* per row
    offload_rates: np.ndarray  # a_n · α_n(x*) per row
    joining: bool = False

    def __post_init__(self) -> None:
        columns = {
            "devices": np.array(self.devices, dtype=np.int64, ndmin=1),
            "thresholds": np.array(self.thresholds, ndmin=1),
            "offload_rates": np.array(self.offload_rates, dtype=np.float64,
                                      ndmin=1),
        }
        rows = (columns["devices"].size,)
        for name, column in columns.items():
            if column.shape != rows:
                raise ValueError(f"{name} must be a column of "
                                 f"{rows[0]} rows, got shape {column.shape}")
            column.setflags(write=False)
            object.__setattr__(self, name, column)


@dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness signal."""

    device: int
    sent_at: float


@dataclass(frozen=True)
class JoinLeave:
    """Graceful membership change: ``joining=False`` announces departure."""

    device: int
    joining: bool


@dataclass(frozen=True)
class GammaGossip:
    """One site's γ̂ relayed to a peer coordinator (sharded backbone)."""

    site: int           # the originating site index
    round: int          # the origin's current broadcast round
    estimate: float     # its γ̂_j
    step: float         # its η (diagnostic)


@dataclass(frozen=True)
class DelayProbe:
    """Inter-site latency probe; the receiver answers immediately."""

    site: int           # the probing site (where the reply goes)
    sent_at: float      # probe send time, echoed back for the RTT


@dataclass(frozen=True)
class DelayProbeReply:
    """Echo of a :class:`DelayProbe`; RTT = delivered_at − probe_sent_at."""

    site: int           # the replying site
    probe_sent_at: float


@dataclass(frozen=True)
class ShardBroadcast(GammaBroadcast):
    """A site's broadcast with the whole gossiped γ̂ vector attached.

    ``estimate`` (inherited) is the sending site's own γ̂;
    ``estimates[k]`` is its current belief about site ``k`` (own entry
    live, peers from gossip, pessimistic 1.0 for stale peers), and
    ``rounds[k]`` the round that belief answers — devices report to their
    chosen site with that round number so the receiving coordinator's
    staleness window works unchanged.
    """

    site: int
    estimates: Tuple[float, ...]
    rounds: Tuple[int, ...]


Message = Union[GammaBroadcast, ThresholdReport, ReportBatch, Heartbeat,
                JoinLeave, GammaGossip, DelayProbe, DelayProbeReply,
                ShardBroadcast]


class Envelope(NamedTuple):
    """A message in flight, stamped by the transport.

    A named tuple, not a dataclass: one is built per message, and a
    tuple is the cheapest immutable record to build and collect.  It is
    the only record a message in flight adds besides its heap entry (see
    :class:`~repro.net.transport.LocalTransport`).

    ``span`` is the id of the causal span the transport opened for this
    delivery (see :mod:`repro.obs.spans`); ``None`` when span tracing is
    off.  It rides in the envelope because the receiver runs in a later
    event than the sender — an ambient "current span" would not survive
    the hop, the envelope does.
    """

    seq: int
    src: Address
    dst: Address
    sent_at: float
    delivered_at: float
    message: Message
    span: Optional[int] = None

    @property
    def latency(self) -> float:
        return self.delivered_at - self.sent_at

    @property
    def kind(self) -> str:
        return type(self.message).__name__


#: One log row: (event, seq, src, dst, kind, sent_at, delivered_at).
#: ``delivered_at`` is None for fates that never deliver (drops), keeping
#: rows equality-comparable (NaN would break log comparison).
LogEntry = Tuple[str, int, Address, Address, str, float, Optional[float]]


class MessageLog:
    """Append-only record of every message fate, in event order.

    ``record_entries=False`` keeps only the fate counters — the 10⁴-device
    benchmark would otherwise retain millions of tuples.
    """

    def __init__(self, record_entries: bool = True):
        self.record_entries = record_entries
        self.entries: List[LogEntry] = []
        self.counts: Counter = Counter()

    def record(self, event: str, envelope: Envelope,
               delivered: bool = True) -> None:
        self.counts[event] += 1
        if self.record_entries:
            self.entries.append((
                event, envelope.seq, envelope.src, envelope.dst,
                envelope.kind, envelope.sent_at,
                envelope.delivered_at if delivered else None,
            ))

    def count(self, event: str) -> int:
        return self.counts.get(event, 0)

    @property
    def attempted(self) -> int:
        """Messages handed to the transport, whatever their fate.

        Drops never reach the inner transport's "sent" accounting, so the
        attempt count is sent + dropped + partitioned.
        """
        return (self.count("sent") + self.count("dropped")
                + self.count("partitioned"))

    @property
    def delivered_fraction(self) -> float:
        """Delivered / attempted (1.0 on an empty log)."""
        attempted = self.attempted
        return self.count("delivered") / attempted if attempted else 1.0

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, MessageLog):
            return NotImplemented
        return self.entries == other.entries and self.counts == other.counts

    def __repr__(self) -> str:
        stats = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"MessageLog({stats})"
