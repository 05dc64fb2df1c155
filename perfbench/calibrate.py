"""Host-speed reference: a fixed task timed beside every workload's jobs.

The benchmark's host is a shared VM.  Co-tenants take CPU time, caches
and memory bandwidth, so the process CPU time of one and the same job
moves by tens of percent between runs a minute apart.  Each workload
therefore also times a fixed reference task at quiet points of the same
run (between jobs, or while no daemon is up) and reports its CPU time
per operation scaled by

    REFERENCE_MS / median(reference CPU ms over the run)

that is, in milliseconds of a host as fast as the recording host.  The
reference is written here, imports nothing from the package and never
changes with it, so a change to the package moves the job's time and not
the reference's.  Both sides see the same host, so its drift cancels in
the ratio.  The raw CPU times are printed beside the scaled ones.

The task is memory-bound: a random gather, a sort and a binary search
over arrays larger than the cache, the access pattern of the compiled
kernel's probes and table fills.  Co-tenants slow the workloads mostly
through shared caches and memory bandwidth, and this task feels that.  A
task of small Python objects instead, timed on the same host, kept its
time while a memory-bandwidth load on the other CPU slowed the actor
runtime by 13%.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from common import median

#: Median thread CPU ms of one reference task on the recording host
#: (see perfbench/README.md, "Measured").
REFERENCE_MS = 52.0
#: Reference tasks timed per sample.  The host's speed for this task
#: moves by ±10% from one second to the next, so a run needs seconds of
#: reference, not a handful of tasks, before its median tracks the host
#: as well as a job's own CPU time does.
REPEATS = 20


class HostSpeed:
    """Samples of the reference task's thread CPU time over a run."""

    def __init__(self):
        self.samples_ms = []
        rng = np.random.default_rng(20230707)
        self._table = rng.random(1 << 22)                      # 32 MiB
        self._index = rng.integers(0, 1 << 22, size=1 << 18)
        self._keys = np.sort(rng.random(1 << 16))
        self._task()             # warm the caches untimed

    def _task(self) -> int:
        gathered = np.take(self._table, self._index)
        order = np.argsort(gathered[: 1 << 15])
        slots = np.searchsorted(self._keys, gathered)
        return int(order[0] + slots[-1])

    def sample(self, repeats: int = REPEATS) -> None:
        # Garbage cycles a job left behind slow every allocation until
        # they are collected; the reference should time the host, not the
        # workload's heap.
        gc.collect()
        for _ in range(repeats):
            started = time.thread_time()
            self._task()
            self.samples_ms.append((time.thread_time() - started) * 1e3)

    def reference_ms(self) -> float:
        return median(self.samples_ms)

    def scale(self, cpu_time: float) -> float:
        """``cpu_time`` (any unit) as the recording host would take it."""
        return cpu_time * REFERENCE_MS / self.reference_ms()

    def line(self) -> str:
        return (f"  host reference: median {self.reference_ms():.3f} ms, "
                f"recorded {REFERENCE_MS} ms (n={len(self.samples_ms)})")
