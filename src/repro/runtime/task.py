"""Task specifications, results, and deterministic seed derivation.

The execution contract that makes parallelism invisible to results:

* a :class:`TaskSpec` carries everything a task needs — a module-level
  function, keyword arguments, and a *pre-assigned* seed;
* seeds are fixed when the spec list is built (:func:`derive_seeds`), never
  drawn from a shared stream during execution, so any scheduling order —
  ``jobs=1`` inline, 4 forked workers, retries after a crash — produces
  bit-identical outputs;
* a :class:`TaskResult` always comes back, success or not: a failed task
  carries a structured :class:`TaskFailure` (kind, message, traceback,
  attempts) instead of killing the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional

import numpy as np

from repro.utils.rng import SeedLike


def derive_seeds(seed: SeedLike, count: int) -> List[np.random.SeedSequence]:
    """``count`` independent child seeds, fixed before execution starts.

    Children are spawned from one :class:`numpy.random.SeedSequence` root
    (``SeedSequence.spawn`` — non-overlapping streams even for adjacent
    integer roots). Task *i* always receives child *i*, so results do not
    depend on how many workers ran or in which order tasks completed. A
    :class:`~numpy.random.Generator` root is supported for API symmetry
    with :func:`repro.utils.rng.spawn_streams`: the child entropies are
    drawn from it up front, in index order.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        entropies = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.SeedSequence(int(e)) for e in entropies]
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return list(root.spawn(count))


@dataclass(frozen=True)
class TaskSpec:
    """One unit of work: ``fn(**kwargs)`` (plus ``seed=`` when set).

    ``fn`` must be an importable module-level callable — the cache key
    names it, and so does the pickle a worker receives on a platform
    without fork. ``seed`` may be an int, a
    :class:`~numpy.random.SeedSequence`, or ``None`` (seedless task); when
    not ``None`` it is passed to ``fn`` as the keyword argument ``seed``.
    ``name`` labels the task in observability events.
    """

    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    seed: Any = None
    name: str = ""

    def call(self) -> Any:
        """Execute the task in the current thread/process."""
        if self.seed is None:
            return self.fn(**self.kwargs)
        return self.fn(seed=self.seed, **self.kwargs)

    @property
    def label(self) -> str:
        return self.name or getattr(self.fn, "__qualname__", repr(self.fn))


@dataclass(frozen=True)
class TaskFailure:
    """Structured capture of why a task ultimately failed.

    ``kind`` is one of ``"exception"`` (the function raised), ``"timeout"``
    (exceeded the per-task deadline; the process worker was terminated),
    or ``"crash"`` (a worker process died without reporting — segfault,
    OOM-kill, unpicklable result channel loss).
    """

    kind: str
    message: str
    traceback: str = ""
    attempts: int = 1

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message} (after {self.attempts} attempt(s))"


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one task: a value or a failure, never an exception."""

    index: int
    name: str
    value: Any = None
    error: Optional[TaskFailure] = None
    attempts: int = 1
    seconds: float = 0.0
    cache_hit: bool = False
    key: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> Any:
        """The value, or a :class:`RuntimeError` carrying the failure."""
        if self.error is not None:
            detail = self.error.traceback or self.error.message
            raise RuntimeError(
                f"task {self.index} ({self.name or 'unnamed'}) failed "
                f"{self.error.kind} after {self.error.attempts} attempt(s):\n"
                f"{detail}"
            )
        return self.value
