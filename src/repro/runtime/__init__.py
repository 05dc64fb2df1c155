"""repro.runtime — parallel execution engine with a content-addressed cache.

Every expensive path in this reproduction — a knob sweep solving one MFNE
per point, Monte-Carlo evaluation of ``V(γ)`` over sampled populations,
independent DES replications — is a batch of pure, seeded tasks. This
subsystem turns those ``for`` loops into one reusable fan-out layer:

* :class:`TaskRunner` — executes :class:`TaskSpec` batches inline
  (``jobs=1``) or on per-task forked worker processes (``jobs=N``), which
  inherit their task's inputs instead of receiving a copy, with per-task
  timeouts, bounded retry on a fresh worker, and structured failure
  capture (:class:`TaskFailure`) instead of batch-killing exceptions;
* :func:`derive_seeds` — deterministic per-task seed derivation via
  :class:`numpy.random.SeedSequence` spawning, assigned *before*
  execution, so results are **bit-identical for any jobs count**;
* :class:`ResultCache` — a disk-backed, content-addressed store keyed by
  ``sha256({fn qualname, canonical config JSON, seed, repro version})``;
  re-running a sweep point or an experiment artifact is a cache hit;
* observability from day one: scheduling, completion, retry, and cache
  events flow through the ambient :mod:`repro.obs` recorder.

Quickstart
----------
>>> from repro.runtime import TaskRunner, TaskSpec, derive_seeds
>>> def square(value, seed):                # any module-level callable
...     return value * value
>>> seeds = derive_seeds(0, 3)
>>> specs = [TaskSpec(square, {"value": v}, seed=s)
...          for v, s in zip([1, 2, 3], seeds)]
>>> [r.unwrap() for r in TaskRunner(jobs=1).run(specs)]
[1, 4, 9]
"""

from repro.runtime.cache import ResultCache
from repro.runtime.canonical import (
    canonical_json,
    canonicalize,
    content_digest,
    function_qualname,
)
from repro.runtime.runner import TaskRunner, run_tasks
from repro.runtime.task import (
    TaskFailure,
    TaskResult,
    TaskSpec,
    derive_seeds,
)

__all__ = [
    "ResultCache",
    "TaskFailure",
    "TaskResult",
    "TaskRunner",
    "TaskSpec",
    "canonical_json",
    "canonicalize",
    "content_digest",
    "derive_seeds",
    "function_qualname",
    "run_tasks",
]
