"""The parallel task runner.

:class:`TaskRunner` fans a list of :class:`~repro.runtime.task.TaskSpec`
out over workers and returns one :class:`~repro.runtime.task.TaskResult`
per spec, in input order, regardless of completion order:

* ``jobs=1`` (default) executes inline in the calling thread — zero
  scheduling overhead, identical code path for debugging;
* ``jobs>1`` forks one worker process per task, with a result pipe. The
  child inherits its spec — kernels, populations and all — in the
  parent's copy-on-write pages, so nothing is pickled on the way in;
  only the result travels back through the pipe. A hung task is
  *terminated* at its deadline and retried in a fresh process — the
  fresh worker that makes per-task timeouts enforceable.

Scheduling keeps at most ``jobs`` tasks in flight, so a submitted task
starts immediately on a free worker and the per-task deadline measured
from submission is accurate.

Determinism: seeds are pre-assigned on the specs (see
:func:`repro.runtime.task.derive_seeds`), so results are bit-identical for
any ``jobs`` count. With a :class:`~repro.runtime.cache.ResultCache`
attached, each task is looked up before scheduling and stored after
success; observability events (``task.scheduled`` / ``task.completed`` /
``task.retried`` / ``task.failed`` / ``cache.hit`` / ``cache.miss``) flow
through the ambient :mod:`repro.obs` recorder. A forked worker runs its
task under the null recorder, so at ``jobs>1`` a trace holds the
runner's own events and nothing from inside the tasks.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.obs.context import resolve_recorder, use_recorder
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.runtime.cache import ResultCache
from repro.runtime.canonical import canonicalize
from repro.runtime.task import TaskFailure, TaskResult, TaskSpec, derive_seeds
from repro.utils.rng import SeedLike

#: Scheduler poll period (seconds). Tasks here are coarse (≥ tens of ms),
#: so a 2 ms poll adds < 1% overhead while keeping timeouts responsive.
_POLL_SECONDS = 0.002


def _pick_context():
    """Prefer fork: the child inherits its spec instead of unpickling it.

    Without fork (non-POSIX platforms) the default context pickles the
    spec by value.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _process_child(conn, spec: TaskSpec) -> None:
    """Worker-process entry point: run the task, ship back one message.

    The task runs under the null recorder. The child inherits the
    parent's recorder, buffered trace files included; writing there
    would flush the parent's pending lines a second time, and the
    child's own tail would be lost when it exits.
    """
    try:
        with use_recorder(NULL_RECORDER):
            value = spec.call()
        try:
            conn.send(("ok", value))
        except Exception as error:
            conn.send(("error", TaskFailure(
                kind="exception",
                message=f"result of {spec.label} is not picklable: {error}",
            )))
    except BaseException as error:  # noqa: BLE001 - full capture is the point
        conn.send(("error", TaskFailure(
            kind="exception",
            message=f"{type(error).__name__}: {error}",
            traceback=traceback.format_exc(),
        )))
    finally:
        conn.close()


@dataclass
class _Pending:
    """A task waiting to run (or re-run)."""

    index: int
    spec: TaskSpec
    key: Optional[str]
    document: Optional[str]
    attempt: int = 1


class _ProcessWorker:
    """One task in one dedicated process, reporting through a pipe."""

    def __init__(self, pending: _Pending, ctx):
        self.pending = pending
        self.started = time.perf_counter()
        self._parent, child = ctx.Pipe(duplex=False)
        self._process = ctx.Process(
            target=_process_child, args=(child, pending.spec), daemon=True,
        )
        self._process.start()
        child.close()

    def poll(self):
        """``None`` while running, else ``("ok", value)`` / ``("error", f)``."""
        message = self._receive()
        if message is not None:
            self._process.join()
            self._parent.close()
            return message
        if self._process.is_alive():
            return None
        self._process.join()
        # The child may exit between our pipe check and the liveness check
        # with its result still sitting in the pipe buffer — drain it before
        # declaring a crash, or a healthy worker gets a spurious retry.
        message = self._receive()
        self._parent.close()
        if message is not None:
            return message
        return ("error", TaskFailure(
            kind="crash",
            message=(f"worker process for {self.pending.spec.label} died "
                     f"with exit code {self._process.exitcode}"),
        ))

    def _receive(self):
        try:
            if self._parent.poll(0):
                return self._parent.recv()
        except (EOFError, OSError):
            pass
        return None

    def kill(self) -> None:
        self._process.terminate()
        self._process.join()
        self._parent.close()


class TaskRunner:
    """Fan tasks out over workers; collect results in input order.

    Parameters
    ----------
    jobs:
        Maximum tasks in flight. ``jobs=1`` runs inline; more forks one
        worker process per task.
    timeout:
        Per-task deadline in seconds (``None``: no deadline), enforced
        by terminating the worker process. An inline call cannot be
        interrupted, so ``jobs=1`` ignores it.
    retries:
        How many times a failed (raised / timed-out / crashed) task is
        re-run on a fresh worker before its failure is reported.
    cache:
        A :class:`ResultCache` (or a directory path for one).
    recorder:
        Explicit :mod:`repro.obs` recorder; defaults to the ambient one.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 1,
        cache: Optional[Any] = None,
        recorder: Optional[Recorder] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self._recorder = recorder

    # ---------------------------------------------------------------- run --
    def run(self, specs: Sequence[TaskSpec]) -> List[TaskResult]:
        """Execute every spec; one :class:`TaskResult` per spec, in order."""
        specs = list(specs)
        obs = resolve_recorder(self._recorder)
        results: List[Optional[TaskResult]] = [None] * len(specs)
        pending: deque = deque()
        backend = "inline" if self.jobs == 1 else "process"

        for index, spec in enumerate(specs):
            key = document = None
            if self.cache is not None:
                config = canonicalize(dict(spec.kwargs))
                seed = canonicalize(spec.seed)
                key = self.cache.key_for(spec.fn, config, seed)
                document = self.cache.key_document(spec.fn, config, seed)
                hit, value = self.cache.get(key)
                if hit:
                    results[index] = TaskResult(
                        index=index, name=spec.label, value=value,
                        attempts=0, cache_hit=True, key=key,
                    )
                    if obs.enabled:
                        obs.count("runtime.cache_hits")
                        obs.event("cache.hit", task=spec.label, key=key[:16])
                    continue
                if obs.enabled:
                    obs.count("runtime.cache_misses")
                    obs.event("cache.miss", task=spec.label, key=key[:16])
            pending.append(_Pending(index, spec, key, document))
            if obs.enabled:
                obs.count("runtime.tasks_scheduled")
                obs.event("task.scheduled", task=spec.label, index=index,
                          backend=backend)

        # timer() is the shared null context when obs is off — free here.
        with obs.timer("runtime.run_seconds"):
            if self.jobs == 1:
                self._run_inline(pending, results, obs)
            else:
                self._run_pool(pending, results, obs)
        return results  # type: ignore[return-value] - every slot filled

    # ------------------------------------------------------------- inline --
    def _run_inline(self, pending, results, obs) -> None:
        while pending:
            item = pending.popleft()
            started = time.perf_counter()
            try:
                value = item.spec.call()
            except BaseException as error:  # noqa: BLE001
                failure = TaskFailure(
                    kind="exception",
                    message=f"{type(error).__name__}: {error}",
                    traceback=traceback.format_exc(),
                    attempts=item.attempt,
                )
                self._after_failure(item, failure, pending, results, obs)
                continue
            self._after_success(
                item, value, time.perf_counter() - started, results, obs,
            )

    # --------------------------------------------------------------- pool --
    def _run_pool(self, pending, results, obs) -> None:
        ctx = _pick_context()
        active: List[_ProcessWorker] = []
        try:
            while pending or active:
                while pending and len(active) < self.jobs:
                    active.append(_ProcessWorker(pending.popleft(), ctx))
                finished, still_active = [], []
                for worker in active:
                    message = worker.poll()
                    if message is None and self.timeout is not None and \
                            time.perf_counter() - worker.started > self.timeout:
                        worker.kill()
                        message = ("error", TaskFailure(
                            kind="timeout",
                            message=(f"{worker.pending.spec.label} exceeded "
                                     f"{self.timeout:g}s deadline"),
                        ))
                    if message is None:
                        still_active.append(worker)
                    else:
                        finished.append((worker, message))
                active = still_active
                for worker, (status, payload) in finished:
                    elapsed = time.perf_counter() - worker.started
                    if status == "ok":
                        self._after_success(
                            worker.pending, payload, elapsed, results, obs,
                        )
                    else:
                        failure = TaskFailure(
                            kind=payload.kind, message=payload.message,
                            traceback=payload.traceback,
                            attempts=worker.pending.attempt,
                        )
                        self._after_failure(
                            worker.pending, failure, pending, results, obs,
                        )
                if not finished:
                    time.sleep(_POLL_SECONDS)
        except BaseException:
            for worker in active:
                worker.kill()
            raise

    # ------------------------------------------------------- bookkeeping --
    def _after_success(self, item, value, elapsed, results, obs) -> None:
        if self.cache is not None and item.key is not None:
            self.cache.put(item.key, value, item.document)
            if obs.enabled:
                obs.count("runtime.cache_stores")
        results[item.index] = TaskResult(
            index=item.index, name=item.spec.label, value=value,
            attempts=item.attempt, seconds=elapsed, key=item.key)
        if obs.enabled:
            obs.count("runtime.tasks_completed")
            obs.observe("runtime.task_seconds", elapsed)
            obs.event("task.completed", task=item.spec.label,
                      index=item.index, attempt=item.attempt,
                      seconds=elapsed)

    def _after_failure(self, item, failure, pending, results, obs) -> None:
        if item.attempt <= self.retries:
            if obs.enabled:
                obs.count("runtime.tasks_retried")
                obs.event("task.retried", task=item.spec.label,
                          index=item.index, attempt=item.attempt,
                          failure=failure.kind, message=failure.message)
            pending.append(_Pending(item.index, item.spec, item.key,
                                    item.document, attempt=item.attempt + 1))
            return
        results[item.index] = TaskResult(
            index=item.index, name=item.spec.label, error=failure,
            attempts=item.attempt, key=item.key)
        if obs.enabled:
            obs.count("runtime.tasks_failed")
            obs.event("task.failed", task=item.spec.label, index=item.index,
                      attempts=item.attempt, failure=failure.kind,
                      message=failure.message)


def run_tasks(
    fn: Callable[..., Any],
    configs: Sequence[dict],
    seed: SeedLike = 0,
    seeds: Optional[Sequence[Any]] = None,
    names: Optional[Sequence[str]] = None,
    **runner_options,
) -> List[TaskResult]:
    """Convenience fan-out: one task per config dict, derived seeds.

    ``seeds`` overrides the default per-task derivation (pass an explicit
    list — e.g. the *same* seed for every task when common random numbers
    across points are wanted, as in :func:`repro.sweep.run_sweep`);
    ``seeds=[None] * len(configs)`` makes the tasks seedless.
    """
    configs = list(configs)
    if seeds is None:
        seeds = derive_seeds(seed, len(configs))
    if len(seeds) != len(configs):
        raise ValueError(
            f"got {len(configs)} configs but {len(seeds)} seeds"
        )
    if names is None:
        names = [""] * len(configs)
    specs = [
        TaskSpec(fn=fn, kwargs=config, seed=task_seed, name=name)
        for config, task_seed, name in zip(configs, seeds, names)
    ]
    return TaskRunner(**runner_options).run(specs)
