"""Shared plumbing for the benchmark: import path, statistics, tracing.

The benchmark lives beside the package it measures and imports it from
``src/`` of the same checkout.  Tracing here is the benchmark's own: it
wraps public calls into the package (on instances or classes) for the
duration of a traced run and restores them afterwards.  Nothing under
``src/`` knows it is being timed.
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Every workload uses the paper's Section IV theoretical setting.
SCENARIO = "paper-theoretical"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package to measure)."""


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no package sources under {SRC}")
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


def child_env() -> dict:
    """Environment for benchmark subprocesses: same sources, no bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# -- statistics ----------------------------------------------------------------

def median(values: Iterable[float]) -> float:
    return quantile(values, 0.5)


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated quantile (``numpy.percentile``'s default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host description ----------------------------------------------------------

def environment() -> dict:
    """Host facts printed with every result."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5, check=False).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
    }


# -- tracing -------------------------------------------------------------------

class Tracer:
    """In-memory span aggregation with self time, safe across threads.

    ``span(name)`` times a block; nested spans on the same thread are
    its children, and a span's *self* time is its duration minus the
    time its children cover.  Per name it keeps the call count, total
    and self seconds, and (for names listed in ``keep``) every duration
    so percentiles can be taken at the end.
    """

    def __init__(self, keep: Iterable[str] = ()):
        self._keep = set(keep)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls: Dict[str, int] = {}
            self.total: Dict[str, float] = {}
            self.self_time: Dict[str, float] = {}
            self.samples: Dict[str, List[float]] = {k: [] for k in self._keep}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        frame = [0.0]                 # seconds covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            self.record(name, elapsed, elapsed - frame[0])

    def record(self, name: str, elapsed: float,
               self_seconds: Optional[float] = None) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + elapsed
            self.self_time[name] = self.self_time.get(name, 0.0) + (
                elapsed if self_seconds is None else self_seconds)
            if name in self._keep:
                self.samples[name].append(elapsed)

    def wrap(self, function: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return function(*args, **kwargs)

        traced.__wrapped__ = function
        return traced

    @contextlib.contextmanager
    def patched(self, owner, attribute: str, name: str):
        """Wrap ``owner.attribute`` (instance or class) while the block runs."""
        had_own = attribute in vars(owner)
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(original, name))
        try:
            yield
        finally:
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def summary(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "total_s": dict(self.total),
                "self_s": dict(self.self_time),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }


def patch_all(tracer: Tracer, targets) -> contextlib.ExitStack:
    """Enter ``tracer.patched`` for every ``(owner, attribute, name)``."""
    stack = contextlib.ExitStack()
    for owner, attribute, name in targets:
        stack.enter_context(tracer.patched(owner, attribute, name))
    return stack
