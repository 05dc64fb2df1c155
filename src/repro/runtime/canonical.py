"""Canonical JSON encoding and content hashing for cache keys.

A cache key must be a pure function of *what the task computes*: the task
function's qualified name, the configuration it receives, the seed, and the
repro version. :func:`canonicalize` lowers an arbitrary config object into a
JSON-serialisable tree with a stable, order-independent encoding:

* dict keys are emitted sorted, tuples become lists, NumPy scalars become
  Python scalars;
* NumPy arrays are replaced by a digest of their raw bytes (content
  addressing — a 10⁶-user population hashes to 64 hex chars instead of
  megabytes of JSON);
* dataclasses and plain objects are encoded as ``{"__type__": ..., fields}``
  so two configs of different classes with the same field values cannot
  collide; objects may override this by defining ``__canonical__()``
  returning their value identity as a canonicalizable tree (used by
  compiled kernels, whose raw ``__dict__`` holds derived tables);
* :class:`numpy.random.SeedSequence` is encoded by its entropy + spawn key —
  exactly the quantities that determine the stream.

Anything else (open files, generators, lambdas) raises :class:`TypeError`
up front: an object whose identity cannot be captured must not silently
poison a cache key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable

import numpy as np


def _qualname(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def canonicalize(obj: Any) -> Any:
    """Lower ``obj`` to a JSON-serialisable tree with deterministic encoding."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr-roundtrip floats are exact in JSON; normalise -0.0 for sanity.
        return obj + 0.0
    if isinstance(obj, np.generic):
        return canonicalize(obj.item())
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            "__ndarray__": {
                "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
                "dtype": str(data.dtype),
                "shape": list(data.shape),
            }
        }
    if isinstance(obj, np.random.SeedSequence):
        return {
            "__seedsequence__": {
                "entropy": canonicalize(obj.entropy),
                "spawn_key": [canonicalize(k) for k in obj.spawn_key],
            }
        }
    if isinstance(obj, dict):
        out = {}
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(
                    f"cache-config dict keys must be str, got {key!r}"
                )
            out[key] = canonicalize(obj[key])
        return out
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    hook = getattr(type(obj), "__canonical__", None)
    if hook is not None:
        # Objects with derived state (compiled kernels, whose __dict__
        # drags in megabytes of tables and lazy-fill bookkeeping) declare
        # their value identity explicitly; the returned tree is
        # canonicalized recursively.
        return canonicalize(hook(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__type__": _qualname(type(obj)), **fields}
    # Plain objects (Distribution, EdgeDelayModel, AdmissionPolicy, ...):
    # their identity is (class, attribute dict).
    state = getattr(obj, "__dict__", None)
    if state is not None:
        return {
            "__type__": _qualname(type(obj)),
            "state": canonicalize(dict(state)),
        }
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for a cache key; "
        "use JSON-friendly values, NumPy data, dataclasses, or plain objects"
    )


def canonical_json(obj: Any) -> str:
    """Serialise :func:`canonicalize`'s output with a byte-stable encoding."""
    return json.dumps(
        canonicalize(obj),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def content_digest(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def function_qualname(fn: Callable) -> str:
    """The stable dotted name identifying a task function in cache keys."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<lambda>" in qualname:
        raise TypeError(
            f"task functions must be importable module-level callables "
            f"(got {fn!r}); lambdas and locals cannot name a cache entry"
        )
    return f"{module}.{qualname}"
