"""Execution backends: the job runner's fan-out and the in-run scoring pool.

A backend turns "run this function over these items" into serial,
thread-parallel or process-parallel execution with identical semantics:
results come back in submission order and worker exceptions propagate to
the caller.  The GA itself is deterministic per seed, so the backend is
purely a throughput choice — every backend produces byte-identical
results for the same jobs.

Each layer has its own pool type:

* jobs fan out over :func:`create_backend`'s ``serial`` (in-process
  loop; zero overhead, the reference semantics) or ``process``
  (:class:`~concurrent.futures.ProcessPoolExecutor`; true multi-core
  fan-out, requires picklable functions and payloads; its workers start
  from a ``forkserver``, never as forks of the caller);
* in-run scoring (``eval_workers >= 2``) splits a batch over a
  :class:`ThreadBackend`: numpy releases the GIL, and the measures'
  bound state is shared rather than pickled.

A job-level thread pool and an in-run process pool won nowhere they
were measured, so neither is offered.
"""

from __future__ import annotations

import multiprocessing
import os
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial
from typing import TypeVar

from repro.exceptions import ServiceError

T = TypeVar("T")
R = TypeVar("R")


class ExecutionBackend(ABC):
    """Maps a function over payloads, preserving submission order."""

    name: str = "abstract"

    @abstractmethod
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Run ``fn`` over ``items``; results in order, exceptions raised."""

    def close(self) -> None:
        """Release the backend's pool, if it has one (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """In-process, one-at-a-time execution — the reference backend."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [fn(item) for item in items]


class _PoolBackend(ExecutionBackend):
    """Shared pool plumbing of the two pool-based backends.

    The pool is created lazily on the first :meth:`map` and *reused*
    across calls: callers like the batch evaluator map one small batch
    per GA generation, and paying a pool start (for processes, an
    interpreter start) per batch would dwarf the work itself.
    Both executors start their workers on demand, so a large
    ``max_workers`` with small batches never over-spawns.  ``close()``
    tears the pool down; an unclosed pool is reaped when the backend is
    garbage-collected or at interpreter exit.
    """

    _executor_factory: Callable = None  # type: ignore[assignment]

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            size = self.max_workers or os.cpu_count() or 1
            self._pool = type(self)._executor_factory(max_workers=size)
        return self._pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        if not items:
            return []
        return list(self._ensure_pool().map(fn, items))

    def close(self) -> None:
        """Shut the pool down (idempotent); the next map re-creates it."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class ThreadBackend(_PoolBackend):
    """Thread-pool execution; the in-run scoring pool (not a job backend)."""

    name = "thread"
    _executor_factory = ThreadPoolExecutor


#: How :class:`ProcessBackend` starts its workers.
_START_METHOD = (
    "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn"
)


class ProcessBackend(_PoolBackend):
    """Process-pool execution; full parallelism, picklable payloads only.

    Workers start from a ``forkserver`` (``spawn`` where the platform
    has none), never as forks of the caller.  A worker runs a claim
    heartbeat thread, and a fork taken while that thread sat inside a
    sqlite write inherited the write lock's per-process bookkeeping:
    the child then failed every write to the job store with ``database
    is locked``.  A worker keeps one pool for its life, so the slower
    start is paid once.
    """

    name = "process"
    _executor_factory = partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context(_START_METHOD)
    )


#: The job-level backends, by name.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
}


def create_backend(backend: str, max_workers: int | None = None) -> ExecutionBackend:
    """The job-level backend named ``backend``: ``serial`` or ``process``.

    ``max_workers`` caps the process pool's size and is rejected for
    ``serial``, where it could only mislead.
    """
    if backend not in BACKENDS:
        raise ServiceError(
            f"unknown backend {backend!r}; choose from {', '.join(sorted(BACKENDS))}"
        )
    if backend == SerialBackend.name:
        if max_workers not in (None, 1):
            raise ServiceError("serial backend does not take max_workers")
        return SerialBackend()
    return BACKENDS[backend](max_workers=max_workers)
