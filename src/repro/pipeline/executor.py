"""Pluggable execution backends for independent pipeline work items.

An :class:`Executor` maps a function over a batch of independent items and
returns the results **in input order** — that ordering contract is what
lets the driver and the 3PA allocator commit parallel results
deterministically.  Two local backends ship here:

* :class:`SerialExecutor` — plain in-order loop (the reference semantics);
* :class:`ProcessExecutor` — ``ProcessPoolExecutor``-backed fan-out over
  worker *processes*, sidestepping the GIL.

Work handed to a parallel backend crosses a process (or, for the
manager's :class:`~repro.service.RemoteExecutor`, a machine) boundary,
so the driver and the profile stage always fan out module-level
callables over picklable by-name task descriptors (see :mod:`repro.core.driver`), never closures.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, Iterable, List, Optional, TypeVar

from ..config import BACKENDS

T = TypeVar("T")
R = TypeVar("R")


class Executor:
    """Strategy interface: ordered map over independent work items."""

    #: Degree of parallelism; callers may skip fan-out entirely when 1.
    max_workers: int = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (no-op by default)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-order, single-threaded execution (the reference backend)."""

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [fn(item) for item in items]


class ProcessExecutor(Executor):
    """``concurrent.futures`` process-pool execution, results in input order.

    Worker processes are expensive to start and warm per-process caches
    (target-system specs, profile run groups), so the pool persists across
    :meth:`map` calls and is released by :meth:`close` — one pool serves a
    whole campaign (profile fan-out plus the three 3PA flushes).  The pool
    is created lazily, so a closed executor transparently re-opens on its
    next ``map`` — and so does one whose pool a dying worker broke (the
    batch that saw it still raises ``BrokenProcessPool``).
    """

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers
            )
        return self._pool

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if not items:
            return []
        pool = self._ensure_pool()
        futures: List[concurrent.futures.Future] = []
        try:
            futures.extend(pool.submit(fn, item) for item in items)
            return [f.result() for f in futures]
        except concurrent.futures.BrokenExecutor:
            # A worker died (``os._exit``, an OOM kill): the pool fails every
            # later submit too, so the next ``map`` must open a new one.
            self.close()
            raise
        finally:
            # A task that raises fails its batch: what has not started yet
            # must not run (and be waited for by ``close``) before the
            # caller sees the error.  Cancelling a finished future is a no-op.
            for f in futures:
                f.cancel()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_executor(workers: int, backend: str = "process") -> Executor:
    """Build the backend named by ``backend`` with ``workers`` workers.

    ``workers <= 1`` (or ``backend="serial"``) always yields the serial
    reference backend — a one-worker pool adds overhead and nothing else.
    """
    if backend not in BACKENDS:
        raise ValueError(
            "unknown executor backend %r (choose from %s)" % (backend, ", ".join(BACKENDS))
        )
    if workers <= 1 or backend == "serial":
        return SerialExecutor()
    return ProcessExecutor(workers)
