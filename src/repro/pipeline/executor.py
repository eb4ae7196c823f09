"""Pluggable execution backends for independent pipeline work items.

An :class:`Executor` maps a function over a batch of independent items and
returns the results **in input order** — that ordering contract is what
lets the driver and the 3PA allocator commit parallel results
deterministically.  Three backends ship by default:

* :class:`SerialExecutor` — plain in-order loop (the reference semantics);
* :class:`ParallelExecutor` — ``ThreadPoolExecutor``-backed fan-out over
  worker threads.  Workload runs build their own ``SimEnv`` and ``Runtime``
  per run and share no mutable state, so they are thread-safe; on
  free-threaded CPython builds this scales with cores, on GIL builds it
  still overlaps the numpy/scipy portions of FCA and clustering;
* :class:`ProcessExecutor` — ``ProcessPoolExecutor``-backed fan-out over
  worker *processes*, sidestepping the GIL entirely.  It advertises
  ``requires_pickling``, and callers that fan out closures (the driver, the
  profile stage) respond by sending picklable by-name task descriptors
  (see :mod:`repro.core.driver`) instead of bound methods.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, Iterable, List, Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: The executor backends accepted by :func:`make_executor` and the CLI.
#: ``remote`` is the distributed one: it ships task descriptors to a
#: ``repro serve`` manager whose agent fleet executes them
#: (:mod:`repro.service`).
BACKENDS = ("serial", "thread", "process", "remote")


class Executor:
    """Strategy interface: ordered map over independent work items."""

    #: Degree of parallelism; callers may skip fan-out entirely when 1.
    max_workers: int = 1

    #: True when work items cross a process boundary: callers must submit
    #: picklable module-level callables and task descriptors, not closures.
    requires_pickling: bool = False

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


class ParallelExecutor(Executor):
    """``concurrent.futures`` thread-pool execution, results in input order.

    The pool is scoped to each :meth:`map` call — campaigns issue a handful
    of large batches (profile fan-out, one flush per 3PA phase), so per-call
    pool setup is noise, and nothing leaks threads when callers (the CLI,
    benchmarks) drop the executor without closing it.
    """

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-exp"
        ) as pool:
            futures = [pool.submit(fn, item) for item in items]
            # Collect in submission order; re-raises the first worker error.
            return [f.result() for f in futures]


class ProcessExecutor(Executor):
    """``concurrent.futures`` process-pool execution, results in input order.

    Unlike the thread backend, worker processes are expensive to start and
    warm per-process caches (target-system specs, profile run groups), so
    the pool persists across :meth:`map` calls and is released by
    :meth:`close` — one pool serves a whole campaign (profile fan-out plus
    the three 3PA flushes).  The pool is created lazily, so a closed
    executor transparently re-opens on its next ``map``.
    """

    requires_pickling = True

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
        futures = [pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_executor(
    workers: int, backend: str = "thread", manager_url: Optional[str] = None
) -> Executor:
    """Build the backend named by ``backend`` with ``workers`` workers.

    ``workers <= 1`` (or ``backend="serial"``) always yields the serial
    reference backend — a one-worker pool adds overhead and nothing else.
    The ``remote`` backend ignores the local worker count (its parallelism
    is the agent fleet's) and requires ``manager_url``.
    """
    if backend not in BACKENDS:
        raise ValueError(
            "unknown executor backend %r (choose from %s)" % (backend, ", ".join(BACKENDS))
        )
    if backend == "remote":
        if not manager_url:
            raise ValueError("the remote backend needs a manager URL (--manager)")
        from ..service import HttpTransport, RemoteExecutor  # deferred: optional layer

        return RemoteExecutor(HttpTransport(manager_url), max_workers=max(2, workers))
    if workers <= 1 or backend == "serial":
        return SerialExecutor()
    if backend == "process":
        return ProcessExecutor(workers)
    return ParallelExecutor(workers)
