"""Host-speed calibration: what a measured second was worth while it passed.

The hosts this benchmark runs on are small shared VMs whose speed wanders
by 20 % and more, over anything from milliseconds to minutes, with little
the guest can see of it: CPU time tracks wall time, steal is reported for
the worst episodes only, and there are no hardware counters.  Medians of
ten 20 s runs of one commit then spread by 7-32 % (README.md has the
figures), and no number of repetitions inside a run removes a drift that
outlasts the run.  The driver of ``BENCHMARK.json`` refuses a benchmark
whose runs spread by more than its bounds, so measured seconds alone
cannot be the gated numbers here.

So the benchmark measures the host *while* the program runs.  A real-time
interval timer (``SIGALRM``) interrupts the main thread every ``period``
seconds; the handler runs a fixed piece of pure-Python work, the chunk
(1-2 ms), and keeps the CPU time it cost.  Each sample is the host's
speed at that moment, ``1 / cost``, and the samples are spread evenly
over the interval, so for an interval that took ``T`` measured seconds

    nominal = T * NOMINAL_CHUNK_S * mean(1 / cost_i)

is the time the same work would have taken on a host that always runs the
chunk in ``NOMINAL_CHUNK_S``.  That constant only sets the unit (nominal
seconds read like this host's seconds when it is calm); two commits
measured on one host and interpreter are scaled by it alike.  The
measured seconds are printed beside the nominal ones and kept in
``--out`` with every factor.

What the chunk is, and why:

* It works the way the program does (small objects, a dict, a heap, a
  growing list, calls), because the host's slowness is mostly contention
  for memory: with an arithmetic-only loop of the same length in its
  place, ten runs of a serial workload spread by 6-13 %, with it by 3-4 %.
* The collector is off while it runs, so its garbage (all of it freed by
  reference count before the handler returns) neither starts a
  collection of the program's heap nor moves the program's next one.
* Its cost is thread CPU time, not wall time.  In a serial campaign the
  two agree; with the process backend the handler competes with the
  workers for a processor, and what it waits for one is not host speed:
  wall-time costs made the process workload spread *more* than measured
  seconds do (27 % against 14 %), CPU-time costs 3-7 %.

Why a signal and not a thread: a probing thread has to win the
interpreter lock from the program before it can measure anything, and
what it then measures is mostly that hand-over (its samples correlated
with the campaign wall at 0.5-0.8; the handler's correlate at 0.95).  The
handler runs in the program's own thread, between two of its bytecodes.

The mean is over speeds, not costs, so a sample during which the host
took the processor away counts as the near-zero speed it was.  The result
does not depend on how many samples were taken: a long call into C code
delays the handler and merges the signals that came due meanwhile, which
thins the samples there but does not bias them.

The chunk costs the program 3-5 % of its time, on every commit alike, in
traced and untraced reps alike.  Worker processes inherit no timer.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from typing import Any, List

#: Cost of one chunk on the nominal host, in seconds: about the median on
#: the host the benchmark was defined on, so that nominal seconds read
#: like that host's seconds.
NOMINAL_CHUNK_S = 1.5e-3

#: Seconds of real time between two samples.
PERIOD_S = 0.04


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _bump(x: int) -> int:
    return x + 1


def chunk() -> int:
    """Fixed interpreter-bound work in the program's own idiom: small
    objects, a dict, a heap, a growing list, function calls."""
    table = {}
    heap: List[Any] = []
    trail = []
    total = 0
    for i in range(2000):
        item = _Item(i, i * 3 % 11)
        table[i & 1023] = item
        total += _bump(item.b)
        heapq.heappush(heap, (item.b, i))
        if i & 3 == 0:
            heapq.heappop(heap)
        trail.append(total)
    return total


class HostCalibration:
    """Samples the cost of :func:`chunk` on a timer until closed.

    Must be entered and left on the main thread (signal handlers run there).
    """

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        #: CPU seconds each sampled chunk took, in time order (append-only).
        self.costs: List[float] = []
        self._sampling = False
        self._previous: Any = None

    def _sample(self, *_signal_args: Any) -> None:
        if self._sampling:  # a signal that came due during the chunk itself
            return
        self._sampling = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.thread_time()
            chunk()
            self.costs.append(time.thread_time() - t0)
        finally:
            if collecting:
                gc.enable()
            self._sampling = False

    def __enter__(self) -> "HostCalibration":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Position in the sample stream; pass it to :meth:`factor`."""
        return len(self.costs)

    def factor(self, start: int) -> float:
        """Nominal seconds per measured second since ``mark()`` gave ``start``.

        An interval too short to hold three samples is topped up on the spot.
        """
        while len(self.costs) - start < 3:
            self._sample()
        window = self.costs[start:]
        return NOMINAL_CHUNK_S * sum(1.0 / cost for cost in window) / len(window)
