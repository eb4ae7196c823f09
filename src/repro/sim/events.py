"""Event loop and time model of the virtual-time substrate."""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..config import SimConfig
from ..errors import NodeCrashed, RpcTimeout, SimFault

#: A heap entry: ``(time, seq, node, fn, args, period)``.  Ordering is
#: decided by C tuple comparison on ``(time, seq)`` — ``seq`` is unique per
#: entry, so nothing after it is ever compared.  ``period`` is ``None`` for
#: a one-shot handler and ``(interval, jitter)`` for an :meth:`SimEnv.every`
#: chain, which :meth:`SimEnv.run` re-pushes after each firing.
_Entry = Tuple[float, int, Any, Callable, tuple, Optional[Tuple[float, float]]]


class SimEnv:
    """The simulated world: clock, event heap, network parameters, RNG.

    One ``SimEnv`` corresponds to one run of one workload.  Nodes register
    themselves on construction; the workload schedules client operations and
    calls :meth:`run`.
    """

    #: Safety valve: a saturated cascade can schedule unbounded work.  Runs
    #: stop (with ``saturated = True``) after this many events.
    MAX_EVENTS = 250_000

    def __init__(self, sim_config: Optional[SimConfig] = None, seed: int = 0) -> None:
        self.cfg = sim_config or SimConfig()
        self.rng = random.Random(seed)
        self._heap: List[_Entry] = []
        self._seq = 0
        #: Current virtual time: the running handler's (or ``rpc`` callee's)
        #: cursor, which :meth:`spin` and :meth:`rpc` advance; the loop time
        #: when no handler runs.
        self.now = 0.0
        #: Nodes of the running handler and its nested ``rpc`` callees,
        #: innermost last; empty outside a handler.
        self._running: List[Any] = []
        self.nodes: List[Any] = []
        self.saturated = False
        self.events_processed = 0
        #: Crash watermarks: node -> the ``seq`` below which its events
        #: are dropped (see :meth:`cancel_events_for`).  Empty unless a
        #: node crashed.
        self._dropped_before: Dict[Any, int] = {}
        #: Set of frozensets({a, b}) of node names that cannot communicate.
        self._partitions: set = set()
        #: Per-link probabilistic datagram loss: frozenset({a, b}) ->
        #: (drop probability, dedicated seeded RNG).  Installed by the
        #: msg_drop fault model; empty in fault-free runs, so ``send``
        #: never draws from it (profile runs stay untouched).
        self._drop_rules: dict = {}
        #: The run's instrumentation runtime, for whoever holds only the
        #: environment; the environment itself never reads it.
        self.runtime: Any = None

    # ------------------------------------------------------------------ time

    def spin(self, ms: float) -> None:
        """Charge ``ms`` of processing cost to the running node (outside
        any handler: advance the world clock)."""
        if ms < 0:
            raise ValueError("cannot spin a negative duration")
        self.now += ms

    # ------------------------------------------------------------- scheduling

    def schedule_at(self, at: float, node: Any, fn: Callable, *args: Any) -> None:
        if at < 0.0:
            at = 0.0
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (at, seq, node, fn, args, None))

    def after(self, node: Any, delay_ms: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn`` on ``node`` at ``now + delay_ms``."""
        self.schedule_at(self.now + delay_ms, node, fn, *args)

    def cancel_events_for(self, node: Any) -> None:
        """Cancel every pending event targeting ``node`` (crash semantics:
        a crashed node's scheduled work is dropped, even work whose fire
        time falls beyond a later restart).

        Every pending event was scheduled under a ``seq`` below the
        current one (a busy-deferred event keeps its ``seq``), so one
        watermark per node replaces a scan of the heap; :meth:`run`
        drops the events when it pops them.
        """
        self._dropped_before[node] = self._seq

    def every(self, node: Any, interval_ms: float, fn: Callable, jitter_ms: float = 0.0) -> None:
        """Fixed-delay periodic handler: the next firing is scheduled
        ``interval`` (plus a ``jitter * rng.random()`` draw) after the
        previous one *finishes*, so a busy node's period genuinely
        stretches (heartbeats fall behind under load).  The chain ends
        when ``fn`` raises a :class:`SimFault` or leaves ``node`` crashed.
        """
        at = self.now + interval_ms
        if at < 0.0:
            at = 0.0
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (at, seq, node, fn, (), (interval_ms, jitter_ms)))

    # -------------------------------------------------------------- execution

    def run(self, until_ms: Optional[float] = None) -> None:
        """Process events in time order until the heap drains or ``until_ms``."""
        horizon = until_ms if until_ms is not None else self.cfg.run_duration_ms
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        running = self._running
        dropped = self._dropped_before
        max_events = self.MAX_EVENTS
        loop_time = self.now
        try:
            while heap:
                if self.events_processed >= max_events:
                    self.saturated = True
                    break
                entry = heappop(heap)
                time, seq, node, fn, args, period = entry
                if dropped and seq < dropped.get(node, 0):
                    continue
                if time > horizon:
                    # Leave it for a later run() call with a larger horizon.
                    heappush(heap, entry)
                    break
                if time > loop_time:
                    loop_time = time
                if getattr(node, "crashed", False):
                    continue
                busy = getattr(node, "busy_until", 0.0)
                if busy > time + 1e-9:
                    # The node is still busy: defer the handler in the heap so
                    # world time stays consistent (running it "late" from here
                    # would reserve other nodes' idle time out of order).
                    heappush(heap, (busy, seq, node, fn, args, period))
                    continue
                self.events_processed += 1
                self.now = busy if busy > time else time
                running.append(node)
                try:
                    fn(*args)
                    if period is not None:
                        interval, jitter = period
                        if jitter:
                            # ``rng.uniform(0.0, jitter)`` minus the call:
                            # the same draw from the seeded stream and the
                            # same float.
                            interval += jitter * self.rng.random()
                        if not getattr(node, "crashed", False):
                            seq = self._seq
                            self._seq = seq + 1
                            heappush(heap, (self.now + interval, seq, node, fn, args, period))
                except SimFault:
                    # An unhandled fault terminates the handler (and ends a
                    # periodic chain), nothing more: the mini-systems model
                    # their own error handling explicitly.
                    pass
                finally:
                    running.pop()
                    if node is not None:
                        end = self.now
                        node.busy_until = end if end > busy else busy
            if not heap and horizon > loop_time:
                loop_time = horizon
        finally:
            self.now = loop_time

    def close(self) -> None:
        """Tear the finished run's world down so reference counting frees it.

        Nodes hold the environment and each other (peers, clients, the
        runtime), and pending heap entries hold handlers bound to them, so
        a finished world is one big cycle.  Closing drops the heap, the
        running stack, crash watermarks, partitions, drop rules and
        ``runtime``, and empties every registered node.  What was read
        before, ``saturated`` and ``events_processed``, stays.

        Use after close is loud, not checked: reading any attribute of a
        registered node (its ``name``, ``crashed``, its peers) raises
        ``AttributeError``.  :meth:`run`, :meth:`schedule_at` and
        :meth:`rpc` test for no "closed" state, so no event pays for this.
        """
        for node in self.nodes:
            vars(node).clear()
        self._heap.clear()
        self._running.clear()
        self._dropped_before.clear()
        self._partitions.clear()
        self._drop_rules.clear()
        self.runtime = None

    # ---------------------------------------------------------------- network

    def partition_names(self, a: str, b: str) -> None:
        """Cut the link between the nodes named ``a`` and ``b`` (fault
        models hold node names, not node objects)."""
        self._partitions.add(frozenset((a, b)))

    def heal_names(self, a: str, b: str) -> None:
        self._partitions.discard(frozenset((a, b)))

    def node_named(self, name: str) -> Optional[Any]:
        """The registered node called ``name``, or ``None``."""
        for node in self.nodes:
            if node.name == name:
                return node
        return None

    def set_drop_rule(self, a: str, b: str, drop_p: float, seed: int) -> None:
        """Install probabilistic datagram loss on the ``{a, b}`` link.

        Draws come from a dedicated RNG seeded with ``seed`` — never from
        ``self.rng`` — so installing a rule does not perturb the latency
        and jitter stream shared with the fault-free counterfactual run.
        """
        self._drop_rules[frozenset((a, b))] = (drop_p, random.Random(seed))

    def reachable(self, src: Any, dst: Any) -> bool:
        if getattr(dst, "crashed", False) or getattr(src, "crashed", False):
            return False
        return frozenset((src.name, dst.name)) not in self._partitions

    def send(self, dst: Any, fn: Callable, *args: Any) -> None:
        """One-way message: schedule ``fn`` on ``dst`` after network latency."""
        running = self._running
        src = running[-1] if running else None
        if src is not None and not self.reachable(src, dst):
            return  # silently dropped, like a partitioned datagram
        if self._drop_rules and src is not None:
            rule = self._drop_rules.get(frozenset((src.name, dst.name)))
            if rule is not None and rule[1].random() < rule[0]:
                return  # injected datagram loss (msg_drop fault model)
        latency = self.cfg.network_latency_ms
        if self.cfg.network_jitter_ms:
            latency += self.cfg.network_jitter_ms * self.rng.random()
        self.schedule_at(self.now + latency, dst, fn, *args)

    def rpc(self, dst: Any, fn: Callable, *args: Any, timeout_ms: Optional[float] = None) -> Any:
        """Synchronous RPC with virtual-time accounting.

        The callee runs immediately (same Python stack) but is charged to the
        callee node starting at ``max(arrival, dst.busy_until)``; the caller's
        cursor jumps to the accounted reply time.  If the accounted round
        trip exceeds the timeout the caller sees :class:`RpcTimeout` — the
        callee's work still happened (it was merely too slow), which is the
        overload behaviour cascading failures exploit.  A callee that
        raises :class:`NodeCrashed` (a node the call depends on died under
        it) never replies: the caller is charged the full timeout, as for
        an unreachable callee.

        Both latency legs draw ``latency + jitter * rng.random()`` — the
        draw and the float of ``rng.uniform(0.0, jitter)`` without the call,
        so the seeded stream profile and injection runs share is untouched.
        """
        cfg = self.cfg
        timeout = timeout_ms if timeout_ms is not None else cfg.rpc_timeout_ms
        running = self._running
        if not running:
            raise RuntimeError("rpc() must be called from inside a handler")
        t_call = self.now
        src = running[-1]
        if (
            getattr(dst, "crashed", False)
            or getattr(src, "crashed", False)
            or (self._partitions and frozenset((src.name, dst.name)) in self._partitions)
        ):
            self.now = t_call + timeout
            raise RpcTimeout("%s -> %s unreachable" % (src.name, dst.name))
        latency = cfg.network_latency_ms
        jitter = cfg.network_jitter_ms
        rng = self.rng
        arrival = t_call + (latency + jitter * rng.random() if jitter else latency)
        busy = getattr(dst, "busy_until", 0.0)
        self.now = busy if busy > arrival else arrival
        running.append(dst)
        try:
            try:
                result = fn(*args)
            finally:
                end = self.now
                self.now = t_call
                running.pop()
                dst.busy_until = end if end > busy else busy
        except NodeCrashed as exc:
            self.now = t_call + timeout
            raise RpcTimeout("rpc %s -> %s: %s" % (src.name, dst.name, exc))
        except SimFault:
            # The fault travels back like a reply.  In time, it is re-raised
            # bare from here: no local keeps it, so no exception ->
            # traceback -> frame cycle outlives the call.
            reply_at = end + (latency + jitter * rng.random() if jitter else latency)
            if reply_at - t_call <= timeout:
                self.now = reply_at
                raise
        else:
            reply_at = end + (latency + jitter * rng.random() if jitter else latency)
            if reply_at - t_call <= timeout:
                self.now = reply_at
                return result
        self.now = t_call + timeout
        raise RpcTimeout(
            "rpc %s -> %s took %.0fms (> %.0fms)" % (src.name, dst.name, reply_at - t_call, timeout)
        )
