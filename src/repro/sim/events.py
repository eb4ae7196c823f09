"""Event loop and activity model of the virtual-time substrate."""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..config import SimConfig
from ..errors import NodeCrashed, RpcTimeout, SimFault


class Event:
    """A scheduled handler invocation; cancellable.

    The heap holds ``(time, seq, event)`` tuples, so ordering is decided
    by C tuple comparison on ``(time, seq)`` — ``seq`` is unique per event,
    the event object itself is never compared.
    """

    __slots__ = ("time", "seq", "node", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, node: "Any", fn: Callable, args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.node = node
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _Activity:
    """One handler execution: a time cursor charged to a node."""

    __slots__ = ("node", "cursor")

    def __init__(self, node: "Any", cursor: float) -> None:
        self.node = node
        self.cursor = cursor


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
        #: ``(time, seq, event)`` entries; see :class:`Event`.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._loop_time = 0.0
        self._activities: List[_Activity] = []
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
        #: Hook the instrumentation runtime installs to observe spins.
        self.runtime: Any = None

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current virtual time: the active handler's cursor, else loop time."""
        activities = self._activities
        return activities[-1].cursor if activities else self._loop_time

    @property
    def current_node(self) -> Optional[Any]:
        return self._activities[-1].node if self._activities else None

    def spin(self, ms: float) -> None:
        """Charge ``ms`` of processing cost to the current activity's node."""
        if ms < 0:
            raise ValueError("cannot spin a negative duration")
        activities = self._activities
        if activities:
            activities[-1].cursor += ms
        else:  # outside any handler: advance the world clock
            self._loop_time += ms

    # ------------------------------------------------------------- scheduling

    def schedule_at(self, at: float, node: Any, fn: Callable, *args: Any) -> Event:
        if at < 0.0:
            at = 0.0
        seq = self._seq
        self._seq = seq + 1
        ev = Event(at, seq, node, fn, args)
        heapq.heappush(self._heap, (at, seq, ev))
        return ev

    def after(self, node: Any, delay_ms: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn`` on ``node`` at ``now + delay_ms``."""
        return self.schedule_at(self.now + delay_ms, node, fn, *args)

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

    def every(self, node: Any, interval_ms: float, fn: Callable, jitter_ms: float = 0.0) -> Event:
        """Fixed-delay periodic handler: the next firing is scheduled
        ``interval`` after the previous one *finishes*, so a busy node's
        period genuinely stretches (heartbeats fall behind under load)."""
        activities = self._activities

        def tick() -> None:
            fn()
            delay = interval_ms
            if jitter_ms:
                # ``rng.uniform(0.0, jitter_ms)`` minus the call: the same
                # draw from the seeded stream and the same float.
                delay += jitter_ms * self.rng.random()
            if not getattr(node, "crashed", False):
                now = activities[-1].cursor if activities else self._loop_time
                self.schedule_at(now + delay, node, tick)

        return self.after(node, interval_ms, tick)

    # -------------------------------------------------------------- execution

    def run(self, until_ms: Optional[float] = None) -> None:
        """Process events in time order until the heap drains or ``until_ms``."""
        horizon = until_ms if until_ms is not None else self.cfg.run_duration_ms
        heap = self._heap
        activities = self._activities
        dropped = self._dropped_before
        max_events = self.MAX_EVENTS
        while heap:
            if self.events_processed >= max_events:
                self.saturated = True
                break
            entry = heapq.heappop(heap)
            time, seq, ev = entry
            node = ev.node
            if ev.cancelled or (dropped and seq < dropped.get(node, 0)):
                continue
            if time > horizon:
                # Leave it for a later run() call with a larger horizon.
                heapq.heappush(heap, entry)
                break
            if time > self._loop_time:
                self._loop_time = time
            if getattr(node, "crashed", False):
                continue
            busy = getattr(node, "busy_until", 0.0)
            if busy > time + 1e-9:
                # The node is still busy: defer the handler in the heap so
                # world time stays consistent (running it "late" from here
                # would reserve other nodes' idle time out of order).
                ev.time = busy
                heapq.heappush(heap, (busy, seq, ev))
                continue
            self.events_processed += 1
            act = _Activity(node, busy if busy > time else time)
            activities.append(act)
            try:
                ev.fn(*ev.args)
            except SimFault:
                # An unhandled fault terminates the handler, nothing more: the
                # mini-systems model their own error handling explicitly.
                pass
            finally:
                activities.pop()
                if node is not None:
                    node.busy_until = act.cursor if act.cursor > busy else busy
        if not heap and horizon > self._loop_time:
            self._loop_time = horizon

    # ---------------------------------------------------------------- network

    def partition(self, a: Any, b: Any) -> None:
        self._partitions.add(frozenset((a.name, b.name)))

    def heal(self, a: Any, b: Any) -> None:
        self._partitions.discard(frozenset((a.name, b.name)))

    def partition_names(self, a: str, b: str) -> None:
        """Name-based :meth:`partition` (environment fault models hold
        node names, not node objects)."""
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
        src = self.current_node
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
        overload behaviour cascading failures exploit.

        Both latency legs draw ``latency + jitter * rng.random()`` — the
        draw and the float of ``rng.uniform(0.0, jitter)`` without the call,
        so the seeded stream profile and injection runs share is untouched.
        """
        cfg = self.cfg
        timeout = timeout_ms if timeout_ms is not None else cfg.rpc_timeout_ms
        activities = self._activities
        if not activities:
            raise RuntimeError("rpc() must be called from inside a handler")
        caller = activities[-1]
        t_call = caller.cursor
        src = caller.node
        if (
            getattr(dst, "crashed", False)
            or getattr(src, "crashed", False)
            or (self._partitions and frozenset((src.name, dst.name)) in self._partitions)
        ):
            caller.cursor = t_call + timeout
            raise RpcTimeout("%s -> %s unreachable" % (src.name, dst.name))
        latency = cfg.network_latency_ms
        jitter = cfg.network_jitter_ms
        draw = self.rng.random
        arrival = t_call + (latency + jitter * draw() if jitter else latency)
        busy = getattr(dst, "busy_until", 0.0)
        dst_start = busy if busy > arrival else arrival
        act = _Activity(dst, dst_start)
        activities.append(act)
        error: Optional[SimFault] = None
        result: Any = None
        try:
            result = fn(*args)
        except NodeCrashed:
            error = None  # handled below as a timeout
            act.cursor = dst_start
        except SimFault as exc:
            error = exc
        finally:
            activities.pop()
            dst.busy_until = act.cursor if act.cursor > busy else busy
        reply_at = act.cursor + (latency + jitter * draw() if jitter else latency)
        if reply_at - t_call > timeout:
            caller.cursor = t_call + timeout
            raise RpcTimeout(
                "rpc %s -> %s took %.0fms (> %.0fms)" % (src.name, dst.name, reply_at - t_call, timeout)
            )
        caller.cursor = reply_at
        if error is not None:
            raise error
        return result
