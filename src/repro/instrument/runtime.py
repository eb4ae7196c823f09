"""Runtime agent: fault injection hooks and trace recording.

Mini-system code calls these hooks at its declared sites:

* ``with rt.function("Cls.method"):`` — call-stack frame (2-call-site
  sensitivity for local states);
* ``if rt.branch("site", cond):`` — monitor point, records the outcome
  locally (within the enclosing loop iteration or function);
* ``for x in rt.loop("site", items):`` / ``while rt.loop_guard("site", c):``
  — iteration counting, per-iteration local states, delay injection;
* ``rt.throw_point("site", ExcCls, natural=cond)`` — throw point: raises
  when the guard is naturally true or when an exception injection is armed;
* ``value = rt.detector("site", value)`` — error detector: records natural
  error returns and applies negation injection.

The runtime is deliberately cheap when ``enabled=False`` so the §8.5
overhead experiment can compare instrumented vs bare execution.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, ContextManager, Dict, Iterable, Iterator, List, Optional, Type

from ..config import MAX_STATES_PER_SITE
from ..errors import SimFault, UnknownSite
from ..types import DELAY, EXCEPTION, NEGATION, FaultKey, LocalState
from .plan import InjectionPlan
from .sites import SiteRegistry
from .trace import FaultEvent, RunTrace

_ROOT = "<root>"
_NO_STACK = (_ROOT, _ROOT)
# ``Counter`` defines ``__delitem__`` in Python, which sends every subscript
# store on it through CPython's slot wrapper, and a missing key through
# ``Counter.__missing__``: the hooks count through dict's own methods.
_get_count = dict.get
_set_count = dict.__setitem__


class _Path:
    """A node of the run's trie of branch paths: the ``(site, outcome)``
    pairs recorded from the root (the empty path) to here.

    A scope's branch trace is a pointer to its node, so recording a branch
    steps the pointer along one edge and closing an iteration compares and
    hashes a node by identity, never a tuple.  Each path is built once per
    run, the first time any scope takes it.
    """

    __slots__ = ("parent", "site", "outcome", "taken", "not_taken", "path")

    def __init__(self, parent: Optional["_Path"], site: Optional[str], outcome: bool) -> None:
        self.parent = parent
        self.site = site
        self.outcome = outcome
        #: The child reached by each branch site, per outcome.
        self.taken: Dict[str, "_Path"] = {}
        self.not_taken: Dict[str, "_Path"] = {}
        #: The pairs as a tuple, ``None`` until :meth:`spell` is first asked.
        self.path: Optional[tuple] = () if parent is None else None

    def spell(self) -> tuple:
        """Build ``path`` from the nearest node above that has one, and keep
        it: a scope that records n branches costs O(n), as a list would,
        not a tuple per prefix."""
        steps = []
        node = self
        while node.path is None:
            steps.append((node.site, node.outcome))
            node = node.parent
        steps.reverse()
        path = self.path = node.path + tuple(steps)
        return path


class _Scope:
    """A local branch-recording scope: a function body or loop iteration.

    ``owner`` is ``None`` for a function-body scope and the loop site id for
    an iteration scope; ``node`` is the path recorded in it so far.  A
    ``for`` loop's scope serves all its iterations (reset as each one
    closes) and, kept in its frame's ``loops`` table, the later entries of
    the loop too; its ``seen`` holds the paths it already offered to the
    trace (``None`` for the other scopes).
    """

    __slots__ = ("owner", "node", "seen")

    def __init__(self, owner: Optional[str], node: _Path, seen: Optional[set] = None) -> None:
        self.owner = owner
        self.node = node
        self.seen = seen


class _Frame:
    """A node of the run's calling-context tree: one chain of call sites,
    serving every invocation along it.  Entering pushes it; leaving pops
    it and empties what the body recorded.

    A node is only ever pushed on top of its caller's node (the root's
    callees on an empty stack), so a chain is on the stack at most once at
    a time and a site called under itself extends the chain to another
    node: no two live invocations share ``scopes``.
    """

    __slots__ = ("site", "scopes", "above", "callees", "loops", "empty", "_stack")

    def __init__(self, stack: List["_Frame"], site: str, above: tuple, empty: _Path) -> None:
        self._stack = stack
        self.site = site
        #: The root of the run's path trie, where every scope starts.
        self.empty = empty
        #: ``scopes[0]`` is the function body and is never removed.
        self.scopes: List[_Scope] = [_Scope(None, empty)]
        #: The two call-stack levels above this frame (2-call-site
        #: sensitivity) — a property of the chain, computed once.
        self.above = above
        self.callees: Dict[str, "_Frame"] = {}
        #: The idle iteration scope of each ``for`` loop site of the body
        #: (a running loop holds its scope, so a nested or still-suspended
        #: loop at the same site gets a fresh one).
        self.loops: Dict[str, _Scope] = {}

    def __enter__(self) -> None:
        self._stack.append(self)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._stack.pop()
        # The next invocation starts as a new frame would: no scope an
        # abandoned ``while`` left behind, no branch of this body.
        scopes = self.scopes
        if len(scopes) > 1:
            del scopes[1:]
        scopes[0].node = self.empty


_DISABLED_FRAME = nullcontext()


class Runtime:
    """Injection + monitoring agent for one run of one workload."""

    def __init__(
        self,
        registry: SiteRegistry,
        trace: Optional[RunTrace] = None,
        plan: Optional[InjectionPlan] = None,
        env: Any = None,
        enabled: bool = True,
    ) -> None:
        self.registry = registry
        self.trace = trace if trace is not None else RunTrace(test_id="<untracked>")
        self.plan = plan
        self.env = env
        self.enabled = enabled
        self._frames: List[_Frame] = []
        # The trie is this run's own, so ``branch`` meets a site for the
        # first time exactly when it builds an edge for it.
        self._empty = _Path(None, None, False)
        #: Caller of the entry frames and holder of the scopes of loops run
        #: on an empty stack; never pushed, so ``branch`` never records here.
        self._root = _Frame(self._frames, _ROOT, _NO_STACK, self._empty)
        self._exception_fired = False
        self._negation_fired = False
        self._injected_delay_iters = 0
        # A run arms at most one site, so the armed-site test is resolved
        # here once: a hook compares its site id against the one slot of its
        # own kind (``None`` when the plan arms another kind, an environment
        # fault, or nothing) and every other site misses on that compare.
        kind = plan.fault.kind if plan is not None else None
        self._exception_site = plan.site_id if kind == EXCEPTION else None
        self._delay_site = plan.site_id if kind == DELAY else None
        self._negation_site = plan.site_id if kind == NEGATION else None
        self._warmup_ms = plan.warmup_ms if plan is not None else 0.0
        self._detector_meta: dict = {}
        # This run's natural fault events of each kind, keyed by what fixes
        # the event's local state: the calling-context node, the path-trie
        # node and the site.  Both trees are the run's own, so a key met
        # again names an equal event, and the trace records that one again.
        self._natural_exceptions: Dict[tuple, FaultEvent] = {}
        self._natural_negations: Dict[tuple, FaultEvent] = {}

    def bind_env(self, env: Any) -> None:
        """Attach the simulation environment (needed for delay injection)."""
        self.env = env

    def close(self) -> None:
        """Unlink the finished run's path trie and environment, so reference
        counting frees them: each trie node holds its children and each
        child its parent, and the environment holds this runtime back.

        ``trace`` stays whole; it is what the run returns.  Use after close
        is not checked here: hooks are reached through nodes, and every
        node of a closed :class:`~repro.sim.SimEnv` raises
        ``AttributeError`` when touched.
        """
        paths = [self._empty]
        for node in paths:
            paths.extend(node.taken.values())
            paths.extend(node.not_taken.values())
            node.taken.clear()
            node.not_taken.clear()
        self._natural_exceptions.clear()
        self._natural_negations.clear()
        self.env = None

    # ------------------------------------------------------------- internals

    def _now(self) -> float:
        return self.env.now if self.env is not None else 0.0

    def _spin(self, ms: float) -> None:
        if self.env is not None:
            self.env.spin(ms)

    def _local_state(self) -> LocalState:
        frames = self._frames
        if not frames:
            return LocalState(_NO_STACK, ())
        node = frames[-1].scopes[-1].node
        path = node.path
        return LocalState(frames[-1].above, path if path is not None else node.spell())

    def _record_natural(self, events: Dict[tuple, FaultEvent], site_id: str, kind: str) -> None:
        """Record a natural occurrence of ``site_id``'s fault in the current
        local state: a table probe, and the event is built the first time
        the run meets its key.  On an empty stack the root frame and the
        empty path stand for the no-stack state."""
        frames = self._frames
        if frames:
            frame = frames[-1]
            node = frame.scopes[-1].node
        else:
            frame, node = self._root, self._empty
        key = (frame, node, site_id)
        event = events.get(key)
        if event is None:
            path = node.path
            state = LocalState(frame.above, path if path is not None else node.spell())
            event = events[key] = FaultEvent(FaultKey(site_id, kind), state, False)
        self.trace.events.append(event)

    def _exception_due(self) -> bool:
        """Whether the one-time exception injection (already matched to
        its site) is past warm-up and has not fired yet."""
        return not self._exception_fired and self._now() >= self._warmup_ms

    def _record_state(self, site_id: str, above: tuple, node: _Path) -> None:
        """Offer an iteration state to the trace, which keeps the first
        ``MAX_STATES_PER_SITE`` of each site.  A site's set only grows, so
        offering a state again changes nothing."""
        states = self.trace.loop_states.setdefault(site_id, set())
        if len(states) < MAX_STATES_PER_SITE:
            path = node.path
            states.add(LocalState(above, path if path is not None else node.spell()))

    # ----------------------------------------------------------- call stack

    def function(self, site_id: str) -> ContextManager[None]:
        """An instrumented function frame, pushed for the ``with`` body."""
        if not self.enabled:
            return _DISABLED_FRAME
        frames = self._frames
        caller = frames[-1] if frames else self._root
        try:
            return caller.callees[site_id]
        except KeyError:
            frame = _Frame(frames, site_id, (caller.site, caller.above[0]), self._empty)
            caller.callees[site_id] = frame
            return frame

    # -------------------------------------------------------------- branches

    def branch(self, site_id: str, cond: Any) -> bool:
        """Record a monitor-point branch outcome; returns ``bool(cond)``."""
        outcome = True if cond else False
        if not self.enabled:
            return outcome
        trace = self.trace
        frames = self._frames
        if not frames:
            trace.reached.add(site_id)
            return outcome
        scope = frames[-1].scopes[-1]
        node = scope.node
        children = node.taken if outcome else node.not_taken
        try:
            scope.node = children[site_id]
        except KeyError:
            scope.node = children[site_id] = _Path(node, site_id, outcome)
            trace.reached.add(site_id)
        return outcome

    # ----------------------------------------------------------------- loops

    def loop(self, site_id: str, iterable: Iterable) -> Iterator:
        """Instrumented ``for`` loop: counts iterations, records local
        per-iteration states, and applies armed delay injection at the top
        of every iteration."""
        if not self.enabled:
            for item in iterable:
                yield item
            return
        delay = None
        if site_id == self._delay_site and self._now() >= self._warmup_ms:
            delay = self.plan.delay_ms
        frames = self._frames
        frame = frames[-1] if frames else self._root
        scopes, empty = frame.scopes, frame.empty
        scope = frame.loops.pop(site_id, None)
        if scope is None:
            scope = _Scope(site_id, empty, set())
        seen = scope.seen
        # Once a state was offered to the trace, offering it again changes
        # nothing: it was recorded, or the site's cap is hit.  The scope's
        # frame and site are fixed, so its path nodes stand for its states;
        # the branch-free one is looked up once per loop entry.
        offer = True
        count = 0
        # The scope stays pushed from the first item to the end of the loop
        # (so the iterable's own ``next()`` runs under it).
        scopes.append(scope)
        try:
            for item in iterable:
                count += 1
                if delay:
                    self._spin(delay)
                    self._injected_delay_iters += 1
                try:
                    yield item
                finally:
                    if scopes[-1] is not scope:
                        if scope in scopes:
                            # Inner scopes a ``break`` or exception abandoned.
                            del scopes[scopes.index(scope) + 1:]
                        else:
                            # A ``loop_guard`` truncated below this scope (its
                            # site owns an enclosing scope too, or this
                            # iterator was suspended): the next iteration
                            # records here again, a closing one pops it below.
                            scopes.append(scope)
                    node = scope.node
                    if node is not empty:
                        scope.node = empty
                        if node not in seen:
                            seen.add(node)
                            self._record_state(site_id, frame.above, node)
                    elif offer:
                        offer = False
                        if empty not in seen:
                            seen.add(empty)
                            self._record_state(site_id, frame.above, empty)
        finally:
            # Exhausted, closed by ``break`` / an unwinding exception, or
            # closed late: a scope someone else removed is left alone.
            if scopes[-1] is scope:
                scopes.pop()
            elif scope in scopes:
                del scopes[scopes.index(scope):]
            # Drops what the iterable's exhausting ``next()`` recorded.
            scope.node = empty
            frame.loops[site_id] = scope
            if count:
                counts = self.trace.loop_counts
                total = _get_count(counts, site_id)
                if total is None:  # a site is reached with its first count
                    self.trace.reached.add(site_id)
                    total = 0
                _set_count(counts, site_id, total + count)

    def loop_guard(self, site_id: str, cond: Any) -> bool:
        """Instrumented ``while`` guard.

        Counts an iteration each time the guard evaluates true.  The scope
        of the previous iteration of *this* loop (identified by owner tag)
        is closed and its state recorded; abandoned scopes of inner loops
        exited via exceptions are discarded along the way.
        """
        outcome = True if cond else False
        if not self.enabled:
            return outcome
        frames = self._frames
        scopes = frames[-1].scopes if frames else None
        if scopes is not None:
            for i in range(len(scopes) - 1, 0, -1):
                if scopes[i].owner == site_id:
                    node = scopes[i].node
                    del scopes[i:]
                    self._record_state(site_id, frames[-1].above, node)
                    break
        if not outcome:
            return False
        counts = self.trace.loop_counts
        total = _get_count(counts, site_id)
        if total is None:
            self.trace.reached.add(site_id)
            total = 0
        _set_count(counts, site_id, total + 1)
        if scopes is not None:
            scopes.append(_Scope(site_id, self._empty))
        if site_id == self._delay_site and self._now() >= self._warmup_ms:
            self._spin(self.plan.delay_ms or 0.0)
            self._injected_delay_iters += 1
        return True

    # ------------------------------------------------------------ exceptions

    def throw_point(
        self,
        site_id: str,
        exc_cls: Type[SimFault],
        natural: Any = False,
    ) -> None:
        """Throw point / library-call site.

        Raises ``exc_cls`` if the natural guard holds; raises a one-time
        injected instance if an exception injection is armed for this site.
        """
        if not self.enabled:
            if natural:
                raise exc_cls("natural fault at %s" % site_id)
            return
        trace = self.trace
        trace.reached.add(site_id)
        if site_id == self._exception_site and self._exception_due():
            self._exception_fired = True
            key = FaultKey(site_id, EXCEPTION)
            trace.record_event(FaultEvent(key, self._local_state(), injected=True))
            # Raise the *same* exception type the site naturally throws so
            # the system's own handlers catch it (software-implemented fault
            # injection: we inject the effect, not a marker).
            raise exc_cls("injected fault at %s" % site_id)
        if natural:
            self._record_natural(self._natural_exceptions, site_id, EXCEPTION)
            raise exc_cls("natural fault at %s" % site_id)

    def lib_call(self, site_id: str, exc_cls: Type[SimFault], fn, *args, **kwargs):
        """Library-call exception site (§4.1).

        The site is *reached* on every invocation (which is where the paper
        injects the declared exception), an armed exception injection fires
        one-time instead of calling the library, and a natural raise of the
        declared exception type is recorded as a fault occurrence before
        propagating.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        trace = self.trace
        trace.reached.add(site_id)
        if site_id == self._exception_site and self._exception_due():
            self._exception_fired = True
            key = FaultKey(site_id, EXCEPTION)
            trace.record_event(FaultEvent(key, self._local_state(), injected=True))
            raise exc_cls("injected fault at %s" % site_id)
        try:
            return fn(*args, **kwargs)
        except exc_cls:
            self._record_natural(self._natural_exceptions, site_id, EXCEPTION)
            raise

    def rpc_call(self, site_id: str, exc_cls: Type[SimFault], fn, *args, **kwargs):
        """RPC invocation site with *response-loss* injection semantics.

        Like :meth:`lib_call`, but an armed exception injection lets the
        remote call **execute first** and then raises the declared
        exception — the fault effect of a ``SocketTimeoutException`` on a
        completed-but-slow RPC (request delivered, response lost).  This is
        the code path retry-duplication cascades (e.g. HDFS IBR resends)
        feed on; injecting before the call would simulate a connect failure
        instead and mask them.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        trace = self.trace
        trace.reached.add(site_id)
        armed = site_id == self._exception_site and self._exception_due()
        try:
            result = fn(*args, **kwargs)
        except exc_cls:
            self._record_natural(self._natural_exceptions, site_id, EXCEPTION)
            raise
        if armed:
            self._exception_fired = True
            key = FaultKey(site_id, EXCEPTION)
            trace.record_event(FaultEvent(key, self._local_state(), injected=True))
            raise exc_cls("injected response loss at %s" % site_id)
        return result

    # ------------------------------------------------------------- detectors

    def detector(self, site_id: str, value: Any) -> bool:
        """Error-detector site: returns the (possibly negated) value."""
        result = True if value else False
        if not self.enabled:
            return result
        trace = self.trace
        trace.reached.add(site_id)
        if (
            site_id == self._negation_site
            and not self._negation_fired
            and self._now() >= self._warmup_ms
        ):
            self._negation_fired = True
            key = FaultKey(site_id, NEGATION)
            trace.record_event(FaultEvent(key, self._local_state(), injected=True))
            return not result
        error_value = self._detector_meta.get(site_id)
        if error_value is None:
            try:
                meta = self.registry.get(site_id).detector
            except UnknownSite:
                meta = None
            error_value = meta.error_value if meta is not None else True
            self._detector_meta[site_id] = error_value
        if result == error_value:
            self._record_natural(self._natural_negations, site_id, NEGATION)
        return result
