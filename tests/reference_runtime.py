"""The allocating runtime agent, kept as the tests' oracle.

This is ``src/repro/instrument/runtime.py`` as it stood on the commit
before frames became calling-context-tree nodes and a loop's scope was
pushed once (``_Scope`` / ``_Frame`` / ``Runtime`` verbatim, imports made
absolute): every ``rt.function`` constructs a frame, every ``for``
iteration pushes and pops its scope.  ``tests/property/
test_runtime_differential.py`` holds the runtime in ``src`` to it, trace
for trace.  Do not "fix" or speed it up — its quirks are the contract.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, ContextManager, Iterable, Iterator, List, Optional, Type

from repro.config import MAX_STATES_PER_SITE
from repro.errors import SimFault, UnknownSite
from repro.types import DELAY, EXCEPTION, NEGATION, FaultKey, LocalState
from repro.instrument.plan import InjectionPlan
from repro.instrument.sites import SiteRegistry
from repro.instrument.trace import FaultEvent, RunTrace

_ROOT = "<root>"
_NO_STACK = (_ROOT, _ROOT)


class _Scope:
    """A local branch-recording scope: a function body or loop iteration.

    ``owner`` is ``None`` for a function-body scope and the loop site id for
    an iteration scope.  A ``for`` loop reuses one scope for all of its
    iterations (emptied as each one closes), so ``branches`` is allocated
    per loop, not per iteration.
    """

    __slots__ = ("owner", "branches")

    def __init__(self, owner: Optional[str]) -> None:
        self.owner = owner
        self.branches: List[tuple] = []


class _Frame:
    """One function invocation on the instrumented call stack; entering
    it pushes it, leaving pops it."""

    __slots__ = ("site", "scopes", "above", "_stack")

    def __init__(self, stack: List["_Frame"], site: str) -> None:
        self._stack = stack
        self.site = site
        #: ``scopes[0]`` is the function body and is never removed.
        self.scopes: List[_Scope] = [_Scope(None)]
        #: The two call-stack levels above this frame (2-call-site
        #: sensitivity) — fixed for the frame's lifetime, so local-state
        #: recording reads it instead of re-walking the stack.
        self.above = (stack[-1].site, stack[-1].above[0]) if stack else _NO_STACK

    def __enter__(self) -> None:
        self._stack.append(self)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._stack.pop()


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
        # Iteration states already recorded, keyed by the raw
        # (site, stack, branches) tuples: repeat states of a hot loop skip
        # LocalState construction and dataclass hashing entirely.
        self._state_memo: set = set()
        self._detector_meta: dict = {}

    def bind_env(self, env: Any) -> None:
        """Attach the simulation environment (needed for delay injection)."""
        self.env = env

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
        return LocalState(frames[-1].above, tuple(frames[-1].scopes[-1].branches))

    def _exception_due(self) -> bool:
        """Whether the one-time exception injection (already matched to
        its site) is past warm-up and has not fired yet."""
        return not self._exception_fired and self._now() >= self._warmup_ms

    def _record_state(self, site_id: str, key: tuple) -> None:
        """Record an iteration state whose ``(site, stack, branches)`` key
        missed the memo."""
        states = self.trace.loop_states.setdefault(site_id, set())
        if len(states) < MAX_STATES_PER_SITE:
            self._state_memo.add(key)
            states.add(LocalState(key[1], key[2]))

    # ----------------------------------------------------------- call stack

    def function(self, site_id: str) -> ContextManager[None]:
        """An instrumented function frame, pushed for the ``with`` body."""
        if not self.enabled:
            return _DISABLED_FRAME
        return _Frame(self._frames, site_id)

    # -------------------------------------------------------------- branches

    def branch(self, site_id: str, cond: Any) -> bool:
        """Record a monitor-point branch outcome; returns ``bool(cond)``."""
        outcome = True if cond else False
        if not self.enabled:
            return outcome
        trace = self.trace
        trace.reached.add(site_id)
        if self._frames:
            self._frames[-1].scopes[-1].branches.append((site_id, outcome))
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
        counts, reached = self.trace.loop_counts, self.trace.reached
        if self._frames:
            frame = self._frames[-1]
            scopes, above = frame.scopes, frame.above
        else:
            scopes, above = None, _NO_STACK
        scope = _Scope(site_id)
        branches = scope.branches
        memo = self._state_memo
        no_branches = (site_id, above, ())
        for item in iterable:
            counts[site_id] += 1
            reached.add(site_id)
            if scopes is not None:
                scopes.append(scope)
            if delay:
                self._spin(delay)
                self._injected_delay_iters += 1
            try:
                yield item
            finally:
                if scopes is not None:
                    # Close this iteration, and with it any inner scope a
                    # ``break`` or exception abandoned above it.  A scope an
                    # enclosing ``loop_guard`` already removed (this
                    # iterator was still suspended then) is left alone.
                    if scopes[-1] is scope:
                        scopes.pop()
                    elif scope in scopes:
                        del scopes[scopes.index(scope):]
                if branches:
                    state = (site_id, above, tuple(branches))
                    del branches[:]
                else:
                    state = no_branches
                if state not in memo:
                    self._record_state(site_id, state)

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
        scopes = self._frames[-1].scopes if self._frames else None
        if scopes is not None:
            for i in range(len(scopes) - 1, 0, -1):
                if scopes[i].owner == site_id:
                    state = (site_id, self._frames[-1].above, tuple(scopes[i].branches))
                    del scopes[i:]
                    if state not in self._state_memo:
                        self._record_state(site_id, state)
                    break
        if not outcome:
            return False
        self.trace.loop_counts[site_id] += 1
        self.trace.reached.add(site_id)
        if scopes is not None:
            scopes.append(_Scope(site_id))
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
            key = FaultKey(site_id, EXCEPTION)
            trace.record_event(FaultEvent(key, self._local_state(), injected=False))
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
            key = FaultKey(site_id, EXCEPTION)
            trace.record_event(FaultEvent(key, self._local_state(), injected=False))
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
            key = FaultKey(site_id, EXCEPTION)
            trace.record_event(FaultEvent(key, self._local_state(), injected=False))
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
            and self._now() >= self._warmup_ms
            and not self._negation_fired
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
            key = FaultKey(site_id, NEGATION)
            trace.record_event(FaultEvent(key, self._local_state(), injected=False))
        return result

