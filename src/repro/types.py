"""Shared value types for the CSnake reproduction.

Everything downstream (instrumentation, fault causality analysis, budget
allocation, beam search) speaks in terms of the small frozen types defined
here: fault sites, fault keys, local program states, and causal edge types.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple


class SiteKind(enum.Enum):
    """Static classification of an instrumented program location."""

    THROW = "throw"  # explicit ``throw`` guarded by an if-statement
    LIB_CALL = "lib_call"  # invocation of a library function that may throw
    LOOP = "loop"  # workload-related loop (contention injection target)
    DETECTOR = "detector"  # boolean-returning system-specific error detector
    BRANCH = "branch"  # monitor point only (never injected)
    ENV_NODE = "env_node"  # environment site: one crashable cluster node
    ENV_LINK = "env_link"  # environment site: one severable node-pair link


#: The three paper kinds (§4.1, Table 1).  A fault kind is the ``kind_id``
#: of its registered model (``repro.faults``); these are the ids of the
#: classic models, spelled once so code can compare ``kind == DELAY``.
EXCEPTION = "exception"  # one-time throw at a THROW/LIB_CALL site
DELAY = "delay"  # per-iteration spinning delay at a LOOP site
NEGATION = "negation"  # negated return value at a DETECTOR site


class EdgeType(enum.Enum):
    """Causal relationship types between faults (Table 1 of the paper)."""

    E_D = "E(D)"  # delay injection -> additional exception/negation
    SP_D = "S+(D)"  # delay injection -> additional delay (loop count up)
    E_I = "E(I)"  # exception/negation injection -> exception/negation
    SP_I = "S+(I)"  # exception/negation injection -> additional delay
    ICFG = "ICFG"  # delay propagates from a nested loop to its parent
    CFG = "CFG"  # parent-loop delay propagates to a following sibling


@dataclass(frozen=True, order=True)
class FaultKey:
    """Identity of a fault: an injectable site plus its manifestation kind.

    ``kind`` is the registered ``kind_id`` of a fault model: a loop site
    manifests as a :data:`DELAY` fault, a throw site as an
    :data:`EXCEPTION`, a detector site as a :data:`NEGATION`.  The same key
    is used whether the fault is injected or observed as an interference,
    which is what lets the beam search stitch an observation in one test to
    an injection in another.  Keys sort by ``(site_id, kind)``.
    """

    site_id: str
    kind: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        try:  # the model's signature letter (C/P/X for environment kinds)
            from .faults import model_for

            char = model_for(self.kind).char
        except Exception:
            char = self.kind[0].upper()
        return "%s@%s" % (char, self.site_id)


@dataclass(frozen=True)
class LocalState:
    """Approximate path constraint attached to a fault occurrence (§6.2).

    ``call_stack`` holds the closest two call-stack levels above the fault's
    enclosing function (2-call-site sensitivity).  ``branch_trace`` holds the
    branch sites and outcomes evaluated *locally* — within the enclosing loop
    iteration if the fault sits in a loop, otherwise within the enclosing
    function invocation.
    """

    call_stack: Tuple[str, ...]
    branch_trace: Tuple[Tuple[str, bool], ...]

    def matches(self, other: "LocalState") -> bool:
        """Exact-match comparison used by the local compatibility check."""
        return self.call_stack == other.call_stack and self.branch_trace == other.branch_trace


#: A fault occurrence may be seen under several local states in one test
#: (e.g. a loop executes under different call stacks); compatibility holds
#: if *any* pair of states matches (the paper's "any loop iteration" rule).
StateSet = FrozenSet[LocalState]


def states_compatible(a: StateSet, b: StateSet) -> bool:
    """True if some state in ``a`` matches some state in ``b``.

    Empty state sets (possible for derived ICFG/CFG edges whose parent loop
    never recorded a state) are treated as wildcard-compatible, matching the
    paper's conservative stance for delay faults.
    """
    if not a or not b:
        return True
    if len(b) < len(a):
        a, b = b, a
    return any(state in b for state in a)


@dataclass(frozen=True)
class CausalEdge:
    """A counterfactual causal relationship ``src -> dst`` found in one test.

    ``src_states`` is the local state recorded when the *injection* fired;
    ``dst_states`` is the local state recorded at the additional fault.  Both
    are needed: stitching ``e1`` to ``e2`` compares ``e1.dst_states`` against
    ``e2.src_states``.
    """

    src: FaultKey
    dst: FaultKey
    etype: EdgeType
    test_id: str
    src_states: StateSet = field(default=frozenset())
    dst_states: StateSet = field(default=frozenset())

    def key(self) -> Tuple[FaultKey, FaultKey, str, str]:
        """Deduplication key, totally orderable (states are derived from
        the same run, so they are not part of the identity)."""
        return (self.src, self.dst, self.etype.value, self.test_id)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "%s -%s-> %s [%s]" % (self.src, self.etype.value, self.dst, self.test_id)


@dataclass(frozen=True)
class LoopMeta:
    """Static metadata for a loop site, used by the scalability analysis
    (§4.1) and the nested/consecutive-loop causality expansion (§4.3)."""

    parent: Optional[str] = None  # site id of the enclosing loop, if nested
    order: int = 0  # position among siblings under the same parent
    constant_bound: bool = False  # iteration count provably constant
    does_io: bool = False  # loop body performs I/O
    body_size: int = 10  # code reachable from the loop body (rank proxy)


@dataclass(frozen=True)
class DetectorMeta:
    """Static metadata for a boolean error-detector site (§7 filters)."""

    error_value: bool = True  # which return value indicates an error
    final_only: bool = False  # return computed only from final/config vars
    constant_return: bool = False  # provably constant return value
    unused_return: bool = False  # return value never used by callers
    primitive_only: bool = False  # pure utility predicate over primitives


@dataclass(frozen=True)
class EnvMeta:
    """Static metadata for an environment fault site.

    Environment sites are not program locations: they name a piece of the
    simulated world — one crashable node or one severable link — that an
    environment-level fault model (``repro.faults.environment``) can
    disturb.  Exactly one of ``node`` / ``link`` is set.
    """

    node: Optional[str] = None  # node name, for ENV_NODE sites
    link: Optional[Tuple[str, str]] = None  # sorted node-name pair, for ENV_LINK sites


@dataclass(frozen=True)
class ThrowMeta:
    """Static metadata for a throw / library-call site (§4.1 filters)."""

    reflection_related: bool = False
    security_related: bool = False
    test_only: bool = False  # only reachable from test code
