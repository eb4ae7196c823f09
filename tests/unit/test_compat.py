"""Unit tests for the local compatibility check.

``match`` is Algorithm 1's counted check as the reference beam search
performs it (``tests/reference_beam.py``); the kernel fills the same
:class:`CompatChecker` counters without calling it.
"""

from repro.core.compat import CompatChecker
from repro.types import states_compatible

from tests.helpers import edge, exc, neg, state
from tests.reference_beam import match, state_rejection_rate


class TestStatesCompatible:
    def test_matching_states_compatible(self):
        s = state(("f1", "f0"), (("b1", True),))
        assert states_compatible(frozenset({s}), frozenset({s}))

    def test_different_call_stack_incompatible(self):
        a = state(("f1", "f0"))
        b = state(("g1", "g0"))
        assert not states_compatible(frozenset({a}), frozenset({b}))

    def test_different_branch_trace_incompatible(self):
        a = state(("f1", "f0"), (("b1", True),))
        b = state(("f1", "f0"), (("b1", False),))
        assert not states_compatible(frozenset({a}), frozenset({b}))

    def test_any_pair_matching_suffices(self):
        shared = state(("f1", "f0"), (("b1", True),))
        a = frozenset({state(("x", "y")), shared})
        b = frozenset({shared, state(("p", "q"))})
        assert states_compatible(a, b)

    def test_empty_state_set_is_wildcard(self):
        s = frozenset({state(("f1", "f0"))})
        assert states_compatible(frozenset(), s)
        assert states_compatible(s, frozenset())
        assert states_compatible(frozenset(), frozenset())


class TestCompatChecker:
    def test_fault_mismatch_rejected(self):
        checker = CompatChecker()
        e1 = edge(exc("a"), exc("b"))
        e2 = edge(exc("c"), exc("d"))
        assert not match(checker, e1, e2)
        assert checker.rejected_fault == 1

    def test_fault_match_state_match_accepted(self):
        checker = CompatChecker()
        s = state(("f1", "f0"))
        e1 = edge(exc("a"), exc("b"), dst_states=[s])
        e2 = edge(exc("b"), exc("c"), src_states=[s])
        assert match(checker, e1, e2)

    def test_incompatible_states_rejected(self):
        checker = CompatChecker()
        e1 = edge(exc("a"), exc("b"), dst_states=[state(("f1", "f0"))])
        e2 = edge(exc("b"), exc("c"), src_states=[state(("g1", "g0"))])
        assert not match(checker, e1, e2)
        assert checker.rejected_state == 1

    def test_disabled_checker_ignores_states(self):
        checker = CompatChecker(enabled=False)
        e1 = edge(exc("a"), exc("b"), dst_states=[state(("f1", "f0"))])
        e2 = edge(exc("b"), exc("c"), src_states=[state(("g1", "g0"))])
        assert match(checker, e1, e2)

    def test_disabled_checker_still_requires_fault_match(self):
        checker = CompatChecker(enabled=False)
        assert not match(checker, edge(exc("a"), exc("b")), edge(exc("x"), exc("y")))

    def test_rejection_rate(self):
        checker = CompatChecker()
        s1, s2 = state(("f1", "f0")), state(("g1", "g0"))
        good1 = edge(exc("a"), exc("b"), dst_states=[s1])
        good2 = edge(exc("b"), exc("c"), src_states=[s1])
        bad2 = edge(exc("b"), exc("c"), test_id="t9", src_states=[s2])
        match(checker, good1, good2)
        match(checker, good1, bad2)
        match(checker, good1, edge(exc("z"), exc("w")))
        assert checker.checks == 3
        assert state_rejection_rate(checker) == 0.5

    def test_negation_fault_kind_must_match(self):
        checker = CompatChecker()
        e1 = edge(exc("a"), exc("b"))
        e2 = edge(neg("b"), exc("c"))  # same site, different fault kind
        assert not match(checker, e1, e2)
