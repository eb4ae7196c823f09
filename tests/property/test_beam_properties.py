"""Property-based tests: beam-search results are always *valid* cycles.

Edge lists are drawn key-unique, like every ``EdgeDB``: ``BeamSearch``
refuses duplicate keys.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearch
from repro.core.cycles import INJECTION_EDGE_TYPES
from repro.core.compat import CompatChecker
from repro.types import DELAY, EXCEPTION, NEGATION, CausalEdge, EdgeType, FaultKey, LocalState

from tests.reference_beam import match

sites = st.sampled_from(["a", "b", "c", "d"])
kinds = st.sampled_from([DELAY, EXCEPTION, NEGATION])
faults = st.builds(FaultKey, site_id=sites, kind=kinds)
states = st.frozensets(
    st.builds(
        LocalState,
        call_stack=st.tuples(st.sampled_from(["f", "g"]), st.just("h")),
        branch_trace=st.just(()),
    ),
    min_size=0,
    max_size=2,
)
edges = st.builds(
    CausalEdge,
    src=faults,
    dst=faults,
    etype=st.sampled_from([EdgeType.E_I, EdgeType.SP_I, EdgeType.E_D, EdgeType.SP_D]),
    test_id=st.sampled_from(["t1", "t2"]),
    src_states=states,
    dst_states=states,
)


def edge_lists(max_size):
    return st.lists(edges, max_size=max_size, unique_by=lambda e: e.key())


@given(edge_lists(12), st.booleans())
@settings(max_examples=60, deadline=None)
def test_reported_cycles_are_sound(edge_list, compat):
    config = CSnakeConfig(
        beam_width=500, max_chain_len=4, compat_check=compat
    )
    result = BeamSearch(config).search(edge_list)
    checker = CompatChecker(enabled=compat)
    for cycle in result.cycles:
        ring = list(cycle.edges)
        for e1, e2 in zip(ring, ring[1:] + ring[:1]):
            assert match(checker, e1, e2), (cycle, e1, e2)
        # No edge is used twice within one cycle.
        assert len({id(e) for e in ring}) == len(ring)


@given(edge_lists(12))
@settings(max_examples=40, deadline=None)
def test_delay_cap_is_respected(edge_list):
    config = CSnakeConfig(beam_width=500, max_chain_len=4, max_delay_faults=1)
    result = BeamSearch(config).search(edge_list)
    for cycle in result.cycles:
        delays = sum(
            1
            for e in cycle.edges
            if e.etype in INJECTION_EDGE_TYPES and e.src.kind == DELAY
        )
        assert delays <= 1


@given(edge_lists(10))
@settings(max_examples=40, deadline=None)
def test_wider_beam_never_finds_fewer_cycles(edge_list):
    narrow = BeamSearch(CSnakeConfig(beam_width=2, max_chain_len=4)).search(edge_list)
    wide = BeamSearch(CSnakeConfig(beam_width=5_000, max_chain_len=4)).search(edge_list)
    assert len(wide.cycles) >= len(narrow.cycles)
