"""Differential tests: the vectorized beam kernel vs the reference oracle.

The vectorized :class:`BeamSearch` must be *bit-identical* to the oracle,
``tests/reference_beam.py``'s :class:`ReferenceBeamSearch` — same cycles
in the same order (down to which interior-test representative survives
chain dedup, which decides the ``tests`` column of the final report), same
``chains_explored`` and ``levels``, and same :class:`CompatChecker`
counters.  Edge sets are
drawn with unique ``key()``s (the kernel's precondition, guaranteed by
``EdgeDB`` in production; ``BeamSearch`` refuses any other input).
Every kernel example also draws the size of the blocks the kernel cuts a
level's candidate table into — one chain per block, a few candidates, or
the kernel's own — because block boundaries must be invisible.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearch
from repro.types import DELAY, EXCEPTION, NEGATION, CausalEdge, EdgeType, FaultKey, LocalState

from tests.helpers import DEFAULT_KERNEL_BLOCK, kernel_block_size
from tests.reference_beam import ReferenceBeamSearch

pytestmark = pytest.mark.contract

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
    dst=faults,  # src == dst draws produce self-edge (length-1) cycles
    etype=st.sampled_from(list(EdgeType)),
    test_id=st.sampled_from(["t1", "t2", "t3"]),
    src_states=states,
    dst_states=states,
)
# A small score palette on purpose: repeated values force score ties, so the
# lexicographic edge-key tie-break (the subtlest part of the interning
# argument) actually decides beam survival.
sim_scores = st.dictionaries(faults, st.sampled_from([0.0, 0.25, 0.5, 1.0]), max_size=6)
configs = st.builds(
    CSnakeConfig,
    beam_width=st.sampled_from([1, 2, 3, 500]),
    max_chain_len=st.sampled_from([2, 3, 4, 5]),
    max_delay_faults=st.sampled_from([None, 0, 1]),
    compat_check=st.booleans(),
)
blocks = st.sampled_from([1, 3, DEFAULT_KERNEL_BLOCK])


def _unique_by_key(edge_list):
    """First occurrence per ``key()``, preserving input order (EdgeDB-like)."""
    seen = {}
    for e in edge_list:
        seen.setdefault(e.key(), e)
    return list(seen.values())


def assert_identical(edge_list, config, scores=None, block=DEFAULT_KERNEL_BLOCK):
    ref = ReferenceBeamSearch(config, scores)
    vec = BeamSearch(config, scores)
    expected = ref.search(edge_list)
    with kernel_block_size(block):
        got = vec.search(edge_list)
    # Cycles: same edge tuples, same canonical order — dataclass equality
    # covers edges, states, and test ids (the report's ``tests`` column).
    assert got.cycles == expected.cycles
    assert [c.key() for c in got.cycles] == [c.key() for c in expected.cycles]
    assert got.chains_explored == expected.chains_explored
    assert got.levels == expected.levels
    assert vec.compat.checks == ref.compat.checks
    assert vec.compat.rejected_fault == ref.compat.rejected_fault
    assert vec.compat.rejected_state == ref.compat.rejected_state
    return expected


@given(st.lists(edges, max_size=14), configs, sim_scores, blocks)
@settings(max_examples=120, deadline=None)
def test_kernel_matches_reference(edge_list, config, scores, block):
    assert_identical(_unique_by_key(edge_list), config, scores, block)


@given(st.lists(edges, max_size=12), sim_scores, blocks)
@settings(max_examples=40, deadline=None)
def test_narrow_beam_tie_breaks(edge_list, scores, block):
    # beam_width=1 makes every level a pure tie-break decision: any
    # divergence between integer-id ordering and key-list ordering would
    # change which single chain survives.
    config = CSnakeConfig(beam_width=1, max_chain_len=5)
    assert_identical(_unique_by_key(edge_list), config, scores, block)


# Dense: three faults, two relationship types, three tests — 54 possible
# keys, of which an edge set holds 30-45.  Every triple is seen under
# several tests and every fault reaches every other, so each level closes
# many chains onto few fault-level classes and cycles of lengths 1..5 mix
# in one result: "first row per class", the triple-id order behind the
# class and the final integer sort all decide something.
dense_faults = st.sampled_from(
    [
        FaultKey("a", EXCEPTION),
        FaultKey("b", EXCEPTION),
        FaultKey("c", DELAY),
    ]
)
dense_edges = st.lists(
    st.builds(
        CausalEdge,
        src=dense_faults,
        dst=dense_faults,
        etype=st.sampled_from([EdgeType.E_I, EdgeType.ICFG]),
        test_id=st.sampled_from(["t1", "t2", "t3"]),
        src_states=states,
        dst_states=states,
    ),
    min_size=30,
    max_size=45,
    unique_by=lambda e: e.key(),
)


@given(
    dense_edges,
    st.sampled_from([7, 400]),
    st.sampled_from([None, 1]),
    st.booleans(),
    st.dictionaries(dense_faults, st.sampled_from([0.0, 0.5, 1.0]), max_size=3),
    blocks,
)
@settings(max_examples=25, deadline=None)
def test_dense_closures_onto_few_classes(edge_list, width, delay_cap, compat, scores, block):
    config = CSnakeConfig(
        beam_width=width, max_chain_len=5, max_delay_faults=delay_cap, compat_check=compat
    )
    assert_identical(edge_list, config, scores, block)


@pytest.mark.parametrize("max_chain_len", [1, 2, 3])
def test_last_level_counts_without_building_a_frontier(max_chain_len):
    # The level that reaches max_chain_len reports closures and counts its
    # extensions but builds no frontier; here that frontier (every fault
    # reaches every other, two tests each: 32 / 192 / 24 chains explored
    # at levels 0 / 1 / 2) would be wider than the beam.
    names = ["a", "b", "c", "d"]
    s = frozenset({LocalState(call_stack=("f", "h"), branch_trace=())})
    edge_list = [
        CausalEdge(
            FaultKey(x, EXCEPTION), FaultKey(y, EXCEPTION),
            EdgeType.E_I, test_id, s, s,
        )
        for x in names
        for y in names
        for test_id in ("t1", "t2")
    ]
    config = CSnakeConfig(beam_width=4)
    config.max_chain_len = max_chain_len  # 1 is refused at construction
    for block in (1, 3, DEFAULT_KERNEL_BLOCK):
        expected = assert_identical(edge_list, config, block=block)
        assert expected.levels == max_chain_len - 1


@pytest.mark.parametrize("block", [1, 3, DEFAULT_KERNEL_BLOCK])
def test_closure_classes_wider_than_int64(block):
    # A closing row's class is a base-radix code of its triple ids (radix =
    # distinct triples); past 2**63 the code needs Python ints.  Four
    # faults that all reach each other under two relationship types give
    # 32 triples, and a narrow beam over 16 levels closes chains whose
    # code lengths cross that bound.
    faults_ = [FaultKey("a", EXCEPTION), FaultKey("b", EXCEPTION),
               FaultKey("c", NEGATION), FaultKey("d", DELAY)]
    f = LocalState(call_stack=("f", "h"), branch_trace=())
    g = LocalState(call_stack=("g", "h"), branch_trace=())
    palette = [frozenset({f}), frozenset({g}), frozenset({f, g}), frozenset()]
    edge_list = [
        CausalEdge(x, y, etype, test_id, palette[(i + j) % 4], palette[(i * j + k) % 4])
        for i, x in enumerate(faults_)
        for j, y in enumerate(faults_)
        for etype in (EdgeType.E_I, EdgeType.ICFG)
        for k, test_id in enumerate(["t1", "t2"])
    ]
    config = CSnakeConfig(beam_width=3, max_chain_len=16)
    radix = len({(e.src, e.dst, e.etype) for e in edge_list})
    assert radix ** config.max_chain_len >= 2**63
    scores = {faults_[0]: 0.5, faults_[1]: 0.5, faults_[2]: 0.0}
    expected = assert_identical(edge_list, config, scores, block)
    # Some reported class really was coded past int64.
    assert radix ** max(len(c.edges) for c in expected.cycles) >= 2**63


@pytest.mark.parametrize("max_delay_faults", [None, 0, 1])
@pytest.mark.parametrize("max_chain_len", [2, 3, 4, 5])
def test_last_level_subtracts_members_in_its_own_row(max_delay_faults, max_chain_len):
    # The last level counts a chain's candidates from its last edge's row
    # and subtracts the chain's own members found there.  A self-loop edge
    # sits in its own row, and a 2-cycle's first edge sits in the row of
    # its second; some of those pairs are state-incompatible and some
    # inject a delay, so a subtracted member may or may not have matched
    # and may or may not pass the cap.
    a, b, c = FaultKey("a", DELAY), FaultKey("b", EXCEPTION), FaultKey("c", NEGATION)
    f = frozenset({LocalState(call_stack=("f", "h"), branch_trace=())})
    g = frozenset({LocalState(call_stack=("g", "h"), branch_trace=())})
    edge_list = [
        CausalEdge(a, a, EdgeType.SP_D, "t1", f, f),
        CausalEdge(a, a, EdgeType.SP_D, "t2", f, g),
        CausalEdge(a, b, EdgeType.E_D, "t1", f, f),
        CausalEdge(b, a, EdgeType.SP_I, "t1", f, f),
        CausalEdge(b, a, EdgeType.SP_I, "t2", g, g),
        CausalEdge(b, b, EdgeType.E_I, "t1", f, f),
        CausalEdge(b, c, EdgeType.E_I, "t1", f, f),
        CausalEdge(b, c, EdgeType.E_I, "t2", g, g),
        CausalEdge(c, b, EdgeType.E_I, "t1", f, f),
        CausalEdge(c, b, EdgeType.E_I, "t2", g, f),
        CausalEdge(c, c, EdgeType.ICFG, "t1", frozenset(), frozenset()),
    ]
    scores = {a: 0.5, b: 0.25}
    levels = set()
    for width in (1, 3, 500):
        for compat in (True, False):
            config = CSnakeConfig(
                beam_width=width, max_chain_len=max_chain_len,
                max_delay_faults=max_delay_faults, compat_check=compat,
            )
            for block in (1, DEFAULT_KERNEL_BLOCK):
                levels.add(assert_identical(edge_list, config, scores, block).levels)
    # Some configuration's search reached the counted level.
    assert max_chain_len - 1 in levels
