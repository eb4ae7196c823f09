"""Unit tests for the beam search cycle detector (Algorithm 1)."""

import pytest

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearch
from repro.types import EdgeType

from tests.helpers import dly, edge, exc, neg, state


S = state(("f1", "f0"))


def e(src, dst, etype=EdgeType.E_I, test_id="t1", s=S):
    return edge(src, dst, etype=etype, test_id=test_id, src_states=[s], dst_states=[s])


def search(edges, **cfg):
    config = CSnakeConfig(**cfg)
    return BeamSearch(config).search(edges)


def test_two_edge_cycle_across_tests():
    edges = [
        e(exc("a"), exc("b"), test_id="t1"),
        e(exc("b"), exc("a"), test_id="t2"),
    ]
    result = search(edges)
    assert len(result.cycles) == 1
    cycle = result.cycles[0]
    assert len(cycle) == 2
    assert cycle.tests() == ["t1", "t2"]


def test_self_edge_is_one_cycle():
    result = search([e(exc("a"), exc("a"))])
    assert len(result.cycles) == 1
    assert len(result.cycles[0]) == 1


def test_three_edge_cycle():
    edges = [
        e(dly("L"), exc("x"), etype=EdgeType.E_D, test_id="t1"),
        e(exc("x"), neg("n"), test_id="t2"),
        e(neg("n"), dly("L"), etype=EdgeType.SP_I, test_id="t3"),
    ]
    result = search(edges)
    assert len(result.cycles) == 1
    assert result.cycles[0].signature() == "1D|1E|1N"


def test_no_cycle_in_dag():
    edges = [e(exc("a"), exc("b")), e(exc("b"), exc("c"))]
    result = search(edges)
    assert result.cycles == []


def test_incompatible_states_block_cycle():
    s1 = state(("f1", "f0"))
    s2 = state(("g1", "g0"))
    edges = [
        edge(exc("a"), exc("b"), test_id="t1", src_states=[s1], dst_states=[s1]),
        edge(exc("b"), exc("a"), test_id="t2", src_states=[s2], dst_states=[s2]),
    ]
    assert search(edges).cycles == []
    # With the check disabled, the (unsound) cycle appears.
    assert len(search(edges, compat_check=False).cycles) == 1


def test_cycle_closure_also_checks_compatibility():
    """The chain stitches a->b->a, but the returning edge's interference
    state differs from the first edge's injection state."""
    s1, s2 = state(("f1", "f0")), state(("g1", "g0"))
    edges = [
        edge(exc("a"), exc("b"), test_id="t1", src_states=[s1], dst_states=[s1]),
        edge(exc("b"), exc("a"), test_id="t2", src_states=[s1], dst_states=[s2]),
    ]
    assert search(edges).cycles == []


def test_rotated_cycles_deduplicated():
    edges = [
        e(exc("a"), exc("b"), test_id="t1"),
        e(exc("b"), exc("c"), test_id="t2"),
        e(exc("c"), exc("a"), test_id="t3"),
    ]
    result = search(edges)
    assert len(result.cycles) == 1  # not three rotations


def test_beam_width_limits_exploration():
    # A long chain needing width > 1 at an intermediate level.
    edges = [
        e(exc("a"), exc("b")),
        e(exc("a"), exc("c")),
        e(exc("b"), exc("d")),
        e(exc("c"), exc("d")),
        e(exc("d"), exc("a")),
    ]
    wide = search(edges, beam_width=100)
    assert len(wide.cycles) == 2  # via b and via c


def test_max_chain_len_bounds_cycle_size():
    edges = [
        e(exc("a"), exc("b")),
        e(exc("b"), exc("c")),
        e(exc("c"), exc("d")),
        e(exc("d"), exc("a")),
    ]
    assert search(edges, max_chain_len=3).cycles == []
    assert len(search(edges, max_chain_len=4).cycles) == 1


def test_max_delay_faults_cap():
    edges = [
        e(dly("L1"), dly("L2"), etype=EdgeType.SP_D, test_id="t1"),
        e(dly("L2"), dly("L1"), etype=EdgeType.SP_D, test_id="t2"),
    ]
    unlimited = search(edges)
    assert len(unlimited.cycles) == 1
    capped = search(edges, max_delay_faults=1)
    assert capped.cycles == []


def test_delay_cap_allows_single_delay_cycles():
    edges = [
        e(dly("L"), exc("x"), etype=EdgeType.E_D, test_id="t1"),
        e(exc("x"), dly("L"), etype=EdgeType.SP_I, test_id="t2"),
    ]
    capped = search(edges, max_delay_faults=1)
    assert len(capped.cycles) == 1


def test_icfg_edges_do_not_count_as_injections():
    edges = [
        e(dly("L2"), dly("L1"), etype=EdgeType.ICFG, test_id="t1"),
        e(dly("L1"), dly("L2"), etype=EdgeType.SP_D, test_id="t2"),
    ]
    capped = search(edges, max_delay_faults=1)
    assert len(capped.cycles) == 1
    assert capped.cycles[0].signature() == "1D|0E|0N"


def test_chain_ranking_prefers_low_simscore():
    """With beam width 1, only the conditional (low SimScore) 3-cycle
    survives the intermediate level and gets to close."""
    config = CSnakeConfig(beam_width=1)
    scores = {
        exc("a"): 0.1,
        exc("b"): 0.1,
        exc("c"): 0.1,
        exc("p"): 0.9,
        exc("q"): 0.9,
        exc("r"): 0.9,
    }
    edges = [
        e(exc("a"), exc("b")),
        e(exc("b"), exc("c")),
        e(exc("c"), exc("a")),
        e(exc("p"), exc("q")),
        e(exc("q"), exc("r")),
        e(exc("r"), exc("p")),
    ]
    result = BeamSearch(config, scores).search(edges)
    assert result.cycles  # the low-score cycle closes
    assert all(exc("p") not in c.injected_faults() for c in result.cycles)
    wide = BeamSearch(CSnakeConfig(beam_width=100), scores).search(edges)
    assert len(wide.cycles) == 2  # with enough width both close


def test_edges_never_reused_within_chain():
    # Single edge a->a plus a->b: the self-cycle must come out once and the
    # walk must not loop the self-edge forever.
    edges = [e(exc("a"), exc("a")), e(exc("a"), exc("b"))]
    result = search(edges, max_chain_len=6)
    assert len(result.cycles) == 1


def test_chains_explored_counter():
    edges = [e(exc("a"), exc("b")), e(exc("b"), exc("a"))]
    result = search(edges)
    assert result.chains_explored >= 2


def test_duplicate_key_input_is_refused():
    # Same key (src, dst, type, test), different states: an EdgeDB would
    # have merged these two into one edge.
    first = e(exc("a"), exc("b"))
    again = e(exc("a"), exc("b"), s=state(("g1", "g0")))
    edges = [e(exc("b"), exc("a")), first, again]
    with pytest.raises(ValueError, match="key-unique") as refused:
        search(edges)
    assert repr(first.key()) in str(refused.value)
