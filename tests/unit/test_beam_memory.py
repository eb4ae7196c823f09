"""Deterministic search memory: bytes held per level, not per candidate row.

Counts, not clocks (the style of ``test_beam_budget.py``): ``tracemalloc``
around ``BeamSearch.search`` on dense edge sets, where a level has
hundreds of thousands of (chain, adjacent edge) candidates.  The kernel
cuts that table into fixed-size blocks of 1-D columns and keeps a
(parent, edge) integer pair per distinct extension, so its peak is bounded
by the block size and the beam width and does not grow with chain length;
before, every candidate was a full id row plus a signature row, and the
first search below peaked at 75.1 MB.
"""

import tracemalloc

import pytest

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearch
from repro.types import EdgeType

from tests.helpers import edge, exc, state
from tests.reference_beam import ReferenceBeamSearch

pytestmark = pytest.mark.contract

MB = 1e6


def dense_edges(n_faults, n_tests):
    """Every fault causes every fault (itself included), each link observed
    in ``n_tests`` tests."""
    s = [state()]
    names = "abcdefgh"[:n_faults]
    return [
        edge(exc(x), exc(y), EdgeType.E_I, "t%d" % t, src_states=s, dst_states=s)
        for x in names
        for y in names
        for t in range(n_tests)
    ]


def traced_search(edges, **settings):
    beam = BeamSearch(CSnakeConfig(**settings))
    tracemalloc.start()
    try:
        result = beam.search(edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def assert_equals_reference(edges, **settings):
    config = CSnakeConfig(**settings)
    ref, vec = ReferenceBeamSearch(config), BeamSearch(config)
    expected, got = ref.search(edges), vec.search(edges)
    assert got.cycles == expected.cycles
    assert (got.chains_explored, got.levels) == (expected.chains_explored, expected.levels)
    assert vec.compat == ref.compat


def test_peak_is_bounded_on_a_dense_edge_set():
    edges = dense_edges(6, 6)
    assert len(edges) == 216
    result, peak = traced_search(edges, max_chain_len=5, beam_width=10_000)
    assert (result.chains_explored, len(result.cycles)) == (791_309, 700)
    assert peak < 16 * MB  # 7.8 MB; 75.1 MB with per-candidate rows
    assert_equals_reference(edges, max_chain_len=5, beam_width=40)


def test_peak_does_not_grow_with_chain_length():
    edges = dense_edges(8, 5)
    assert len(edges) == 320
    five, peak_five = traced_search(edges, max_chain_len=5, beam_width=10_000)
    six, peak_six = traced_search(edges, max_chain_len=6, beam_width=10_000)
    assert six.levels == five.levels + 1
    assert six.chains_explored > five.chains_explored
    # One more level, one more column per candidate row: 87.6 -> 96.6 MB
    # when levels held rows, 8.7 -> 8.9 MB now.
    assert peak_five < 16 * MB
    assert peak_six < 1.25 * peak_five
    assert_equals_reference(edges, max_chain_len=6, beam_width=40)
