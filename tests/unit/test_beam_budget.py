"""Deterministic search budget: objects built per reported cycle.

Counts, not clocks (the style of ``test_hot_path_budget.py``).  On a dense
edge set most closing chains are another test combination or rotation of
a cycle already seen, so what the kernel does *per closure* is the cost
that scales: it must build one :class:`Cycle` per cycle it reports, call
``CausalEdge.key`` only for the interning sort, and leave ``canonical``
and ``Cycle.key`` (all rotations of Python key lists) to the reference
(``tests/reference_beam.py``).  Before reporting moved onto interned ids
this search built two ``Cycle``s per closure.
"""

import sys
from collections import Counter

import pytest

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearch
from repro.core.cycles import Cycle
from repro.types import CausalEdge, EdgeType

from tests.helpers import edge, exc, state
from tests.reference_beam import ReferenceBeamSearch, canonical

pytestmark = pytest.mark.contract

COUNTED = {
    f.__code__: name
    for name, f in {
        "Cycle": Cycle.__post_init__,
        "canonical": canonical,
        "Cycle.key": Cycle.key,
        "CausalEdge.key": CausalEdge.key,
        "closures": ReferenceBeamSearch._report,
    }.items()
}


def count_calls(search, edges):
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code in COUNTED:
            calls[COUNTED[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = search(edges)
    finally:
        sys.setprofile(previous)
    return result, calls


def test_objects_built_per_cycle_not_per_closure():
    # Every fault causes every fault, each link observed in four tests.
    s = [state()]
    edges = [
        edge(exc(x), exc(y), EdgeType.E_I, "t%d" % t, src_states=s, dst_states=s)
        for x in "abc"
        for y in "abc"
        for t in range(4)
    ]
    config = CSnakeConfig(max_chain_len=5)
    expected, ref_calls = count_calls(ReferenceBeamSearch(config).search, edges)
    result, calls = count_calls(BeamSearch(config).search, edges)

    assert result.cycles == expected.cycles
    assert ref_calls["closures"] >= 50 * len(result.cycles)  # 8016 : 77
    assert calls["Cycle"] == len(result.cycles)
    assert calls["CausalEdge.key"] <= 2 * len(edges)
    assert calls["canonical"] == calls["Cycle.key"] == 0
