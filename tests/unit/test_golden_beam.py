"""Golden beam parity: the search over two seeded campaigns' edge sets must
reproduce the results recorded before cycle reporting moved onto interned
ids (tests/golden_beam.py) — whatever size the kernel cuts its candidate
table into."""

import json

import pytest

from tests.golden_beam import CAMPAIGNS_KEY, FIXTURE, SEARCHES, system_results
from tests.helpers import kernel_block_size

GOLDEN = json.loads(FIXTURE.read_text())
SYSTEMS = sorted(set(GOLDEN) - {CAMPAIGNS_KEY})


def test_fixture_covers_every_declared_search():
    assert {s: sorted(GOLDEN[s]) for s in SYSTEMS} == {
        s: sorted(cases) for s, cases in SEARCHES.items()
    }


@pytest.mark.parametrize("system", SYSTEMS)
def test_searches_reproduce_golden_results(system):
    assert system_results(system) == GOLDEN[system]


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("system", SYSTEMS)
def test_block_boundaries_are_invisible(system, block):
    # One chain per block, and blocks that end mid-frontier: every golden
    # case, cycles digest and counters alike.
    with kernel_block_size(block):
        assert system_results(system) == GOLDEN[system]
