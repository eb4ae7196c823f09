"""Golden beam parity: the search over two seeded campaigns' edge sets must
reproduce the results recorded before cycle reporting moved onto interned
ids (tests/golden_beam.py)."""

import json

import pytest

from tests.golden_beam import FIXTURE, SEARCHES, system_results

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_declared_search():
    assert {s: sorted(cases) for s, cases in GOLDEN.items()} == {
        s: sorted(cases) for s, cases in SEARCHES.items()
    }


@pytest.mark.parametrize("system", sorted(GOLDEN))
def test_searches_reproduce_golden_results(system):
    assert system_results(system) == GOLDEN[system]
