"""Golden campaign parity: the two benchmark-scale campaigns must reproduce
the digests recorded before the single-shot bench verb and the thread
backend were removed (tests/golden_campaigns.py; its ``--check`` mode also
covers the evaluation-scale anchor, which is too slow for tier-1)."""

import json

import pytest

from tests.golden_campaigns import BENCHMARK_SCALE, CAMPAIGNS, FIXTURE, campaign_digest

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_declared_campaign():
    assert sorted(GOLDEN) == sorted(CAMPAIGNS)
    assert set(BENCHMARK_SCALE) <= set(GOLDEN)


@pytest.mark.parametrize("name", BENCHMARK_SCALE)
def test_campaign_reproduces_golden_digest(name):
    assert campaign_digest(name) == GOLDEN[name]
