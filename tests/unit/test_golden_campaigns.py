"""Golden campaign parity: the two benchmark-scale campaigns must reproduce
the digests recorded before the single-shot bench verb and the thread
backend were removed, and — from the same contexts, no extra campaign — the
``search`` stage's counts recorded before the kernel stopped holding
per-candidate rows (tests/golden_campaigns.py; its ``--check`` mode also
covers the evaluation-scale anchor, which is too slow for tier-1)."""

import json

import pytest

from tests.golden_campaigns import (
    BEAM_FIXTURE,
    BENCHMARK_SCALE,
    CAMPAIGNS,
    FIXTURE,
    SEARCHES_KEY,
    campaign_context,
    context_digest,
    search_counters,
)

GOLDEN = json.loads(FIXTURE.read_text())
GOLDEN_SEARCHES = json.loads(BEAM_FIXTURE.read_text())[SEARCHES_KEY]


def test_fixture_covers_every_declared_campaign():
    assert sorted(GOLDEN) == sorted(GOLDEN_SEARCHES) == sorted(CAMPAIGNS)
    assert set(BENCHMARK_SCALE) <= set(GOLDEN)


@pytest.fixture(scope="module", params=BENCHMARK_SCALE)
def campaign(request):
    """(name, finished context): one campaign serves both tests below."""
    return request.param, campaign_context(request.param)


def test_campaign_reproduces_golden_digest(campaign):
    name, ctx = campaign
    assert context_digest(ctx) == GOLDEN[name]


def test_campaign_search_reproduces_golden_counters(campaign):
    name, ctx = campaign
    assert search_counters(ctx) == GOLDEN_SEARCHES[name]
