"""Golden call graphs: every registered system's call-graph edges, site
slices, entry functions and reachable set must reproduce the digests
recorded before the per-function CFG and typed-local resolution were
deleted (tests/golden_slices.py)."""

import json

import pytest

from repro.systems import available_systems
from tests.golden_slices import FIXTURE, slice_digest

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_registered_system():
    assert sorted(GOLDEN) == available_systems()


@pytest.mark.parametrize("system", sorted(GOLDEN))
def test_slices_reproduce_golden_digest(system):
    assert slice_digest(system) == GOLDEN[system]
