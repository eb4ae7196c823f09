"""Trace-level golden parity: every run of every system must reproduce
the digests recorded before the hot-path rewrite (tests/golden_traces.py)."""

import json

import pytest

from repro.systems import available_systems
from tests.golden_traces import FIXTURE, system_digests

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_registered_system():
    assert sorted(GOLDEN) == available_systems()


@pytest.mark.parametrize("system", sorted(GOLDEN))
def test_runs_reproduce_golden_digests(system):
    got = system_digests(system)
    want = GOLDEN[system]
    assert sorted(got) == sorted(want)
    assert [case for case in want if got[case] != want[case]] == []
