"""Golden fault spaces: every registered system's fault space F, under
the classic kinds, every single-fault kind and each of those plus every
fault schedule, must reproduce the count and key digest recorded before
schedules joined the fault-model registry (tests/golden_fault_spaces.py)."""

import json

import pytest

from repro.systems import available_systems
from tests.golden_fault_spaces import FIXTURE, fault_space, fault_space_row, flavours

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_registered_system_and_flavour():
    assert sorted(GOLDEN) == available_systems()
    assert all(sorted(rows) == sorted(flavours()) for rows in GOLDEN.values())


@pytest.mark.parametrize("flavour", sorted(flavours()))
@pytest.mark.parametrize("system", sorted(GOLDEN))
def test_fault_space_reproduces_golden_row(system, flavour):
    assert fault_space_row(system, flavour) == GOLDEN[system][flavour]


@pytest.mark.parametrize("flavour", sorted(flavours()))
@pytest.mark.parametrize("system", sorted(GOLDEN))
def test_a_site_is_in_the_fault_space_or_excluded_never_both(system, flavour):
    result = fault_space(system, flavour)
    assert set(result.fault_sites()) & set(result.excluded) == set()
