"""The goldens of ``tests/golden.py``: every row reproduces its fixture, every
fixture holds exactly the declared rows, and the checks that are not row
equalities — the beam kernel's block size is invisible, a site is in the
fault space or excluded, never both — plus the harness itself: a perturbed
row fails the check by name, and recording one of the two goldens that
share ``golden_beam.json`` leaves the other's keys as they are."""

import dataclasses
import json
import shutil

import pytest

from tests import golden
from tests.golden import GOLDENS, recorded
from tests.golden_beam import system_results
from tests.golden_fault_spaces import fault_space, fault_space_row, flavours
from tests.helpers import kernel_block_size

pytestmark = pytest.mark.contract

# The one entry the generic row test leaves out: a fault-space row holds a
# system's four flavours, and the two fault-space tests below check each
# flavour alone (so a failure names it) and that every row holds exactly
# the flavours ``flavours()`` declares.
ROWS = [
    pytest.param(name, key, id="%s/%s" % (name, key))
    for name, entry in GOLDENS.items()
    if name != "fault_spaces"
    for key in entry.keys
    if key not in entry.slow
]


@pytest.mark.parametrize("name, key", ROWS)
def test_row_reproduces_golden(name, key):
    assert GOLDENS[name].row(key) == recorded(name)[key]


@pytest.mark.parametrize("name", list(GOLDENS))
def test_fixture_holds_exactly_the_declared_rows(name):
    assert sorted(recorded(name)) == sorted(GOLDENS[name].keys)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("system", GOLDENS["beam"].keys)
def test_beam_block_boundaries_are_invisible(system, block):
    # One chain per block, and blocks that end mid-frontier: every golden
    # case, cycles digest and counters alike.
    with kernel_block_size(block):
        assert system_results(system) == recorded("beam")[system]


def test_fixture_covers_every_registered_system_and_flavour():
    rows = recorded("fault_spaces")
    assert sorted(rows) == sorted(GOLDENS["fault_spaces"].keys)
    assert all(sorted(flavour_rows) == sorted(flavours()) for flavour_rows in rows.values())


@pytest.mark.parametrize("flavour", sorted(flavours()))
@pytest.mark.parametrize("system", GOLDENS["fault_spaces"].keys)
def test_fault_space_reproduces_golden_row(system, flavour):
    assert fault_space_row(system, flavour) == recorded("fault_spaces")[system][flavour]


@pytest.mark.parametrize("flavour", sorted(flavours()))
@pytest.mark.parametrize("system", GOLDENS["fault_spaces"].keys)
def test_a_site_is_in_the_fault_space_or_excluded_never_both(system, flavour):
    result = fault_space(system, flavour)
    assert set(result.fault_sites()) & set(result.excluded) == set()


def _copied(tmp_path, names, **changes):
    """The registry with ``names`` reading (copies of) their fixtures under
    ``tmp_path``, each entry also given ``changes``."""
    goldens = dict(GOLDENS)
    for name in names:
        copy = tmp_path / GOLDENS[name].fixture.name
        shutil.copy(GOLDENS[name].fixture, copy)
        goldens[name] = dataclasses.replace(GOLDENS[name], fixture=copy, **changes)
    return goldens


def test_a_perturbed_row_fails_the_check_naming_golden_and_row(tmp_path, capsys):
    goldens = _copied(tmp_path, ["slices"], keys=("miniraft", "toy"))
    fixture = goldens["slices"].fixture
    rows = json.loads(fixture.read_text())
    fixture.write_text(json.dumps({"miniraft": rows["miniraft"], "toy": "0" * 64}))
    assert golden.main(["slices"], goldens) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [
        ["slices", "miniraft", "ok"], ["slices", "toy", "MISMATCH:"],
    ]


@pytest.mark.parametrize("name, other", [
    ("beam", "campaign_searches"), ("campaign_searches", "beam"),
])
def test_recording_one_owner_of_the_shared_fixture_keeps_the_others_keys(
    tmp_path, name, other
):
    goldens = _copied(tmp_path, [name, other])
    goldens[name] = dataclasses.replace(goldens[name], row=lambda key: "recorded " + key)
    before = json.dumps(recorded(other, goldens), indent=1, sort_keys=True)
    assert golden.main(["--record", name], goldens) == 0
    assert recorded(name, goldens) == {k: "recorded " + k for k in goldens[name].keys}
    assert json.dumps(recorded(other, goldens), indent=1, sort_keys=True) == before


def test_record_without_a_name_is_an_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        golden.main(["--record"])
    assert exit_.value.code == 2
    assert "--record needs the name" in capsys.readouterr().err
