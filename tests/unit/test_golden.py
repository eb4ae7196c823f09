"""The goldens of ``tests/golden.py``: every row reproduces its fixture, every
fixture holds exactly the declared rows, and the checks that are not row
equalities — the beam kernel's block size is invisible, a site is in the
fault space or excluded, never both, the recorded detection rows keep the
campaign matrix's contrasts and the panel's per-bug rates over seeds —
plus the harness itself: a perturbed row fails the check by name, a
fixture not recorded yet fails every row and the check goes on, and
recording one of the two goldens that share ``golden_beam.json`` leaves
the other's keys as they are."""

import dataclasses
import json
import shutil
from collections import Counter

import pytest

from tests import golden
from tests.golden import GOLDENS, recorded
from tests.golden_beam import system_results
from tests.golden_campaigns import PANEL_SEEDS
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


def test_detection_rows_keep_the_campaign_matrix():
    # What the campaign matrix shows, asserted on the recorded rows so that
    # a re-recording cannot drop a contrast unnoticed.  Every minidfs bug is
    # gated on an environment disturbance, DFS-3 on the composed
    # ``membership_churn`` schedule; RAFT-6 is gated on the
    # ``partition_during_restart`` schedule, which only the adaptive respend
    # draws on the churn workload.
    bugs = {key: set(row["detected"]) for key, row in recorded("detection").items()}
    dfs_env, dfs_scheduled = (
        bugs["minidfs/%s/r5/s7" % flavour] for flavour in ("all+adaptive", "all+schedules+adaptive")
    )
    raft_all, raft_scheduled, raft_adaptive = (
        bugs["miniraft/%s/r5/s1234" % flavour]
        for flavour in ("all", "all+schedules", "all+schedules+adaptive")
    )
    assert bugs["minidfs/classic/r5/s7"] == set()
    assert "DFS-3" in dfs_scheduled - dfs_env
    assert {"DFS-1", "DFS-2", "DFS-4"} <= dfs_scheduled & dfs_env
    assert all(
        {"RAFT-%d" % n for n in range(1, 6)} <= row
        for row in (raft_all, raft_scheduled, raft_adaptive)
    )
    assert "RAFT-6" in raft_adaptive - raft_scheduled


#: How many of the panel's eight seeds detect each bug, per benchmark-scale
#: campaign, as recorded with the panel: H2-1 and DFS-2 at 5 / 8, as
#: earlier runs of the same seeds had read, and H2-2, H2-5 and H2-6 never.
PANEL_RATES = {
    "minihdfs2_benchmark": {"H2-1": 5, "H2-3": 8, "H2-4": 8},
    "minidfs_benchmark": {"DFS-1": 8, "DFS-2": 5, "DFS-3": 6, "DFS-4": 6},
}


@pytest.mark.parametrize("campaign", sorted(PANEL_RATES))
def test_panel_rates_hold(campaign):
    rows = recorded("detection")
    seeds = [rows["%s/s%d" % (campaign, seed)] for seed in PANEL_SEEDS]
    assert len(seeds) == 8
    assert dict(Counter(bug for row in seeds for bug in row["detected"])) == PANEL_RATES[campaign]


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


def test_a_missing_fixture_fails_every_row_and_the_check_goes_on(tmp_path, capsys):
    goldens = _copied(tmp_path, ["slices"], keys=("toy",))
    fixture = goldens["slices"].fixture
    fixture.write_text(json.dumps({"toy": json.loads(fixture.read_text())["toy"]}))
    goldens["unrecorded"] = dataclasses.replace(
        GOLDENS["slices"], fixture=tmp_path / "unrecorded.json", keys=("miniraft", "toy")
    )
    assert golden.main(["unrecorded", "slices"], goldens) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [
        ["unrecorded", "miniraft", "MISMATCH:"], ["unrecorded", "toy", "MISMATCH:"],
        ["slices", "toy", "ok"],
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
