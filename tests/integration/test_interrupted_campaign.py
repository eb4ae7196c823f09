"""Integration: the experiment cache is a campaign's checkpoint.

A campaign killed mid-``allocate`` leaves on disk every profile group and
every experiment it finished: a serial batch stores each experiment
before it starts the next.  Running the same campaign again over that
cache directory replays exactly those entries as hits, simulates the
rest, and ends with the straight-through run's report and causal edges —
on the serial backend and on two worker processes alike.
"""

import shutil

import pytest

from repro.config import CSnakeConfig
from repro.core.driver import ExperimentDriver
from repro.faults import expand_kinds, registered_schedules
from repro.pipeline import EventRecorder, Pipeline
from repro.pipeline.events import STAGE_FINISHED, STAGE_STARTED
from repro.systems import get_system

from tests.golden_campaigns import context_digest
from tests.helpers import stored_kinds

SMOKE = dict(repeats=2, seed=7, budget_per_fault=2)

#: system -> (its campaign's config fields, the ``execute_experiment`` call
#: that is killed); the toy campaign runs 12 experiments, the miniraft one 70.
CAMPAIGNS = {
    "toy": (dict(delay_values_ms=(2000.0,), **SMOKE), 6),
    "miniraft": (
        dict(
            delay_values_ms=(500.0, 8000.0),
            fault_kinds=expand_kinds("all"),
            schedules=tuple(registered_schedules()),
            adaptive_budget=True,
            **SMOKE,
        ),
        30,
    ),
}


class Killed(Exception):
    """Stands in for SIGKILL: the campaign does nothing after it."""


def _config(system, **execution):
    return CSnakeConfig(**CAMPAIGNS[system][0], **execution)


def _entries(cache_dir):
    """Profile and experiment entries on disk."""
    return len(stored_kinds(cache_dir))


@pytest.fixture(scope="module", params=sorted(CAMPAIGNS))
def killed(request, tmp_path_factory):
    """(system, its straight-through campaign, the cache directory of the
    same campaign killed in its ``kill_at``-th experiment)."""
    system = request.param
    straight = Pipeline.default(get_system(system), _config(system)).run()
    cache_dir = tmp_path_factory.mktemp("killed-%s" % system)
    kill_at = CAMPAIGNS[system][1]
    execute = ExperimentDriver.execute_experiment
    calls = []

    def execute_until_killed(self, fault, test_id):
        calls.append((fault, test_id))
        if len(calls) == kill_at:
            raise Killed()
        return execute(self, fault, test_id)

    recorder = EventRecorder()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ExperimentDriver, "execute_experiment", execute_until_killed)
        with pytest.raises(Killed):
            Pipeline.default(
                get_system(system),
                _config(system, cache_dir=str(cache_dir)),
                observers=[recorder],
            ).run()
    assert recorder.kinds("profile") == [STAGE_STARTED, STAGE_FINISHED]
    assert recorder.kinds("allocate") == [STAGE_STARTED]
    # Every profile group, and every experiment before the killed one.
    assert _entries(cache_dir) == len(get_system(system).workloads) + kill_at - 1
    return system, straight, cache_dir


@pytest.mark.parametrize("execution", [
    pytest.param(dict(experiment_backend="serial"), id="serial"),
    pytest.param(dict(experiment_workers=2), id="process2"),
])
def test_rerun_over_the_cache_matches(killed, execution, tmp_path):
    """The killed campaign, run again over a copy of its cache directory,
    ends with the straight-through report and edges, replaying exactly
    what the killed run stored."""
    system, straight, killed_dir = killed
    cache_dir = tmp_path / "cache"
    shutil.copytree(killed_dir, cache_dir)
    written = _entries(cache_dir)

    again = Pipeline.default(
        get_system(system), _config(system, cache_dir=str(cache_dir), **execution)
    ).run()

    assert again.get("report").to_dict() == straight.get("report").to_dict()
    assert context_digest(again) == context_digest(straight)
    stats = again.driver.cache.stats()
    assert stats["hits"] == written
    assert stats["misses"] == stats["stores"] > 0
