"""A finished run leaves nothing for the cycle collector.

A run's world is cyclic: nodes hold the environment and each other, the
runtime's path trie links parents and children, and a fault caught in
``SimEnv.rpc`` would hold the frame that caught it.  ``run_workload``
tears the world down when the run ends (``SimEnv.close``,
``Runtime.close``), so reference counting frees all of it.  Here every
run of the ``traces`` golden (``tests/golden_traces.py``: each workload's
profile run and one injected run per fault kind and per schedule, on
every registered system) is made with the collector off, and
``gc.collect()`` after it must find nothing.  Whatever a new system,
fault model or schedule leaves in a cycle fails here by name, not as a
slower campaign.
"""

import gc
from typing import Callable

import pytest

from repro.config import CSnakeConfig
from repro.core import driver as driver_mod
from repro.systems import available_systems, get_system
from tests.golden_traces import system_digests
from tests.paper_tables import BlackboxFuzzer

pytestmark = pytest.mark.contract


def unreachable_after(run: Callable[[], object]) -> int:
    """Objects the collector finds after ``run`` made with it off."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("system", available_systems())
def test_every_run_is_freed_by_reference_counting(system, monkeypatch):
    run_workload = driver_mod.run_workload
    found = {}

    def checked(spec, workload, plan, seed):
        traces = []
        case = (workload.test_id, plan.fault if plan is not None else None)
        found[case] = unreachable_after(
            lambda: traces.append(run_workload(spec, workload, plan, seed))
        )
        return traces[0]

    monkeypatch.setattr(driver_mod, "run_workload", checked)
    system_digests(system)
    assert len(found) > len(get_system(system).workloads)
    assert {case: n for case, n in found.items() if n} == {}


def test_a_blackbox_fuzzing_run_is_freed_too():
    fuzzer = BlackboxFuzzer(get_system("toy"), CSnakeConfig(seed=3), runs_per_workload=1)
    assert unreachable_after(fuzzer.run) == 0
