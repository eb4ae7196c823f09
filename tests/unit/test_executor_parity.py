"""Serial and process campaigns must be bit-identical.

A parallel executor only changes *where* experiments execute, never
which experiments run or in which order their results commit — so the
edge DB (including merged local-state sets), every counter, and the final
report must match exactly, whatever the worker count (three workers and
two are both compared with serial).  Work items are rebuilt by name
inside worker processes, and profile groups are recomputed there, which
must not change a single bit of the output.
"""

import pytest

from repro.config import CSnakeConfig
from repro.pipeline import Pipeline
from repro.systems import get_system

FAST = dict(repeats=2, delay_values_ms=(500.0, 8000.0), seed=7, budget_per_fault=2)


def _campaign(workers, backend="process"):
    cfg = CSnakeConfig(
        experiment_workers=workers, experiment_backend=backend, **FAST
    )
    try:
        return Pipeline.default(get_system("toy"), cfg).run()
    except (ImportError, OSError, PermissionError) as exc:
        # Sandboxes without working process pools (no /dev/shm, seccomp)
        # skip rather than fail: the contract is tested where it can run.
        pytest.skip("process backend unavailable: %s" % exc)


@pytest.fixture(scope="module")
def campaigns():
    return _campaign(1, "serial"), _campaign(3)


@pytest.fixture(scope="module")
def process_campaign():
    return _campaign(2)


def _edge_view(ctx):
    return [
        (e.key(), e.src_states, e.dst_states) for e in ctx.driver.edges.all_edges()
    ]


def test_edge_db_identical(campaigns):
    serial, parallel = campaigns
    assert _edge_view(serial) == _edge_view(parallel)
    assert len(serial.driver.edges) > 0


def test_counters_identical(campaigns):
    serial, parallel = campaigns
    assert serial.driver.runs_executed == parallel.driver.runs_executed
    assert serial.driver.experiments_run == parallel.driver.experiments_run


def test_allocation_schedule_identical(campaigns):
    serial, parallel = campaigns
    a = serial.get("allocation").outcome
    b = parallel.get("allocation").outcome
    assert [(r.phase, r.fault, r.test_id) for r in a.records] == [
        (r.phase, r.fault, r.test_id) for r in b.records
    ]
    assert a.cluster_scores == b.cluster_scores
    assert a.fault_scores == b.fault_scores


def test_report_identical(campaigns):
    serial, parallel = campaigns
    assert serial.get("report").to_dict() == parallel.get("report").to_dict()


def test_process_edge_db_identical(campaigns, process_campaign):
    serial, _ = campaigns
    assert _edge_view(serial) == _edge_view(process_campaign)


def test_process_counters_identical(campaigns, process_campaign):
    serial, _ = campaigns
    assert serial.driver.runs_executed == process_campaign.driver.runs_executed
    assert serial.driver.experiments_run == process_campaign.driver.experiments_run


def test_process_report_identical(campaigns, process_campaign):
    serial, _ = campaigns
    assert serial.get("report").to_dict() == process_campaign.get("report").to_dict()


def test_process_backend_rejects_unregistered_spec():
    """Workers rebuild the system by registry name, so an ad-hoc spec
    fails fast — before any worker starts — once workers > 1."""
    import dataclasses

    from repro.errors import ReproError

    spec = dataclasses.replace(get_system("toy"), name="not-registered")
    with pytest.raises(ReproError, match="use the serial backend"):
        Pipeline.default(spec, CSnakeConfig(experiment_workers=2, **FAST)).run()
    assert Pipeline.default(spec, CSnakeConfig(**FAST)).run().get("report") is not None


def test_parallel_profile_cache_identical():
    from repro.core.driver import ExperimentDriver
    from repro.pipeline import ProcessExecutor

    spec = get_system("toy")
    cfg = CSnakeConfig(**FAST)
    serial = ExperimentDriver(spec, cfg)
    serial.profile_all()
    parallel = ExperimentDriver(spec, cfg)
    with ProcessExecutor(4) as pool:
        parallel.profile_all(pool)
    assert serial.runs_executed == parallel.runs_executed
    assert serial.profiles() == parallel.profiles()
