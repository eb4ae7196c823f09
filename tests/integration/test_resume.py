"""Integration: an interrupted session resumes to a bit-identical report.

Simulates the acceptance scenario: a campaign killed right after the
allocation stage (its artifacts already persisted) is resumed and must
produce a report identical to an uninterrupted straight-through run —
experiment seeds are deterministic per (test, repetition), so nothing may
drift across the interruption.
"""

import pytest

from repro.config import CSnakeConfig
from repro.errors import SessionError
from repro.pipeline import EventRecorder, Pipeline, Session, default_stages
from repro.pipeline.events import STAGE_FINISHED, STAGE_RESUMED, STAGE_STARTED
from repro.systems import get_system

FAST = dict(repeats=3, delay_values_ms=(500.0, 2000.0, 8000.0), seed=7)


@pytest.fixture(scope="module")
def straight_report():
    ctx = Pipeline.default(get_system("toy"), CSnakeConfig(**FAST)).run()
    return ctx.get("report")


def test_interrupt_after_allocation_then_resume(tmp_path, straight_report):
    cfg = CSnakeConfig(**FAST)
    session = Session.attach(tmp_path, "toy", cfg)
    # "Crash" after the allocation stage: run only the first three stages.
    prefix = [s for s in default_stages() if s.name in ("analyze", "profile", "allocate")]
    Pipeline(get_system("toy"), cfg, stages=prefix, session=session).run()
    assert sorted(Session.open(tmp_path).completed) == [
        "allocation",
        "analysis",
        "profiles",
    ]

    recorder = EventRecorder()
    reopened = Session.open(tmp_path)
    ctx = Pipeline(
        get_system("toy"), reopened.config, session=reopened, observers=[recorder]
    ).run()

    # The completed prefix is loaded, not re-run; the tail runs live.
    for name in ("analyze", "profile", "allocate"):
        assert recorder.kinds(name) == [STAGE_RESUMED]
    assert recorder.kinds("search") == [STAGE_STARTED, STAGE_FINISHED]
    assert recorder.kinds("report") == [STAGE_STARTED, STAGE_FINISHED]

    assert ctx.get("report").to_dict() == straight_report.to_dict()


def test_interrupt_after_profile_reruns_allocation_identically(tmp_path, straight_report):
    cfg = CSnakeConfig(**FAST)
    session = Session.attach(tmp_path, "toy", cfg)
    prefix = [s for s in default_stages() if s.name in ("analyze", "profile")]
    Pipeline(get_system("toy"), cfg, stages=prefix, session=session).run()

    reopened = Session.open(tmp_path)
    ctx = Pipeline(get_system("toy"), reopened.config, session=reopened).run()
    assert ctx.get("report").to_dict() == straight_report.to_dict()


def test_resume_with_parallel_workers_is_identical(tmp_path, straight_report):
    cfg = CSnakeConfig(**FAST)
    session = Session.attach(tmp_path, "toy", cfg)
    prefix = [s for s in default_stages() if s.name in ("analyze", "profile")]
    Pipeline(get_system("toy"), cfg, stages=prefix, session=session).run()

    import dataclasses

    reopened = Session.open(tmp_path)
    parallel_cfg = dataclasses.replace(reopened.config, experiment_workers=4)
    ctx = Pipeline(get_system("toy"), parallel_cfg, session=reopened).run()
    assert ctx.get("report").to_dict() == straight_report.to_dict()


def test_completed_session_resumes_without_rerunning(tmp_path, straight_report):
    cfg = CSnakeConfig(**FAST)
    session = Session.attach(tmp_path, "toy", cfg)
    Pipeline(get_system("toy"), cfg, session=session).run()

    recorder = EventRecorder()
    reopened = Session.open(tmp_path)
    ctx = Pipeline(
        get_system("toy"), reopened.config, session=reopened, observers=[recorder]
    ).run()
    assert all(e.kind == STAGE_RESUMED for e in recorder.events if e.stage is not None)
    assert ctx.get("report").to_dict() == straight_report.to_dict()


def test_open_missing_session_raises(tmp_path):
    with pytest.raises(SessionError, match="manifest"):
        Session.open(tmp_path / "nope")


def test_session_of_an_older_schema_is_refused_by_name(tmp_path):
    """A schema-1 session may carry ``experiment_backend: "thread"``; it is
    refused up front instead of failing config validation mid-resume."""
    import json

    Session.attach(tmp_path, "toy", CSnakeConfig(**FAST))
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema"] = 1
    manifest["config"]["experiment_backend"] = "thread"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SessionError, match="session schema 1 is not the supported 2"):
        Session.open(tmp_path)
