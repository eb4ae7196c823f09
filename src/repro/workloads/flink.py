"""Integration-test workloads for MiniFlink.

Condition splits: backpressure lives in the streaming soak (no restart
strategy there), the restart strategy only exists in the fault-tolerance
tests, dirty-restart replay only in the rescale test, and checkpoint
failure handling only in the checkpoint tests.
"""

from __future__ import annotations

from typing import List

from ..instrument.runtime import Runtime
from ..sim import SimEnv
from ..systems.base import WorkloadSpec
from ..systems.miniflink.nodes import FlinkConfig, JobManager, TaskManager


def build_job(env: SimEnv, rt: Runtime, cfg: FlinkConfig) -> JobManager:
    jm = JobManager(env, rt, cfg)
    head = TaskManager(env, rt, cfg, "head", 0)
    agg = TaskManager(env, rt, cfg, "agg", 1)
    sink = TaskManager(env, rt, cfg, "sink", 2)
    jm.attach(head, agg, sink)
    return jm


def wl_stream_heavy(env: SimEnv, rt: Runtime) -> None:
    """Streaming soak: large record batches with tight forward timeouts and
    no restart strategy — pure backpressure behaviour."""
    cfg = FlinkConfig(records_per_tick=25, forward_timeout_ms=10_000.0,
                      restart_strategy="none", head_fail_after=1)
    build_job(env, rt, cfg)


def wl_restart_strategy(env: SimEnv, rt: Runtime) -> None:
    """Fault-tolerance test: the full restart strategy with a buffering
    sink (cancellation must drain in-flight records)."""
    cfg = FlinkConfig(records_per_tick=12, forward_timeout_ms=30_000.0,
                      restart_strategy="full", cancel_drain_cap=0,
                      sink_flush_interval_ms=10_000.0, replay_batch=30)
    build_job(env, rt, cfg)


def wl_rescale(env: SimEnv, rt: Runtime) -> None:
    """Rescaling test: periodic clean restarts; a failed cancellation turns
    them into dirty restarts that replay records."""
    cfg = FlinkConfig(records_per_tick=8, forward_timeout_ms=30_000.0,
                      rescale_interval_ms=15_000.0, replay_batch=50,
                      cancel_drain_cap=100)
    build_job(env, rt, cfg)


def wl_checkpoint_barrier(env: SimEnv, rt: Runtime) -> None:
    """Checkpoint soak: barriers every five seconds over a loaded
    aggregator; alignment fails if the backlog is deep."""
    cfg = FlinkConfig(records_per_tick=18, forward_timeout_ms=30_000.0,
                      checkpoints=True, cp_interval_ms=5_000.0, cp_align_cap=40,
                      head_fail_after=1_000)
    build_job(env, rt, cfg)


def wl_checkpoint_failover(env: SimEnv, rt: Runtime) -> None:
    """Checkpoint failure handling: a failed barrier cancels the task and
    dirty-restarts the job (cancel can land mid-restore)."""
    cfg = FlinkConfig(records_per_tick=10, forward_timeout_ms=30_000.0,
                      checkpoints=True, cp_interval_ms=6_000.0, cp_align_cap=40,
                      cp_failure_action="fail_task", restart_strategy="full",
                      replay_batch=150, rescale_interval_ms=20_000.0,
                      deploy_grace_ms=8_000.0, head_fail_after=1_000,
                      cancel_drain_cap=1_000)
    build_job(env, rt, cfg)


def wl_batch_small(env: SimEnv, rt: Runtime) -> None:
    """Baseline small-batch job."""
    cfg = FlinkConfig(records_per_tick=5, forward_timeout_ms=30_000.0)
    build_job(env, rt, cfg)


def wl_idle(env: SimEnv, rt: Runtime) -> None:
    """Smoke test: a trickle of records."""
    cfg = FlinkConfig(records_per_tick=2, source_interval_ms=6_000.0,
                      forward_timeout_ms=30_000.0)
    build_job(env, rt, cfg)


def flink_workloads() -> List[WorkloadSpec]:
    return [
        WorkloadSpec("flink.stream_heavy", wl_stream_heavy),
        WorkloadSpec("flink.restart_strategy", wl_restart_strategy),
        WorkloadSpec("flink.rescale", wl_rescale),
        WorkloadSpec("flink.checkpoint_barrier", wl_checkpoint_barrier),
        WorkloadSpec("flink.checkpoint_failover", wl_checkpoint_failover),
        WorkloadSpec("flink.batch_small", wl_batch_small),
        WorkloadSpec("flink.idle", wl_idle, duration_ms=60_000.0),
    ]
