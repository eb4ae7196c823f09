"""Integration-test workloads for MiniOzone."""

from __future__ import annotations

from typing import List

from ..instrument.runtime import Runtime
from ..sim import SimEnv
from ..systems.base import WorkloadSpec
from ..systems.miniozone.nodes import SCM, OzoneClient, OzoneConfig, OzoneDN


def build_cluster(env: SimEnv, rt: Runtime, cfg: OzoneConfig,
                  preload_containers: int = 0) -> SCM:
    scm = SCM(env, rt, cfg)
    dns = [OzoneDN(env, rt, scm, cfg, i) for i in range(cfg.n_datanodes)]
    for c in range(preload_containers):
        dns[c % len(dns)].containers["pre-c%d" % c] = 1
    scm.pipelines.append([dn.name for dn in dns[: cfg.pipeline_size]])
    return scm


def wl_reports_heavy(env: SimEnv, rt: Runtime) -> None:
    """Container-report storm: many containers per node with a low queue
    saturation threshold; failed dispatches are dropped (no requeue)."""
    cfg = OzoneConfig(eventq_saturation=160, eventq_requeue=False,
                      dispatch_tick_ms=1_500.0, report_batch=8)
    scm = build_cluster(env, rt, cfg, preload_containers=120)
    for i in range(2):
        OzoneClient(env, rt, scm, i, keys_per_tick=6, interval_ms=2_000.0)


def wl_requeue(env: SimEnv, rt: Runtime) -> None:
    """Event-queue requeue configuration test: failed dispatches are
    re-queued (with a resync batch), light report traffic."""
    cfg = OzoneConfig(eventq_saturation=40, eventq_requeue=True,
                      requeue_resync=15, report_batch=6)
    scm = build_cluster(env, rt, cfg, preload_containers=40)
    OzoneClient(env, rt, scm, 0, keys_per_tick=2, interval_ms=4_000.0)


def wl_hb_pipeline(env: SimEnv, rt: Runtime) -> None:
    """Heartbeat/pipeline drill: tight dead-node timeout over a minimal
    cluster — pipeline health follows heartbeat freshness closely."""
    cfg = OzoneConfig(n_datanodes=3, dead_timeout_ms=15_000.0,
                      pipeline_tick_ms=4_000.0)
    scm = build_cluster(env, rt, cfg, preload_containers=60)
    OzoneClient(env, rt, scm, 0, keys_per_tick=3, interval_ms=3_000.0)


def wl_repl_heavy(env: SimEnv, rt: Runtime) -> None:
    """Replication soak: a steady stream of replication commands with
    tight push timeouts."""
    cfg = OzoneConfig(repl_push_timeout_ms=10_000.0, repl_cost_ms=2.0,
                      dead_timeout_ms=60_000.0, repl_trickle=2)
    scm = build_cluster(env, rt, cfg, preload_containers=80)
    for i in range(40):
        scm.under_replicated.append("seed-c%d" % i)
    OzoneClient(env, rt, scm, 0, keys_per_tick=3, interval_ms=3_000.0)


def wl_pipeline_small(env: SimEnv, rt: Runtime) -> None:
    """Pipeline creation on a minimal cluster: any excluded node makes
    creation fail."""
    cfg = OzoneConfig(n_datanodes=3, dead_timeout_ms=60_000.0,
                      repl_push_timeout_ms=30_000.0, repl_trickle=1,
                      pipeline_rotation_ms=12_000.0)
    scm = build_cluster(env, rt, cfg, preload_containers=40)
    for i in range(10):
        scm.under_replicated.append("seed-c%d" % i)
    OzoneClient(env, rt, scm, 0, keys_per_tick=2, interval_ms=4_000.0)


def wl_fallback_repl(env: SimEnv, rt: Runtime) -> None:
    """Pipeline-failure fallback: when creation fails, the SCM re-replicates
    through existing pipelines instead."""
    cfg = OzoneConfig(n_datanodes=3, dead_timeout_ms=60_000.0,
                      fallback_replication=True, fallback_batch=20,
                      repl_push_timeout_ms=30_000.0, repl_trickle=1,
                      pipeline_rotation_ms=12_000.0)
    scm = build_cluster(env, rt, cfg, preload_containers=40)
    for i in range(10):
        scm.under_replicated.append("seed-c%d" % i)
    OzoneClient(env, rt, scm, 0, keys_per_tick=2, interval_ms=4_000.0)


def wl_idle(env: SimEnv, rt: Runtime) -> None:
    """Smoke test: light object-store traffic."""
    cfg = OzoneConfig()
    scm = build_cluster(env, rt, cfg, preload_containers=10)
    OzoneClient(env, rt, scm, 0, keys_per_tick=1, interval_ms=8_000.0)


def ozone_workloads() -> List[WorkloadSpec]:
    return [
        WorkloadSpec("ozone.reports_heavy", wl_reports_heavy),
        WorkloadSpec("ozone.requeue", wl_requeue),
        WorkloadSpec("ozone.hb_pipeline", wl_hb_pipeline),
        WorkloadSpec("ozone.repl_heavy", wl_repl_heavy),
        WorkloadSpec("ozone.pipeline_small", wl_pipeline_small),
        WorkloadSpec("ozone.fallback_repl", wl_fallback_repl),
        WorkloadSpec("ozone.idle", wl_idle, duration_ms=60_000.0),
    ]
