#!/usr/bin/env python3
"""Campaign benchmark: end-to-end walls and a per-layer time budget.

    python3 benchmarks/campaign_bench/run.py --workload hdfs2_cold \\
        --seed 1 --seconds 20 --trace 0

One process per workload, one client, one campaign at a time (closed
loop).  A rep is ``with make_executor(...)`` + ``Pipeline.default(
get_system(S), cfg, ...)`` + ``.run()``, timed from outside.  The
workload sets itself up (spec build + one serial campaign that yields the
reference digest, fills the cache for ``hdfs2_warm`` and warms lazy
imports), then repeats the campaign until ``--seconds`` are used and
reports medians.  With ``--trace 1`` every other rep runs with the
layers' public callables wrapped (see ``tracing.py``) and the per-layer
metrics are reported.  Without ``--workload`` the runner starts itself
once per workload, so that no workload's memory peak or warmed caches
reach the next one's numbers.

Times are *nominal* seconds: measured seconds corrected for how fast the
host was while they passed (``calibration.py`` has the why and the how).
The measured seconds are printed beside them and kept in ``--out``.

Every metric is printed by name with its unit; the last line of standard
output is the JSON object ``BENCHMARK.json``'s driver reads.  README.md
in this directory has the metric tables and the reasons.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from calibration import HostCalibration  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME, CAMPAIGN_SEED, PINNED_BUGS, SMOKE_SYSTEM, WORKLOADS, Workload,
)

#: The fewest timed reps of an untraced run, and the fewest (untraced,
#: traced) pairs of a traced one.
MIN_REPS = 3
MIN_TRACED_ROUNDS = 2

END_TO_END_UNITS: Dict[str, str] = {
    "campaign_wall_s": "s",
    "campaign_cpu_s": "s",
    "experiments_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS: Dict[str, str] = {
    "pipeline.analyze_s": "s",
    "pipeline.profile_s": "s",
    "pipeline.allocate_s": "s",
    "pipeline.search_s": "s",
    "pipeline.report_s": "s",
    "pipeline.executor_map_s": "s",
    "pipeline.executor_calls": "count",
    "pipeline.executor_items": "count",
    "pipeline.process_speedup": "ratio",
    "sim.run_s": "s",
    "sim.runs": "count",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.us_per_event": "us",
    "sim.saturated_runs": "count",
    "instrument.bare_s": "s",
    "instrument.instrumented_s": "s",
    "instrument.overhead_pct": "%",
    "driver.run_workload_s": "s",
    "driver.run_workload_self_s": "s",
    "driver.execute_self_s": "s",
    "driver.dispatch_self_s": "s",
    "driver.runs_executed": "count",
    "driver.experiments": "count",
    "fca.analyze_s": "s",
    "fca.calls": "count",
    "fca.edges_found": "count",
    "allocation.run_s": "s",
    "allocation.self_s": "s",
    "allocation.records": "count",
    "cache.lookup_s": "s",
    "cache.store_s": "s",
    "cache.key_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.stores": "count",
    "cache.bytes_on_disk": "bytes",
    "faults.env_experiments": "count",
    "faults.schedule_experiments": "count",
    "beam.search_s": "s",
    "beam.edges_in": "count",
    "beam.chains_explored": "count",
    "beam.checks": "count",
    "beam.cycles_found": "count",
    "beam.cycles_per_s": "1/s",
    "report.build_s": "s",
    "report.cycle_clusters": "count",
    "analysis.slice_s": "s",
    "analysis.total_s": "s",
    "analysis.calls_resolved_frac": "ratio",
    "analysis.sites_unresolved": "count",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "trace.missing_spans": "count",
}


# ------------------------------------------------------------------ program


def program_source() -> Path:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit("campaign_bench: no program to measure: %s is missing" % (src / "repro"))
    return src


def load_program() -> SimpleNamespace:
    """Import the program under test from this checkout's ``src``."""
    src = program_source()
    sys.path.insert(0, str(src))
    # Worker processes of the process backend resolve ``repro`` by import.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    from repro.config import CSnakeConfig
    from repro.faults import expand_kinds, model_for, registered_schedules
    from repro.pipeline import EventRecorder, Pipeline, make_executor
    from repro.serialize import edge_to_obj
    from repro.systems import get_system

    return SimpleNamespace(
        CSnakeConfig=CSnakeConfig, expand_kinds=expand_kinds, model_for=model_for,
        registered_schedules=registered_schedules, EventRecorder=EventRecorder,
        Pipeline=Pipeline, make_executor=make_executor, edge_to_obj=edge_to_obj,
        get_system=get_system,
    )


def build_config(
    program: SimpleNamespace, workload: Workload, smoke: bool,
    cache_dir: Optional[str], backend: str, workers: int,
) -> Any:
    params = dict(workload.smoke_config if smoke else workload.config)
    if params.get("fault_kinds") == "all":
        params["fault_kinds"] = program.expand_kinds("all")
    if params.get("schedules") == "all":
        params["schedules"] = tuple(program.registered_schedules())
    return program.CSnakeConfig(
        seed=CAMPAIGN_SEED, cache_dir=cache_dir,
        experiment_backend=backend, experiment_workers=workers, **params,
    )


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set this process or any reaped child ever had
    (Linux: KiB).  It is a lifetime maximum, which is why every workload
    is measured in a process of its own."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def run_campaign(
    program: SimpleNamespace, calib: HostCalibration, system: str, config: Any,
    tracer: Optional[Tracer] = None,
) -> SimpleNamespace:
    """One timed rep; digest and bug set are computed outside the timing.

    ``wall`` and ``cpu`` are nominal seconds (measured x ``factor``).
    """
    gc.collect()
    recorder = program.EventRecorder()
    mark = calib.mark()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.reset()
    with tracer.span("campaign") if tracer is not None else contextlib.nullcontext():
        with program.make_executor(
            config.experiment_workers, config.experiment_backend
        ) as executor:
            ctx = program.Pipeline.default(
                program.get_system(system), config, executor=executor, observers=[recorder]
            ).run()
    raw_wall = time.perf_counter() - t0
    raw_cpu = cpu_seconds() - cpu0
    factor = calib.factor(mark)
    report = ctx.get("report")
    payload = {
        "report": report.to_dict(),
        "edges": [program.edge_to_obj(e) for e in ctx.driver.edges.all_edges()],
    }
    return SimpleNamespace(
        wall=raw_wall * factor, cpu=raw_cpu * factor, raw_wall=raw_wall, factor=factor,
        ctx=ctx, report=report,
        digest=hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest(),
        detected=sorted(report.detected_bugs),
        experiments=ctx.driver.experiments_run,
        stages={
            e.stage: e.seconds * factor for e in recorder.events if e.kind == "stage_finished"
        },
    )


# ------------------------------------------------------------------ tracing


def _sim_probe(counts: Dict[str, float], args: tuple) -> Callable[[Any], None]:
    env = args[0]
    before = env.events_processed

    def done(_result: Any) -> None:
        counts["sim.events"] += env.events_processed - before
        counts["sim.saturated_runs"] += bool(env.saturated)

    return done


def _map_probe(counts: Dict[str, float], args: tuple) -> None:
    items = args[2]
    counts["pipeline.executor_items"] += len(items) if hasattr(items, "__len__") else 0


def _fca_probe(counts: Dict[str, float], _args: tuple) -> Callable[[Any], None]:
    def done(result: Any) -> None:
        counts["fca.edges_found"] += len(result.edges)

    return done


def _beam_probe(counts: Dict[str, float], args: tuple) -> None:
    counts["beam.edges_in"] += len(args[1])


#: (target, span name, probe).  Several targets may feed one span name.
SPAN_TARGETS = (
    ("repro.pipeline.executor:SerialExecutor.map", "pipeline.executor_map", _map_probe),
    ("repro.pipeline.executor:ProcessExecutor.map", "pipeline.executor_map", _map_probe),
    ("repro.sim:SimEnv.run", "sim.run", _sim_probe),
    ("repro.core.driver:run_workload", "driver.run_workload", None),
    ("repro.core.driver:ExperimentDriver.execute_experiment", "driver.execute", None),
    ("repro.core.driver:ExperimentDriver.run_experiment", "driver.dispatch", None),
    ("repro.core.driver:ExperimentDriver.run_experiments", "driver.dispatch", None),
    ("repro.core.fca:FaultCausalityAnalysis.analyze", "fca.analyze", _fca_probe),
    ("repro.core.allocation:ThreePhaseAllocator.run", "allocation.run", None),
    ("repro.cache:ExperimentCache.profile_key", "cache.key", None),
    ("repro.cache:ExperimentCache.experiment_key", "cache.key", None),
    ("repro.cache:ExperimentCache.lookup_profile", "cache.lookup", None),
    ("repro.cache:ExperimentCache.lookup_experiment", "cache.lookup", None),
    ("repro.cache:ExperimentCache.store_profile", "cache.store", None),
    ("repro.cache:ExperimentCache.store_experiment", "cache.store", None),
    ("repro.core.beam:BeamSearch.search", "beam.search", _beam_probe),
    # stages.py binds build_report by name, so the binding there is wrapped.
    ("repro.pipeline.stages:build_report", "report.build", None),
    ("repro.analysis:analyze_system", "analysis.slice", None),
)


def dir_bytes(path: Optional[str]) -> int:
    if not path or not os.path.isdir(path):
        return 0
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def layer_metrics(
    program: SimpleNamespace, tracer: Tracer, rep: SimpleNamespace, cache_dir: Optional[str]
) -> Dict[str, Optional[float]]:
    """Per-layer numbers of one traced rep (``None``: its span is missing)."""
    times = tracer.layer_times()
    counts = tracer.counts

    def field(span: str, key: str) -> Optional[float]:
        if span in tracer.missing:
            return None
        value = times.get(span, {}).get(key, 0.0)
        return value if key == "calls" else value * rep.factor

    def per(numerator: Optional[float], denominator: Optional[float], scale: float = 1.0):
        if numerator is None or denominator is None:
            return None
        return numerator / denominator * scale if denominator else 0.0

    def counted(span: str, key: str) -> Optional[float]:
        return None if span in tracer.missing else counts.get(key, 0)

    def read(getter: Callable[[], float]) -> Optional[float]:
        """A count read off the campaign's objects; ``None`` once a later
        change has renamed what it was read from."""
        try:
            return getter()
        except (AttributeError, KeyError, TypeError):
            return None

    driver = rep.ctx.driver
    beam = rep.ctx.get("beam")
    records = read(lambda: rep.ctx.get("allocation").outcome.records)
    cache = read(lambda: driver.cache.stats() if driver.cache is not None else {})
    schedules = set(program.registered_schedules())
    out: Dict[str, Optional[float]] = {
        "pipeline.%s_s" % stage: rep.stages.get(stage, 0.0)
        for stage in ("analyze", "profile", "allocate", "search", "report")
    }
    out.update({
        "pipeline.executor_map_s": field("pipeline.executor_map", "total_s"),
        "pipeline.executor_calls": field("pipeline.executor_map", "calls"),
        "pipeline.executor_items": counted("pipeline.executor_map", "pipeline.executor_items"),
        "sim.run_s": field("sim.run", "total_s"),
        "sim.runs": field("sim.run", "calls"),
        "sim.events": counted("sim.run", "sim.events"),
        "sim.events_per_s": per(counted("sim.run", "sim.events"), field("sim.run", "total_s")),
        "sim.us_per_event": per(field("sim.run", "total_s"), counted("sim.run", "sim.events"), 1e6),
        "sim.saturated_runs": counted("sim.run", "sim.saturated_runs"),
        "driver.run_workload_s": field("driver.run_workload", "total_s"),
        "driver.run_workload_self_s": field("driver.run_workload", "self_s"),
        "driver.execute_self_s": field("driver.execute", "self_s"),
        "driver.dispatch_self_s": field("driver.dispatch", "self_s"),
        "driver.runs_executed": read(lambda: driver.runs_executed),
        "driver.experiments": read(lambda: driver.experiments_run),
        "fca.analyze_s": field("fca.analyze", "total_s"),
        "fca.calls": field("fca.analyze", "calls"),
        "fca.edges_found": counted("fca.analyze", "fca.edges_found"),
        "allocation.run_s": field("allocation.run", "total_s"),
        "allocation.self_s": field("allocation.run", "self_s"),
        "allocation.records": read(lambda: len(records)),
        "cache.lookup_s": field("cache.lookup", "total_s"),
        "cache.store_s": field("cache.store", "total_s"),
        "cache.key_s": field("cache.key", "total_s"),
        "cache.hits": read(lambda: cache.get("hits", 0)),
        "cache.misses": read(lambda: cache.get("misses", 0)),
        "cache.stores": read(lambda: cache.get("stores", 0)),
        "cache.bytes_on_disk": dir_bytes(cache_dir),
        "faults.env_experiments": read(lambda: sum(
            1 for r in records if program.model_for(r.fault.kind).environment
        )),
        "faults.schedule_experiments": read(lambda: sum(
            1 for r in records if getattr(r.fault.kind, "value", r.fault.kind) in schedules
        )),
        "beam.search_s": field("beam.search", "total_s"),
        "beam.edges_in": counted("beam.search", "beam.edges_in"),
        "beam.chains_explored": read(lambda: beam.chains_explored),
        "beam.checks": read(lambda: beam.compat.checks if beam.compat is not None else 0),
        "beam.cycles_found": read(lambda: len(beam.cycles)),
        "beam.cycles_per_s": per(read(lambda: len(beam.cycles)), field("beam.search", "total_s")),
        "report.build_s": field("report.build", "total_s"),
        "report.cycle_clusters": read(lambda: len(rep.report.cycle_clusters)),
        "analysis.slice_s": field("analysis.slice", "total_s"),
        "trace.unattributed_pct": per(field("campaign", "self_s"), rep.wall, 100.0),
    })
    return out


def instrument_overhead(
    calib: HostCalibration, system: str, rounds: int = 3
) -> Dict[str, Optional[float]]:
    """Every profile workload of the system with the runtime agent
    disabled against enabled, best of ``rounds`` each (the §8.5 method)."""
    mark = calib.mark()
    try:
        from repro.instrument.runtime import Runtime
        from repro.instrument.trace import RunTrace
        from repro.sim import SimEnv
        from repro.systems import get_system

        spec = get_system(system)

        def once(test_id: str, enabled: bool) -> float:
            workload = spec.workloads[test_id]
            runtime = Runtime(spec.registry, trace=RunTrace(test_id=test_id), enabled=enabled)
            env = SimEnv(workload.sim_config, seed=99)
            runtime.bind_env(env)
            env.runtime = runtime
            t0 = time.perf_counter()
            workload.setup(env, runtime)
            env.run(workload.duration_ms)
            return time.perf_counter() - t0

        bare = inst = 0.0
        for test_id in spec.workload_ids():
            # Alternating, so that the host's drift falls on both alike.
            pairs = [(once(test_id, False), once(test_id, True)) for _ in range(rounds)]
            bare += min(pair[0] for pair in pairs)
            inst += min(pair[1] for pair in pairs)
    except (ImportError, AttributeError, TypeError):
        return dict.fromkeys(
            ("instrument.bare_s", "instrument.instrumented_s", "instrument.overhead_pct")
        )
    factor = calib.factor(mark)
    return {
        "instrument.bare_s": bare * factor,
        "instrument.instrumented_s": inst * factor,
        "instrument.overhead_pct": (inst - bare) / bare * 100.0,
    }


def analysis_stats(calib: HostCalibration, system: str) -> Dict[str, Optional[float]]:
    """Fresh code-slice analysis of the system: wall and resolution rates."""
    names = ("analysis.total_s", "analysis.calls_resolved_frac", "analysis.sites_unresolved")
    mark = calib.mark()
    try:
        from repro.analysis import analyze_system
        from repro.analysis.source import live_sources
        from repro.systems import get_system

        spec = get_system(system)
        if not spec.source_modules:
            return dict.fromkeys(names, 0.0)
        stats = analyze_system(spec, live_sources(spec.source_modules)).stats()
        seen = stats["calls_seen"]
        return {
            "analysis.total_s": calib.factor(mark)
            * sum(v for k, v in stats.items() if k.startswith("wall_")),
            "analysis.calls_resolved_frac": stats["calls_resolved"] / seen if seen else 0.0,
            "analysis.sites_unresolved": stats["sites_unresolved"],
        }
    except (ImportError, AttributeError, KeyError, TypeError):
        return dict.fromkeys(names)


# ---------------------------------------------------------------- measuring


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, min, max, n, and the highest percentile that still has at
    least ten samples beyond it (when n allows one above the median)."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "min": ordered[0], "max": ordered[-1], "n": n}
    if n >= 23:
        out["p%d" % (100 * (n - 11) // (n - 1))] = ordered[n - 11]
    return out


def host_info() -> Dict[str, Any]:
    return {
        "pid": os.getpid(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def measure(
    program: SimpleNamespace, calib: HostCalibration, workload: Workload,
    args: argparse.Namespace, tmp_root: str, import_s: float, host: Dict[str, Any],
) -> Dict[str, Any]:
    system = SMOKE_SYSTEM if args.smoke else workload.system
    if workload.workers > host["nproc"]:
        raise SystemExit(
            "campaign_bench: %s needs %d workers but this host has %d processors"
            % (workload.name, workload.workers, host["nproc"])
        )
    pinned = PINNED_BUGS.get(system, ())

    def fresh_dir() -> str:
        return tempfile.mkdtemp(prefix=workload.name + "-", dir=tmp_root)

    def config_for(cache_dir: Optional[str], backend: str, workers: int) -> Any:
        return build_config(program, workload, args.smoke, cache_dir, backend, workers)

    # Set-up: spec build + one serial campaign (reference digest, cache
    # fill, lazy imports).
    mark = calib.mark()
    t0 = time.perf_counter()
    cache_dir = fresh_dir() if workload.cache else None
    reference = run_campaign(program, calib, system, config_for(cache_dir, "serial", 1))
    setup_s = import_s + (time.perf_counter() - t0) * calib.factor(mark)
    reference.ctx = reference.report = None

    errors: List[str] = []
    attempted = failed = 0

    def one_rep(tracer: Optional[Tracer]) -> Optional[SimpleNamespace]:
        """One checked campaign; ``None`` when it raised."""
        nonlocal attempted, failed
        rep_dir = fresh_dir() if workload.cache == "cold" else cache_dir
        config = config_for(rep_dir, workload.backend, workload.workers)
        attempted += 1
        try:
            rep = run_campaign(program, calib, system, config, tracer)
        except Exception as exc:  # a rep that raised is a failed operation, not a crash
            failed += 1
            errors.append("rep raised %s: %s" % (type(exc).__name__, exc))
            return None
        rep.parity = rep.digest == reference.digest
        rep.bugs_frac = len(set(pinned) & set(rep.detected)) / len(pinned) if pinned else 1.0
        if not rep.parity or rep.bugs_frac < 1.0:
            failed += 1
            errors.append(
                "rep digest %s (reference %s), detected %s (pinned %s)"
                % (rep.digest[:12], reference.digest[:12],
                   ",".join(rep.detected), ",".join(pinned))
            )
        if tracer is not None:
            rep.layers = layer_metrics(program, tracer, rep, rep_dir)
            rep.spans = tracer.spans  # reset() hands the next rep a fresh list
        rep.ctx = rep.report = None  # free the campaign's objects before the next rep
        if workload.cache == "cold":
            shutil.rmtree(rep_dir, ignore_errors=True)
        return rep

    # Rounds until the next one would overrun the window.  A traced run
    # alternates untraced and traced reps, so that the host's drift (which
    # is larger than the tracing overhead) falls on both alike.
    tracer = Tracer() if args.trace else None
    untraced: List[SimpleNamespace] = []
    traced: List[SimpleNamespace] = []
    min_rounds = 1 if args.smoke else (MIN_TRACED_ROUNDS if tracer is not None else MIN_REPS)
    started = time.perf_counter()
    longest_round = 0.0
    while True:
        round_started = time.perf_counter()
        rep = one_rep(None)
        if rep is None:
            break
        untraced.append(rep)
        if tracer is not None:
            for target, name, probe in SPAN_TARGETS:
                tracer.wrap(target, name, probe)
            try:
                rep = one_rep(tracer)
            finally:
                tracer.unwrap_all()
            if rep is None:
                break
            traced.append(rep)
        now = time.perf_counter()  # the window is measured seconds, not nominal ones
        longest_round = max(longest_round, now - round_started)
        if len(untraced) >= min_rounds and now - started + longest_round > args.seconds:
            break

    every = untraced + traced
    result: Dict[str, Any] = {
        "schema": 1,
        "workload": workload.name,
        "system": system,
        "smoke": args.smoke,
        "backend": workload.backend,
        "workers": workload.workers,
        "cache": workload.cache,
        "seed": args.seed,
        "campaign_seed": CAMPAIGN_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "claim": None,
        "host": host,
        "config": {
            k: v for k, v in config_for(None, workload.backend, workload.workers).to_dict().items()
            if k != "cache_dir"
        },
        "reps": {"untraced": len(untraced), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "reference_digest": reference.digest,
        "digests": sorted({r.digest for r in every}),
        "detected_bugs": reference.detected,
        "pinned_bugs": list(pinned),
        "missing_spans": list(tracer.missing) if tracer is not None else [],
    }
    if not untraced:
        result.update(correct=False, end_to_end={}, per_layer={}, samples={}, checks={})
        return result

    detected_frac = min(r.bugs_frac for r in every)
    parity = float(all(r.parity for r in every))
    samples = {
        "setup_s": [setup_s],
        "campaign_wall_s": [r.wall for r in untraced],
        "campaign_cpu_s": [r.cpu for r in untraced],
        "experiments_per_s": [r.experiments / r.wall for r in untraced],
        "raw_wall_s": [r.raw_wall for r in untraced],
        "host_speed_factor": [r.factor for r in untraced],
        "traced_wall_s": [r.wall for r in traced],
    }
    end_to_end = {
        "campaign_wall_s": statistics.median(samples["campaign_wall_s"]),
        "campaign_cpu_s": statistics.median(samples["campaign_cpu_s"]),
        "experiments_per_s": statistics.median(samples["experiments_per_s"]),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }
    result["samples"] = samples
    result["summary"] = {k: summarize(v) for k, v in samples.items() if v}
    result["end_to_end"] = {
        k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()
    }
    # Verified on every rep; a broken one also counts under ``failed``.
    result["checks"] = {"bugs_detected_frac": detected_frac, "parity_ok": parity}
    result["correct"] = failed == 0

    if traced:
        layers: Dict[str, Optional[float]] = {}
        for name in traced[0].layers:
            values = [r.layers[name] for r in traced]
            layers[name] = None if None in values else (
                statistics.median(values) if PER_LAYER_UNITS[name] in ("s", "1/s", "us", "%")
                else values[0]
            )
        traced_wall = statistics.median(samples["traced_wall_s"])
        layers["trace.overhead_pct"] = (traced_wall / end_to_end["campaign_wall_s"] - 1.0) * 100.0
        layers["trace.missing_spans"] = len(tracer.missing)
        layers["pipeline.process_speedup"] = (
            reference.wall / end_to_end["campaign_wall_s"] if workload.backend == "process" else 1.0
        )
        layers.update(instrument_overhead(calib, system))
        layers.update(analysis_stats(calib, system))
        result["per_layer"] = {
            k: {"value": layers[k], "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER_UNITS
        }
        if args.out:
            result["spans"] = [list(s) for s in traced[-1].spans]
    else:
        result["per_layer"] = {}
    return result


# ------------------------------------------------------------------ reporting


def print_metrics(result: Dict[str, Any]) -> None:
    name = result["workload"]
    print("== %s (%s, %s x%d) reps %s digest %s" % (
        name, result["system"], result["backend"], result["workers"],
        json.dumps(result["reps"]), result["reference_digest"][:16],
    ))
    summary = result.get("summary", {})
    for metric, entry in result["end_to_end"].items():
        extra = summary.get(metric)
        tail = ""
        if extra:
            tail = "  (" + " ".join(
                "%s %.4g" % (k, v) for k, v in extra.items() if k != "median"
            ) + ")"
        print("%-18s %-28s %.6g %s%s" % (name, metric, entry["value"], entry["unit"], tail))
    if "raw_wall_s" in summary:
        print("%-18s %-28s %.6g s  (measured, at host speed factor %.3g)" % (
            name, "raw_wall_s", summary["raw_wall_s"]["median"],
            summary["host_speed_factor"]["median"],
        ))
    for check, value in result["checks"].items():
        print("%-18s %-28s %.6g ratio  (must be 1)" % (name, check, value))
    for metric, entry in result["per_layer"].items():
        value = "null" if entry["value"] is None else "%.6g" % entry["value"]
        print("%-18s %-28s %s %s" % (name, metric, value, entry["unit"]))
    if result["missing_spans"]:
        print("%-18s missing_spans: %s" % (name, ", ".join(result["missing_spans"])))
    print("%-18s ops_attempted %d  ops_failed %d  correct %s" % (
        name, result["attempted"], result["failed"], result["correct"],
    ))
    for error in result["errors"]:
        print("%-18s error: %s" % (name, error))


def contract_line(result: Dict[str, Any]) -> str:
    """The driver's object: end-to-end metrics untraced, per-layer traced.
    A metric whose span is missing reads 0 here and ``null`` in ``--out``;
    ``trace.missing_spans`` counts them."""
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": 0 if v["value"] is None else v["value"], "unit": v["unit"]}
            for k, v in metrics.items()
        },
    })


def run_each_in_its_own_process(argv: Sequence[str]) -> int:
    """All workloads, in order: this file again, once per workload."""
    worst = 0
    for workload in WORKLOADS:
        sys.stdout.flush()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name, *argv]
        )
        worst = max(worst, abs(proc.returncode))
    return worst


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="default: all four, in order, each in a process of its own")
    parser.add_argument("--seed", type=int, default=0,
                        help="names the run; a workload has no random input (workloads.py)")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy system, one rep (contract test)")
    parser.add_argument("--out", help="append one JSON line per workload to this file")
    args = parser.parse_args(argv)

    program_source()  # refuse a checkout without the program before anything is started
    if args.workload is None:
        return run_each_in_its_own_process(argv)

    host = host_info()  # load average before this run adds to it
    tmp_parent = HERE / ".tmp"
    with HostCalibration() as calib:
        program = load_program()
        # This file's own imports plus the program's.
        import_s = (time.perf_counter() - _PROCESS_START) * calib.factor(0)
        tmp_parent.mkdir(exist_ok=True)
        tmp_root = tempfile.mkdtemp(prefix="run-", dir=str(tmp_parent))
        try:
            result = measure(program, calib, BY_NAME[args.workload], args, tmp_root, import_s, host)
        finally:
            shutil.rmtree(tmp_root, ignore_errors=True)
            try:
                tmp_parent.rmdir()
            except OSError:
                pass  # another run is using it
    print_metrics(result)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
