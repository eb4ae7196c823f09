"""Command-line interface: run the CSnake pipeline against a bundled system.

Examples::

    python -m repro.cli list
    python -m repro.cli run toy
    python -m repro.cli run toy --backend process --workers 4 --out report.json
    python -m repro.cli run miniraft --cache-dir /tmp/raft-cache
    python -m repro.cli inject minihbase hm.assign.rpc:exception hbase.rs_fault_tolerance

See docs/cli.md for the full flag-by-flag reference.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
from typing import Any, Dict, List, Optional, Sequence

from .config import CSnakeConfig
from .core.driver import ExperimentDriver
from .core.report import DetectionReport
from .errors import ConfigError, ReproError
from .faults import (
    expand_kinds,
    model_for,
    models_for_site_kind,
    registered_kinds,
    registered_schedules,
)
from .pipeline import BACKENDS, Pipeline, format_event
from .systems import available_systems, get_system
from .types import FaultKey


def _parse_fault(text: str) -> FaultKey:
    try:
        site, kind = text.rsplit(":", 1)
        return FaultKey(site, model_for(kind).kind_id)
    except ValueError:
        raise ReproError(
            "fault must look like '<site>:<kind>' with kind one of %s, got %r"
            % ("|".join(registered_kinds()), text)
        ) from None


def _parse_floats(text: str, what: str) -> tuple:
    """The sweep value grammar ``--delays`` and ``--sweep`` share."""
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise SystemExit("%s must be comma-separated numbers, got %r" % (what, text))
    if not values:
        raise SystemExit("%s needs at least one value" % what)
    return values


def _parse_delays(text: str) -> tuple:
    return _parse_floats(text, "--delays")


def _parse_sweeps(entries: List[str]) -> tuple:
    """``--sweep KIND=V1,V2,...`` entries -> config ``sweep_overrides``."""
    overrides = []
    known = registered_kinds()
    for entry in entries:
        kind, eq, values = entry.partition("=")
        kind = kind.strip()
        if not eq or kind not in known:
            raise SystemExit(
                "--sweep must look like '<kind>=V1,V2,...' with kind one of %s, got %r"
                % (", ".join(known), entry)
            )
        overrides.append((kind, _parse_floats(values, "--sweep %s" % kind)))
    return tuple(overrides)


def _parse_schedules(text: str) -> tuple:
    """``--schedules``: ``all`` (every registered schedule) or a
    comma-separated list of them."""
    return tuple(registered_schedules()) if text == "all" else expand_kinds(text)


#: Every config-bound flag, spelled here and nowhere else.  A row is
#: (flag, ``CSnakeConfig`` field, flag value -> field value (``None``: as it
#: is; a ``ValueError`` is a usage error), argparse kwargs); a row without
#: ``help`` shows the field's own doc.
_EXPERIMENT_FLAGS = (
    ("--budget", "budget_per_fault", None, dict(type=int)),
    ("--seed", "seed", None, dict(type=int)),
    ("--repeats", "repeats", None, dict(type=int)),
    ("--delays", "delay_values_ms", _parse_delays, dict(
        metavar="MS,MS,...",
        help="delay sweep in virtual ms (default: the paper's 7-point sweep); "
        "shorthand for --sweep delay=MS,MS,...",
    )),
    ("--fault-kinds", "fault_kinds", expand_kinds, dict(metavar="K,K,...|all|classic")),
    ("--schedules", "schedules", _parse_schedules, dict(metavar="S,S,...|all")),
    ("--adaptive-budget", "adaptive_budget", None, dict(action="store_true")),
    ("--sweep", "sweep_overrides", _parse_sweeps, dict(
        action="append", metavar="KIND=V1,V2,...",
        help="override one fault kind's or schedule's parameter sweep "
        "(repeatable), e.g. --sweep partition=10000,30000 --sweep "
        "membership_churn=1,2",
    )),
)
#: Executor-backend selection shared by experiment subcommands.
_BACKEND_FLAGS = (
    ("--backend", "experiment_backend", None, dict(choices=list(BACKENDS))),
    ("--workers", "experiment_workers", None, dict(
        type=int, metavar="N",
        help="worker count for the process backend (default: all cores)",
    )),
)
#: The flags that decide a fault space (all that ``analyze`` takes).
_FAULT_SPACE_FLAGS = tuple(
    row for row in _EXPERIMENT_FLAGS if row[0] in ("--fault-kinds", "--schedules")
)


def _passed(args: argparse.Namespace, flag: str) -> Any:
    """The value ``flag`` was given; ``None`` when it was not passed or
    ``args`` is of a subcommand without it."""
    value = getattr(args, flag[2:].replace("-", "_"), None)
    return None if value is False else value


def _flag_params(args: argparse.Namespace, rows: Sequence[tuple]) -> Dict[str, Any]:
    """``CSnakeConfig`` field -> value, for the flags of ``rows`` the user
    actually passed."""
    params = {}
    for flag, field, parse, _kwargs in rows:
        value = _passed(args, flag)
        if value is not None:
            try:
                params[field] = parse(value) if parse else value
            except ValueError as exc:
                raise SystemExit(str(exc))
    return params


def _fault_space_kinds(args: argparse.Namespace) -> tuple:
    """The kinds ``analyze`` selects a fault space over: the
    ``--fault-kinds`` and ``--schedules`` passed (else the defaults)."""
    config = CSnakeConfig(**_flag_params(args, _FAULT_SPACE_FLAGS))
    return config.fault_kinds + config.schedules


def _config(args: argparse.Namespace) -> CSnakeConfig:
    """Build a config from the experiment flags the user actually passed;
    everything else keeps the ``CSnakeConfig`` (paper) defaults."""
    config = CSnakeConfig(**_flag_params(args, _EXPERIMENT_FLAGS), **_execution_overrides(args))
    if _passed(args, "--delays") and "delay" in dict(config.sweep_overrides):
        raise ConfigError("--delays and --sweep delay=... both set the delay sweep; pass one")
    return config


def _execution_overrides(args: argparse.Namespace) -> dict:
    """The execution-only config fields the flags name — backend, workers,
    cache directory.  They never change results, only where (and
    whether) experiments execute."""
    overrides = _flag_params(args, _BACKEND_FLAGS)
    if overrides.get("experiment_backend", "serial") != "serial":
        # A parallel backend without an explicit worker count means
        # "use the machine": one worker per core.
        overrides.setdefault("experiment_workers", os.cpu_count() or 1)
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        overrides["cache_dir"] = cache_dir
    return overrides


def _print_report(report: DetectionReport, args: argparse.Namespace) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=1, sort_keys=True)
        print()
        return
    print("system: %s" % report.system)
    for key, value in report.summary().items():
        print("  %-14s %s" % (key, value))
    for match in report.bug_matches:
        status = "DETECTED" if match.detected else "missed"
        line = "  [%s] %s" % (status, match.bug.bug_id)
        if match.detected:
            cycle = match.best_cycle
            line += "  %s via %d tests" % (cycle.signature(), len(cycle.tests()))
        print(line)


def _print_cache_stats(ctx) -> None:
    """Surface experiment-cache counters (execution metadata, so they are
    printed next to the report rather than embedded in its JSON — report
    digests stay identical between cold and warm runs)."""
    cache = ctx.driver.cache
    if cache is None:
        return
    stats = cache.stats()
    corrupt = " (%d corrupt)" % stats["corrupt"] if stats["corrupt"] else ""
    print(
        "cache: %d hits, %d misses%s, %d stored (%s)"
        % (stats["hits"], stats["misses"], corrupt, stats["stores"], stats["dir"]),
        file=sys.stderr,
    )


def cmd_list(_args: argparse.Namespace) -> int:
    for name in available_systems():
        spec = get_system(name)
        counts = spec.registry.counts()
        bug_ids = ", ".join(b.bug_id for b in spec.known_bugs) or "-"
        print(
            "%-12s %3d sites (%d loops, %d throws, %d detectors, %d branches, "
            "%d env), %2d tests, bugs: %s"
            % (
                name,
                len(spec.registry),
                counts["loop"],
                counts["throw"] + counts["lib_call"],
                counts["detector"],
                counts["branch"],
                counts["env_node"] + counts["env_link"],
                len(spec.workloads),
                bug_ids,
            )
        )
    print(
        "fault schedules: %s (enable with --schedules; see 'repro faults')"
        % (", ".join(registered_schedules()) or "-")
    )
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """List registered fault models and per-system environment sites."""
    config = CSnakeConfig()
    print("registered fault models:")
    for model in map(model_for, expand_kinds("all")):
        targets = ",".join(k.value for k in model.site_kinds)
        sweep = model.sweep_spec(config)
        if sweep:
            knobs = "; ".join(
                "%s: %s" % (name, ",".join("%g" % v for v in values))
                for name, values in sorted(sweep.items())
            )
        else:
            knobs = "single plan"
        flags = " [env]" if model.environment else ""
        print(
            "  %-10s %s  sites: %-18s sweep %s%s"
            % (model.kind_id, model.char, targets, knobs, flags)
        )
    print("registered fault schedules:")
    for schedule in (model_for(name).schedule for name in registered_schedules()):
        events = "; ".join(
            "%s@%s+%gms%s" % (
                ev.kind_id,
                ev.site,
                ev.offset_ms,
                " stagger %gms" % ev.stagger_ms if ev.stagger_ms else "",
            )
            for ev in schedule.events
        )
        print("  %-24s %s  %s" % (schedule.name, schedule.char, events))
    systems = [args.system] if args.system else available_systems()
    print("injectable environment sites:")
    for name in systems:
        spec = get_system(name)
        sites = [s.site_id for s in spec.registry.env_sites()]
        if not sites:
            print("  %-12s (no EnvFaultPort declared)" % name)
            continue
        nodes = [s for s in sites if s.startswith("env.node.")]
        links = [s for s in sites if s.startswith("env.link.")]
        print("  %-12s %s" % (name, ", ".join(nodes + links)))
    print("schedule anchor sites (per schedule, per system):")
    for name in systems:
        spec = get_system(name)
        for schedule_name in registered_schedules():
            model = model_for(schedule_name)
            anchors = [
                s.site_id for s in spec.registry.env_sites()
                if s.kind in model.site_kinds and model.injects_at(s.site_id, spec.registry)
            ]
            print(
                "  %-12s %-24s %s"
                % (name, schedule_name, ", ".join(anchors) or "(none)")
            )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    def progress(event) -> None:
        print(format_event(args.system, event.kind, event.detail()), file=sys.stderr)

    observers = [progress] if args.verbose else []
    # The pipeline builds its executor from config (and closes it when the
    # run finishes — process pools must not outlive the campaign).
    ctx = Pipeline.default(get_system(args.system), _config(args), observers=observers).run()
    report = ctx.get("report")
    _print_report(report, args)
    _print_cache_stats(ctx)
    return 0 if report.detected_bugs else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    """Static-analysis report: the fault space, per-site exclusion
    reasons, and the code-slice resolution/reachability status."""
    from .analysis import analyze_system, live_sources, source_digests
    from .instrument.analyzer import analyze
    from .serialize import analysis_to_obj

    spec = get_system(args.system)
    sources = live_sources(spec.source_modules)
    slices = analyze_system(spec, sources) if sources else None
    result = analyze(spec.registry, _fault_space_kinds(args))
    if args.json:
        obj = {"analysis": analysis_to_obj(result), "slices": None}
        if slices is not None:
            stats = {
                k: v for k, v in slices.stats().items() if not k.startswith("wall_")
            }
            obj["slices"] = {
                "stats": stats,
                "source_digest": source_digests(sources).source,
                "unresolved": dict(sorted(slices.unresolved.items())),
            }
        json.dump(obj, sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    print("system: %s" % spec.name)
    if slices is None:
        print("  slices: system declares no source_modules (not sliceable)")
    else:
        stats = slices.stats()
        print(
            "  slices: %d modules, %d functions, %d call edges; "
            "%d sites resolved, %d env, %d unresolved; reachability %s"
            % (
                stats["modules"],
                stats["functions"],
                stats["call_edges"],
                stats["sites_resolved"],
                stats["sites_env"],
                stats["sites_unresolved"],
                "trusted" if stats["reachability_trusted"] else "NOT trusted",
            )
        )
    print(
        "  fault space: %d faults over %d sites (%d sites excluded)"
        % (len(result.faults), len(result.fault_sites()), len(result.excluded))
    )
    for site_id in sorted(result.excluded):
        print("  excluded %-38s %s" % (site_id, "; ".join(result.excluded[site_id])))
    if slices is not None:
        for site_id in sorted(slices.unresolved):
            print("  unresolved %-36s %s" % (site_id, slices.unresolved[site_id]))
    return 0


def _diffrun_side_root(provider, workdir, label):
    """An on-disk tree for one diff-run operand (git refs get extracted)."""
    from .analysis.source import GitSource

    if isinstance(provider, GitSource):
        return provider.materialize(workdir / label)
    return provider.root


def _diffrun_argv(args: argparse.Namespace, cache_dir: str) -> List[str]:
    """One diff-run side's ``repro run ...`` arguments: every experiment
    and backend flag the user passed, respelled."""
    argv = ["run", args.system, "--json", "--cache-dir", cache_dir]
    for flag, *_ in _EXPERIMENT_FLAGS + _BACKEND_FLAGS:
        value = _passed(args, flag)
        if value is True:
            argv.append(flag)
        elif value is not None:
            for item in value if isinstance(value, list) else [value]:
                argv += [flag, str(item)]
    return argv


def _diffrun_campaign(root, args, cache_dir: str):
    """Run one side's campaign in a subprocess whose ``repro`` package is
    imported from that side's tree, sharing ``cache_dir`` across sides (a
    side whose keyed files are byte-equal replays the other's entries)."""
    import subprocess

    src = root / "src"
    pythonpath = str(src if src.is_dir() else root)
    cmd = [sys.executable, "-m", "repro.cli"] + _diffrun_argv(args, cache_dir)
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1 just means "no bugs detected"
        raise ReproError(
            "campaign under %s failed (exit %d):\n%s" % (root, proc.returncode, proc.stderr)
        )
    if args.verbose:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout)


def cmd_diff_run(args: argparse.Namespace) -> int:
    """Name the functions two revisions of a system differ in, then
    (unless --static-only) run both campaigns against one shared cache and
    diff the reports."""
    import tempfile
    from pathlib import Path

    from .analysis import diff_reports, diff_slices, source_digests
    from .analysis.source import resolve_provider

    spec = get_system(args.system)
    if not spec.source_modules:
        raise SystemExit(
            "system %r declares no source_modules; nothing to slice" % args.system
        )
    try:
        old_provider = resolve_provider(args.old)
        new_provider = resolve_provider(args.new)
    except ValueError as exc:
        raise SystemExit(str(exc))

    sdiff = diff_slices(
        spec.name,
        source_digests(old_provider.sources(spec.source_modules)),
        source_digests(new_provider.sources(spec.source_modules)),
    )

    payload = {
        "system": spec.name,
        "old": old_provider.label,
        "new": new_provider.label,
        "static": sdiff.to_obj(),
        "reports": None,
    }
    if not args.static_only:
        with tempfile.TemporaryDirectory(prefix="repro-diffrun-") as tmp:
            workdir = Path(tmp)
            cache_dir = args.cache_dir or str(workdir / "cache")
            old_root = _diffrun_side_root(old_provider, workdir, "old")
            new_root = _diffrun_side_root(new_provider, workdir, "new")
            old_report = _diffrun_campaign(old_root, args, cache_dir)
            new_report = _diffrun_campaign(new_root, args, cache_dir)
        payload["reports"] = diff_reports(old_report, new_report).to_obj()

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.json:
        json.dump(payload, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        print("diff-run %s: %s -> %s" % (spec.name, old_provider.label, new_provider.label))
        print(
            "  functions: %d changed, %d added, %d removed"
            % (
                len(sdiff.changed_functions),
                len(sdiff.added_functions),
                len(sdiff.removed_functions),
            )
        )
        for key in sdiff.changed_functions:
            print("    changed %s" % key)
        for module in sdiff.changed_modules:
            print("    changed %s (statements outside functions)" % module)
        print(
            "  source digest: %s" % ("changed" if sdiff.source_changed else "unchanged")
        )
        reports = payload["reports"]
        if reports is not None:
            for label in reports["appeared_loops"]:
                print("  loop appeared: %s" % label)
            for label in reports["vanished_loops"]:
                print("  loop vanished: %s" % label)
            for bug in reports["appeared_bugs"]:
                print("  bug appeared: %s" % bug)
            for bug in reports["vanished_bugs"]:
                print("  bug vanished: %s" % bug)
            if reports["identical"]:
                print("  reports identical")
    return 0


def cmd_inject(args: argparse.Namespace) -> int:
    spec = get_system(args.system)
    fault = _parse_fault(args.fault)
    if args.test not in spec.workloads:
        raise ReproError(
            "%s has no test %r; its tests: %s"
            % (spec.name, args.test, ", ".join(spec.workloads))
        )
    site = spec.registry.get(fault.site_id)
    hosted = [
        m.kind_id
        for m in models_for_site_kind(site.kind)
        if m.injects_at(site.site_id, spec.registry)
    ]
    if fault.kind not in hosted:
        raise ReproError(
            "%s cannot be injected at %s (site kind %s); kinds it hosts: %s"
            % (fault.kind, site.site_id, site.kind.value, ", ".join(hosted) or "none")
        )
    driver = ExperimentDriver(spec, _config(args))
    result = driver.run_experiment(fault, args.test)
    print("inject %s into %s:" % (fault, args.test))
    if not result.interference:
        print("  (no additional faults triggered)")
    for interference in result.interference:
        print("  -> %s" % interference)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Start the campaign manager (the service's central orchestrator)."""
    from .service import ManagerCore, ManagerServer

    core = ManagerCore(lease_ttl_s=args.lease_ttl)
    server = ManagerServer(core, host=args.host, port=args.port, verbose=args.verbose)
    print("repro manager listening on %s" % server.url, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def cmd_agent(args: argparse.Namespace) -> int:
    """Run a worker agent against a manager until interrupted."""
    from .service import Agent, HttpTransport

    agent = Agent(
        HttpTransport(args.manager),
        workers=args.workers or (os.cpu_count() or 1),
        name=args.name or "",
        fail_after_tasks=args.fail_after,
    )
    print(
        "agent serving %s with %d worker processes" % (args.manager, agent.workers),
        file=sys.stderr,
    )
    # SIGTERM stops the agent as Ctrl-C does, so its worker processes shut
    # down with it instead of outliving it, blocked on their task queue.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        completed = agent.run(idle_exit_s=args.idle_exit)
    except KeyboardInterrupt:
        agent.stop()
        completed = agent.tasks_completed
    print("agent exiting: %d tasks completed" % completed, file=sys.stderr)
    return 0


def _follow_campaign(transport, campaign_id: str, verbose: bool, quiet: bool = False) -> dict:
    """Wait for a campaign to finish, printing its events to stderr (all
    of them if ``verbose``, only ``campaign_*`` ones otherwise); returns
    the final status.  ``quiet`` reads no event: it long-polls the status,
    and refuses a manager on another protocol, which would not wait."""
    from .service.manager import PROTOCOL, follow_campaign

    if quiet:
        protocol = transport.health()["protocol"]
        if protocol != PROTOCOL:
            raise ReproError(
                "manager speaks protocol %s; this client speaks protocol %d" % (protocol, PROTOCOL)
            )
        while True:
            status = transport.campaign_status(campaign_id, wait_s=10.0)
            if status["state"] != "running":
                return status
    for event in follow_campaign(transport, campaign_id):
        if verbose or event["kind"].startswith("campaign"):
            print(format_event(campaign_id, event["kind"], event["detail"]), file=sys.stderr)
    return transport.campaign_status(campaign_id)


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a campaign to a manager; optionally wait for the report."""
    from .core.report import DetectionReport
    from .service import HttpTransport

    config = _config(args)
    transport = HttpTransport(args.manager)
    campaign_id = transport.start_campaign(
        args.system, config.to_dict(), label=args.label or ""
    )["campaign"]
    print(campaign_id)
    if not (args.wait or args.follow or args.json or args.out):
        return 0
    status = _follow_campaign(
        transport, campaign_id, args.verbose, quiet=not (args.follow or args.verbose)
    )
    if status["state"] == "failed":
        print("error: campaign failed: %s" % status["error"], file=sys.stderr)
        return 2
    report = DetectionReport.from_dict(transport.campaign_report(campaign_id))
    _print_report(report, args)
    return 0 if report.detected_bugs else 1


def cmd_status(args: argparse.Namespace) -> int:
    """Manager overview, or one campaign's status / live event stream."""
    from .service import HttpTransport

    transport = HttpTransport(args.manager)
    if args.campaign is None:
        stats = transport.health()
        if args.json:
            json.dump(stats, sys.stdout, indent=1, sort_keys=True)
            print()
            return 0
        tasks = stats["tasks"]
        print(
            "manager up %.0fs: %d agents, %d campaigns"
            % (stats["uptime_s"], len(stats["agents"]), len(stats["campaigns"]))
        )
        print(
            "tasks: %d total (%d queued, %d leased, %d done, %d failed); "
            "%d executed, %d cross-campaign dedups, %d leases re-queued"
            % (
                tasks["total"], tasks["queued"], tasks["leased"], tasks["done"],
                tasks["failed"], tasks["executed"], tasks["deduped"], tasks["requeued"],
            )
        )
        print(
            "queue wait: mean %.3fs, max %.3fs"
            % (stats["queue_wait_s"]["mean"], stats["queue_wait_s"]["max"])
        )
        for agent in stats["agents"]:
            cache = agent.get("cache") or {}
            print(
                "  agent %-12s %d workers, %d completed%s"
                % (
                    agent["name"], agent["workers"], agent["completed"],
                    "  cache %s/%s hit" % (
                        cache.get("hits"), cache.get("hits", 0) + cache.get("misses", 0),
                    )
                    if cache else "",
                )
            )
        for campaign in stats["campaigns"]:
            print(
                "  campaign %-12s %-8s %-8s %d/%d tasks"
                % (
                    campaign["campaign"], campaign["system"], campaign["state"],
                    campaign["tasks"]["done"], campaign["tasks"]["total"],
                )
            )
        return 0
    if args.follow:
        status = _follow_campaign(transport, args.campaign, verbose=True)
    else:
        status = transport.campaign_status(args.campaign)
    if args.json:
        json.dump(status, sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    print(
        "%s [%s] %s: %d/%d tasks"
        % (
            status["campaign"], status["system"], status["state"],
            status["tasks"]["done"], status["tasks"]["total"],
        )
    )
    if status["error"]:
        print("  error: %s" % status["error"])
    if status["digest"]:
        print("  digest: %s" % status["digest"])
    if status["summary"]:
        for key, value in sorted(status["summary"].items()):
            print("  %-18s %s" % (key, value))
    return 0


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """Experiment-cache selection shared by experiment subcommands
    (diff-run shares a temporary store between its two campaigns unless
    ``--cache-dir`` names another)."""
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="enable the experiment cache rooted at DIR",
    )


def _add_flags(parser: argparse.ArgumentParser, rows: Sequence[tuple]) -> None:
    """Declare ``rows`` of :data:`_EXPERIMENT_FLAGS` / :data:`_BACKEND_FLAGS`."""
    docs = {f.name: f.metadata["doc"] for f in dataclasses.fields(CSnakeConfig)}
    for flag, field, _parse, kwargs in rows:
        parser.add_argument(flag, **dict({"help": docs[field]}, **kwargs))


def _add_manager_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--manager", required=True, metavar="URL", help="manager URL printed by `repro serve`"
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="print the report as JSON")
    parser.add_argument("--out", default=None, metavar="FILE", help="write report JSON to FILE")
    parser.add_argument("-v", "--verbose", action="store_true", help="stage progress on stderr")


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser (also used by the docs tests to
    assert that docs/cli.md covers every subcommand and flag)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list bundled target systems")

    faults = sub.add_parser(
        "faults",
        help="list registered fault models, their parameter sweeps, and "
        "per-system injectable environment sites",
    )
    faults.add_argument(
        "--system", choices=available_systems(), default=None,
        help="show environment sites of this system only",
    )

    run = sub.add_parser("run", help="run the detection pipeline")
    run.add_argument("system", choices=available_systems())
    _add_flags(run, _BACKEND_FLAGS + _EXPERIMENT_FLAGS)
    _add_cache_flags(run)
    _add_output_flags(run)

    analyze = sub.add_parser(
        "analyze",
        help="static-analysis report: fault space, per-site exclusion "
        "reasons, and code-slice resolution status",
    )
    analyze.add_argument("system", choices=available_systems())
    _add_flags(analyze, _FAULT_SPACE_FLAGS)
    analyze.add_argument(
        "--json", action="store_true", help="print the analysis as JSON"
    )

    diff_run = sub.add_parser(
        "diff-run",
        help="name the functions two revisions differ in, re-run both "
        "campaigns against one cache, and diff their reports",
    )
    diff_run.add_argument(
        "old", metavar="OLD", help="baseline: a git ref or a source-tree directory"
    )
    diff_run.add_argument(
        "new", metavar="NEW", help="candidate: a git ref or a source-tree directory"
    )
    diff_run.add_argument(
        "--system", choices=available_systems(), default="miniraft",
        help="target system to diff (default: miniraft)",
    )
    diff_run.add_argument(
        "--static-only", action="store_true",
        help="stop after the function diff (no campaigns)",
    )
    _add_flags(diff_run, _BACKEND_FLAGS + _EXPERIMENT_FLAGS)
    _add_cache_flags(diff_run)
    _add_output_flags(diff_run)

    inject = sub.add_parser("inject", help="run one fault injection experiment")
    inject.add_argument("system", choices=available_systems())
    inject.add_argument("fault", help="<site>:<%s>" % "|".join(registered_kinds()))
    inject.add_argument("test", help="workload/test id")
    _add_flags(inject, _EXPERIMENT_FLAGS)

    serve = sub.add_parser(
        "serve",
        help="start the campaign manager: an HTTP work queue that "
        "distributes experiments to `repro agent` workers and runs "
        "submitted campaigns (see docs/service.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="HOST",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8736, metavar="PORT",
        help="bind port; 0 picks an ephemeral port (default 8736)",
    )
    serve.add_argument(
        "--lease-ttl", type=float, default=15.0, metavar="S",
        help="agent lease duration in seconds: an agent silent for this "
        "long is expired and its leased tasks re-queued (default 15)",
    )
    serve.add_argument(
        "-v", "--verbose", action="store_true", help="log every HTTP request"
    )

    agent = sub.add_parser(
        "agent",
        help="run a worker agent: stream tasks leased from a manager "
        "through local worker processes, report results + cache counters",
    )
    _add_manager_flag(agent)
    agent.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: all cores)",
    )
    agent.add_argument(
        "--name", default=None, metavar="NAME",
        help="agent name reported to the manager (default: assigned id)",
    )
    agent.add_argument(
        "--idle-exit", type=float, default=None, metavar="S",
        help="exit after S seconds with nothing to lease (default: serve forever)",
    )
    agent.add_argument(
        "--fail-after", type=int, default=None, metavar="N",
        help="testing hook: complete N tasks, then die holding the next "
        "lease (exercises lease expiry + re-queue)",
    )

    submit = sub.add_parser(
        "submit",
        help="submit a campaign to a manager (it runs server-side on the "
        "agent fleet); optionally wait for and print the report",
    )
    submit.add_argument("system", choices=available_systems())
    _add_manager_flag(submit)
    submit.add_argument(
        "--label", default=None, metavar="TEXT",
        help="free-form campaign label shown in `repro status`",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the campaign finishes and print the report",
    )
    submit.add_argument(
        "--follow", action="store_true",
        help="like --wait, streaming progress events to stderr meanwhile",
    )
    _add_flags(submit, _EXPERIMENT_FLAGS)
    _add_cache_flags(submit)
    _add_output_flags(submit)

    status = sub.add_parser(
        "status",
        help="manager overview (agents, queue, campaigns) or one "
        "campaign's status / live event stream",
    )
    status.add_argument(
        "campaign", nargs="?", default=None, metavar="CAMPAIGN",
        help="campaign id printed by `repro submit` (omit for the overview)",
    )
    _add_manager_flag(status)
    status.add_argument(
        "--follow", action="store_true",
        help="stream the campaign's events until it finishes",
    )
    status.add_argument(
        "--json", action="store_true", help="print the status as JSON"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": cmd_list,
        "faults": cmd_faults,
        "analyze": cmd_analyze,
        "diff-run": cmd_diff_run,
        "run": cmd_run,
        "inject": cmd_inject,
        "serve": cmd_serve,
        "agent": cmd_agent,
        "submit": cmd_submit,
        "status": cmd_status,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
