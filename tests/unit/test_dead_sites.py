"""Declared dead sites are exactly the ones the call graph cannot reach.

The analyzer drops the faults of every site declared ``dead``
(``SiteRegistry.loop(..., dead=True)``) without reading any code, so a
campaign never slices.  The declaration is checked here instead: every
system that declares source modules is sliced, its reachability must be
trusted, and the sites it declares dead must be the sites the analysis
finds unreachable from every workload entry point — no more, no fewer.
A system that declares no source modules cannot be checked, so it may
declare no dead site.  Pruning by the declared verdict must give the fault
space pruning by the call graph gave, and nothing a campaign runs — its
stages, its result keys, a process worker — may slice or digest code.
"""

import copy
import dataclasses
import json

import pytest

import repro.analysis
import repro.analysis.astutil
from repro.analysis import live_sources, source_digests
from repro.cache import ExperimentCache, ResultKey
from repro.config import CSnakeConfig
from repro.core.driver import ExperimentTask, execute_experiment_task, worker_driver
from repro.faults import registered_kinds
from repro.instrument.analyzer import analyze
from repro.instrument.plan import InjectionPlan
from repro.pipeline import Pipeline
from repro.systems import available_systems, get_system
from repro.types import DELAY, FaultKey
from tests.helpers import live_slices, stored_kinds

pytestmark = pytest.mark.contract

SMOKE = dict(repeats=2, delay_values_ms=(2000.0,), seed=7, budget_per_fault=2)
UNREACHABLE = "statically unreachable from any workload entry point"


def drift(spec):
    """Sites whose declared ``dead`` flag disagrees with the call graph."""
    if not spec.source_modules:
        return {site.site_id for site in spec.registry if site.dead}
    slices = live_slices(spec)
    assert slices.reachability_trusted, slices.unresolved_entries
    return {site.site_id for site in spec.registry if site.dead == slices.is_reachable(site.site_id)}


@pytest.mark.parametrize("system", available_systems())
def test_declared_dead_sites_are_the_unreachable_ones(system):
    assert drift(get_system(system)) == set()


@pytest.mark.parametrize("system, site_id, dead", [
    ("minidfs", "nn.fsck.scan", False),  # a dead flag cleared
    ("miniraft", "ldr.compact.scan", False),
    ("toy", "toy.server.process_batch", True),  # a live site declared dead
])
def test_a_copied_registry_with_one_flag_flipped_drifts(system, site_id, dead):
    spec = get_system(system)
    # A copy: toy's spec shares one module-level registry.
    registry = copy.deepcopy(spec.registry)
    site = registry.get(site_id)
    assert site.dead != dead
    registry._sites[site_id] = dataclasses.replace(site, dead=dead)
    assert drift(dataclasses.replace(spec, registry=registry)) == {site_id}
    assert get_system(system).registry.get(site_id).dead != dead  # the original is untouched


def pruned_by_slicing(spec, kinds):
    """The analysis of ``spec`` with every ``dead`` flag cleared, then
    pruned the way the slice analysis used to prune it: the faults of
    unreachable sites dropped, and the reason stamped on each unreachable
    site that lost faults or that an earlier filter excluded."""
    registry = copy.deepcopy(spec.registry)
    for site in list(registry):
        registry._sites[site.site_id] = dataclasses.replace(site, dead=False)
    result = analyze(registry, kinds)
    slices = live_slices(spec)
    unreachable = {s.site_id for s in registry if not slices.is_reachable(s.site_id)}
    stamped = {f.site_id for f in result.faults} | set(result.excluded)
    result.faults = [f for f in result.faults if f.site_id not in unreachable]
    for site_id in sorted(unreachable & stamped):
        result.exclude(site_id, UNREACHABLE)
    result.counts["injectable"] = len(result.faults)
    result.counts["excluded"] = len(result.excluded)
    return result


@pytest.mark.parametrize("kinds", [None, registered_kinds()], ids=["classic", "all"])
@pytest.mark.parametrize("system", available_systems())
def test_pruning_dead_sites_equals_pruning_unreachable_ones(system, kinds):
    spec = get_system(system)
    declared = analyze(spec.registry, kinds)
    sliced = pruned_by_slicing(spec, kinds)
    assert declared.faults == sliced.faults
    assert declared.excluded == sliced.excluded
    assert declared.counts == sliced.counts


def test_no_key_and_no_worker_slices(tmp_path, monkeypatch):
    """Result keys read file bytes, never the slicer: a profile and an
    experiment key of every system, cache-less and through a cache, and a
    process-backend worker's driver executing a task, all with the slicer
    raising.  The cache directory gains the task's entry and nothing else."""

    def no_slicing(*args, **kwargs):
        raise AssertionError("sliced")

    monkeypatch.setattr(repro.analysis, "analyze_system", no_slicing)
    config = CSnakeConfig(cache_dir=str(tmp_path), **SMOKE)
    for system in available_systems():
        spec = get_system(system)
        test_id = spec.workload_ids()[0]
        fault = FaultKey(min(site.site_id for site in spec.registry), DELAY)
        plans = [InjectionPlan(fault, delay_ms=2000.0)]
        cacheless = ResultKey(spec, CSnakeConfig(**SMOKE))
        cache = ExperimentCache(tmp_path, spec, config)
        assert cacheless(test_id) == cache.profile_key(test_id)
        assert cacheless(test_id, fault, plans) == cache.experiment_key(test_id, fault, plans)

    process = dataclasses.replace(config, experiment_backend="process", experiment_workers=2)
    task = ExperimentTask(
        system_name="toy",
        test_id=get_system("toy").workload_ids()[0],
        config_json=json.dumps(process.to_dict(), sort_keys=True),
    )
    driver = worker_driver(task)
    execute_experiment_task(task)
    assert driver.cache.stores == 1
    assert stored_kinds(tmp_path) == ["profile"]


def test_no_campaign_digests_the_source(tmp_path, monkeypatch):
    """A cold campaign with a cache directory and a cache-less one both
    finish with the slicer and the normalized AST dump that every digest
    is taken over raising."""

    def no_digesting(node):
        raise AssertionError("digested")

    def no_slicing(*args, **kwargs):
        raise AssertionError("sliced")

    monkeypatch.setattr(repro.analysis.astutil, "normalized_dump", no_digesting)
    monkeypatch.setattr(repro.analysis, "analyze_system", no_slicing)
    with pytest.raises(AssertionError, match="digested"):
        source_digests(live_sources(get_system("toy").source_modules))

    config = CSnakeConfig(cache_dir=str(tmp_path), **SMOKE)
    cold = Pipeline.default(get_system("minihdfs2"), config).run()
    assert cold.driver.cache.stores > 0
    assert cold.get("report").runs_executed > 0
    cacheless = Pipeline.default(get_system("toy"), CSnakeConfig(**SMOKE)).run()
    assert cacheless.driver.cache is None
    assert cacheless.get("report").runs_executed > 0
