"""Unit tests for the experiment driver, using the toy system."""

import json

import pytest

from repro.config import CSnakeConfig
from repro.core.driver import ExperimentDriver, seed_for, run_workload
from repro.errors import UnknownSite
from repro.systems.toy import build_system
from repro.types import DELAY, EXCEPTION, NEGATION, FaultKey

from tests.helpers import trace_to_obj

FAST = dict(repeats=2, delay_values_ms=(2000.0,), seed=11)


@pytest.fixture(scope="module")
def spec():
    return build_system()


@pytest.fixture()
def driver(spec):
    return ExperimentDriver(spec, CSnakeConfig(**FAST))


def test_seed_is_stable_and_distinct():
    assert seed_for("t1", 0, 1) == seed_for("t1", 0, 1)
    assert seed_for("t1", 0, 1) != seed_for("t1", 1, 1)
    assert seed_for("t1", 0, 1) != seed_for("t2", 0, 1)
    assert seed_for("t1", 0, 1) != seed_for("t1", 0, 2)


def test_run_workload_is_deterministic(spec):
    wl = spec.workloads["toy.big_batches"]
    a = run_workload(spec, wl, None, seed=5)
    b = run_workload(spec, wl, None, seed=5)
    assert a.loop_counts == b.loop_counts
    assert [e.fault for e in a.events] == [e.fault for e in b.events]
    # No host time in a trace: one seed means equal traces, identical bytes.
    assert a == b
    assert json.dumps(trace_to_obj(a), sort_keys=True) == json.dumps(trace_to_obj(b), sort_keys=True)


def test_different_seeds_may_vary_but_run(spec):
    wl = spec.workloads["toy.big_batches"]
    a = run_workload(spec, wl, None, seed=5)
    b = run_workload(spec, wl, None, seed=6)
    assert a.loop_counts and b.loop_counts


def test_profile_is_cached(driver):
    g1 = driver.profile("toy.idle")
    runs_after_first = driver.runs_executed
    g2 = driver.profile("toy.idle")
    assert g1 is g2
    assert driver.runs_executed == runs_after_first


def test_profile_repeats_match_config(driver):
    group = driver.profile("toy.idle")
    assert group.n_runs == 2


def test_tests_reaching_uses_profile_coverage(driver):
    # The retry branch site is only reached where clients enable retry.
    reaching = driver.tests_reaching(FaultKey("toy.client.rpc_call", EXCEPTION))
    assert "toy.big_batches" in reaching
    assert "toy.retry_clients" in reaching


def test_best_test_prefers_high_coverage(driver):
    fault = FaultKey("toy.server.process_batch", DELAY)
    best = driver.best_test_for(fault)
    assert best is not None
    best_cov = driver.coverage_of(best)
    for t in driver.tests_reaching(fault):
        assert best_cov >= driver.coverage_of(t)


def test_unreachable_fault_has_no_best_test(spec):
    driver = ExperimentDriver(spec, CSnakeConfig(**FAST))
    assert driver.best_test_for(FaultKey("toy.nonexistent.site", DELAY)) is None


def test_experiment_counts_one_budget_unit(driver):
    fault = FaultKey("toy.server.is_stale", NEGATION)
    result = driver.run_experiment(fault, "toy.balancer")
    assert driver.experiments_run == 1
    assert result.fault == fault
    # Negation in the balancer test triggers re-replication -> S+ on the
    # processing loop.
    assert any(f.site_id == "toy.server.process_batch" for f in result.interference)


def test_delay_experiment_sweeps_values(spec):
    cfg = CSnakeConfig(repeats=2, delay_values_ms=(500.0, 8000.0), seed=11)
    driver = ExperimentDriver(spec, cfg)
    driver.profile("toy.big_batches")
    runs_before = driver.runs_executed
    driver.run_experiment(
        FaultKey("toy.server.process_batch", DELAY), "toy.big_batches"
    )
    # 2 delay values x 2 repeats.
    assert driver.runs_executed - runs_before == 4
    assert driver.experiments_run == 1


def test_unknown_fault_site_rejected(driver):
    with pytest.raises(UnknownSite):
        driver.run_experiment(FaultKey("toy.bogus", EXCEPTION), "toy.idle")


def test_edges_accumulate_in_db(driver):
    driver.run_experiment(FaultKey("toy.server.is_stale", NEGATION), "toy.balancer")
    assert len(driver.edges) >= 1


def test_plans_for_is_memoized(driver):
    fault = FaultKey("toy.server.process_batch", DELAY)
    first = driver._plans_for(fault)
    assert driver._plans_for(fault) is first  # same list: derived once
    # and the memo is per fault, not global
    other = driver._plans_for(FaultKey("toy.server.is_stale", NEGATION))
    assert other is not first
    # memoized plans are what experiments execute: the sweep still runs
    driver.profile("toy.big_batches")
    runs_before = driver.runs_executed
    driver.run_experiment(fault, "toy.big_batches")
    assert driver.runs_executed - runs_before == len(first) * driver.config.repeats
