"""Unit tests for the three-phase allocation protocol, on the toy system."""

import pytest

from repro.config import CSnakeConfig
from repro.core.allocation import ThreePhaseAllocator
from repro.core.driver import ExperimentDriver
from repro.instrument.analyzer import analyze
from repro.serialize import fca_to_obj
from repro.systems.toy import build_system

FAST = dict(repeats=2, delay_values_ms=(2000.0,), seed=11)


@pytest.fixture(scope="module")
def outcome():
    spec = build_system()
    config = CSnakeConfig(**FAST)
    driver = ExperimentDriver(spec, config)
    faults = analyze(spec.registry).faults
    allocator = ThreePhaseAllocator(driver, faults, config)
    out = allocator.run()
    out._driver = driver  # stash for assertions
    out._faults = faults
    return out


def test_phase_budget_split():
    cfg = CSnakeConfig()
    p1, p2, p3 = cfg.phase_budgets(10)
    assert (p1, p2, p3) == (10, 20, 10)
    assert sum(cfg.phase_budgets(7)) == 28


def test_phase_one_covers_each_reachable_fault_once(outcome):
    phase1 = outcome.records_in_phase(1)
    faults = [r.fault for r in phase1]
    assert len(faults) == len(set(faults))  # each fault at most once
    assert set(faults) | set(outcome.unreachable) == set(outcome._faults)


def test_phase_one_uses_highest_coverage_test(outcome):
    driver = outcome._driver
    for record in outcome.records_in_phase(1):
        cov = driver.coverage_of(record.test_id)
        for t in driver.tests_reaching(record.fault):
            assert cov >= driver.coverage_of(t)


def test_budget_not_exceeded(outcome):
    assert outcome.budget_used <= outcome.budget_total


def test_no_fault_test_pair_repeated(outcome):
    pairs = [(r.fault, r.test_id) for r in outcome.records]
    assert len(pairs) == len(set(pairs))


def test_clustering_covers_observed_faults(outcome):
    observed = {r.fault for r in outcome.records_in_phase(1)}
    assert set(outcome.clustering.by_fault) == observed


def test_phases_two_and_three_ran(outcome):
    assert outcome.records_in_phase(2)
    assert outcome.records_in_phase(3)


def test_sim_scores_in_unit_interval(outcome):
    for score in outcome.cluster_scores.values():
        assert 0.0 <= score <= 1.0 + 1e-9
    for score in outcome.fault_scores.values():
        assert 0.0 <= score <= 1.0 + 1e-9


def test_fault_scores_defined_for_clustered_faults(outcome):
    assert set(outcome.fault_scores) == set(outcome.clustering.by_fault)


def test_records_have_fca_results(outcome):
    for record in outcome.records:
        assert record.result.fault == record.fault
        assert record.result.test_id == record.test_id


def test_deterministic_given_seed():
    spec = build_system()
    config = CSnakeConfig(**FAST)

    def run_once():
        driver = ExperimentDriver(spec, config)
        faults = analyze(spec.registry).faults
        return ThreePhaseAllocator(driver, faults, config).run()

    a, b = run_once(), run_once()
    assert [(r.phase, r.fault, r.test_id) for r in a.records] == [
        (r.phase, r.fault, r.test_id) for r in b.records
    ]


# --------------------------------------------------------- adaptive budget


ADAPTIVE = dict(
    adaptive_budget=True,
    schedules=("membership_churn", "partition_during_restart"),
    fault_kinds=("exception", "delay", "negation", "node_crash"),
    budget_per_fault=3,
)


def _adaptive_run(backend=None, workers=3):
    """One adaptive allocation on the toy system, optionally through a
    deferred-batch executor backend."""
    from repro.pipeline import make_executor

    spec = build_system()
    config = CSnakeConfig(**ADAPTIVE, **FAST)
    driver = ExperimentDriver(spec, config)
    faults = analyze(spec.registry, config.fault_kinds + config.schedules).faults
    if backend is None:
        return ThreePhaseAllocator(driver, faults, config).run()
    with make_executor(workers, backend) as executor:
        return ThreePhaseAllocator(driver, faults, config, executor=executor).run()


def _view(outcome):
    return [
        (r.phase, r.fault, r.test_id, fca_to_obj(r.result)) for r in outcome.records
    ]


def test_adaptive_split_carves_a_quarter():
    spec = build_system()
    on = ThreePhaseAllocator(
        ExperimentDriver(spec, CSnakeConfig(adaptive_budget=True, **FAST)),
        [],
        CSnakeConfig(adaptive_budget=True, **FAST),
    )
    assert on._adaptive_split(20) == (15, 5)
    assert on._adaptive_split(1) == (1, 0)  # too small to split
    off = ThreePhaseAllocator(
        ExperimentDriver(spec, CSnakeConfig(**FAST)), [], CSnakeConfig(**FAST)
    )
    assert off._adaptive_split(20) == (20, 0)


def test_adaptive_allocation_spends_on_promising_faults():
    outcome = _adaptive_run()
    # The ranking only contains faults with committed finite p-values, in
    # ascending promise order, and every record carries a result.
    assert outcome.budget_used <= outcome.budget_total
    for record in outcome.records:
        assert record.result is not None
    pairs = [(r.fault, r.test_id) for r in outcome.records]
    assert len(pairs) == len(set(pairs))  # adaptive repeats use *new* tests


def test_adaptive_allocation_identical_across_backends():
    """The determinism-under-adaptivity rule: reallocation decisions read
    only committed results in schedule order, so eager (serial) and
    process campaigns pick identical reallocations."""
    serial = _adaptive_run()
    try:
        process = _adaptive_run("process", workers=2)
    except (ImportError, OSError, PermissionError) as exc:
        pytest.skip("process backend unavailable: %s" % exc)
    assert _view(serial) == _view(process)
