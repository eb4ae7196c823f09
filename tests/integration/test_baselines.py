"""Integration tests for the three comparison baselines and the paper
tables' helpers (``tests/paper_tables.py``)."""

import pytest

from repro.config import CSnakeConfig
from repro.core.driver import ExperimentDriver
from repro.instrument.analyzer import analyze
from repro.pipeline import PipelineContext
from repro.pipeline.stages import analyze_stage
from repro.systems import get_system
from tests.paper_tables import (
    BUDGET_PER_FAULT,
    BlackboxFuzzer,
    NaiveSelfCausation,
    RandomAllocator,
    bench_config,
    campaign,
    format_table,
    random_allocate,
)

FAST = dict(repeats=2, delay_values_ms=(2000.0,), seed=11)


class TestRandomAllocator:
    def test_uses_same_budget_and_runs_experiments(self):
        spec = get_system("toy")
        cfg = CSnakeConfig(**FAST)
        driver = ExperimentDriver(spec, cfg)
        faults = analyze(spec.registry).faults
        outcome = RandomAllocator(driver, faults, cfg).run()
        assert outcome.budget_total == cfg.budget_per_fault * len(faults)
        assert outcome.budget_used == outcome.budget_total
        # With replacement: unique experiments <= budget.
        assert len(outcome.records) <= outcome.budget_used
        assert driver.experiments_run == len(outcome.records)

    def test_deterministic_given_seed(self):
        spec = get_system("toy")
        cfg = CSnakeConfig(**FAST)

        def run_once():
            driver = ExperimentDriver(spec, cfg)
            faults = analyze(spec.registry).faults
            outcome = RandomAllocator(driver, faults, cfg).run()
            return [(r.fault, r.test_id) for r in outcome.records]

        assert run_once() == run_once()


class TestNaiveSelfCausation:
    @pytest.fixture(scope="class")
    def result(self):
        cfg = CSnakeConfig(repeats=3, delay_values_ms=(500.0, 8000.0), seed=7)
        return NaiveSelfCausation(get_system("toy"), cfg).run()

    def test_misses_stitching_dependent_bugs(self, result):
        # Both toy cascades need either multiple injections or conditions
        # split across tests; single-fault self-causation finds neither.
        assert result.detected_bugs["TOY-1"] is False
        assert result.detected_bugs["TOY-2"] is False

    def test_records_self_causing_pairs(self, result):
        assert all(fault is not None and test for fault, test in result.self_causing)
        assert result.experiments > 0


class TestBlackboxFuzzer:
    def test_finds_none_of_the_seeded_cascades(self):
        cfg = CSnakeConfig(repeats=2, delay_values_ms=(2000.0,), seed=3)
        fuzzer = BlackboxFuzzer(get_system("toy"), cfg, runs_per_workload=2)
        result = fuzzer.run()
        assert result.runs == 2 * len(get_system("toy").workloads)
        assert result.crashes_injected + result.partitions_injected > 0
        assert not any(result.detected_bugs.values())


class TestSameFaultSpaceAs3PA:
    """§8.1 compares allocations at the same budget, so a baseline works
    over the 3PA campaign's fault space F: the ``analysis`` artifact, which
    leaves out the faults of minidfs's dead site."""

    CONFIG = CSnakeConfig(repeats=2, delay_values_ms=(2000.0,), seed=7, budget_per_fault=1)

    @pytest.fixture(scope="class")
    def faults(self):
        ctx = PipelineContext(get_system("minidfs"), self.CONFIG)
        analyze_stage(ctx)
        faults = ctx.get("analysis").faults
        assert "nn.fsck.scan" not in {fault.site_id for fault in faults}
        return faults

    def test_random_campaign_allocates_over_the_3pa_fault_space(self, faults):
        ctx = campaign("minidfs", self.CONFIG, allocate=random_allocate)
        report = ctx.get("report")
        assert report.n_faults == len(faults)
        outcome = ctx.get("allocation").outcome
        assert outcome.budget_total == self.CONFIG.budget_per_fault * report.n_faults

    def test_naive_strategy_tries_the_3pa_fault_space(self, faults):
        assert NaiveSelfCausation(get_system("minidfs"), self.CONFIG).faults == sorted(faults)


def test_format_table_alignment():
    out = format_table(["A", "Blong"], [["x", 1], ["yy", 22]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("A")
    assert "-" in lines[1]


def test_bench_config_overrides():
    cfg = bench_config("minihdfs2", beam_width=5)
    assert cfg.beam_width == 5
    assert cfg.budget_per_fault == BUDGET_PER_FAULT["minihdfs2"]
    assert cfg.repeats == 3


def test_bench_config_default_budget():
    cfg = bench_config("unknown-system")
    assert cfg.budget_per_fault == 8
