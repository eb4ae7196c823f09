"""Unit tests for the bench harness helpers."""

from repro.bench import bench_config, format_table
from repro.bench.runners import BUDGET_PER_FAULT


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
