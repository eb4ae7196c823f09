"""Unit tests for the static analyzer's fault-selection rules."""

import pytest

from repro.errors import UnknownSite
from repro.instrument import SiteRegistry
from repro.instrument.analyzer import StaticAnalyzer, analyze
from repro.types import EXCEPTION


def test_a_declaration_names_no_function_or_exception():
    # The code finds a site by its hook literal; a declaration that still
    # names an enclosing function or an exception is refused.
    reg = SiteRegistry("s")
    for declare in (
        lambda: reg.loop("s.l", "F.run"),
        lambda: reg.detector("s.d", "F.check"),
        lambda: reg.branch("s.b", "F.step"),
        lambda: reg.throw("s.t", "F.step"),
        lambda: reg.lib_call("s.r", exception="IOException"),
    ):
        with pytest.raises(TypeError):
            declare()
    assert len(reg) == 0


def test_throw_sites_become_exception_faults():
    reg = SiteRegistry("s")
    reg.throw("s.t1")
    result = analyze(reg)
    assert [f.kind for f in result.faults] == [EXCEPTION]


def test_reflection_and_security_exceptions_excluded():
    reg = SiteRegistry("s")
    reg.throw("s.refl", reflection_related=True)
    reg.throw("s.sec", security_related=True)
    reg.throw("s.ok")
    result = analyze(reg)
    assert result.fault_sites() == ["s.ok"]
    assert any("reflection" in r for r in result.excluded["s.refl"])
    assert any("security" in r for r in result.excluded["s.sec"])


def test_test_only_exceptions_excluded():
    reg = SiteRegistry("s")
    reg.throw("s.test_only", test_only=True)
    result = analyze(reg)
    assert result.fault_sites() == []


def test_constant_bound_loops_excluded():
    reg = SiteRegistry("s")
    reg.loop("s.const", constant_bound=True)
    reg.loop("s.var")
    result = analyze(reg)
    assert result.fault_sites() == ["s.var"]


def test_short_loops_without_io_pruned():
    reg = SiteRegistry("s")
    # Ten loops: sizes 1..10; bottom 10% (1 loop) pruned unless it does I/O.
    for i in range(10):
        reg.loop("s.loop%02d" % i, body_size=i + 1)
    result = analyze(reg)
    assert "s.loop00" not in result.fault_sites()
    assert "s.loop01" in result.fault_sites()


def test_short_loop_with_io_kept():
    reg = SiteRegistry("s")
    for i in range(10):
        reg.loop("s.loop%02d" % i, body_size=i + 1, does_io=(i == 0))
    result = analyze(reg)
    assert "s.loop00" in result.fault_sites()


def test_detector_filters_of_section7():
    reg = SiteRegistry("s")
    reg.detector("s.final", final_only=True)
    reg.detector("s.const", constant_return=True)
    reg.detector("s.unused", unused_return=True)
    reg.detector("s.prim", primitive_only=True)
    reg.detector("s.real")
    result = analyze(reg)
    assert result.fault_sites() == ["s.real"]
    assert len(result.excluded) == 4


def test_branch_sites_never_injectable():
    reg = SiteRegistry("s")
    reg.branch("s.b")
    result = analyze(reg)
    assert result.faults == []
    assert result.counts["branch"] == 1


def test_counts_include_all_kinds():
    reg = SiteRegistry("s")
    reg.loop("s.l")
    reg.throw("s.t")
    reg.detector("s.d")
    reg.branch("s.b")
    reg.lib_call("s.lib")
    result = analyze(reg)
    assert result.counts["loop"] == 1
    assert result.counts["throw"] == 1
    assert result.counts["detector"] == 1
    assert result.counts["branch"] == 1
    assert result.counts["lib_call"] == 1
    assert result.counts["injectable"] == 4


def test_registry_rejects_conflicting_redefinition():
    reg = SiteRegistry("s")
    reg.loop("s.l")
    with pytest.raises(ValueError):
        reg.throw("s.l")


def test_registry_idempotent_identical_declaration():
    reg = SiteRegistry("s")
    reg.loop("s.l")
    reg.loop("s.l")
    assert len(reg) == 1


def test_registry_unknown_site_raises():
    reg = SiteRegistry("s")
    with pytest.raises(UnknownSite):
        reg.get("s.missing")


def test_sibling_and_child_loop_queries():
    reg = SiteRegistry("s")
    reg.loop("s.parent")
    reg.loop("s.child0", parent="s.parent", order=0)
    reg.loop("s.child1", parent="s.parent", order=1)
    reg.loop("s.child2", parent="s.parent", order=2)
    children = {s.site_id for s in reg.children_of("s.parent")}
    assert children == {"s.child0", "s.child1", "s.child2"}
    after = {s.site_id for s in reg.siblings_after("s.child1")}
    assert after == {"s.child2"}
    # Top-level loops (no parent) have no siblings.
    assert reg.siblings_after("s.parent") == []


def test_prune_fraction_configurable(monkeypatch):
    reg = SiteRegistry("s")
    for i in range(10):
        reg.loop("s.loop%02d" % i, body_size=i + 1)
    # LOOP_SIZE_PRUNE_FRAC (10 %) prunes the one shortest of ten loops.
    assert len(StaticAnalyzer(reg).analyze().fault_sites()) == 9
    monkeypatch.setattr("repro.instrument.analyzer.LOOP_SIZE_PRUNE_FRAC", 0.5)
    result = StaticAnalyzer(reg).analyze()
    assert len(result.fault_sites()) == 5
    assert "bottom 50% by size" in result.excluded["s.loop00"][0]
