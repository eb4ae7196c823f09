"""Unit tests for the code-slice analysis package (repro.analysis)."""

import ast
from pathlib import Path

import pytest

from repro.analysis import (
    GitSource,
    TreeSource,
    analyze_sources,
    diff_reports,
    diff_slices,
    module_relpath,
    resolve_provider,
)
from repro.analysis.astutil import collect_module, digest_node
from repro.analysis.callgraph import build_call_graph
from repro.instrument.sites import FaultSite
from repro.types import SiteKind

MOD_A = '''\
from demo.b import Helper, util


class Service:
    def __init__(self, rt):
        self.rt = rt
        self.helper = Helper()

    def handle(self, n):
        """Process n items through the instrumented scan loop."""
        # the loop hook names the site via its first literal argument
        for item in self.rt.loop("svc.handle.scan", range(n)):
            self.step(item)
        return n

    def step(self, item):
        if self.rt.branch("svc.step.is_big", item > 2):
            util(item)

    def retired(self):
        return 0
        util(99)

    def shared_one(self):
        self.rt.detector("svc.shared.check", True)

    def shared_two(self):
        self.rt.detector("svc.shared.check", False)


def register(env, svc):
    env.every(svc, 10, svc.handle)
'''

MOD_B = '''\
class Helper:
    def __init__(self):
        self.count = 0


def util(x):
    return x + 1
'''

SOURCES = {"demo.a": MOD_A, "demo.b": MOD_B}


def site(site_id, kind, function):
    return FaultSite(site_id=site_id, kind=kind, system="demo", function=function)


SITES = [
    site("svc.handle.scan", SiteKind.LOOP, "Service.handle"),
    site("svc.step.is_big", SiteKind.BRANCH, "Service.step"),
    site("svc.retired.op", SiteKind.DETECTOR, "Service.retired"),
    site("svc.shared.check", SiteKind.DETECTOR, "Service.shared_one"),
    site("svc.ghost", SiteKind.DETECTOR, "Service.vanished"),
    site("env.node.0", SiteKind.ENV_NODE, "<environment>"),
]

ENTRIES = {"t-basic": "demo.a:register"}


@pytest.fixture()
def analysis():
    return analyze_sources("demo", SOURCES, SITES, ENTRIES)


# ---------------------------------------------------------------- astutil


def test_collect_module_function_keys_and_classes():
    info = collect_module("demo.a", MOD_A)
    assert set(info.functions) == {
        "demo.a:Service.__init__",
        "demo.a:Service.handle",
        "demo.a:Service.step",
        "demo.a:Service.retired",
        "demo.a:Service.shared_one",
        "demo.a:Service.shared_two",
        "demo.a:register",
    }
    assert set(info.classes) == {"demo.a:Service"}
    assert info.classes["demo.a:Service"].methods["handle"] == "demo.a:Service.handle"


def test_collect_module_site_literals_bound_to_runtime_receiver():
    info = collect_module("demo.a", MOD_A)
    assert info.functions["demo.a:Service.handle"].site_literals == ("svc.handle.scan",)
    assert info.functions["demo.a:Service.step"].site_literals == ("svc.step.is_big",)
    # declaration-style receivers (reg.loop(...)) are not runtime hooks
    decl = collect_module("demo.reg", 'def build(reg):\n    reg.loop("a.b", "F.g")\n')
    assert decl.functions["demo.reg:build"].site_literals == ()


def test_collect_module_import_map():
    info = collect_module("demo.a", MOD_A)
    assert info.imports["Helper"] == ("demo.b", "Helper")
    assert info.imports["util"] == ("demo.b", "util")


def test_collect_module_resolves_relative_imports():
    info = collect_module("pkg.sub.mod", "from ..core import thing\n")
    assert info.imports["thing"] == ("pkg.core", "thing")


def test_digest_ignores_docstrings_and_comments():
    fn = ast.parse("def f():\n    'doc'\n    return 1\n").body[0]
    fn2 = ast.parse("def f():\n    # comment\n    return 1\n").body[0]
    fn3 = ast.parse("def f():\n\n\n    return   1\n").body[0]
    assert digest_node(fn) == digest_node(fn2) == digest_node(fn3)


def test_digest_changes_on_executable_edit():
    fn = ast.parse("def f():\n    return 1\n").body[0]
    fn2 = ast.parse("def f():\n    return 2\n").body[0]
    assert digest_node(fn) != digest_node(fn2)


def test_docstring_only_function_digests_like_pass():
    # the stripped body keeps a placeholder rather than going empty
    fn = ast.parse("def f():\n    'only a docstring'\n").body[0]
    fn2 = ast.parse("def f():\n    pass\n").body[0]
    assert digest_node(fn) == digest_node(fn2)


# -------------------------------------------------------------- call graph


def _graph():
    modules = {name: collect_module(name, src) for name, src in SOURCES.items()}
    return build_call_graph(modules)


def test_call_graph_resolves_self_method_and_import():
    graph = _graph()
    assert "demo.a:Service.step" in graph.edges["demo.a:Service.handle"]
    assert "demo.b:util" in graph.edges["demo.a:Service.step"]


def test_call_graph_resolves_constructor_across_modules():
    graph = _graph()
    assert "demo.b:Helper.__init__" in graph.edges["demo.a:Service.__init__"]


def test_call_graph_resolves_callback_arguments():
    # env.every(svc, 10, svc.handle) registers handle by reference
    graph = _graph()
    assert "demo.a:Service.handle" in graph.edges["demo.a:register"]


HARVEST = """\
def a():
    return 1
    after_return()


def b():
    if False:
        under_if_false()


def c(xs):
    for x in xs:
        in_loop(x)


def d():
    try:
        pass
    except ValueError:
        in_handler()


def e():
    def inner(x=in_default()):
        in_nested_body()


def after_return(): pass
def under_if_false(): pass
def in_loop(x): pass
def in_handler(): pass
def in_default(): pass
def in_nested_body(): pass
"""


def test_call_graph_harvests_every_call_in_a_function_body():
    # no dead-code pruning: every call in the body makes an edge, and a
    # nested def's default runs in its host while its body does not
    graph = build_call_graph({"demo.h": collect_module("demo.h", HARVEST)})
    assert graph.edges["demo.h:a"] == ("demo.h:after_return",)
    assert graph.edges["demo.h:b"] == ("demo.h:under_if_false",)
    assert graph.edges["demo.h:c"] == ("demo.h:in_loop",)
    assert graph.edges["demo.h:d"] == ("demo.h:in_handler",)
    assert graph.edges["demo.h:e"] == ("demo.h:in_default",)
    assert graph.edges["demo.h:e.<locals>.inner"] == ("demo.h:in_nested_body",)


def test_call_graph_resolves_nested_functions():
    src = "def outer():\n    def inner():\n        return 1\n    return inner()\n"
    modules = {"demo.n": collect_module("demo.n", src)}
    graph = build_call_graph(modules)
    assert "demo.n:outer.<locals>.inner" in graph.edges["demo.n:outer"]


def test_reachable_from_is_a_transitive_closure():
    graph = _graph()
    closure = graph.reachable_from(["demo.a:Service.handle"])
    assert {"demo.a:Service.handle", "demo.a:Service.step", "demo.b:util"} <= closure
    assert "demo.a:Service.retired" not in closure


# ------------------------------------------------------------------ slicer


def test_slicer_binds_sites_by_literal(analysis):
    assert analysis.site_roots["svc.handle.scan"] == ("demo.a:Service.handle",)
    assert set(analysis.site_slices["svc.handle.scan"]) == {
        "demo.a:Service.handle",
        "demo.a:Service.step",
        "demo.b:util",
    }


def test_slicer_falls_back_to_declared_qualname(analysis):
    # svc.retired.op's literal never appears; the declared function does
    assert analysis.site_roots["svc.retired.op"] == ("demo.a:Service.retired",)


def test_slicer_unions_multi_root_literals(analysis):
    assert analysis.site_roots["svc.shared.check"] == (
        "demo.a:Service.shared_one",
        "demo.a:Service.shared_two",
    )
    assert set(analysis.site_slices["svc.shared.check"]) == {
        "demo.a:Service.shared_one",
        "demo.a:Service.shared_two",
    }


def test_slicer_reports_unresolved_sites(analysis):
    assert "svc.ghost" in analysis.unresolved
    assert "not in source" in analysis.unresolved["svc.ghost"]
    assert "svc.ghost" not in analysis.site_slices


def test_slicer_keys_env_sites_on_whole_source(analysis):
    # an environment site has no code and no slice; like every site, its
    # results key on the whole source digest
    assert analysis.env_sites == ("env.node.0",)
    assert "env.node.0" not in analysis.site_roots and "env.node.0" not in analysis.site_slices


def test_slicer_entry_points_and_reachability(analysis):
    assert analysis.entry_function["t-basic"] == "demo.a:register"
    assert analysis.reachability_trusted
    assert analysis.is_reachable("svc.handle.scan")
    # retired() has no callers from the entry point
    assert not analysis.is_reachable("svc.retired.op")
    # unresolved sites are never pruned
    assert analysis.is_reachable("svc.ghost")


def test_slicer_distrusts_reachability_on_unresolved_entry():
    analysis = analyze_sources(
        "demo", SOURCES, SITES, {"t-basic": "demo.a:register", "t-gone": "demo.a:missing"}
    )
    assert not analysis.reachability_trusted
    assert analysis.is_reachable("svc.retired.op")  # conservative


def test_slicer_digest_stable_under_comment_edit():
    edited = dict(SOURCES)
    edited["demo.a"] = MOD_A.replace(
        '"""Process n items through the instrumented scan loop."""',
        "# rewritten as a comment",
    )
    base = analyze_sources("demo", SOURCES, SITES, ENTRIES)
    after = analyze_sources("demo", edited, SITES, ENTRIES)
    assert after.function_digests == base.function_digests
    assert after.module_digests == base.module_digests
    assert after.source_digest == base.source_digest


@pytest.mark.parametrize(
    "module,old,new",
    [
        ("demo.b", "return x + 1", "return x + 2"),  # a function body
        ("demo.a", "from demo.b import Helper, util", "from demo.b import util, Helper"),
        ("demo.a", "class Service:", "class Service:\n    limit = 3\n"),  # a class body
        ("demo.b", "def util(x):", "RETRIES = 2\n\n\ndef util(x):"),  # a module constant
        ("demo.b", "class Helper:", "@dataclass\nclass Helper:"),  # a class decorator
    ],
)
def test_source_digest_covers_every_statement(module, old, new):
    edited = dict(SOURCES, **{module: SOURCES[module].replace(old, new, 1)})
    assert edited != SOURCES
    base = analyze_sources("demo", SOURCES, SITES, ENTRIES)
    after = analyze_sources("demo", edited, SITES, ENTRIES)
    assert after.source_digest != base.source_digest
    # statements outside any function move their module's digest only
    inside = after.function_digests != base.function_digests
    assert inside != (after.module_digests != base.module_digests)


def test_slicer_is_deterministic():
    a = analyze_sources("demo", SOURCES, SITES, ENTRIES)
    b = analyze_sources("demo", dict(reversed(list(SOURCES.items()))), SITES, ENTRIES)
    assert a.site_slices == b.site_slices
    assert a.source_digest == b.source_digest


def test_slicer_stats_are_scalars(analysis):
    stats = analysis.stats()
    assert stats["sites_resolved"] == 4
    assert stats["sites_env"] == 1
    assert stats["sites_unresolved"] == 1
    assert stats["entries_resolved"] == 1
    assert stats["reachability_trusted"] is True
    assert all(
        isinstance(v, (int, float, bool)) for v in stats.values()
    ), stats


# ------------------------------------------------------------------ source


def test_module_relpath():
    assert module_relpath("repro.systems.miniraft.nodes") == (
        "src/repro/systems/miniraft/nodes.py"
    )


def test_tree_source_reads_src_and_bare_layouts(tmp_path):
    src_layout = tmp_path / "a"
    (src_layout / "src" / "demo").mkdir(parents=True)
    (src_layout / "src" / "demo" / "m.py").write_text("X = 1\n")
    assert TreeSource(src_layout).read("demo.m") == "X = 1\n"

    bare_layout = tmp_path / "b"
    (bare_layout / "demo").mkdir(parents=True)
    (bare_layout / "demo" / "m.py").write_text("X = 2\n")
    assert TreeSource(bare_layout).read("demo.m") == "X = 2\n"

    with pytest.raises(FileNotFoundError):
        TreeSource(src_layout).read("demo.absent")


def test_git_source_reads_committed_modules():
    repo = Path(__file__).resolve().parents[2]
    git = GitSource("HEAD", repo=repo)
    if not git.exists():  # pragma: no cover - sdist without .git
        pytest.skip("not running from a git checkout")
    text = git.read("repro.types")
    assert "class SiteKind" in text
    with pytest.raises(FileNotFoundError):
        git.read("repro.no_such_module")


def test_resolve_provider_prefers_directories(tmp_path):
    provider = resolve_provider(str(tmp_path))
    assert isinstance(provider, TreeSource)
    with pytest.raises(ValueError):
        resolve_provider("definitely-not-a-ref-or-dir", repo=tmp_path)


# -------------------------------------------------------------------- diff


def test_diff_slices_classifies_functions_and_modules():
    edited = dict(SOURCES)
    edited["demo.b"] = MOD_B.replace("return x + 1", "return x + 2") + "\nLIMIT = 4\n"
    old = analyze_sources("demo", SOURCES, SITES, ENTRIES)
    new = analyze_sources("demo", edited, SITES, ENTRIES)
    diff = diff_slices(old, new)
    assert diff.source_changed
    assert diff.changed_functions == ("demo.b:util",)
    assert diff.added_functions == () and diff.removed_functions == ()
    assert diff.changed_modules == ("demo.b",)


def test_diff_slices_on_identical_sources_is_empty():
    old = analyze_sources("demo", SOURCES, SITES, ENTRIES)
    new = analyze_sources("demo", dict(SOURCES), SITES, ENTRIES)
    diff = diff_slices(old, new)
    assert not diff.source_changed
    assert diff.changed_functions == () and diff.changed_modules == ()


def _report(cycle_edges, bugs):
    return {
        "cycles": [
            {"edges": [{"src": s, "etype": e, "dst": d, "test_id": t} for s, e, d, t in edges]}
            for edges in cycle_edges
        ],
        "bug_matches": [{"bug": {"bug_id": b}, "detected": True} for b in bugs],
        "summary": {"bugs_detected": len(bugs)},
    }


def test_diff_reports_spots_appeared_and_vanished_loops():
    old = _report([[("A", "SP_I", "B", "t1")]], ["BUG-1"])
    new = _report([[("A", "SP_I", "C", "t1")]], ["BUG-1", "BUG-2"])
    diff = diff_reports(old, new)
    assert not diff.identical
    assert len(diff.appeared_loops) == 1 and "C" in diff.appeared_loops[0]
    assert len(diff.vanished_loops) == 1 and "B" in diff.vanished_loops[0]
    assert diff.appeared_bugs == ("BUG-2",) and diff.vanished_bugs == ()


def test_diff_reports_identical_ignores_recorded_state_noise():
    old = _report([[("A", "SP_I", "B", "t1")]], ["BUG-1"])
    new = _report([[("A", "SP_I", "B", "t1")]], ["BUG-1"])
    new["cycles"][0]["edges"][0]["src_states"] = [["x", "y"]]  # state noise
    diff = diff_reports(old, new)
    assert diff.identical
    assert diff.to_obj()["identical"] is True


# ------------------------------------------------------- bundled systems


@pytest.mark.parametrize("name", ["minihdfs2", "minihdfs3"])
def test_minihdfs_cache_entries_key_on_the_source_digest(name, tmp_path):
    """With ``source_modules`` declared, the MiniHDFS specs' cache entries
    key on the source digest — never the whole-spec fallback.  Every
    analyzer-selected fault site and every workload entry point resolves,
    so reachability prunes; the only unresolved sites are ones the static
    analyzer filters out of the fault space anyway (metrics, test-only,
    reflection)."""
    import dataclasses

    from repro.cache import ExperimentCache
    from repro.config import CSnakeConfig
    from repro.instrument.analyzer import analyze
    from repro.systems import get_system

    spec = get_system(name)
    slices = spec.slice_analysis()
    assert slices is not None, "source_modules undeclared"
    selected = {f.site_id for f in analyze(spec.registry, slices=slices).faults}
    assert selected - set(slices.site_slices) == set()
    assert set(spec.workload_ids()) - set(slices.entry_function) == set()
    assert not (selected & set(slices.unresolved))
    assert slices.reachability_trusted

    test_id = spec.workload_ids()[0]
    key = ExperimentCache(tmp_path, spec, CSnakeConfig()).profile_key(test_id)
    spec.attach_slice_analysis(dataclasses.replace(slices, source_digest="0" * 64))
    assert ExperimentCache(tmp_path, spec, CSnakeConfig()).profile_key(test_id) != key
