"""Layering guard: modules of ``repro`` talk through public names.

Four rules, checked on the AST of every module under ``src/repro``:

* no ``from <another repro module> import _name`` — a leading underscore
  means "private to the module that defines it";
* no ``driver._x`` / ``cache._x`` attribute access (nor ``something.driver._x``)
  — the experiment driver and the experiment cache are the seams every
  backend shares, so their internals are reached through ``self`` only;
* no ``import scipy`` / ``from scipy ...`` — a campaign process runs on
  the stdlib and numpy (SciPy is the test suite's oracle, not a
  dependency), and ``test_a_campaign_loads_no_scipy_module`` checks the
  same thing on a live process — and no ``import tests`` either: the
  oracles (``tests/reference_*.py``) live with the tests, never the
  other way round; the same live process loads no ``repro.analysis``
  module (``test_a_campaign_loads_no_analysis_module``);
* every function, class and method defined under ``src/repro`` is named
  somewhere besides its own ``def`` — in ``src``, ``tests``,
  ``benchmarks`` or ``examples`` — except dunders and the callbacks a
  framework calls by name (``visit_*``, ``do_*``, ``log_message``).
"""

import ast
import functools
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

pytestmark = pytest.mark.contract

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
GUARDED_RECEIVERS = ("driver", "cache")
FORBIDDEN_IMPORTS = ("scipy", "tests")
SEARCHED = ("src", "tests", "benchmarks", "examples")
CALLBACK_PREFIXES = ("visit_", "do_")
CALLBACKS = ("log_message",)


def _receiver_name(node):
    """``driver`` for ``driver._x`` and for ``ctx.driver._x``; else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _violations(source, where):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            absolute = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            absolute = [node.module]
        else:
            absolute = []
        for name in absolute:
            if name.split(".")[0] in FORBIDDEN_IMPORTS:
                yield "%s:%d imports %s" % (where, node.lineno, name)
        if isinstance(node, ast.ImportFrom):
            inside_repro = node.level > 0 or (node.module or "").split(".")[0] == "repro"
            for alias in node.names:
                if inside_repro and alias.name.startswith("_"):
                    yield "%s:%d imports private %r from %s" % (
                        where, node.lineno, alias.name, "." * node.level + (node.module or ""),
                    )
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            dunder = node.attr.startswith("__") and node.attr.endswith("__")
            if not dunder and _receiver_name(node.value) in GUARDED_RECEIVERS:
                yield "%s:%d reads %s.%s" % (
                    where, node.lineno, _receiver_name(node.value), node.attr,
                )


def _definitions(source, where):
    """``(name, "where:line")`` of every function, class and method defined
    in ``source``, less dunders and framework callbacks."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            if not (dunder or name.startswith(CALLBACK_PREFIXES) or name in CALLBACKS):
                yield name, "%s:%d" % (where, node.lineno)


def _unreferenced(definitions, texts):
    """The definitions whose name occurs as a word in ``texts`` no more
    often than it is defined: named nowhere but in their own ``def``."""
    definitions = list(definitions)
    defined = Counter(name for name, _ in definitions)
    words = Counter(word for text in texts for word in re.findall(r"\w+", text))
    return sorted(
        "%s defines %s, named nowhere else" % (where, name)
        for name, where in definitions
        if words[name] <= defined[name]
    )


def test_no_module_reaches_into_anothers_private_names():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50, "src/repro not found where expected"
    found = [
        v
        for path in modules
        for v in _violations(path.read_text(encoding="utf-8"), path.relative_to(SRC.parent))
    ]
    assert not found, "\n".join(found)


def test_the_guard_sees_both_kinds_of_violation():
    """The walker itself: a private import and a private driver / cache
    read are reported; ``self._x``, public reads and imports from outside
    ``repro`` are not."""
    probe = (
        "from ..core.driver import _worker_driver, ExperimentDriver\n"
        "from os.path import _get_sep\n"
        "def f(self, driver, ctx):\n"
        "    self._plans = driver.cache\n"
        "    driver._execute_plans()\n"
        "    return ctx.driver.cache._load\n"
        "import numpy, scipy.stats as st\n"
        "from scipy.cluster.hierarchy import linkage\n"
        "from .scipy import shim\n"
        "from tests.helpers import edge\n"
        "from .tests import shim\n"
    )
    found = sorted(_violations(probe, "probe.py"))
    assert [v.split(" ", 1)[0] for v in found] == [
        "probe.py:1", "probe.py:10", "probe.py:5", "probe.py:6", "probe.py:7", "probe.py:8",
    ], found


def test_every_definition_is_named_somewhere_else():
    texts = [
        path.read_text(encoding="utf-8") for top in SEARCHED for path in (ROOT / top).rglob("*.py")
    ]
    found = _unreferenced(
        (
            d
            for path in sorted(SRC.rglob("*.py"))
            for d in _definitions(path.read_text(encoding="utf-8"), path.relative_to(ROOT))
        ),
        texts,
    )
    assert not found, "\n".join(found)


def test_the_guard_sees_an_unreferenced_definition():
    """The walker itself: a def named only by itself is reported, once per
    definition site; one named by a call elsewhere, a dunder and the
    framework callbacks are not."""
    probe = (
        "class Handler:\n"
        "    def __init__(self): pass\n"
        "    def do_GET(self): pass\n"
        "    def log_message(self, *args): pass\n"
        "    def visit_Name(self, node): pass\n"
        "    def orphan(self): pass\n"
        "def helper(): pass\n"
        "def twice(): pass\n"
        "def twice(): pass\n"
    )
    caller = "Handler().do_GET(); helper()\n"
    found = _unreferenced(_definitions(probe, "probe.py"), [probe, caller])
    assert found == [
        "probe.py:6 defines orphan, named nowhere else",
        "probe.py:8 defines twice, named nowhere else",
        "probe.py:9 defines twice, named nowhere else",
    ], found


@functools.lru_cache(maxsize=None)
def _campaign_modules():
    """The loaded-module table after a whole campaign through ``repro.cli``
    — analysis, profiling, FCA's Welch tests, 3PA clustering, beam search,
    report — in a fresh interpreter."""
    script = (
        "import json, sys\n"
        "sys.path.insert(0, %r)\n"
        "from repro.cli import main\n"
        "code = main(['run', 'toy', '--repeats', '2', '--delays', '2000', '--budget', '2'])\n"
        "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
        "sys.exit(code)\n"
    ) % str(SRC.parent)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stderr.splitlines()[-1])


def test_a_campaign_loads_no_scipy_module():
    assert [m for m in _campaign_modules() if m.split(".")[0] == "scipy"] == []


def test_a_campaign_loads_no_analysis_module():
    """The analyze stage reads declared sites only (``FaultSite.dead``), so
    a campaign never slices, also of a system that declares source
    modules, as toy does."""
    assert [m for m in _campaign_modules() if m.startswith("repro.analysis")] == []
