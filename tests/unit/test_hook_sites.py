"""Every hook call in a system's code names a declared site of its kind.

A system declares its fault sites in ``sites.py`` and names them again in
its code, as the first argument of each runtime hook
(``self.rt.loop("dn.offer.cmds", ...)``).  Nothing at run time checks the
two against each other: a misspelled id raises ``UnknownSite`` only when a
run reaches it, and a hook of the wrong kind not at all.  This walks the
code of every system's ``source_modules`` packages with ``ast`` and
requires each literal id to be a registered site of the hook's kind.  A
package that several systems share (minihdfs2 and minihdfs3 run one
``minihdfs`` package) is checked against the union of their registries.
Ids computed at run time (miniflink's ``"tm.%s.process" % self.role``)
cannot be read here; they are listed so that a new one is seen.
"""

from __future__ import annotations

import ast
import importlib
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

import pytest

from repro.systems import available_systems, get_system
from repro.types import SiteKind

pytestmark = pytest.mark.contract

#: Runtime hook -> the kind of site its first argument names.
HOOK_KINDS = {
    "loop": SiteKind.LOOP,
    "loop_guard": SiteKind.LOOP,
    "throw_point": SiteKind.THROW,
    "lib_call": SiteKind.LIB_CALL,
    "rpc_call": SiteKind.LIB_CALL,
    "detector": SiteKind.DETECTOR,
    "branch": SiteKind.BRANCH,
}

#: ``path hook(argument)`` of every hook call whose id is not a literal.
COMPUTED_IDS = {
    "repro/systems/miniflink/nodes.py loop(site)",
}

#: The sites minihdfs3 declares and minihdfs2 does not.
V3_ONLY = {
    "dn3.del.b_batch",
    "dn3.del.work",
    "dn3.recon.fetch",
    "dn3.recon.work",
    "nn3.eventq.b_kind",
    "nn3.eventq.dispatch",
    "nn3.eventq.handler_ioe",
    "nn3.eventq.is_saturated",
    "nn3.eventq.overflow",
}


def packages() -> Dict[Path, Set[str]]:
    """Package directory -> the systems whose source modules live in it."""
    out: Dict[Path, Set[str]] = defaultdict(set)
    for system in available_systems():
        for module in get_system(system).source_modules:
            out[Path(importlib.import_module(module).__file__).parent].add(system)
    return out


def hook_calls(package: Path) -> Iterator[Tuple[str, int, str, object]]:
    """``(path, line, hook, id)`` of every ``rt.<hook>(id, ...)`` call in
    the package's modules; ``id`` is the literal string or, when the id
    is computed, the argument's AST node."""
    root = Path(importlib.import_module("repro").__file__).parent.parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            receiver = node.func.value
            on_rt = (isinstance(receiver, ast.Name) and receiver.id == "rt") or (
                isinstance(receiver, ast.Attribute) and receiver.attr == "rt"
            )
            if not (on_rt and node.func.attr in HOOK_KINDS and node.args):
                continue
            arg = node.args[0]
            literal = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            yield (
                path.relative_to(root).as_posix(), node.lineno, node.func.attr,
                arg.value if literal else arg,
            )


def declared(systems: Set[str]) -> Dict[str, Set[SiteKind]]:
    """Site id -> its kinds, over the registries of ``systems``."""
    out: Dict[str, Set[SiteKind]] = defaultdict(set)
    for system in systems:
        for site in get_system(system).registry:
            out[site.site_id].add(site.kind)
    return out


PACKAGES = packages()


def test_every_system_package_holds_hook_calls():
    # A walk that finds nothing would pass every check below.
    names = {system for systems in PACKAGES.values() for system in systems}
    assert names == set(available_systems())
    for package, systems in PACKAGES.items():
        if package.name != "workloads":
            assert any(True for _ in hook_calls(package)), (package, systems)


@pytest.mark.parametrize("package", sorted(PACKAGES), ids=lambda p: p.name)
def test_every_literal_hook_id_is_a_declared_site_of_its_kind(package):
    sites = declared(PACKAGES[package])
    wrong = [
        "%s:%d %s(%r) declared as %s" % (
            path, line, hook, site_id, sorted(k.name for k in sites.get(site_id, ())) or "nothing"
        )
        for path, line, hook, site_id in hook_calls(package)
        if isinstance(site_id, str) and HOOK_KINDS[hook] not in sites.get(site_id, ())
    ]
    assert wrong == []


def test_computed_hook_ids_are_the_listed_ones():
    computed = {
        "%s %s(%s)" % (path, hook, ast.unparse(site_id))
        for package in PACKAGES
        for path, _, hook, site_id in hook_calls(package)
        if not isinstance(site_id, str)
    }
    assert computed == COMPUTED_IDS


def test_the_shared_hdfs_package_names_every_v3_only_site():
    # The union is needed for these ids and for no other.
    package = Path(importlib.import_module("repro.systems.minihdfs").__file__).parent
    assert PACKAGES[package] == {"minihdfs2", "minihdfs3"}
    ids = {site_id for _, _, _, site_id in hook_calls(package) if isinstance(site_id, str)}
    v2, v3 = set(declared({"minihdfs2"})), set(declared({"minihdfs3"}))
    assert ids - v2 == v3 - v2 == V3_ONLY
    assert ids - v3 == set()
