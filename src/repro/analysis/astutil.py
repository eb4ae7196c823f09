"""AST parsing, function collection, and normalized digests.

Everything downstream (call graph, slices, cache keys) consumes the two
artifacts built here:

* a table of :class:`FunctionInfo` — every ``def``/``async def`` in the
  analyzed modules, keyed by ``module:QualName`` (the qualname uses the
  same ``Cls.method`` / ``outer.<locals>.inner`` convention as
  ``__qualname__``), carrying its AST node, class context, and the fault
  site-id literals it passes to ``rt.*`` hooks;
* a *normalized digest* per function — sha256 over ``ast.dump`` of the
  function node with docstrings stripped — and one per module over the
  statements no function covers (imports, constants, class bodies and
  their dataclass defaults, decorators).  Comments and whitespace never
  reach the AST, so digests are insensitive to them by construction.

The digest deliberately covers nested functions textually (editing a
closure edits its host's digest too) — a slice that reaches the host
must be invalidated when the closure changes.
"""

from __future__ import annotations

import ast
import copy
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

# Runtime hook methods whose first positional argument is a site-id
# string literal (see repro.instrument.runtime.Runtime).
SITE_HOOKS = frozenset(
    ["loop", "loop_guard", "throw_point", "detector", "branch", "rpc_call", "lib_call"]
)


@dataclass
class FunctionInfo:
    """One collected function definition."""

    key: str  # "module:QualName", globally unique
    module: str  # dotted module name
    qualname: str  # __qualname__-style, e.g. "RaftNode.handle_append"
    cls: Optional[str]  # immediate enclosing class qualname, if any
    node: ast.AST  # the FunctionDef / AsyncFunctionDef node
    site_literals: Tuple[str, ...] = ()  # site ids passed to rt.* hooks here
    digest: str = ""  # normalized body digest (filled by collect_module)


@dataclass
class ClassInfo:
    """One collected class definition (methods + textual base names)."""

    key: str  # "module:QualName"
    module: str
    qualname: str
    name: str
    bases: Tuple[str, ...] = ()  # base-class names as written (dotted tail)
    methods: Dict[str, str] = field(default_factory=dict)  # name -> function key


@dataclass
class ModuleInfo:
    """Parse result for one module."""

    name: str
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    # local alias -> (absolute module, attr-or-None); attr None for plain
    # ``import x.y as z`` style bindings.
    imports: Dict[str, Tuple[str, Optional[str]]] = field(default_factory=dict)
    # normalized digest of the statements no function covers
    digest: str = ""


def _docstring_bodies(node: ast.AST) -> Iterator[List[ast.stmt]]:
    """Every function, class and module body under ``node`` whose first
    statement is a docstring (a bare string constant)."""
    for sub in ast.walk(node):
        if not isinstance(sub, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = sub.body[0] if sub.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            yield sub.body


def _without_docstring(body: List[ast.stmt]) -> List[ast.stmt]:
    # A docstring-only body keeps a placeholder so the tree stays valid.
    return body[1:] if len(body) > 1 else [ast.Pass()]


def normalized_dump(node: ast.AST) -> str:
    """``ast.dump`` of ``node`` with docstrings stripped and location
    attributes dropped — the canonical text digests are taken over.

    The docstrings are taken out of ``node`` for the dump and put back
    after it, so the caller's tree is unchanged and nothing is copied
    (copying every function's AST used to be half of an analysis)."""
    held = [(body, list(body)) for body in _docstring_bodies(node)]
    for body, _ in held:
        body[:] = _without_docstring(body)
    try:
        return ast.dump(node, include_attributes=False)
    finally:
        for body, original in held:
            body[:] = original


def digest_node(node: ast.AST) -> str:
    return hashlib.sha256(normalized_dump(node).encode("utf-8")).hexdigest()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _is_runtime_receiver(expr: ast.AST) -> bool:
    """True for ``rt`` / ``self.rt`` / ``<anything>.rt`` — the Runtime
    handle instrumented code calls hooks on.  Registry *declarations*
    (``reg.loop("site", ...)``) share the method names but never this
    receiver, and must not bind the site to the builder function."""
    if isinstance(expr, ast.Name):
        return expr.id == "rt"
    if isinstance(expr, ast.Attribute):
        return expr.attr == "rt"
    return False


def _site_literal(call: ast.Call) -> Optional[str]:
    """Return the site id if ``call`` is an ``rt.<hook>("site.id", ...)``
    runtime-hook invocation, else None."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in SITE_HOOKS:
        return None
    if not _is_runtime_receiver(func.value):
        return None
    if not call.args:
        return None
    first = call.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


class _Collector(ast.NodeVisitor):
    """Walk one module, recording functions, classes, imports, and the
    site-id literals each function's body contains."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self._qual: List[str] = []  # qualname segments
        self._class_stack: List[ClassInfo] = []
        self._fn_stack: List[FunctionInfo] = []
        self._sites: Dict[str, List[str]] = {}  # function key -> site ids

    # -- imports ------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".", 1)[0]
            self.info.imports[local] = (alias.name, None)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._resolve_relative(node)
        if base is not None:
            for alias in node.names:
                local = alias.asname or alias.name
                self.info.imports[local] = (base, alias.name)

    def _resolve_relative(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = self.info.name.split(".")
        if node.level > len(parts):
            return None
        head = parts[: len(parts) - node.level]
        if node.module:
            head.append(node.module)
        return ".".join(head) if head else None

    # -- classes & functions ------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._qual.append(node.name)
        qual = ".".join(self._qual)
        cls = ClassInfo(
            key="%s:%s" % (self.info.name, qual),
            module=self.info.name,
            qualname=qual,
            name=node.name,
            bases=tuple(_base_name(b) for b in node.bases if _base_name(b)),
        )
        self.info.classes[cls.key] = cls
        self._class_stack.append(cls)
        self.generic_visit(node)
        self._class_stack.pop()
        self._qual.pop()

    def _visit_function(self, node: ast.AST, name: str) -> None:
        self._qual.append(name)
        qual = ".".join(self._qual)
        cls = self._class_stack[-1] if self._class_stack else None
        fn = FunctionInfo(
            key="%s:%s" % (self.info.name, qual),
            module=self.info.name,
            qualname=qual,
            cls=cls.qualname if cls else None,
            node=node,
        )
        self.info.functions[fn.key] = fn
        if cls is not None and cls.qualname == _owner_qual(qual):
            cls.methods[name] = fn.key
        self._fn_stack.append(fn)
        self._qual.append("<locals>")
        self.generic_visit(node)
        self._qual.pop()
        self._fn_stack.pop()
        self._qual.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    # -- site literals ------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        site = _site_literal(node)
        if site is not None and self._fn_stack:
            self._sites.setdefault(self._fn_stack[-1].key, []).append(site)
        self.generic_visit(node)

    def finalize(self) -> None:
        for key, sites in self._sites.items():
            self.info.functions[key].site_literals = tuple(sites)
        for fn in self.info.functions.values():
            fn.digest = digest_node(fn.node)


def _owner_qual(fn_qual: str) -> str:
    """Qualname of the scope that owns a function, e.g. the class of a
    method ("Cls.m" -> "Cls"); empty for module-level functions."""
    head, _, _ = fn_qual.rpartition(".")
    return head


def _base_name(expr: ast.AST) -> str:
    """Textual name of a base-class expression: Name -> id, dotted
    Attribute -> last attr (resolution happens against parsed classes)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return ""


def _own_statements(body: List[ast.stmt]) -> List[ast.stmt]:
    """``body`` without its function definitions, and each class in it cut
    down the same way: the statements no function digest covers."""
    out: List[ast.stmt] = []
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.ClassDef):
            cls = copy.copy(stmt)
            cls.body = _own_statements(stmt.body) or [ast.Pass()]
            stmt = cls
        out.append(stmt)
    return out


def collect_module(name: str, source: str) -> ModuleInfo:
    """Parse ``source`` and collect its functions, classes, imports and
    digests."""
    tree = ast.parse(source, filename="%s.py" % name.replace(".", "/"))
    info = ModuleInfo(name=name)
    collector = _Collector(info)
    collector.visit(tree)
    collector.finalize()
    info.digest = digest_node(ast.Module(body=_own_statements(tree.body), type_ignores=[]))
    return info
