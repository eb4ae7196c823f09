"""Interprocedural call graph over collected modules.

Every call expression in a function's own body is harvested: the body
of a nested ``def``/``class`` is left to that function (it runs only if
called, and a reference to it adds its own edge), but the nested
statement's decorators, defaults, bases and keywords count as the
host's.  Nothing is pruned as dead code — a call after a ``return`` or
under ``if False:`` still makes an edge, so a slice can only over-cover.

Resolution rules, applied in order to every harvested call:

1. **Nested functions** — ``g(...)`` where ``g`` is defined inside the
   calling function (``outer.<locals>.g``).
2. **Module-level calls** — ``f(...)`` for a function defined (or
   imported from a parsed module) at module scope.
3. **Constructors** — ``ClassName(...)`` adds an edge to
   ``ClassName.__init__`` when the class is parsed.
4. **``self.method(...)``** — resolved within the enclosing class, then
   its parsed base classes (breadth-first; unparsed framework bases such
   as ``repro.sim.Node`` are skipped).
5. **Unique-method-name fallback (CHA-lite)** — any remaining
   ``expr.method(...)`` resolves to *every* parsed class defining
   ``method``.  Over-approximate by design: a slice may include a
   function it cannot reach, never the reverse for these patterns.

**Callbacks**: the simulated node API registers work by reference —
``env.every(self, ms, self.replicate_tick)``,
``env.schedule_at(t, node, node.start_election)``,
``rt.rpc_call("site", ..., peer.handle_append, ...)``.  Every bare
``Name``/``Attribute`` argument of any call that resolves to a known
function or parsed method therefore becomes a call edge from the
registering function.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from .astutil import ClassInfo, FunctionInfo, ModuleInfo


def _body_calls(fn: ast.AST) -> Iterator[ast.Call]:
    """Every call in a function's own body.  A nested ``def``/``class``
    contributes only what its statement evaluates in the host —
    decorators and defaults, or decorators, bases and keywords — never
    its body."""
    stack: List[ast.AST] = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list)
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
        elif isinstance(node, ast.ClassDef):
            stack.extend(node.decorator_list)
            stack.extend(node.bases)
            stack.extend(kw.value for kw in node.keywords)
        else:
            stack.extend(ast.iter_child_nodes(node))


@dataclass
class CallGraph:
    functions: Dict[str, FunctionInfo]
    edges: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    calls_seen: int = 0
    calls_resolved: int = 0

    @property
    def n_edges(self) -> int:
        return sum(len(v) for v in self.edges.values())

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Transitive closure over call edges, roots included."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            stack.extend(self.edges.get(key, ()))
        return seen


class _Resolver:
    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for mod in modules.values():
            self.functions.update(mod.functions)
            self.classes.update(mod.classes)
        # method name -> every parsed class's implementation (CHA table)
        self.methods_by_name: Dict[str, List[str]] = {}
        for cls in self.classes.values():
            for mname, fkey in cls.methods.items():
                self.methods_by_name.setdefault(mname, []).append(fkey)
        # bare class name -> parsed classes with that name
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        for cls in self.classes.values():
            self.classes_by_name.setdefault(cls.name, []).append(cls)

    # -- class / name resolution --------------------------------------
    def class_named(self, name: str, module: str) -> List[ClassInfo]:
        """Parsed classes a bare name may refer to, seen from ``module``:
        module-local first, then the module's imports, then any parsed
        class with that name (unique only)."""
        local_key = "%s:%s" % (module, name)
        if local_key in self.classes:
            return [self.classes[local_key]]
        mod = self.modules.get(module)
        if mod is not None and name in mod.imports:
            target_mod, attr = mod.imports[name]
            if attr is not None:
                key = "%s:%s" % (target_mod, attr)
                if key in self.classes:
                    return [self.classes[key]]
        candidates = self.classes_by_name.get(name, [])
        return candidates if len(candidates) == 1 else []

    def method_in_class(self, cls: ClassInfo, name: str) -> List[str]:
        """Look up ``name`` in ``cls`` then breadth-first through parsed
        bases (unparsed bases are silently skipped)."""
        queue: List[ClassInfo] = [cls]
        seen: Set[str] = set()
        while queue:
            cur = queue.pop(0)
            if cur.key in seen:
                continue
            seen.add(cur.key)
            if name in cur.methods:
                return [cur.methods[name]]
            for base in cur.bases:
                queue.extend(self.class_named(base, cur.module))
        return []

    def resolve_name(self, name: str, fn: FunctionInfo, *, classes_ok: bool) -> List[str]:
        """Resolve a bare-name reference from inside ``fn``."""
        nested = "%s:%s.<locals>.%s" % (fn.module, fn.qualname, name)
        if nested in self.functions:
            return [nested]
        module_fn = "%s:%s" % (fn.module, name)
        if module_fn in self.functions and self.functions[module_fn].cls is None:
            return [module_fn]
        mod = self.modules.get(fn.module)
        if mod is not None and name in mod.imports:
            target_mod, attr = mod.imports[name]
            if attr is not None:
                key = "%s:%s" % (target_mod, attr)
                if key in self.functions:
                    return [key]
                if classes_ok and key in self.classes:
                    return self._ctor(self.classes[key])
        if classes_ok:
            for cls in self.class_named(name, fn.module):
                return self._ctor(cls)
        return []

    def _ctor(self, cls: ClassInfo) -> List[str]:
        out = self.method_in_class(cls, "__init__")
        return out

    def resolve_attr(self, value: ast.expr, attr: str, fn: FunctionInfo) -> List[str]:
        """Resolve ``<value>.<attr>`` as a method reference."""
        if isinstance(value, ast.Name) and value.id == "self" and fn.cls is not None:
            cls = self.classes.get("%s:%s" % (fn.module, fn.cls))
            return self.method_in_class(cls, attr) if cls is not None else []
        # CHA-lite fallback: every parsed class defining this method.
        return list(self.methods_by_name.get(attr, []))


def build_call_graph(modules: Dict[str, ModuleInfo]) -> CallGraph:
    resolver = _Resolver(modules)
    graph = CallGraph(functions=resolver.functions)
    for key, fn in resolver.functions.items():
        targets: Set[str] = set()
        for node in _body_calls(fn.node):
            graph.calls_seen += 1
            resolved = _resolve_call(node, fn, resolver)
            if resolved:
                graph.calls_resolved += 1
                targets.update(resolved)
            targets.update(_callback_refs(node, fn, resolver))
        targets.discard(key)  # self-recursion adds nothing to a closure
        graph.edges[key] = tuple(sorted(targets))
    return graph


def _resolve_call(node: ast.Call, fn: FunctionInfo, resolver: _Resolver) -> List[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return resolver.resolve_name(func.id, fn, classes_ok=True)
    if isinstance(func, ast.Attribute):
        return resolver.resolve_attr(func.value, func.attr, fn)
    return []


def _callback_refs(node: ast.Call, fn: FunctionInfo, resolver: _Resolver) -> List[str]:
    """Function references passed as arguments — callback registration."""
    out: List[str] = []
    args: List[ast.expr] = list(node.args)
    args.extend(kw.value for kw in node.keywords if kw.value is not None)
    for arg in args:
        if isinstance(arg, ast.Name):
            out.extend(resolver.resolve_name(arg.id, fn, classes_ok=False))
        elif isinstance(arg, ast.Attribute):
            out.extend(resolver.resolve_attr(arg.value, arg.attr, fn))
    return out
