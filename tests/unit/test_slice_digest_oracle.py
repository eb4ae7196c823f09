"""Function digests against a reference kept on the test side.

``repro diff-run`` names changed functions by their digests, so however
:func:`repro.analysis.source_digests` computes them they must equal what
the original implementation produced: deep-copy the function's AST,
strip docstrings from the copy, ``ast.dump`` it without location
attributes, SHA-256.  The digests are over ``ast.dump``, whose shape
differs between interpreter minors, so the reference is recomputed here
rather than read from a recorded file.  The source digest is a pure
function of the per-function and per-module ones and needs no oracle of
its own.
"""

import ast
import copy
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import live_sources, source_digests
from repro.systems import available_systems, get_system

pytestmark = pytest.mark.contract

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _reference_digest(node):
    clean = copy.deepcopy(node)
    for sub in ast.walk(clean):
        body = getattr(sub, "body", None)
        if isinstance(sub, _SCOPES) and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                body[0:1] = [ast.Pass()] if len(body) == 1 else []
    return hashlib.sha256(ast.dump(clean, include_attributes=False).encode("utf-8")).hexdigest()


def _reference_digests(module, source):
    """``module:QualName`` -> reference digest of every def in ``source``."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out["%s:%s%s" % (module, prefix, child.name)] = _reference_digest(child)
                visit(child, "%s%s.<locals>." % (prefix, child.name))
            elif isinstance(child, ast.ClassDef):
                visit(child, "%s%s." % (prefix, child.name))
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def _digests(module, source):
    return source_digests({module: source}).functions


@pytest.mark.parametrize("system", available_systems())
def test_every_function_of_every_registered_system_matches_the_reference(system):
    sources = live_sources(get_system(system).source_modules)
    assert sources, "%s declares no source modules" % system
    checked = 0
    for module, source in sorted(sources.items()):
        got = _digests(module, source)
        assert got == _reference_digests(module, source), module
        checked += len(got)
    assert checked, "%s: no function digested" % system


# Small modules out of the shapes the stripper treats specially: nested
# defs, classes, ``async def``, docstring-only bodies, a docstring followed
# by another bare string (only the first is a docstring).
_DOC = st.sampled_from(["", '"""doc"""', "'d'", '"""first"""\n"second"'])
_STMT = st.sampled_from(["pass", "z = 1", "x = 'not a docstring'", "y = f(x)\n'trailing'"])


def _indent(block):
    return "\n".join("    " + line for line in block.splitlines())


def _scope(header, doc, body):
    # A body may be only its docstring; an empty one is not valid Python.
    return "%s\n%s" % (header, _indent("\n".join(p for p in (doc, body) if p) or "pass"))


def _blocks(children):
    body = st.lists(st.one_of(_STMT, children), min_size=0, max_size=3).map("\n".join)
    name = st.sampled_from(["f", "g", "h"])
    return st.one_of(
        st.builds(lambda n, d, b: _scope("def %s(x):" % n, d, b), name, _DOC, body),
        st.builds(lambda n, d, b: _scope("async def %s(x):" % n, d, b), name, _DOC, body),
        st.builds(lambda n, d, b: _scope("class %s:" % n.upper(), d, b), name, _DOC, body),
    )


_MODULES = st.builds(
    lambda doc, blocks: "\n".join(p for p in [doc] + blocks if p) + "\n",
    _DOC,
    st.lists(st.recursive(_STMT, _blocks, max_leaves=8), min_size=1, max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(_MODULES)
def test_generated_modules_match_the_reference(source):
    got = _digests("demo.gen", source)
    assert got == _reference_digests("demo.gen", source)
