"""Property-based tests: the source digest is exactly as sensitive as it
should be.

The cache contract (DESIGN.md, docs/static-analysis.md) is that the
source digest every result key embeds is invariant under
*behaviour-neutral* source edits — comments, blank lines, docstrings —
and changes for any executable edit, inside a function or not.
Hypothesis drives random combinations of both kinds of edit against a
small instrumented module.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_sources
from repro.instrument.sites import FaultSite
from repro.types import SiteKind

BASE = '''\
LIMIT = 0


def run(svc):
    return svc.handle(4)


class Svc:
    scale = 0

    def __init__(self, rt):
        self.rt = rt

    def handle(self, n):
        """DOC"""
        total = 0
        for item in self.rt.loop("svc.scan", range(n)):
            total += self.weigh(item)
        return total

    def weigh(self, item):
        return item * 3
'''

SITES = [FaultSite(site_id="svc.scan", kind=SiteKind.LOOP, system="demo", function="Svc.handle")]
ENTRIES = {"t-run": "demo.m:run"}

BASELINE = analyze_sources("demo", {"demo.m": BASE}, SITES, ENTRIES)

_WORDS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 ", min_size=0, max_size=30
)


def _neutral_edits():
    """Textual edits that must not change any digest."""
    comment = st.tuples(
        st.just("comment"), st.integers(min_value=0, max_value=len(BASE.splitlines())), _WORDS
    )
    blank = st.tuples(
        st.just("blank"),
        st.integers(min_value=0, max_value=len(BASE.splitlines())),
        st.integers(min_value=1, max_value=3),
    )
    docstring = st.tuples(st.just("docstring"), st.just(0), _WORDS)
    return st.lists(st.one_of(comment, blank, docstring), min_size=1, max_size=6)


def _apply_neutral(source, edits):
    for kind, pos, payload in edits:
        if kind == "docstring":
            source = source.replace('"""DOC"""', '"""%s"""' % payload, 1)
        else:
            lines = source.splitlines(keepends=True)
            pos = min(pos, len(lines))
            insert = "# %s\n" % payload if kind == "comment" else "\n" * payload
            lines.insert(pos, insert)
            source = "".join(lines)
    return source


@given(_neutral_edits())
@settings(max_examples=40, deadline=None)
def test_digests_invariant_under_comment_blank_and_docstring_edits(edits):
    mutated = _apply_neutral(BASE, edits)
    analysis = analyze_sources("demo", {"demo.m": mutated}, SITES, ENTRIES)
    assert analysis.function_digests == BASELINE.function_digests
    assert analysis.module_digests == BASELINE.module_digests
    assert analysis.source_digest == BASELINE.source_digest


_EXEC_EDITS = st.sampled_from(
    [
        ("item * 3", "item * %d"),  # constant in a leaf callee
        ("total = 0", "total = %d"),  # constant in the root function
        ("range(n)", "range(n + %d)"),  # loop bound
        ("LIMIT = 0", "LIMIT = %d"),  # module constant
        ("scale = 0", "scale = %d"),  # class attribute
    ]
)


@given(_EXEC_EDITS, st.integers(min_value=1, max_value=99), _neutral_edits())
@settings(max_examples=40, deadline=None)
def test_digests_change_for_executable_edits_even_with_neutral_noise(edit, k, noise):
    needle, template = edit
    replacement = template % (k + 3 if "* %d" in template else k)
    mutated = _apply_neutral(BASE.replace(needle, replacement, 1), noise)
    analysis = analyze_sources("demo", {"demo.m": mutated}, SITES, ENTRIES)
    assert analysis.source_digest != BASELINE.source_digest


@given(_WORDS)
@settings(max_examples=20, deadline=None)
def test_digest_is_a_pure_function_of_normalized_source(text):
    """Same (neutrally mutated) source analyzed twice -> identical digests."""
    mutated = _apply_neutral(BASE, [("comment", 3, text)])
    a = analyze_sources("demo", {"demo.m": mutated}, SITES, ENTRIES)
    b = analyze_sources("demo", {"demo.m": mutated}, SITES, ENTRIES)
    assert a.function_digests == b.function_digests
    assert a.source_digest == b.source_digest
