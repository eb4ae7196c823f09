"""Static code-slice analysis of target-system Python source.

The paper's static analyzer *filters* a declared site registry; this
package goes one layer deeper and analyzes the target system's actual
Python source with :mod:`ast`:

* :mod:`repro.analysis.astutil` — source parsing, function collection
  (with qualified names), and normalized AST digests that are insensitive
  to comments, whitespace, and docstrings;
* :mod:`repro.analysis.callgraph` — the interprocedural call graph over
  every call in each function body: ``self.method`` calls, module-level
  calls, constructors, and callbacks registered through the node/sim API
  (``env.every``, ``env.rpc``, ``rt.rpc_call`` arguments);
* :mod:`repro.analysis.slicer` — per-:class:`~repro.instrument.sites.FaultSite`
  *reachable slices* (every function body transitively reachable from the
  site's enclosing function), workload entry-point reachability, and the
  one source digest every stored result is keyed on;
* :mod:`repro.analysis.source` — source providers (live modules, source
  trees, git refs) so the same slicer serves the running system and
  ``repro diff-run OLD NEW``;
* :mod:`repro.analysis.diff` — function and report diffing for
  ``repro diff-run``.

Reachability prunes the fault space; the source digest is the code
component of every result key (see docs/static-analysis.md).
"""

from .diff import ReportDiff, SliceDiff, diff_reports, diff_slices
from .slicer import SliceAnalysis, analyze_sources, analyze_system
from .source import (
    GitSource,
    SourceProvider,
    TreeSource,
    live_sources,
    module_relpath,
    resolve_provider,
)

__all__ = [
    "GitSource",
    "ReportDiff",
    "SliceAnalysis",
    "SliceDiff",
    "SourceProvider",
    "TreeSource",
    "analyze_sources",
    "analyze_system",
    "diff_reports",
    "diff_slices",
    "live_sources",
    "module_relpath",
    "resolve_provider",
]
