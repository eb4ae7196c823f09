"""Golden Welch p-values and average-linkage labels: what SciPy answered.

``golden_stats.json`` holds fixed inputs and the answers
``repro.core.stats.one_sided_t_pvalues`` and
``repro.core.clustering.cluster_faults`` gave on the commit *before* the
two kernels were written in-house, when both still called SciPy
(``scipy.stats.ttest_ind`` and ``scipy.cluster.hierarchy.linkage`` +
``fcluster``).  ``tests/unit/test_golden_stats.py`` asserts them without
importing SciPy, so an environment that has only numpy still checks the
kernels against the library they replaced; the hypothesis oracles
(``test_stats_oracle.py``, ``test_linkage_oracle.py``) do the same on
fresh inputs where SciPy is installed.

Regenerating from the current code would only record the kernels against
themselves — do it for new *inputs*, on a checkout that has SciPy::

    PYTHONPATH=src python tests/golden_stats.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from repro.core.clustering import cluster_faults
from repro.core.stats import one_sided_t_pvalues
from repro.types import FaultKey, InjKind

FIXTURE = Path(__file__).with_name("golden_stats.json")

THRESHOLDS = (0.2, 0.5, 0.9)


def linkage_labels(vectors: List[List[float]], threshold: float) -> List[int]:
    """Cluster id of each vector, in input order, through the public API."""
    faults = [FaultKey(f"f{i:02d}", InjKind.EXCEPTION) for i in range(len(vectors))]
    clustering = cluster_faults(faults, [np.array(v) for v in vectors], threshold)
    return [clustering.by_fault[f] for f in faults]


def _welch_cases(rng: random.Random) -> List[Dict[str, Any]]:
    """Integer loop counts at the repetition counts campaigns use, with
    the degenerate shapes (constant, one side constant, equal) mixed in."""
    cases: List[Dict[str, Any]] = []
    for n in (2, 3, 5):
        rows = []
        for _ in range(16):
            base = rng.randint(0, 40)
            spread = rng.choice((1, 3, 30))
            rows.append((
                [base + rng.randint(0, spread) for _ in range(n)],
                [rng.randint(0, 40) + rng.randint(0, spread) for _ in range(n)],
            ))
        rows += [
            ([7] * n, [7] * n),
            ([9] * n, [2] * n),
            ([1] * n, [5] * n),
            ([10] * n, [5, 6] + [5] * (n - 2)),
            ([4, 9] + [4] * (n - 2), [6] * n),
            ([3, 8] + [5] * (n - 2), [3, 8] + [5] * (n - 2)),
            ([1000, 1001] + [1000] * (n - 2), [0, 1] + [0] * (n - 2)),
        ]
        pvalues = one_sided_t_pvalues([t for t, _ in rows], [c for _, c in rows])
        cases += [
            {"treatment": t, "control": c, "p": p} for (t, c), p in zip(rows, pvalues)
        ]
    return cases


def _linkage_cases(rng: random.Random) -> List[Dict[str, Any]]:
    """Binary vectors over a few dimensions: many equal cosine distances
    (and all-zero vectors, which ``cosine_distance`` special-cases), so
    every tie-breaking rule of the routine is exercised."""
    cases: List[Dict[str, Any]] = []
    for n, dim in ((2, 2), (5, 3), (9, 3), (14, 4), (20, 4), (30, 5), (30, 6)):
        for _ in range(2):
            vectors = [[float(rng.random() < 0.5) for _ in range(dim)] for _ in range(n)]
            for threshold in THRESHOLDS:
                cases.append({
                    "vectors": vectors,
                    "threshold": threshold,
                    "labels": linkage_labels(vectors, threshold),
                })
    return cases


if __name__ == "__main__":
    rng = random.Random(20)
    golden = {"welch": _welch_cases(rng), "linkage": _linkage_cases(rng)}
    FIXTURE.write_text(json.dumps(golden, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(golden['welch'])} welch rows, "
          f"{len(golden['linkage'])} linkage cases)")
