"""What holds of the Welch and average-linkage kernels without SciPy
installed: the answers SciPy gave for fixed inputs, and that a call touches
no process-global state — FCA runs concurrently on an agent's worker threads.

``tests/golden_stats.json`` holds those inputs and the answers
``one_sided_t_pvalues`` and ``cluster_faults`` gave on the commit *before*
the two kernels were written in-house, when both still called SciPy
(``scipy.stats.ttest_ind`` and ``scipy.cluster.hierarchy.linkage`` +
``fcluster``).  It is an external oracle, compared within a tolerance, and
not a self-recorded golden: today's kernels cannot regenerate it (they
would record themselves), so it is not an entry of ``tests/golden.py``.
The hypothesis oracles (``test_stats_oracle.py``, ``test_linkage_oracle.py``)
compare with SciPy on fresh inputs where it is installed."""

import json
import sys
import threading
import warnings
from pathlib import Path
from typing import List

import numpy as np
import pytest

from repro.core.clustering import cluster_faults
from repro.core.stats import one_sided_t_pvalues
from repro.types import EXCEPTION, FaultKey

pytestmark = pytest.mark.contract

GOLDEN = json.loads((Path(__file__).parents[1] / "golden_stats.json").read_text())
P_VALUE = 0.1
THRESHOLDS = (0.2, 0.5, 0.9)


def linkage_labels(vectors: List[List[float]], threshold: float) -> List[int]:
    """Cluster id of each vector, in input order, through the public API."""
    faults = [FaultKey(f"f{i:02d}", EXCEPTION) for i in range(len(vectors))]
    clustering = cluster_faults(faults, [np.array(v) for v in vectors], threshold)
    return [clustering.by_fault[f] for f in faults]


def test_fixture_has_every_shape_the_kernels_must_handle():
    welch = GOLDEN["welch"]
    assert {len(c["treatment"]) for c in welch} == {2, 3, 5}
    assert {0.0, 1.0} <= {c["p"] for c in welch}
    assert any(0.0 < c["p"] < P_VALUE for c in welch) and any(0.5 < c["p"] < 1.0 for c in welch)
    assert {c["threshold"] for c in GOLDEN["linkage"]} == set(THRESHOLDS)
    assert max(len(c["vectors"]) for c in GOLDEN["linkage"]) == 30


def test_welch_pvalues_reproduce_scipys():
    cases = GOLDEN["welch"]
    for n in (2, 3, 5):
        batch = [c for c in cases if len(c["treatment"]) == n]
        got = one_sided_t_pvalues([c["treatment"] for c in batch], [c["control"] for c in batch])
        want = [c["p"] for c in batch]
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)
        assert [p < P_VALUE for p in got] == [p < P_VALUE for p in want]


@pytest.mark.parametrize("index", range(len(GOLDEN["linkage"])))
def test_linkage_labels_reproduce_scipys(index):
    case = GOLDEN["linkage"][index]
    assert linkage_labels(case["vectors"], case["threshold"]) == case["labels"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degenerate_rows_raise_no_runtime_warning():
    rows = [([7, 7], [7, 7]), ([9, 9], [2, 2]), ([1, 1], [5, 5]), ([4, 9], [6, 6])]
    pvalues = one_sided_t_pvalues([t for t, _ in rows], [c for _, c in rows])
    assert pvalues[:3] == [1.0, 0.0, 1.0] and 0.0 < pvalues[3] < 1.0


def test_concurrent_calls_leave_the_warning_filters_alone():
    """``warnings.catch_warnings`` saves and restores the process-global
    filter list, so overlapping calls could restore each other's filters
    or leave ``ignore`` installed; the kernel must not touch it."""
    treatments = [[7, 7, 7], [3, 9, 4], [5, 5, 6]]
    controls = [[7, 7, 7], [1, 2, 1], [5, 5, 5]]
    expected = one_sided_t_pvalues(treatments, controls)
    before = list(warnings.filters)
    wrong = []

    def work():
        for _ in range(200):
            if one_sided_t_pvalues(treatments, controls) != expected:
                wrong.append(1)

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert list(warnings.filters) == before
