"""SciPy as the oracle of the in-house average-linkage routine: flat
labels equal to ``fcluster(linkage(squareform(d), "average"), t,
"distance")`` — partition *and* numbering, which orders the 3PA
allocation — on tie-heavy cosine matrices and on the phase-one
interference vectors of three campaigns.  Skipped where SciPy is not
installed (``tests/unit/test_golden_stats.py`` still checks SciPy's
recorded answers there)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CLUSTER_DISTANCE, CSnakeConfig
from repro.core.clustering import average_linkage_labels, cluster_faults
from repro.core.idf import IdfVectorizer, cosine_distance
from repro.pipeline import STAGES, PipelineContext
from repro.systems import get_system

pytestmark = pytest.mark.contract

hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
squareform = pytest.importorskip("scipy.spatial.distance").squareform

THRESHOLDS = (0.2, 0.5, 0.9)


def cosine_matrix(vectors):
    n = len(vectors)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = cosine_distance(vectors[i], vectors[j])
    return dist


def assert_labels_match_scipy(dist):
    tree = hierarchy.linkage(squareform(dist, checks=False), "average")
    for threshold in THRESHOLDS:
        ours = [label + 1 for label in average_linkage_labels(dist, threshold)]
        assert ours == hierarchy.fcluster(tree, threshold, "distance").tolist(), threshold


# Binary vectors over a few dimensions: few distinct cosine distances,
# so most merges are decided by a tie-breaking rule.
binary_vectors = st.integers(2, 6).flatmap(
    lambda dim: st.lists(
        st.lists(st.sampled_from((0.0, 1.0)), min_size=dim, max_size=dim),
        min_size=2, max_size=30,
    )
)


@settings(max_examples=300, deadline=None)
@given(binary_vectors)
def test_labels_match_scipy_on_tie_heavy_matrices(vectors):
    assert_labels_match_scipy(cosine_matrix([np.array(v) for v in vectors]))


@pytest.mark.parametrize("height", [0.1, 0.7, 1.0 - 0.5**0.5])
def test_labels_match_scipy_when_rounding_lowers_a_later_merge(height):
    """All points equidistant: ``(2h + h) / 3`` can round below ``h``, so
    the height sort reorders the chain's merges (e.g. h = 0.7)."""
    for n in range(2, 12):
        dist = np.full((n, n), height)
        np.fill_diagonal(dist, 0.0)
        assert_labels_match_scipy(dist)


@pytest.mark.parametrize("system", ["toy", "miniraft", "minidfs"])
def test_labels_match_scipy_on_campaign_phase_one_vectors(system):
    ctx = PipelineContext(
        get_system(system),
        CSnakeConfig(repeats=2, delay_values_ms=(2000.0,), budget_per_fault=4, seed=7),
    )
    for _, stage in STAGES[:3]:
        stage(ctx)
    outcome = ctx.get("allocation").outcome
    observed = outcome.records_in_phase(1)
    interferences = [r.result.interference for r in observed]
    vectorizer = IdfVectorizer(list(ctx.get("analysis").faults)).fit(interferences)
    vectors = [vectorizer.vectorize(i) for i in interferences]
    # These are the vectors the allocator clustered.
    clustering = cluster_faults([r.fault for r in observed], vectors, CLUSTER_DISTANCE)
    assert clustering.by_fault == outcome.clustering.by_fault
    assert_labels_match_scipy(cosine_matrix(vectors))
