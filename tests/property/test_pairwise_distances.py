"""Bit-identity of the one-pass distance matrix with the per-pair cosine.

Cluster labels and SimScores are part of every campaign digest, so
:func:`~repro.core.idf.pairwise_distances` (norms taken once, dot products
only for pairs whose supports overlap) must reproduce
:func:`~repro.core.idf.cosine_distance` exactly — ``==``, never
``approx`` — and :func:`~repro.core.idf.mean_pairwise_distance` the
sequential sum of those distances.  Vectors are drawn sparse, with empty
rows, duplicated rows, disjoint supports and negative entries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.idf import cosine_distance, mean_pairwise_distance, pairwise_distances

pytestmark = pytest.mark.contract

entries = st.one_of(
    st.just(0.0),
    st.just(0.0),
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
    st.sampled_from([1.0, 0.5, np.log(2.0), np.log(5.0 / 3.0)]),
)


@st.composite
def vector_sets(draw):
    # Up to 48 coordinates: long enough that summation order shows in the
    # last bits (a Gram matrix differs from the per-pair dots there).
    dim = draw(st.integers(1, 48))
    n = draw(st.integers(0, 30))
    rows = []
    for _ in range(n):
        shape = draw(st.sampled_from(["empty", "duplicate", "block", "sparse", "dense"]))
        row = np.zeros(dim)
        if shape == "duplicate" and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))].copy()
        elif shape in ("block", "sparse"):
            positions = range(dim)
            if shape == "block":
                # Support confined to one residue class mod 3: rows of
                # different classes are disjoint.
                positions = range(draw(st.integers(0, min(2, dim - 1))), dim, 3)
            values = draw(st.dictionaries(st.sampled_from(positions), entries, max_size=8))
            for k, value in values.items():
                row[k] = value
        elif shape == "dense":
            row = np.array(draw(st.lists(entries, min_size=dim, max_size=dim)))
        if draw(st.booleans()):
            norm = float(np.linalg.norm(row))
            if norm > 0.0:
                row = row / norm  # IdfVectorizer's rows are L2-normalised
        rows.append(row)
    return rows


@given(vector_sets())
@settings(max_examples=200, deadline=None)
def test_matrix_equals_per_pair_cosine_bit_for_bit(vectors):
    dist = pairwise_distances(vectors)
    n = len(vectors)
    assert dist.shape == (n, n)
    for i in range(n):
        assert dist[i, i] == 0.0
        for j in range(i + 1, n):
            expected = cosine_distance(vectors[i], vectors[j])
            assert dist[i, j] == expected, (i, j)
            assert dist[j, i] == expected, (i, j)


@given(vector_sets())
@settings(max_examples=200, deadline=None)
def test_mean_equals_sequential_reference_bit_for_bit(vectors):
    n = len(vectors)
    total, pairs = 0.0, 0
    for i in range(n):
        for j in range(i + 1, n):
            total += cosine_distance(vectors[i], vectors[j])
            pairs += 1
    expected = total / pairs if pairs else 0.0
    assert mean_pairwise_distance(vectors) == expected
