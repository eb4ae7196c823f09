"""Hierarchical clustering of causally equivalent faults (§5.2 phase one).

Faults whose phase-one interference vectors are within a cosine-distance
threshold are grouped into one cluster; the 3PA protocol then treats each
cluster, not each fault, as the unit of budget allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..types import FaultKey
from .idf import pairwise_distances


@dataclass
class FaultCluster:
    """A set of causally equivalent faults."""

    cluster_id: int
    faults: List[FaultKey] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __contains__(self, fault: FaultKey) -> bool:
        return fault in self.faults


@dataclass
class Clustering:
    """Result of hierarchical clustering: clusters plus a reverse index."""

    clusters: List[FaultCluster]
    by_fault: Dict[FaultKey, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.by_fault:
            for cluster in self.clusters:
                for fault in cluster.faults:
                    self.by_fault[fault] = cluster.cluster_id

    def cluster_of(self, fault: FaultKey) -> FaultCluster:
        return self.clusters[self.by_fault[fault]]

    def __len__(self) -> int:
        return len(self.clusters)


def average_linkage_labels(dist: np.ndarray, threshold: float) -> List[int]:
    """Flat cluster label (0-based) of each point of a square distance
    matrix: average-linkage agglomeration, cut where the linkage height
    exceeds ``threshold``.

    Cluster ids order the 3PA allocation, so *which* of several equal
    distances merges first and *how* the flat clusters are numbered are
    part of the result.  Both follow SciPy's ``linkage(method="average")``
    + ``fcluster(criterion="distance")``, whose labels campaign digests
    were recorded with (``tests/unit/test_linkage_oracle.py`` compares the
    two); the five rules are marked (1)-(5) below.
    """
    n = len(dist)
    D = np.array(dist, dtype=float)
    np.fill_diagonal(D, np.inf)  # also the distance to a cluster merged away
    size = [1] * n

    # (1) Nearest-neighbour chain: follow nearest neighbours until two
    # clusters are each other's nearest, merge them, resume from the rest
    # of the chain.  The nearest neighbour is the lowest index at the
    # minimum distance, except that the previous chain element wins a tie.
    merges: List[Tuple[float, int, int]] = []
    chain: List[int] = []
    while len(merges) < n - 1:
        if not chain:
            chain.append(next(i for i in range(n) if size[i]))
        while True:
            x = chain[-1]
            y = int(D[x].argmin())
            if len(chain) > 1:
                previous = chain[-2]
                if D[x, previous] <= D[x, y]:
                    break
            chain.append(y)
        y = chain[-2]
        del chain[-2:]
        # (2) The merged cluster lives on at the larger index; the
        # Lance-Williams update weights the smaller index's row first.
        if x > y:
            x, y = y, x
        merges.append((float(D[x, y]), x, y))
        nx, ny = size[x], size[y]
        merged = (nx * D[x] + ny * D[y]) / (nx + ny)
        merged[x] = merged[y] = np.inf
        D[y] = D[:, y] = merged
        D[x] = D[:, x] = np.inf
        size[x], size[y] = 0, nx + ny

    # (3) Merges become nodes n, n+1, ... in order of height, equal heights
    # in the order the chain produced them (a stable sort); (4) a node's
    # children are the current roots of the two points the chain merged
    # at (union-find), the smaller root on the left.
    merges.sort(key=lambda merge: merge[0])
    parent = list(range(2 * n - 1))

    def root(node: int) -> int:
        while parent[node] != node:
            node = parent[node]
        return node

    left: List[int] = []
    right: List[int] = []
    top: List[float] = []  # greatest height within each node's subtree
    for k, (height, x, y) in enumerate(merges):
        lo, hi = sorted((root(x), root(y)))
        parent[lo] = parent[hi] = n + k
        left.append(lo)
        right.append(hi)
        top.append(max([height] + [top[c - n] for c in (lo, hi) if c >= n]))

    # (5) Flat clusters are numbered walking down from the root: a subtree
    # no higher than the threshold is one cluster, numbered when the walk
    # enters it; below any other node the walk finishes the merged
    # children (left before right) before its leaf children, and such a
    # leaf is a cluster of its own, numbered when reached.
    labels = [0] * n
    count = 0
    stack = [(2 * n - 2, False)]
    while stack:
        node, inside = stack.pop()
        if node < n:
            if not inside:
                count += 1
            labels[node] = count - 1
            continue
        if not inside and top[node - n] <= threshold:
            count += 1
            inside = True
        children = (right[node - n], left[node - n])  # popped left first
        stack.extend((c, inside) for c in children if c < n)
        stack.extend((c, inside) for c in children if c >= n)
    return labels


def cluster_faults(
    faults: Sequence[FaultKey],
    vectors: Sequence[np.ndarray],
    distance_threshold: float = 0.5,
) -> Clustering:
    """Average-linkage hierarchical clustering on cosine distances.

    Faults are merged while their average cosine distance stays below
    ``distance_threshold``.
    """
    if len(faults) != len(vectors):
        raise ValueError("faults and vectors must align")
    n = len(faults)
    if n == 0:
        return Clustering(clusters=[])

    labels = average_linkage_labels(pairwise_distances(vectors), distance_threshold)

    members: List[List[FaultKey]] = [[] for _ in range(max(labels) + 1)]
    for fault, label in zip(faults, labels):
        members[label].append(fault)
    return Clustering(clusters=[FaultCluster(i, sorted(m)) for i, m in enumerate(members)])
