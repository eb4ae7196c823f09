"""Hierarchical clustering of causally equivalent faults (§5.2 phase one).

Faults whose phase-one interference vectors are within a cosine-distance
threshold are grouped into one cluster; the 3PA protocol then treats each
cluster, not each fault, as the unit of budget allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from ..types import FaultKey
from .idf import cosine_distance


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
    if n == 1:
        return Clustering(clusters=[FaultCluster(0, [faults[0]])])

    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = cosine_distance(vectors[i], vectors[j])
            dist[i, j] = dist[j, i] = d
    condensed = squareform(dist, checks=False)
    tree = linkage(condensed, method="average")
    labels = fcluster(tree, t=distance_threshold, criterion="distance")

    groups: Dict[int, List[FaultKey]] = {}
    for fault, label in zip(faults, labels):
        groups.setdefault(int(label), []).append(fault)
    clusters = [
        FaultCluster(i, sorted(members)) for i, (_, members) in enumerate(sorted(groups.items()))
    ]
    return Clustering(clusters=clusters)
