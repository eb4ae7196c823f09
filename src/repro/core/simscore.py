"""Intra-cluster interference similarity scores (§5.2 / §A.3).

``SimScore(G) = 1 − mean pairwise cosine distance`` of all vectorized
interference results observed for faults in cluster ``G``.  A score of 1
means every injection of every fault in the cluster triggered the same set
of additional faults (no conditional behaviour); low scores flag clusters
with *conditional* causal consequences, which phase three prioritises with
weight ``max(ε, 1 − SimScore)``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..config import EPSILON_WEIGHT
from ..types import FaultKey
from .clustering import Clustering
from .idf import mean_pairwise_distance


def sim_score(vectors: Sequence[np.ndarray]) -> float:
    """SimScore of one cluster from its interference vectors."""
    return 1.0 - mean_pairwise_distance(vectors)


def cluster_sim_scores(
    clustering: Clustering,
    observations: Sequence[Tuple[FaultKey, np.ndarray]],
) -> Dict[int, float]:
    """SimScore per cluster id from (fault, interference-vector) pairs."""
    grouped: Dict[int, List[np.ndarray]] = {c.cluster_id: [] for c in clustering.clusters}
    for fault, vector in observations:
        cid = clustering.by_fault.get(fault)
        if cid is not None:
            grouped[cid].append(vector)
    return {cid: sim_score(vecs) for cid, vecs in grouped.items()}


def allocation_weight(score: float) -> float:
    """Phase-three budget weight for a cluster (§A.4)."""
    return max(EPSILON_WEIGHT, 1.0 - score)


def fault_sim_scores(
    clustering: Clustering, scores_by_cluster: Dict[int, float]
) -> Dict[FaultKey, float]:
    """Per-fault view of the cluster scores (used by chain ranking)."""
    out: Dict[FaultKey, float] = {}
    for fault, cid in clustering.by_fault.items():
        out[fault] = scores_by_cluster.get(cid, 1.0)
    return out
