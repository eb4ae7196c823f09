"""Unit tests for causally-equivalent fault clustering and SimScore."""

import numpy as np
import pytest

from repro.core.clustering import cluster_faults
from repro.core.simscore import allocation_weight, cluster_sim_scores, fault_sim_scores, sim_score
from repro.types import EXCEPTION, FaultKey


def fk(name):
    return FaultKey(name, EXCEPTION)


def test_identical_vectors_cluster_together():
    faults = [fk("a"), fk("b"), fk("c")]
    v = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 1.0, 0.0])
    clustering = cluster_faults(faults, [v, v, w], distance_threshold=0.5)
    assert len(clustering) == 2
    assert clustering.by_fault[fk("a")] == clustering.by_fault[fk("b")]
    assert clustering.by_fault[fk("a")] != clustering.by_fault[fk("c")]


def test_all_distinct_vectors_all_singletons():
    faults = [fk("a"), fk("b"), fk("c")]
    vecs = [np.eye(3)[i] for i in range(3)]
    clustering = cluster_faults(faults, vecs, distance_threshold=0.3)
    assert len(clustering) == 3


def test_zero_vectors_cluster_together():
    # Non-impactful injections (empty interference) form one cluster.
    faults = [fk("a"), fk("b"), fk("c")]
    z = np.zeros(3)
    v = np.array([1.0, 0.0, 0.0])
    clustering = cluster_faults(faults, [z, z, v], distance_threshold=0.5)
    assert clustering.by_fault[fk("a")] == clustering.by_fault[fk("b")]


def test_single_fault_single_cluster():
    clustering = cluster_faults([fk("a")], [np.array([1.0])])
    assert len(clustering) == 1
    assert clustering.clusters[0].faults == [fk("a")]


def test_empty_input():
    clustering = cluster_faults([], [])
    assert len(clustering) == 0


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        cluster_faults([fk("a")], [])


def test_cluster_of_lookup():
    faults = [fk("a"), fk("b")]
    clustering = cluster_faults(faults, [np.array([1.0, 0.0]), np.array([0.0, 1.0])], 0.3)
    assert fk("a") in clustering.cluster_of(fk("a"))


class TestSimScore:
    def test_identical_interferences_score_one(self):
        v = np.array([1.0, 0.0])
        assert sim_score([v, v, v]) == pytest.approx(1.0)

    def test_disjoint_interferences_score_zero(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert sim_score([a, b]) == pytest.approx(0.0)

    def test_single_observation_score_one(self):
        assert sim_score([np.array([1.0])]) == 1.0

    def test_cluster_scores_grouped_correctly(self):
        faults = [fk("a"), fk("b"), fk("c")]
        va = np.array([1.0, 0.0, 0.0])
        clustering = cluster_faults(faults, [va, va, np.array([0.0, 1.0, 0.0])], 0.5)
        obs = [
            (fk("a"), np.array([1.0, 0.0, 0.0])),
            (fk("b"), np.array([0.0, 0.0, 1.0])),  # conditional consequence
            (fk("c"), np.array([0.0, 1.0, 0.0])),
        ]
        scores = cluster_sim_scores(clustering, obs)
        ab_cluster = clustering.by_fault[fk("a")]
        c_cluster = clustering.by_fault[fk("c")]
        assert scores[ab_cluster] == pytest.approx(0.0)  # orthogonal pair
        assert scores[c_cluster] == pytest.approx(1.0)  # single observation

    def test_fault_scores_inherit_cluster_score(self):
        faults = [fk("a"), fk("b")]
        v = np.array([1.0, 0.0])
        clustering = cluster_faults(faults, [v, v], 0.5)
        scores = cluster_sim_scores(clustering, [(fk("a"), v), (fk("b"), v)])
        per_fault = fault_sim_scores(clustering, scores)
        assert per_fault[fk("a")] == per_fault[fk("b")] == pytest.approx(1.0)


class TestAllocationWeight:
    def test_conditional_cluster_gets_high_weight(self):
        assert allocation_weight(0.0) == 1.0

    def test_unconditional_cluster_gets_epsilon(self):
        assert allocation_weight(1.0) == pytest.approx(0.01)

    def test_mid_scores(self):
        assert allocation_weight(0.3) == pytest.approx(0.7)
