"""Unit tests for IDF vectorization and cosine distance (§A.1)."""

import math

import numpy as np
import pytest

from repro.core.idf import IdfVectorizer, cosine_distance, mean_pairwise_distance
from repro.types import EXCEPTION, FaultKey


def fk(name):
    return FaultKey(name, EXCEPTION)


CORPUS = [fk("a"), fk("b"), fk("c"), fk("d")]


def test_idf_formula_matches_paper():
    vec = IdfVectorizer(CORPUS)
    # 4 experiments; "a" appears in all 4, "b" in 1.
    docs = [[fk("a")], [fk("a"), fk("b")], [fk("a")], [fk("a")]]
    vec.fit(docs)
    assert vec.idf_of(fk("a")) == pytest.approx(math.log(5 / 5))
    assert vec.idf_of(fk("b")) == pytest.approx(math.log(5 / 2))
    assert vec.idf_of(fk("c")) == pytest.approx(math.log(5 / 1))


def test_ubiquitous_fault_contributes_nothing():
    vec = IdfVectorizer(CORPUS).fit([[fk("a")], [fk("a"), fk("b")], [fk("a"), fk("c")]])
    v1 = vec.vectorize([fk("a"), fk("b")])
    v2 = vec.vectorize([fk("a"), fk("c")])
    # "a" occurs everywhere -> IDF log(4/4)=0, so the vectors are orthogonal.
    assert cosine_distance(v1, v2) == pytest.approx(1.0)


def test_vectors_are_l2_normalised():
    vec = IdfVectorizer(CORPUS).fit([[fk("b")], [fk("c")], [fk("d")]])
    v = vec.vectorize([fk("b"), fk("c")])
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_empty_interference_gives_zero_vector():
    vec = IdfVectorizer(CORPUS).fit([[fk("b")], []])
    v = vec.vectorize([])
    assert np.linalg.norm(v) == 0.0


def test_unknown_faults_ignored():
    vec = IdfVectorizer(CORPUS).fit([[fk("b")]])
    v = vec.vectorize([fk("zzz")])
    assert np.linalg.norm(v) == 0.0


def test_vectorize_before_fit_raises():
    vec = IdfVectorizer(CORPUS)
    with pytest.raises(RuntimeError):
        vec.vectorize([fk("a")])


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        IdfVectorizer([])


class TestCosineDistance:
    def test_identical_vectors_distance_zero(self):
        v = np.array([1.0, 2.0, 0.0])
        assert cosine_distance(v, v) == pytest.approx(0.0)

    def test_orthogonal_vectors_distance_one(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_two_empty_vectors_distance_zero(self):
        z = np.zeros(3)
        assert cosine_distance(z, z) == 0.0

    def test_empty_vs_nonempty_distance_one(self):
        assert cosine_distance(np.zeros(2), np.array([1.0, 0.0])) == 1.0

    def test_range_clamped_to_unit_interval(self):
        a = np.array([1.0, 1.0])
        b = np.array([1.0, 0.999999])
        d = cosine_distance(a, b)
        assert 0.0 <= d <= 1.0


class TestMeanPairwise:
    def test_single_vector_zero(self):
        assert mean_pairwise_distance([np.array([1.0, 0.0])]) == 0.0

    def test_identical_pair_zero(self):
        v = np.array([0.5, 0.5])
        assert mean_pairwise_distance([v, v]) == pytest.approx(0.0)

    def test_mixed_average(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        # pairs: (a,a)=0, (a,b)=1, (a,b)=1 -> mean 2/3
        assert mean_pairwise_distance([a, a, b]) == pytest.approx(2.0 / 3.0)
