"""IDF vectorization of fault interference sets (§A.1).

Each injection experiment yields an interference list ``I(f_i, t_j)`` — the
additional faults triggered.  The vectorizer maps such a list to an
L2-normalised real vector over the fault corpus ``F``, weighting each fault
by its inverse document frequency so that faults triggered by *everything*
(utility-function faults, the "the"s of the corpus) contribute little to
similarity.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..types import FaultKey


class IdfVectorizer:
    """Fits IDF weights over interference lists and vectorizes them.

    ``IDF(f) = log((1 + N) / (1 + N_f))`` where ``N`` is the number of
    experiments and ``N_f`` the number of experiments whose interference
    contains ``f`` (§A.1, smoothed).
    """

    def __init__(self, corpus: Sequence[FaultKey]) -> None:
        if not corpus:
            raise ValueError("fault corpus must be non-empty")
        self._index: Dict[FaultKey, int] = {f: i for i, f in enumerate(sorted(set(corpus)))}
        self._idf = np.zeros(len(self._index))
        self._fitted = False

    @property
    def dim(self) -> int:
        return len(self._index)

    def fit(self, interferences: Iterable[Iterable[FaultKey]]) -> "IdfVectorizer":
        docs: List[set] = [set(doc) for doc in interferences]
        n = len(docs)
        counts = np.zeros(self.dim)
        for doc in docs:
            for fault in doc:
                idx = self._index.get(fault)
                if idx is not None:
                    counts[idx] += 1
        self._idf = np.log((1.0 + n) / (1.0 + counts))
        self._fitted = True
        return self

    def idf_of(self, fault: FaultKey) -> float:
        if not self._fitted:
            raise RuntimeError("vectorizer not fitted")
        idx = self._index.get(fault)
        return float(self._idf[idx]) if idx is not None else 0.0

    def vectorize(self, interference: Iterable[FaultKey]) -> np.ndarray:
        """IDF vector of one interference list, L2-normalised (§A.1 eq. 4)."""
        if not self._fitted:
            raise RuntimeError("vectorizer not fitted")
        vec = np.zeros(self.dim)
        for fault in set(interference):
            idx = self._index.get(fault)
            if idx is not None:
                vec[idx] = self._idf[idx]
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec


def _cosine(dot: float, na: float, nb: float) -> float:
    """``cosine_distance`` from the dot product and the two norms."""
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return 1.0
    cos = dot / (na * nb)
    return min(1.0, max(0.0, 1.0 - cos))


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``1 - cos(a, b)``; empty (all-zero) vectors are at distance 1 from
    everything except another empty vector (distance 0 — two injections with
    no interference are maximally similar to each other)."""
    return _cosine(float(np.dot(a, b)), float(np.linalg.norm(a)), float(np.linalg.norm(b)))


def pairwise_distances(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Square matrix of :func:`cosine_distance` over every pair of distinct
    vectors (zero diagonal), equal to it bit for bit.

    Each norm is taken once, by the same per-vector ``norm`` call
    (``norm(M, axis=1)`` is not the same sum and differs in the last bit
    on some rows).  Two finite non-empty vectors with disjoint supports
    have a dot product of exactly zero, hence distance 1.0, so one integer
    product of the nonzero masks finds the pairs that overlap, and only
    those (and any whose norm product underflows) pay for an ``np.dot``.
    """
    n = len(vectors)
    if n < 2:
        return np.zeros((n, n))
    norm = np.array([float(np.linalg.norm(v)) for v in vectors])
    empty = norm == 0.0
    # A pair with an empty vector is at 1.0, or at 0.0 if both are empty.
    dist = np.where(empty[:, None] & empty, 0.0, 1.0)
    np.fill_diagonal(dist, 0.0)
    nonzero = np.array([v != 0 for v in vectors], dtype=np.int64)
    dot = (nonzero @ nonzero.T > 0) | (np.multiply.outer(norm, norm) == 0.0)
    dot &= ~(empty[:, None] | empty)
    norms = norm.tolist()
    i_s, j_s = np.nonzero(np.triu(dot, 1))
    for i, j in zip(i_s.tolist(), j_s.tolist()):
        dist[i, j] = dist[j, i] = _cosine(float(np.dot(vectors[i], vectors[j])), norms[i], norms[j])
    return dist


def mean_pairwise_distance(vectors: Sequence[np.ndarray]) -> float:
    """Average pairwise cosine distance; 0.0 for fewer than two vectors.

    The upper triangle is added in row-major order one term at a time:
    builtin ``sum`` compensates (Python 3.12) and ``np.sum`` sums
    pairwise, and either would change the last bits.
    """
    n = len(vectors)
    if n < 2:
        return 0.0
    total = 0.0
    for d in pairwise_distances(vectors)[np.triu_indices(n, 1)].tolist():
        total += d
    return total / (n * (n - 1) // 2)
