"""Ablation benchmarks for the design choices DESIGN.md calls out.

* local compatibility check on/off (unsound cycles appear without it);
* beam width sensitivity;
* chain-length cap sensitivity;
* IDF weighting vs uniform weighting in fault clustering.
"""

import numpy as np
import pytest

from repro.bench import format_table
from repro.bench.runners import bench_config
from repro.core.beam import BeamSearch
from repro.core.clustering import cluster_faults
from repro.core.idf import IdfVectorizer


@pytest.fixture(scope="module")
def hdfs2_campaign(campaign_cache):
    return campaign_cache("minihdfs2")


def test_compat_check_ablation(benchmark, hdfs2_campaign):
    """§6.2: without the local compatibility check, unsound stitches let
    extra (invalid) cycles through."""
    edges = hdfs2_campaign.edges
    scores = hdfs2_campaign.allocation.fault_scores
    on = BeamSearch(bench_config("minihdfs2"), scores).search(edges)

    def run_off():
        return BeamSearch(
            bench_config("minihdfs2", compat_check=False), scores
        ).search(edges)

    off = benchmark.pedantic(run_off, rounds=1, iterations=1)
    rejected = on.compat.rejected_state
    print()
    print(
        "compat check ON: %d cycles (%d stitches rejected by state) | OFF: %d cycles"
        % (len(on.cycles), rejected, len(off.cycles))
    )
    assert rejected > 0
    assert len(off.cycles) >= len(on.cycles)


def test_beam_width_ablation(benchmark, hdfs2_campaign):
    """Wider beams recover more cycles until the chain space is exhausted."""
    edges = hdfs2_campaign.edges
    scores = hdfs2_campaign.allocation.fault_scores

    def sweep():
        counts = {}
        for width in (100, 1_000, 30_000):
            cfg = bench_config("minihdfs2", beam_width=width)
            counts[width] = len(BeamSearch(cfg, scores).search(edges).cycles)
        return counts

    counts = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(["Beam width", "Cycles"], sorted(counts.items())))
    widths = sorted(counts)
    assert counts[widths[0]] <= counts[widths[-1]]


def test_chain_length_ablation(benchmark, hdfs2_campaign):
    """Longer chains expose longer cycles (at a cost)."""
    edges = hdfs2_campaign.edges
    scores = hdfs2_campaign.allocation.fault_scores

    def sweep():
        counts = {}
        for max_len in (2, 3, 5):
            cfg = bench_config("minihdfs2", max_chain_len=max_len)
            counts[max_len] = len(BeamSearch(cfg, scores).search(edges).cycles)
        return counts

    counts = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(["Max chain len", "Cycles"], sorted(counts.items())))
    assert counts[2] <= counts[5]


def test_idf_weighting_ablation(benchmark, hdfs2_campaign):
    """IDF weighting de-noises ubiquitous faults: clustering with uniform
    weights merges faults that IDF keeps apart (or vice versa), changing
    the cluster structure the 3PA protocol allocates over."""
    records = hdfs2_campaign.allocation.records
    faults = sorted({r.fault for r in records})
    docs = [r.result.interference for r in records]

    def run_both():
        vec = IdfVectorizer(faults).fit(docs)
        idf_vectors = [vec.vectorize(d) for d in docs]
        idx = {f: i for i, f in enumerate(faults)}
        uniform_vectors = []
        for doc in docs:
            v = np.zeros(len(faults))
            for fault in doc:
                if fault in idx:
                    v[idx[fault]] = 1.0
            n = np.linalg.norm(v)
            uniform_vectors.append(v / n if n else v)
        observed = [r.fault for r in records]
        idf_clusters = cluster_faults(observed, idf_vectors)
        uni_clusters = cluster_faults(observed, uniform_vectors)
        return len(idf_clusters), len(uni_clusters)

    n_idf, n_uni = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print()
    print("clusters with IDF weights: %d, with uniform weights: %d" % (n_idf, n_uni))
    assert n_idf > 0 and n_uni > 0
