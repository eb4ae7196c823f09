"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cycles import Cycle
from repro.core.idf import IdfVectorizer, cosine_distance, mean_pairwise_distance
from repro.core.stats import one_sided_t_pvalue
from repro.faults import registered_kinds
from repro.types import (
    DELAY,
    EXCEPTION,
    CausalEdge,
    EdgeType,
    FaultKey,
    LocalState,
    states_compatible,
)

fault_names = st.sampled_from(["a", "b", "c", "d", "e", "f"])
kinds = st.sampled_from(registered_kinds())
faults = st.builds(FaultKey, site_id=fault_names, kind=kinds)
docs = st.lists(st.lists(faults, max_size=5), min_size=1, max_size=8)


# ------------------------------------------------------------------ IDF


@given(docs)
def test_idf_vectors_are_unit_or_zero(interferences):
    corpus = sorted({f for doc in interferences for f in doc}) or [FaultKey("a", DELAY)]
    vec = IdfVectorizer(corpus).fit(interferences)
    for doc in interferences:
        v = vec.vectorize(doc)
        norm = float(np.linalg.norm(v))
        assert norm == 0.0 or math.isclose(norm, 1.0, rel_tol=1e-9)
        assert (v >= 0.0).all()


@given(docs)
def test_idf_weights_nonincreasing_in_frequency(interferences):
    corpus = sorted({f for doc in interferences for f in doc})
    if not corpus:
        return
    vec = IdfVectorizer(corpus).fit(interferences)
    freq = {f: sum(1 for doc in interferences if f in doc) for f in corpus}
    pairs = sorted(freq.items(), key=lambda kv: kv[1])
    for (f1, n1), (f2, n2) in zip(pairs, pairs[1:]):
        if n1 <= n2:
            assert vec.idf_of(f1) >= vec.idf_of(f2) - 1e-12


@given(
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
)
def test_cosine_distance_symmetric_and_bounded(xs, ys):
    n = min(len(xs), len(ys))
    a, b = np.array(xs[:n]), np.array(ys[:n])
    d1, d2 = cosine_distance(a, b), cosine_distance(b, a)
    assert math.isclose(d1, d2, abs_tol=1e-12)
    assert -1e-9 <= d1 <= 1.0 + 1e-9


@given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3), min_size=1, max_size=6))
def test_mean_pairwise_distance_bounded(vectors):
    vecs = [np.array(v) for v in vectors]
    d = mean_pairwise_distance(vecs)
    assert -1e-9 <= d <= 1.0 + 1e-9


# ----------------------------------------------------------------- t-test


@given(
    st.lists(st.integers(0, 1000), min_size=2, max_size=8),
)
def test_identical_samples_never_significant(xs):
    assert one_sided_t_pvalue(xs, list(xs)) >= 0.1


@given(
    st.lists(st.integers(0, 1000), min_size=2, max_size=8),
    st.integers(1, 100),
)
def test_uniform_shift_up_is_directional(xs, shift):
    shifted = [x + shift for x in xs]
    p_up = one_sided_t_pvalue(shifted, xs)
    p_down = one_sided_t_pvalue(xs, shifted)
    assert p_up <= p_down + 1e-12


# ------------------------------------------------------------ local states


branches = st.lists(
    st.tuples(st.sampled_from(["b1", "b2", "b3"]), st.booleans()), max_size=3
).map(tuple)
stacks = st.tuples(st.sampled_from(["f", "g"]), st.sampled_from(["h", "i"]))
state_sets = st.frozensets(
    st.builds(LocalState, call_stack=stacks, branch_trace=branches), max_size=4
)


@given(state_sets, state_sets)
def test_state_compatibility_symmetric(a, b):
    assert states_compatible(a, b) == states_compatible(b, a)


@given(state_sets)
def test_nonempty_state_set_compatible_with_itself(states):
    assert states_compatible(states, states)


@given(state_sets, state_sets)
def test_shared_state_implies_compatibility(a, b):
    if a & b:
        assert states_compatible(a, b)


# ---------------------------------------------------------------- cycles


edge_types = st.sampled_from([EdgeType.E_I, EdgeType.E_D, EdgeType.SP_I, EdgeType.SP_D])


def _edges_for_cycle(names):
    out = []
    for i, name in enumerate(names):
        nxt = names[(i + 1) % len(names)]
        out.append(
            CausalEdge(
                src=FaultKey(name, EXCEPTION),
                dst=FaultKey(nxt, EXCEPTION),
                etype=EdgeType.E_I,
                test_id="t%d" % i,
            )
        )
    return out


@given(st.lists(fault_names, min_size=1, max_size=5, unique=True), st.integers(0, 4))
@settings(max_examples=50)
def test_cycle_key_rotation_invariant(names, rotation):
    edges = _edges_for_cycle(names)
    k = rotation % len(edges)
    rotated = edges[k:] + edges[:k]
    assert Cycle(tuple(edges)).key() == Cycle(tuple(rotated)).key()


@given(st.lists(fault_names, min_size=1, max_size=5, unique=True))
@settings(max_examples=50)
def test_cycle_signature_counts_sum_to_injections(names):
    cycle = Cycle(tuple(_edges_for_cycle(names)))
    sig = cycle.signature()
    d, e, n = (int(part[:-1]) for part in sig.split("|"))
    assert d + e + n == len(cycle.injected_faults())
