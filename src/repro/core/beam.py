"""Beam search for self-sustaining cascading failures (Algorithm 1).

Starting from every causal edge as a length-1 chain, each level appends one
edge to each surviving chain (guarded by the local compatibility check) and
reports a cycle whenever a chain closes back onto its first edge.  At each
level only the best ``B`` chains survive, ranked by the mean intra-cluster
interference similarity score of the injected faults in the chain — chains
built from faults with *conditional* consequences (low SimScore) are kept,
as they most resemble the error-handling tangles developers overlook.

Two engines implement that one contract:

* :class:`BeamSearch` — the production kernel.  The edge set is interned
  once into integer arrays with ids assigned in sorted-``key()`` order, so
  integer comparisons reproduce the reference's lexicographic tie-breaks
  bit-for-bit (see DESIGN.md, "The interned beam kernel").  The pairwise
  ``CompatChecker.match`` relation depends only on the ordered edge pair,
  so it is precomputed into a CSR adjacency (+ a sorted pair-code array
  for closure membership), chain scores and delay counts are carried
  incrementally, and per-level ranking is an ``argpartition``-based
  top-``B`` selection instead of a full sort.  Each beam level is a
  handful of numpy array operations over the whole frontier.  Closing
  chains are reported per level as integer id rows — one row kept per
  fault-level class — and :class:`Cycle` objects are built at the end,
  for the kept rows only; the level that reaches ``max_chain_len`` stops
  after its closure check and builds no frontier.
* :class:`ReferenceBeamSearch` — the original chain-at-a-time
  implementation, kept as the differential-testing oracle
  (``tests/property/test_beam_differential.py``) and as the fallback for
  edge sets the interning argument does not cover: duplicate ``key()``s
  (impossible for :class:`~repro.core.edges.EdgeDB` inputs, which dedup
  by key) break the id-order ≡ key-order equivalence.

Both engines produce byte-identical :class:`BeamSearchResult`\\ s: the same
cycles in the same order (including which interior test combination
represents each deduplicated chain class), the same ``chains_explored``
and ``levels``, and the same :class:`~repro.core.compat.CompatChecker`
counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..config import CSnakeConfig
from ..types import CausalEdge, FaultKey, InjKind, states_compatible
from .compat import CompatChecker
from .cycles import INJECTION_EDGE_TYPES, Cycle


@dataclass(frozen=True)
class _Chain:
    edges: Tuple[CausalEdge, ...]
    score: float

    @property
    def last(self) -> CausalEdge:
        return self.edges[-1]

    @property
    def first(self) -> CausalEdge:
        return self.edges[0]


@dataclass
class BeamSearchResult:
    cycles: List[Cycle] = field(default_factory=list)
    chains_explored: int = 0
    levels: int = 0
    compat: Optional[CompatChecker] = None


class ReferenceBeamSearch:
    """Chain-at-a-time cycle detector: the oracle the kernel is held to."""

    def __init__(
        self,
        config: Optional[CSnakeConfig] = None,
        sim_scores: Optional[Dict[FaultKey, float]] = None,
    ) -> None:
        self.config = config or CSnakeConfig()
        #: SimScore of each fault's cluster; unknown faults default to 1.0
        #: (maximally unconditional, hence ranked last).
        self.sim_scores = sim_scores or {}
        self.compat = CompatChecker(enabled=self.config.compat_check)

    # -------------------------------------------------------------- scoring

    def _chain_score(self, edges: Tuple[CausalEdge, ...]) -> float:
        injected = [e.src for e in edges if e.etype in INJECTION_EDGE_TYPES]
        if not injected:
            return 1.0
        total = sum(self.sim_scores.get(f, 1.0) for f in injected)
        return total / len(injected)

    def _delay_count(self, edges: Tuple[CausalEdge, ...]) -> int:
        return sum(
            1
            for e in edges
            if e.etype in INJECTION_EDGE_TYPES and e.src.kind is InjKind.DELAY
        )

    # --------------------------------------------------------------- search

    def search(self, edges: Sequence[CausalEdge]) -> BeamSearchResult:
        result = BeamSearchResult(compat=self.compat)
        edge_list = list(edges)
        # Index edges by source fault: a chain ending in fault f can only be
        # extended by edges injecting f, so candidate lookup is O(out-degree)
        # instead of O(|E|).
        self._by_src: Dict[FaultKey, List[CausalEdge]] = {}
        for edge in edge_list:
            self._by_src.setdefault(edge.src, []).append(edge)
        seen_cycles: Dict[Tuple, Cycle] = {}
        queue: List[_Chain] = []
        for edge in edge_list:
            chain = _Chain((edge,), self._chain_score((edge,)))
            if self._exceeds_delay_cap(chain.edges):
                continue
            result.chains_explored += 1
            # A self-edge (f causes f) is already a cycle of length one.
            if self.compat.match(edge, edge):
                self._report(chain.edges, seen_cycles)
            queue.append(chain)

        while queue and result.levels < self.config.max_chain_len - 1:
            result.levels += 1
            extensions = self._extend_level(queue, seen_cycles, result)
            # Exact chain deduplication: future extension depends only on the
            # last edge, closure only on the first, and ranking only on the
            # fault-level signature — interior test combinations are
            # interchangeable, so keep one representative per class.
            unique: Dict[Tuple, _Chain] = {}
            for chain in extensions:
                sig = (
                    tuple((e.src, e.dst, e.etype.value) for e in chain.edges),
                    chain.first.key(),
                    chain.last.key(),
                )
                unique.setdefault(sig, chain)
            extensions = list(unique.values())
            extensions.sort(key=lambda c: (c.score, [e.key() for e in c.edges]))
            queue = extensions[: self.config.beam_width]

        result.cycles = [seen_cycles[k] for k in sorted(seen_cycles)]
        return result

    def _extend_level(
        self,
        queue: List[_Chain],
        seen_cycles: Dict[Tuple, Cycle],
        result: BeamSearchResult,
    ) -> List[_Chain]:
        extensions: List[_Chain] = []
        for chain in queue:
            for edge in self._by_src.get(chain.last.dst, ()):
                if edge in chain.edges:
                    continue  # chains never reuse an edge
                if not self.compat.match(chain.last, edge):
                    continue
                new_edges = chain.edges + (edge,)
                if self._exceeds_delay_cap(new_edges):
                    continue
                if self.compat.match(edge, chain.first):
                    self._report(new_edges, seen_cycles)
                else:
                    extensions.append(_Chain(new_edges, self._chain_score(new_edges)))
        result.chains_explored += len(extensions)
        return extensions

    def _exceeds_delay_cap(self, edges: Tuple[CausalEdge, ...]) -> bool:
        cap = self.config.max_delay_faults
        return cap is not None and self._delay_count(edges) > cap

    def _report(self, edges: Tuple[CausalEdge, ...], seen: Dict[Tuple, Cycle]) -> None:
        cycle = Cycle(edges).canonical()
        seen.setdefault(cycle.key(), cycle)


class BeamSearch:
    """Cycle detector over a causal-edge set (vectorized kernel).

    Drop-in replacement for :class:`ReferenceBeamSearch` with identical
    results and counters.  Key-unique input (every
    :class:`~repro.core.edges.EdgeDB`) runs on the interned kernel, which
    constructs one :class:`Cycle` per reported cycle; duplicate keys go
    to the reference.
    """

    def __init__(
        self,
        config: Optional[CSnakeConfig] = None,
        sim_scores: Optional[Dict[FaultKey, float]] = None,
    ) -> None:
        self.config = config or CSnakeConfig()
        self.sim_scores = sim_scores or {}
        self.compat = CompatChecker(enabled=self.config.compat_check)

    def search(self, edges: Sequence[CausalEdge]) -> BeamSearchResult:
        edge_list = list(edges)
        keys = [e.key() for e in edge_list]
        if len(set(keys)) != len(keys):
            # Duplicate keys break the id-order ≡ key-order equivalence and
            # the membership-by-id argument (EdgeDB inputs are key-unique;
            # hand-built test edge lists need not be): the oracle takes over.
            ref = ReferenceBeamSearch(self.config, self.sim_scores)
            result = ref.search(edge_list)
            self.compat = ref.compat
            return result
        return _VectorizedKernel(
            self.config, self.sim_scores, self.compat, edge_list, keys
        ).run()


class _VectorizedKernel:
    """One search over one interned edge set.

    Bit-identity with the reference rests on five invariants (argued in
    DESIGN.md): edge ids are assigned by stable sort of unique ``key()``s,
    so comparing id sequences ≡ comparing key lists; CSR rows preserve the
    reference's insertion-order buckets, so flat candidate order ≡ the
    reference's (chain, bucket-position) generation order, which is what
    picks each dedup class's surviving representative; incremental score
    sums add the same IEEE terms in the same left-to-right order; the
    argpartition top-``B`` keeps exactly the stable-sort prefix; and
    triple ids are handed out while walking edges in that same key order,
    whose prefix is ``(src, dst, etype.value)``, so comparing triple-id
    rows ≡ comparing the triple lists ``Cycle.key()`` is made of.
    """

    def __init__(
        self,
        config: CSnakeConfig,
        sim_scores: Dict[FaultKey, float],
        compat: CompatChecker,
        edge_list: List[CausalEdge],
        keys: List[Tuple],
    ) -> None:
        self.config = config
        self.compat = compat
        self.n = n = len(edge_list)
        self._checks = 0
        self._rej_fault = 0
        self._rej_state = 0
        if n == 0:
            return
        order = sorted(range(n), key=keys.__getitem__)
        #: Edge objects by interned id (ascending key order).
        self.edges: List[CausalEdge] = [edge_list[i] for i in order]
        #: Edge id at each original input position (the level-0 queue).
        self.input_ids = _np.empty(n, dtype=_np.int64)
        for eid, pos in enumerate(order):
            self.input_ids[pos] = eid

        fault_ids: Dict[FaultKey, int] = {}
        triple_ids: Dict[Tuple[int, int, str], int] = {}
        src = _np.empty(n, dtype=_np.int64)
        dst = _np.empty(n, dtype=_np.int64)
        triple = _np.empty(n, dtype=_np.int64)
        inj = _np.zeros(n, dtype=_np.int64)
        delay = _np.zeros(n, dtype=_np.int64)
        score_term = _np.zeros(n, dtype=_np.float64)
        for eid, e in enumerate(self.edges):
            s = fault_ids.setdefault(e.src, len(fault_ids))
            d = fault_ids.setdefault(e.dst, len(fault_ids))
            src[eid] = s
            dst[eid] = d
            if e.etype in INJECTION_EDGE_TYPES:
                inj[eid] = 1
                if e.src.kind is InjKind.DELAY:
                    delay[eid] = 1
                score_term[eid] = sim_scores.get(e.src, 1.0)
            triple[eid] = triple_ids.setdefault((s, d, e.etype.value), len(triple_ids))
        self.src, self.dst, self.triple = src, dst, triple
        self.inj, self.delay, self.score_term = inj, delay, score_term

        # Source-fault buckets in *input* order — the reference builds
        # ``_by_src`` by appending over the input list, and bucket order
        # decides which interior-test representative survives dedup.
        buckets: Dict[int, List[int]] = {}
        for pos in range(n):
            eid = int(self.input_ids[pos])
            buckets.setdefault(int(src[eid]), []).append(eid)
        empty = _np.empty(0, dtype=_np.int64)
        by_src = {f: _np.asarray(ids, dtype=_np.int64) for f, ids in buckets.items()}
        rows = [by_src.get(int(dst[eid]), empty) for eid in range(n)]
        counts = _np.array([row.shape[0] for row in rows], dtype=_np.int64)
        self.adj_counts = counts
        self.adj_indptr = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(counts, out=self.adj_indptr[1:])
        self.adj = _np.concatenate(rows) if rows else empty

        # Precompute match(l, j) over the CSR entries, which enumerate
        # exactly the fault-compatible ordered pairs (dst[l] == src[j]).
        # State compatibility is memoized per distinct state-set pair.
        total = int(self.adj.shape[0])
        heads = _np.repeat(_np.arange(n, dtype=_np.int64), counts)
        ok = _np.ones(total, dtype=bool)
        if self.compat.enabled:
            set_ids: Dict[frozenset, int] = {}
            sets: List[frozenset] = []

            def _sid(states: frozenset) -> int:
                sid = set_ids.get(states)
                if sid is None:
                    sid = set_ids[states] = len(sets)
                    sets.append(states)
                return sid

            d_sid = [_sid(e.dst_states) for e in self.edges]
            s_sid = [_sid(e.src_states) for e in self.edges]
            pair_ok: Dict[Tuple[int, int], bool] = {}
            adj = self.adj
            for pos in range(total):
                pair = (d_sid[int(heads[pos])], s_sid[int(adj[pos])])
                verdict = pair_ok.get(pair)
                if verdict is None:
                    verdict = pair_ok[pair] = states_compatible(
                        sets[pair[0]], sets[pair[1]]
                    )
                ok[pos] = verdict
        self.adj_ok = ok
        #: Sorted ``l*n + j`` codes of every matching ordered pair — closure
        #: membership (does candidate c match first edge f?) is a
        #: ``searchsorted`` against this array.
        self.match_codes = _np.sort((heads * n + self.adj)[ok])

    # ------------------------------------------------------------- plumbing

    def _is_match(self, left: "_np.ndarray", right: "_np.ndarray") -> "_np.ndarray":
        """Vectorized ``CompatChecker.match`` verdict for ordered id pairs
        (fault-compatible *and* state-compatible), without counters."""
        codes = left * self.n + right
        if self.match_codes.shape[0] == 0:
            return _np.zeros(codes.shape, dtype=bool)
        idx = _np.searchsorted(self.match_codes, codes)
        # Out-of-range probes point past the array; slot 0 holds the
        # minimum code, which such probes can never equal.
        idx[idx == self.match_codes.shape[0]] = 0
        return self.match_codes[idx] == codes

    def _report(self, rows: "_np.ndarray", seen: Dict[Tuple[int, ...], List[int]]) -> None:
        """Record one level's closing chains (id rows, in report order).

        A row's fault-level class is the least rotation of its triple-id
        row (≡ ``Cycle.key()``: triple ids ascend with the triples); the
        first row of each class is kept, which is the reference's
        ``seen.setdefault``.
        """
        if rows.shape[0] == 0:
            return
        triples = self.triple[rows]
        best = triples.copy()
        index = _np.arange(rows.shape[0])
        for shift in range(1, rows.shape[1]):
            rot = _np.roll(triples, -shift, axis=1)
            differs = rot != best
            col = differs.argmax(axis=1)
            # Equal rows have ``col`` 0 and compare equal there: not less.
            less = rot[index, col] < best[index, col]
            best[less] = rot[less]
        classes, firsts = _np.unique(best, axis=0, return_index=True)
        for cls, pos in zip(classes.tolist(), firsts.tolist()):
            seen.setdefault(tuple(cls), rows[pos].tolist())

    # ---------------------------------------------------------------- levels

    def run(self) -> BeamSearchResult:
        result = BeamSearchResult(compat=self.compat)
        if self.n == 0:
            return result
        #: Fault-level class (least triple-id rotation) -> first id row
        #: reported for it; ``Cycle`` objects are built for these only.
        seen: Dict[Tuple[int, ...], List[int]] = {}

        # Level 0: every edge is a length-1 chain, in input order (the
        # reference leaves the initial queue unsorted).
        ids = self.input_ids
        cap = self.config.max_delay_faults
        if cap is not None:
            ids = ids[self.delay[ids] <= cap]
        kept = int(ids.shape[0])
        result.chains_explored += kept
        # Self-match (f causes f closes a length-1 cycle): one counted
        # check per surviving edge.
        self._checks += kept
        fault_ok = self.src[ids] == self.dst[ids]
        self._rej_fault += kept - int(fault_ok.sum())
        self_ok = self._is_match(ids, ids)
        self._rej_state += int((fault_ok & ~self_ok).sum())
        self._report(ids[self_ok][:, None], seen)

        queue = ids[:, None]
        sums = self.score_term[ids].copy()
        cnts = self.inj[ids].copy()
        delays = self.delay[ids].copy()

        while queue.shape[0] and result.levels < self.config.max_chain_len - 1:
            result.levels += 1
            queue, sums, cnts, delays = self._extend_level(
                queue, sums, cnts, delays, seen, result
            )

        self.compat.checks += self._checks
        self.compat.rejected_fault += self._rej_fault
        self.compat.rejected_state += self._rej_state
        # Integer class order ≡ ``sorted`` over ``Cycle.key()``s; within a
        # chain ids are distinct, so the least id rotation (≡
        # ``Cycle.canonical()``) is the one that starts at the smallest id.
        for cls in sorted(seen):
            row = seen[cls]
            start = row.index(min(row))
            result.cycles.append(
                Cycle(tuple(self.edges[i] for i in row[start:] + row[:start]))
            )
        return result

    def _extend_level(
        self,
        queue: "_np.ndarray",
        sums: "_np.ndarray",
        cnts: "_np.ndarray",
        delays: "_np.ndarray",
        seen: Dict[Tuple[int, ...], List[int]],
        result: BeamSearchResult,
    ) -> Tuple["_np.ndarray", "_np.ndarray", "_np.ndarray", "_np.ndarray"]:
        length = queue.shape[1]

        def _empty_level() -> Tuple[
            "_np.ndarray", "_np.ndarray", "_np.ndarray", "_np.ndarray"
        ]:
            return (
                _np.empty((0, length + 1), dtype=_np.int64),
                _np.empty(0, dtype=_np.float64),
                _np.empty(0, dtype=_np.int64),
                _np.empty(0, dtype=_np.int64),
            )

        # Flat candidate table: one row per (chain, adjacent edge), in
        # (queue order, bucket order) — the reference's generation order.
        last = queue[:, -1]
        deg = self.adj_counts[last]
        total = int(deg.sum())
        if total == 0:
            return _empty_level()
        parent = _np.repeat(_np.arange(queue.shape[0], dtype=_np.int64), deg)
        gpos = _np.repeat(self.adj_indptr[last], deg) + (
            _np.arange(total, dtype=_np.int64) - _np.repeat(_np.cumsum(deg) - deg, deg)
        )
        cand = self.adj[gpos]

        # match(chain.last, edge): candidates come from last.dst's bucket,
        # so the fault leg always holds; only state rejection can fire.
        # Chains never reuse an edge — membership is id equality because
        # keys (hence edges) are unique.
        alive = ~(queue[parent] == cand[:, None]).any(axis=1)
        self._checks += int(alive.sum())
        state_ok = self.adj_ok[gpos]
        self._rej_state += int((alive & ~state_ok).sum())
        alive &= state_ok

        new_delays = delays[parent] + self.delay[cand]
        cap = self.config.max_delay_faults
        if cap is not None:
            alive &= new_delays <= cap

        # match(edge, chain.first): closure check on what survived the cap.
        first = queue[parent, 0]
        self._checks += int(alive.sum())
        fault_ok = self.dst[cand] == self.src[first]
        self._rej_fault += int((alive & ~fault_ok).sum())
        closes = self._is_match(cand, first)
        self._rej_state += int((alive & fault_ok & ~closes).sum())
        cpos = _np.flatnonzero(alive & closes)
        self._report(
            _np.concatenate([queue[parent[cpos]], cand[cpos][:, None]], axis=1), seen
        )

        epos = _np.flatnonzero(alive & ~closes)
        result.chains_explored += int(epos.shape[0])
        # The last level extends nothing: every counter is settled above,
        # and the frontier it would build is never read.
        if epos.shape[0] == 0 or result.levels == self.config.max_chain_len - 1:
            return _empty_level()
        eparent = parent[epos]
        ecand = cand[epos]
        new_q = _np.concatenate([queue[eparent], ecand[:, None]], axis=1)
        new_sums = sums[eparent] + self.score_term[ecand]
        new_cnts = cnts[eparent] + self.inj[ecand]
        new_del = new_delays[epos]

        # Dedup by (triple sequence, first key, last key), keeping the first
        # occurrence in generation order: lexsort is stable, so within each
        # equal-signature group original positions stay ascending and the
        # group head is the surviving representative.
        sig = _np.empty((epos.shape[0], length + 3), dtype=_np.int64)
        sig[:, : length + 1] = self.triple[new_q]
        sig[:, length + 1] = new_q[:, 0]
        sig[:, length + 2] = new_q[:, -1]
        order = _np.lexsort(sig.T[::-1])
        srows = sig[order]
        head = _np.empty(order.shape[0], dtype=bool)
        head[0] = True
        head[1:] = (srows[1:] != srows[:-1]).any(axis=1)
        keep = _np.sort(order[head])
        new_q, new_sums, new_cnts, new_del = (
            new_q[keep],
            new_sums[keep],
            new_cnts[keep],
            new_del[keep],
        )

        # Rank by (score, id sequence) and keep the stable top B.  Scores
        # divide once at compare time, exactly like the reference's
        # total/len; id-sequence comparison ≡ the reference's key-list
        # comparison because ids were assigned in sorted-key order.
        scores = _np.where(new_cnts > 0, new_sums / _np.maximum(new_cnts, 1), 1.0)
        width = self.config.beam_width
        count = scores.shape[0]
        if count > width:
            # Everything strictly above the B-th smallest score sorts after
            # at least B chains, so restricting the sort to ``scores <=
            # kth`` provably reproduces full-sort[:B].
            kth = _np.partition(scores, width - 1)[width - 1]
            pool = _np.flatnonzero(scores <= kth)
        else:
            pool = _np.arange(count)
        keys = [new_q[pool, col] for col in range(length, -1, -1)]
        keys.append(scores[pool])
        top = pool[_np.lexsort(keys)][:width]
        return new_q[top], new_sums[top], new_cnts[top], new_del[top]
