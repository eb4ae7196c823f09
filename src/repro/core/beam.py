"""Beam search for self-sustaining cascading failures (Algorithm 1).

Starting from every causal edge as a length-1 chain, each level appends one
edge to each surviving chain (guarded by the local compatibility check) and
reports a cycle whenever a chain closes back onto its first edge.  At each
level only the best ``B`` chains survive, ranked by the mean intra-cluster
interference similarity score of the injected faults in the chain — chains
built from faults with *conditional* consequences (low SimScore) are kept,
as they most resemble the error-handling tangles developers overlook.

The search runs on one kernel.  The edge set is interned once into integer
arrays with ids assigned in sorted-``key()`` order, so integer comparisons
reproduce the lexicographic tie-breaks of a chain-at-a-time search over
edge tuples bit-for-bit (see DESIGN.md, "The interned beam kernel").
Algorithm 1's pairwise ``match`` relation depends only on the ordered edge
pair, so it is precomputed into a CSR adjacency (+ a sorted pair-code
array for closure membership).  A level costs O(candidates), not
O(candidates × chain length): a frontier chain carries its score and delay
counts and two dense ids — its dedup class and the rank of its id
sequence — so a candidate is a (parent, edge) pair of integers, dedup and
top-``B`` ranking run on one-integer keys, and the candidate table exists
one fixed-size block at a time.  Id rows are built for the ``B`` survivors
and for closing chains (one row kept per fault-level class, its
:class:`Cycle` built at the end).  The level that reaches
``max_chain_len`` builds no frontier, so it is counted per chain from
per-edge degree arrays and enumerates only the candidates that can close.

The chain-at-a-time search this kernel replaced is the tests' oracle
(``tests/reference_beam.py``): the differential, memory and budget tests
hold :class:`BeamSearch` to the same cycles in the same order (including
which interior test combination represents each deduplicated chain
class), the same ``chains_explored`` and ``levels``, and the same
:class:`~repro.core.compat.CompatChecker` counters.  Interning needs edges
with distinct ``key()``s — every :class:`~repro.core.edges.EdgeDB` dedups
by key — and :meth:`BeamSearch.search` refuses any other input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..config import CSnakeConfig
from ..types import DELAY, CausalEdge, FaultKey, states_compatible
from .compat import CompatChecker
from .cycles import INJECTION_EDGE_TYPES, Cycle


@dataclass
class BeamSearchResult:
    cycles: List[Cycle] = field(default_factory=list)
    chains_explored: int = 0
    levels: int = 0
    compat: Optional[CompatChecker] = None


class BeamSearch:
    """Cycle detector over a key-unique causal-edge set.

    Each :meth:`search` interns its edges into one :class:`_VectorizedKernel`
    run, which fills ``compat``'s counters and constructs one
    :class:`Cycle` per reported cycle.
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
            # the membership-by-id argument the kernel rests on.
            duplicate = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise ValueError(
                "beam search needs key-unique edges (EdgeDB guarantees it); "
                "duplicate key %r" % (duplicate,)
            )
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
    carried ``group`` / ``rank`` ids make ``(group[parent], candidate)`` ≡
    the dedup signature and ``(rank[parent], candidate)`` ≡ the id
    sequence, and the partition top-``B`` keeps the stable-sort prefix; and
    triple ids are handed out while walking edges in that same key order,
    whose prefix is ``(src, dst, etype.value)``, so comparing triple-id
    rows — or their base-``radix`` codes, for rows of one length — ≡
    comparing the triple lists ``Cycle.key()`` is made of.
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
        # A FaultKey sorts and compares as its (site_id, kind) pair, so the
        # flat string tuples order the keys and intern the faults without a
        # dataclass comparison or hash each.
        flat = [(s.site_id, s.kind, d.site_id, d.kind, t, i) for s, d, t, i in keys]
        order = sorted(range(n), key=flat.__getitem__)
        #: Edge objects by interned id (ascending key order).
        self.edges: List[CausalEdge] = [edge_list[i] for i in order]
        #: Edge id at each original input position (the level-0 queue).
        self.input_ids = _np.argsort(order)

        # Scores keyed the same way: a lookup by FaultKey would compare
        # dataclasses whenever the allocator's keys are other objects.
        flat_scores = {(f.site_id, f.kind): score for f, score in sim_scores.items()}
        fault_ids: Dict[Tuple[str, str], int] = {}
        triple_ids: Dict[Tuple[int, int, str], int] = {}
        src = _np.empty(n, dtype=_np.int64)
        dst = _np.empty(n, dtype=_np.int64)
        triple = _np.empty(n, dtype=_np.int64)
        inj = _np.zeros(n, dtype=_np.int64)
        delay = _np.zeros(n, dtype=_np.int64)
        score_term = _np.zeros(n, dtype=_np.float64)
        for eid, e in enumerate(self.edges):
            key = flat[order[eid]]
            s = fault_ids.setdefault(key[:2], len(fault_ids))
            d = fault_ids.setdefault(key[2:4], len(fault_ids))
            src[eid] = s
            dst[eid] = d
            if e.etype in INJECTION_EDGE_TYPES:
                inj[eid] = 1
                if e.src.kind == DELAY:
                    delay[eid] = 1
                score_term[eid] = flat_scores.get(key[:2], 1.0)
            triple[eid] = triple_ids.setdefault((s, d, e.etype.value), len(triple_ids))
        self.src, self.dst, self.triple = src, dst, triple
        self.inj, self.delay, self.score_term = inj, delay, score_term
        #: A closing row's class is coded as a base-``radix`` numeral of its
        #: triple ids; rows hold at most ``max_chain_len`` ids, so the code
        #: width is fixed here: int64 while every code fits, Python ints
        #: (``object``) beyond.
        self.radix = len(triple_ids)
        self.n_faults = len(fault_ids)
        fits = self.radix ** config.max_chain_len < 2**63
        self.code_dtype = _np.int64 if fits else object

        # Source-fault buckets in *input* order — the reference builds
        # ``_by_src`` by appending over the input list, and bucket order
        # decides which interior-test representative survives dedup.
        buckets: Dict[int, List[int]] = {}
        for pos in range(n):
            eid = int(self.input_ids[pos])
            buckets.setdefault(int(src[eid]), []).append(eid)
        empty = _np.empty(0, dtype=_np.int64)
        by_src = {f: _np.asarray(ids, dtype=_np.int64) for f, ids in buckets.items()}
        #: Each edge's offset in its source-fault bucket, hence in every
        #: adjacency row it appears in.
        self.bucket_pos = _np.empty(n, dtype=_np.int64)
        for ids in by_src.values():
            self.bucket_pos[ids] = _np.arange(ids.shape[0])
        rows = [by_src.get(int(dst[eid]), empty) for eid in range(n)]
        counts = _np.array([row.shape[0] for row in rows], dtype=_np.int64)
        self.adj_counts = counts
        self.adj_indptr = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(counts, out=self.adj_indptr[1:])
        self.adj = _np.concatenate(rows) if rows else empty

        # Precompute match(l, j) over the CSR entries, which enumerate
        # exactly the fault-compatible ordered pairs (dst[l] == src[j]).
        # State compatibility is decided once per distinct state-set pair:
        # each entry's (dst_states id, src_states id) is one integer code.
        total = int(self.adj.shape[0])
        heads = _np.repeat(_np.arange(n, dtype=_np.int64), counts)
        ok = _np.ones(total, dtype=bool)
        if self.compat.enabled:
            set_ids: Dict[frozenset, int] = {}
            d_sid = _np.array(
                [set_ids.setdefault(e.dst_states, len(set_ids)) for e in self.edges]
            )
            s_sid = _np.array(
                [set_ids.setdefault(e.src_states, len(set_ids)) for e in self.edges]
            )
            sets = list(set_ids)
            width = len(sets)
            pairs, inverse = _np.unique(
                d_sid[heads] * width + s_sid[self.adj], return_inverse=True
            )
            verdicts = [
                states_compatible(sets[p // width], sets[p % width]) for p in pairs.tolist()
            ]
            ok = _np.array(verdicts, dtype=bool)[inverse]
        self.adj_ok = ok
        #: Sorted ``l*n + j`` codes of every matching ordered pair — closure
        #: membership (does candidate c match first edge f?) is a
        #: ``searchsorted`` against this array.
        self.match_codes = _np.sort((heads * n + self.adj)[ok])

        # The last level is counted per chain from its last edge's row, not
        # enumerated.  ``ok_deg[l]`` is how many entries of row ``l`` match,
        # ``ok_deg0[l]`` how many of those inject no delay (what a chain
        # already at the delay cap may still append).
        self.ok_deg = _np.bincount(heads[ok], minlength=n)
        self.ok_deg0 = _np.bincount(heads[ok & (self.delay[self.adj] == 0)], minlength=n)
        # Closing candidates of a chain lie in its last edge's row and lead
        # back to its first edge's source: edges grouped by (source fault,
        # destination fault), each group in bucket order.
        pair = src * self.n_faults + dst
        self.pair_edges = self.input_ids[_np.argsort(pair[self.input_ids], kind="stable")]
        self.pair_codes = pair[self.pair_edges]

    # ------------------------------------------------------------- plumbing

    def _is_match(self, left: "_np.ndarray", right: "_np.ndarray") -> "_np.ndarray":
        """Vectorized Algorithm 1 ``match`` verdict for ordered id pairs
        (fault-compatible *and* state-compatible), without counters."""
        codes = left * self.n + right
        if self.match_codes.shape[0] == 0:
            return _np.zeros(codes.shape, dtype=bool)
        idx = _np.searchsorted(self.match_codes, codes)
        # Out-of-range probes point past the array; slot 0 holds the
        # minimum code, which such probes can never equal.
        idx[idx == self.match_codes.shape[0]] = 0
        return self.match_codes[idx] == codes

    def _row_ok(self, last: "_np.ndarray", cand: "_np.ndarray") -> "_np.ndarray":
        """``match(last, cand)`` for edges ``cand`` in ``last``'s adjacency
        row: the verdict stored at that CSR entry."""
        return self.adj_ok[self.adj_indptr[last] + self.bucket_pos[cand]]

    def _report(self, rows: "_np.ndarray", seen: Dict[Tuple[int, ...], List[int]]) -> None:
        """Record one level's closing chains (id rows, in report order).

        A row's fault-level class is the least rotation of its triple-id
        row (≡ ``Cycle.key()``: triple ids ascend with the triples).  Rows
        of one call have one length, so coding each rotation as a
        base-``radix`` numeral makes numeric order the lexicographic one:
        the class is the least rotation code.  The first row of each class
        is kept, which is the reference's ``seen.setdefault``; only kept
        classes are decoded back into triple-id tuples.
        """
        if rows.shape[0] == 0:
            return
        radix, length = self.radix, rows.shape[1]
        triples = self.triple[rows].astype(self.code_dtype)
        code = triples[:, 0]
        for col in range(1, length):
            code = code * radix + triples[:, col]
        # Rotating by one moves the leading digit to the end.
        lead = radix ** (length - 1)
        best = code
        for col in range(length - 1):
            code = (code - triples[:, col] * lead) * radix + triples[:, col]
            best = _np.minimum(best, code)
        classes, firsts = _np.unique(best, return_index=True)
        powers = _np.array([radix**p for p in range(length - 1, -1, -1)], dtype=self.code_dtype)
        digits = classes[:, None] // powers % radix
        for cls, row in zip(digits.tolist(), rows[firsts].tolist()):
            seen.setdefault(tuple(cls), row)

    # ---------------------------------------------------------------- levels

    #: Entries per block of a level's (chain, edge) table; the table is cut
    #: on chain boundaries, so a chain is never split.
    BLOCK = 1 << 15

    def _blocks(self, counts: "_np.ndarray", row_starts: "_np.ndarray"):
        """Cut a table of ``counts[k]`` entries per chain ``k`` — chain
        ``k``'s entries being ``row_starts[k]`` onwards of a flat array —
        into blocks of about :attr:`BLOCK` entries, in chain order.  Yields
        ``(lo, hi, base, parent, pos)`` per block: chains ``lo:hi``, the
        block's first table position, and per entry its chain and its
        position in the flat array."""
        ends = _np.cumsum(counts)
        starts = ends - counts
        hi = 0
        while hi < counts.shape[0]:
            lo, base = hi, int(starts[hi])
            hi = max(lo + 1, int(_np.searchsorted(ends, base + self.BLOCK, side="right")))
            reps = counts[lo:hi]
            parent = _np.repeat(_np.arange(lo, hi, dtype=_np.int64), reps)
            pos = _np.arange(int(ends[hi - 1]) - base, dtype=_np.int64) + _np.repeat(
                row_starts[lo:hi] - (starts[lo:hi] - base), reps
            )
            yield lo, hi, base, parent, pos
            # Drop this block's columns before the next block's are built
            # (the caller drops its own names too).
            del parent, pos

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

        # A frontier is (id rows, score sums, injection counts, delay
        # counts, group, rank): ``group`` is the id of a chain's (triple
        # sequence, first edge) class and ``rank`` the rank of its id
        # sequence within the frontier — both the edge id itself here.
        carried = (self.score_term[ids], self.inj[ids], self.delay[ids])
        frontier = (ids[:, None], *carried, ids, ids)
        last_level = self.config.max_chain_len - 1
        while frontier[0].shape[0] and result.levels < last_level - 1:
            result.levels += 1
            frontier = self._extend_level(
                frontier, seen, result, final=result.levels == last_level - 1
            )
        if frontier[0].shape[0] and result.levels < last_level:
            result.levels += 1
            self._last_level(frontier, seen, result)

        self.compat.checks += self._checks
        self.compat.rejected_fault += self._rej_fault
        self.compat.rejected_state += self._rej_state
        # Integer class order ≡ ``sorted`` over ``Cycle.key()``s; within a
        # chain ids are distinct, so the least id rotation (≡
        # the reference's canonical rotation) is the one that starts at the
        # smallest id.
        for cls in sorted(seen):
            row = seen[cls]
            start = row.index(min(row))
            result.cycles.append(Cycle(tuple(self.edges[i] for i in row[start:] + row[:start])))
        return result

    def _extensions(
        self,
        frontier: Tuple["_np.ndarray", ...],
        seen: Dict[Tuple[int, ...], List[int]],
        result: BeamSearchResult,
    ) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """One level's candidate table, block by block: counts its checks
        and extensions, reports its closures, and returns the deduplicated
        extensions as (parent, candidate) columns in generation order."""
        queue, _, _, delays, group, _ = frontier
        cap = self.config.max_delay_faults
        first, last = queue[:, 0], queue[:, -1]
        deg = self.adj_counts[last]
        # Dedup by (triple sequence, first key, last key), keeping the
        # first occurrence in generation order.  ``group[parent]`` stands
        # for the parent's (triple sequence, first edge) and the candidate
        # fixes the appended triple and the last edge.  Chains of one group
        # end on one triple, hence on one fault, so they share one
        # adjacency row: a signature is a slot, ``goff[group]`` plus the
        # candidate's offset in that row, and ``first_at[slot]`` is the
        # least generation position (over all blocks so far) that reached
        # it.
        gdeg = _np.zeros(int(group.max()) + 1, dtype=_np.int64)
        gdeg[group] = deg
        goff = _np.cumsum(gdeg) - gdeg
        slot_shift = goff[group] - self.adj_indptr[last]
        first_at = _np.full(int(gdeg.sum()), int(deg.sum()), dtype=_np.int64)
        head_src = self.src[first]
        eparents, ecands = [last[:0]], [last[:0]]

        # The candidate table — one row per (chain, adjacent edge), in
        # (queue order, bucket order), the reference's generation order —
        # exists one block of chains at a time, as 1-D columns; blocks run
        # in queue order, so closures are reported in that order.  A
        # per-chain column reaches the table by ``repeat`` over ``reps``.
        for lo, hi, base, parent, gpos in self._blocks(deg, self.adj_indptr[last]):
            reps = deg[lo:hi]
            cand = self.adj[gpos]

            # Chains never reuse an edge — membership is id equality
            # because keys (hence edges) are unique.
            alive = _np.ones(cand.shape[0], dtype=bool)
            for col in range(queue.shape[1]):
                alive &= _np.repeat(queue[lo:hi, col], reps) != cand
            # match(chain.last, edge): candidates come from last.dst's
            # bucket, so the fault leg always holds; only state rejection
            # can fire.
            fresh = int(alive.sum())
            alive &= self.adj_ok[gpos]
            self._rej_state += fresh - int(alive.sum())
            if cap is not None:
                alive &= _np.repeat(delays[lo:hi], reps) + self.delay[cand] <= cap

            # match(edge, chain.first): closure check on what survived the
            # cap.  A match implies the fault leg, so the pair-code probe
            # runs only where that leg holds.
            live = int(alive.sum())
            fpos = _np.flatnonzero(alive & (self.dst[cand] == _np.repeat(head_src[lo:hi], reps)))
            cpos = fpos[self._is_match(cand[fpos], first[parent[fpos]])]
            self._checks += fresh + live
            self._rej_fault += live - int(fpos.shape[0])
            self._rej_state += int(fpos.shape[0] - cpos.shape[0])
            closing = _np.take(queue, parent[cpos], axis=0)
            self._report(_np.concatenate([closing, cand[cpos][:, None]], axis=1), seen)

            # A candidate is kept where it is its slot's first occurrence;
            # blocks run in order, so what is kept across blocks is
            # O(distinct signatures), not O(extensions).
            alive[cpos] = False
            epos = _np.flatnonzero(alive)
            result.chains_explored += int(epos.shape[0])
            eparent = parent[epos]
            slot = gpos[epos] + slot_shift[eparent]
            gen = base + epos
            _np.minimum.at(first_at, slot, gen)
            keep = first_at[slot] == gen
            eparents.append(eparent[keep])
            ecands.append(cand[epos[keep]])
            # Free this block's columns before the next block allocates its
            # own: a level holds one block at a time, not two.
            del parent, gpos, cand, alive, fpos, cpos, closing, epos
            del eparent, slot, gen, keep

        return _np.concatenate(eparents), _np.concatenate(ecands)

    def _last_level(
        self,
        frontier: Tuple["_np.ndarray", ...],
        seen: Dict[Tuple[int, ...], List[int]],
        result: BeamSearchResult,
    ) -> None:
        """The level that reaches ``max_chain_len``: reports its closures
        and settles every counter, but builds no frontier, so its
        extensions are counted instead of enumerated.

        A chain's candidates are its last edge's row minus the chain's own
        members (``fresh``), of which ``ok`` match and ``live`` also pass
        the delay cap.  Per row these are ``adj_counts``, ``ok_deg`` and —
        for a chain at the cap — ``ok_deg0``, summed over the chains; the
        members that sit in a chain's row (those injecting its last edge's
        destination) are subtracted.  Only the candidates that lead back to
        the first edge's source can close, and those are walked, in bucket
        order, to report closures in the reference's order.
        """
        queue, _, _, delays, _, _ = frontier
        cap = self.config.max_delay_faults
        first, last = queue[:, 0], queue[:, -1]
        n_fresh = int(self.adj_counts[last].sum())
        n_ok = int(self.ok_deg[last].sum())
        if cap is None:
            n_live = n_ok
        else:
            live = _np.where(delays < cap, self.ok_deg[last], self.ok_deg0[last])
            n_live = int(live[delays <= cap].sum())
        row_fault = self.dst[last]
        for col in range(queue.shape[1]):
            # Chain ids are distinct, so a column holds at most one entry of
            # each chain's row.
            member = queue[:, col]
            at = _np.flatnonzero(self.src[member] == row_fault)
            n_fresh -= int(at.shape[0])
            at = at[self._row_ok(last[at], member[at])]
            n_ok -= int(at.shape[0])
            if cap is not None:
                at = at[delays[at] + self.delay[member[at]] <= cap]
            n_live -= int(at.shape[0])

        # Closing candidates: the (row fault, first source) group, walked
        # block by block in queue order.
        code = row_fault * self.n_faults + self.src[first]
        starts = _np.searchsorted(self.pair_codes, code, side="left")
        counts = _np.searchsorted(self.pair_codes, code, side="right") - starts
        n_fault_ok = n_closing = 0
        for _, _, _, parent, pos in self._blocks(counts, starts):
            cand = self.pair_edges[pos]
            alive = self._row_ok(last[parent], cand)
            for col in range(queue.shape[1]):
                alive &= queue[parent, col] != cand
            if cap is not None:
                alive &= delays[parent] + self.delay[cand] <= cap
            fpos = _np.flatnonzero(alive)
            cpos = fpos[self._is_match(cand[fpos], first[parent[fpos]])]
            n_fault_ok += int(fpos.shape[0])
            n_closing += int(cpos.shape[0])
            closing = _np.take(queue, parent[cpos], axis=0)
            self._report(_np.concatenate([closing, cand[cpos][:, None]], axis=1), seen)
            del parent, pos, cand, alive, fpos, cpos, closing

        self._checks += n_fresh + n_live
        self._rej_state += n_fresh - n_ok + n_fault_ok - n_closing
        self._rej_fault += n_live - n_fault_ok
        result.chains_explored += n_live - n_closing

    def _extend_level(
        self,
        frontier: Tuple["_np.ndarray", ...],
        seen: Dict[Tuple[int, ...], List[int]],
        result: BeamSearchResult,
        final: bool,
    ) -> Tuple[Optional["_np.ndarray"], ...]:
        """One level's survivors as the next frontier.  The ``final`` one
        feeds :meth:`_last_level`, which reads only id rows and delay
        counts, so it carries no score sums, injection counts, classes or
        ranks (``None`` in their places)."""
        queue, sums, cnts, delays, group, rank = frontier
        eparent, ecand = self._extensions(frontier, seen, result)
        # Rank by (score, id sequence) and keep the stable top B.  Scores
        # divide once at compare time, exactly like the reference's
        # total/len; id sequences are unique after dedup and compare like
        # (rank[parent], candidate), which — ids being assigned in
        # sorted-key order — is the reference's key-list comparison.
        new_sums = sums[eparent] + self.score_term[ecand]
        new_cnts = cnts[eparent] + self.inj[ecand]
        scores = _np.where(new_cnts > 0, new_sums / _np.maximum(new_cnts, 1), 1.0)
        width = self.config.beam_width
        if scores.shape[0] > width:
            # Everything strictly above the B-th smallest score sorts after
            # at least B chains, so restricting the sort to ``scores <=
            # kth`` provably reproduces full-sort[:B].
            kth = _np.partition(scores, width - 1)[width - 1]
            pool = _np.flatnonzero(scores <= kth)
        else:
            pool = _np.arange(scores.shape[0])
        # Sort by id sequence (unique keys: any sort), then stably by score.
        pool = pool[_np.argsort(rank[eparent[pool]] * self.n + ecand[pool])]
        sel = _np.argsort(scores[pool], kind="stable")[:width]
        top = pool[sel]
        tparent, tcand = eparent[top], ecand[top]
        if final:
            new_sums = new_cnts = new_rank = None
        else:
            # ``pool`` is now in id-sequence order, so a survivor's new rank
            # is the number of survivors before it in ``pool``.
            mark = _np.zeros(pool.shape[0], dtype=bool)
            mark[sel] = True
            new_rank = _np.cumsum(mark)[sel] - 1
            del mark
            new_sums, new_cnts = new_sums[top], new_cnts[top]
        # Free the extension-long columns before the survivors' rows exist.
        del eparent, ecand, scores, pool, sel, top
        new_queue = _np.concatenate([_np.take(queue, tparent, axis=0), tcand[:, None]], axis=1)
        new_delays = delays[tparent] + self.delay[tcand]
        new_group = None
        if not final:
            # Classes and ranks exist for the <= B survivors only, renumbered
            # densely so next level's keys stay small.
            classes = group[tparent] * self.n + self.triple[tcand]
            new_group = _np.unique(classes, return_inverse=True)[1]
        return new_queue, new_sums, new_cnts, new_delays, new_group, new_rank
