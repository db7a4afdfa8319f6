"""Independent reference implementations used only by the test suite.

Two families, each a deliberately different mechanism from the library
kernels, so agreement is strong evidence of correctness:

* a dynamic program over slot subsets and the Hall-deficiency formula,
  neither of which touches augmenting paths;
* the augmenting-path reference: a :class:`MatchState` keeps one maximum
  matching per sample while its pool grows one candidate at a time (Berge:
  a candidate raises the matching by one iff an alternating path from it
  reaches an unmatched slot).  On it rest the eager :func:`matchrank` and
  lazy :func:`matchrank_lazy` greedies (Minoux's lazy greedy: a max-heap of
  previously seen gains, re-evaluated only when stale), :func:`avg_matching`
  and :func:`prefix_match_curve`.  The cut and batched kernels that
  ``rank()`` runs are tested against these greedies.  Alternating-path
  searches scan slots in ascending id order and expand candidates in
  discovery order, so every operation is deterministic.

The library keeps relevance marginals as one probability per coin; the
per-slot spread lives here.  :func:`spread_marginals` spreads each coin's
probability over the slots of its bin, as an independent model, and
:func:`dense_probs` as a dense matrix.  The slot-level edge count,
:func:`row_count_marginals`, is the oracle of the spread of
``ranker.empirical_marginals``, which counts coins instead, and
:func:`spread_scores`, a row sum over the per-slot entries of a spread, is
the oracle of the score rules and the greedy tie key, which read coins and
their bins' sizes instead.  The reach set
that the batched kernel keeps from commit to commit is tested against
:func:`batched_reach`, a fresh backward search over its current matching.

The scalar ``k_min`` search, one draw at a time, is here too:
:func:`_kmin_bisect` probes each prefix with a fresh matching solve and
:func:`_kmin_cut` with the cut form on group masks, both bisecting through
:func:`_bisect`.  Evaluation's lockstep search over blocks of draws is tested
against them.
"""
from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from matchrank.core import (
    ContractError,
    InputError,
    ProbabilityModel,
    Ranking,
    RelevanceMatrix,
    SampleSet,
    UNMATCHED,
)
from matchrank.matching import max_matching_size
from matchrank.ranker import _OR_CLAMP_P, RankerConfig, RankerStats, _argbest, _tie_key


def dense_probs(model: ProbabilityModel, p: np.ndarray | None = None) -> np.ndarray:
    """The candidates x slots matrix of per-(candidate, slot) probabilities
    of one probability per coin of `model` (`p`, or its coin
    probabilities): each coin's on every slot of its bin, 0 elsewhere."""
    p = model.coin_probs if p is None else p
    bins = model.bins
    reps = bins.group_sizes[model.coin_bins]
    rows = np.repeat(np.repeat(np.arange(model.candidates), np.diff(model.coin_ptr)), reps)
    # A coin's slots run from its bin's first slot, one apart.
    within = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    dense = np.zeros((model.candidates, model.slots))
    dense[rows, np.repeat(bins.group_start[model.coin_bins], reps) + within] = np.repeat(p, reps)
    return dense


def spread_marginals(model: ProbabilityModel, p: np.ndarray | None = None) -> ProbabilityModel:
    """:func:`dense_probs` as an independent model: one coin per positive
    (candidate, slot) entry."""
    return ProbabilityModel.from_dense(dense_probs(model, p))


def row_count_marginals(samples: SampleSet) -> ProbabilityModel:
    """Per-(candidate, slot) edge frequency across the sample set, counted
    over every sample's slot-level rows."""
    c, s = samples.candidates, samples.slots
    # A count is at most n, so int32 halves the dense array.
    counts = np.zeros(c * s, dtype=np.int32)
    row_keys = np.arange(c, dtype=np.int64) * s
    for m in samples.samples:
        # Slot ids strictly increase within a row, so one sample's keys are
        # distinct and the fancy-indexed increment counts each exactly once.
        keys = np.repeat(row_keys, m.degrees())
        keys += m.indices
        counts[keys] += 1
    nz = np.flatnonzero(counts)
    rows = nz // s
    indptr = np.zeros(c + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=c), out=indptr[1:])
    return ProbabilityModel.independent(s, indptr, (nz % s).astype(np.int32), counts[nz] / samples.n)


def spread_scores(marginals: ProbabilityModel, rule: str) -> np.ndarray:
    """``ranker.baseline_scores`` summed over the per-(candidate, slot)
    entries of an independent model, one rule term per entry, row by row."""
    p, idx, ptr = marginals.coin_probs, marginals.coin_bins, marginals.coin_ptr
    if rule == "and":
        scores = _row_sums(np.log(p), ptr)
        scores[np.diff(ptr) == 0] = -np.inf
        return scores
    if rule == "or":
        if np.any(p >= 1.0):
            warnings.warn("probability 1 entries clamped for 'or' scoring", stacklevel=2)
            p = np.minimum(p, _OR_CLAMP_P)
        return _row_sums(-np.log1p(-p), ptr)
    if rule == "tr":
        return _row_sums(p, ptr)
    # Columns with no stored entry contribute no terms, so their zero sums
    # never reach the division below.
    col_sums = np.bincount(idx, weights=p, minlength=marginals.slots)
    return _row_sums(p / col_sums[idx], ptr)


def _row_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    rows = len(indptr) - 1
    if values.size == 0:
        return np.zeros(rows)
    ids = np.repeat(np.arange(rows), np.diff(indptr))
    return np.bincount(ids, weights=values, minlength=rows)


def spread_order(marginals: ProbabilityModel, rule: str) -> np.ndarray:
    """Every candidate by descending :func:`spread_scores` under `rule`,
    then descending ``ntr`` score, then ascending id (int32)."""
    scores, tie = spread_scores(marginals, rule), spread_scores(marginals, "ntr")
    return np.lexsort((np.arange(marginals.candidates), -tie, -scores)).astype(np.int32)


def brute_max_matching(matrix: RelevanceMatrix, pool=None) -> int:
    """Maximum matching size by DP over slot subsets (needs slots <= ~16)."""
    if matrix.slots > 16:
        raise ValueError("DP oracle is for small slot counts")
    rows = range(matrix.candidates) if pool is None else pool
    best = {0: 0}
    for a in rows:
        row = matrix.indices[matrix.indptr[a] : matrix.indptr[a + 1]]
        new = dict(best)
        for mask, v in best.items():
            for t in row:
                bit = 1 << int(t)
                if not mask & bit:
                    m2 = mask | bit
                    if new.get(m2, -1) < v + 1:
                        new[m2] = v + 1
        best = new
    return max(best.values())


def hall_matching_size(matrix: RelevanceMatrix, pool=None) -> int:
    """Maximum matching size via the deficiency form of Hall's theorem:
    size = |S| - max over slot subsets T of (|T| - |neighbours of T in pool|)."""
    if matrix.slots > 16:
        raise ValueError("Hall oracle is for small slot counts")
    rows = range(matrix.candidates) if pool is None else pool
    row_masks = []
    for a in rows:
        mask = 0
        for t in matrix.indices[matrix.indptr[a] : matrix.indptr[a + 1]]:
            mask |= 1 << int(t)
        row_masks.append(mask)
    worst = 0
    for tmask in range(1 << matrix.slots):
        t_size = bin(tmask).count("1")
        neigh = sum(1 for m in row_masks if m & tmask)
        worst = max(worst, t_size - neigh)
    return matrix.slots - worst


def all_ksubset_totals(samples, k: int) -> dict[tuple[int, ...], int]:
    """Total matching size over samples for every k-subset of candidates.

    Vectorized Hall-deficiency over all subsets at once; intended for small
    instances (candidates <= ~16, slots <= ~8).
    """
    c = samples.candidates
    s = samples.slots
    subsets = list(combinations(range(c), k))
    pool_matrix = np.zeros((len(subsets), c), dtype=np.int64)
    for i, sub in enumerate(subsets):
        pool_matrix[i, list(sub)] = 1
    t_sizes = np.array([bin(t).count("1") for t in range(1 << s)], dtype=np.int64)
    totals = np.zeros(len(subsets), dtype=np.int64)
    for m in samples.samples:
        hits = np.zeros((c, 1 << s), dtype=np.int64)
        for a in range(c):
            mask = 0
            for t in m.indices[m.indptr[a] : m.indptr[a + 1]]:
                mask |= 1 << int(t)
            if mask:
                tm = np.arange(1 << s)
                hits[a] = (tm & mask) != 0
        neigh = pool_matrix @ hits  # subsets x T-masks
        deficiency = (t_sizes[None, :] - neigh).max(axis=1)
        totals += s - np.maximum(deficiency, 0)
    return {sub: int(v) for sub, v in zip(subsets, totals)}


@dataclass
class MatchState:
    """A maximum matching between the committed pool and the slots of one sample.

    Invariants (all maintained by :func:`commit_add`):

    * ``candidate_match[a] == t`` iff ``slot_match[t] == a``; both sides use
      ``UNMATCHED`` otherwise;
    * matched candidates lie in the pool and every matched pair is an edge;
    * ``size`` equals the number of matched pairs and is the maximum matching
      size achievable by the current pool.
    """

    sample_ref: int
    pool: np.ndarray  # bool, per candidate
    candidate_match: np.ndarray  # int32, per candidate
    slot_match: np.ndarray  # int32, per slot
    unmatched_slot: np.ndarray  # bool, per slot
    size: int = 0
    pool_count: int = 0

    @property
    def unmatched_slots(self) -> np.ndarray:
        """Unmatched slot ids, ascending."""
        return np.flatnonzero(self.unmatched_slot)

    def check_invariants(self, matrix: RelevanceMatrix, check_maximality: bool = True):
        """Raise ContractError on any violated invariant (test/debug helper)."""
        matched_c = np.flatnonzero(self.candidate_match != UNMATCHED)
        matched_s = np.flatnonzero(self.slot_match != UNMATCHED)
        if matched_c.size != matched_s.size or matched_c.size != self.size:
            raise ContractError("matched-side counts disagree with size")
        for a in matched_c:
            t = int(self.candidate_match[a])
            if int(self.slot_match[t]) != a:
                raise ContractError(f"pair ({a}, {t}) not mutual")
            if not self.pool[a]:
                raise ContractError(f"matched candidate {a} outside pool")
            if t not in matrix.indices[matrix.indptr[a] : matrix.indptr[a + 1]]:
                raise ContractError(f"pair ({a}, {t}) is not an edge")
        if not np.array_equal(self.unmatched_slot, self.slot_match == UNMATCHED):
            raise ContractError("unmatched_slot mask out of sync")
        if self.pool_count != int(np.count_nonzero(self.pool)):
            raise ContractError("pool_count out of sync")
        if check_maximality:
            want = max_matching_size(matrix, np.flatnonzero(self.pool))
            if self.size != want:
                raise ContractError(f"size {self.size} not maximum ({want})")


def init_state(matrix: RelevanceMatrix, sample_ref: int = 0) -> MatchState:
    """Empty-pool state for one sample: size 0, every slot unmatched."""
    return MatchState(
        sample_ref=sample_ref,
        pool=np.zeros(matrix.candidates, dtype=bool),
        candidate_match=np.full(matrix.candidates, UNMATCHED, dtype=np.int32),
        slot_match=np.full(matrix.slots, UNMATCHED, dtype=np.int32),
        unmatched_slot=np.ones(matrix.slots, dtype=bool),
        size=0,
        pool_count=0,
    )


def _check_addable(state: MatchState, a: int, matrix: RelevanceMatrix):
    if not 0 <= a < matrix.candidates:
        raise InputError(f"candidate {a} out of range [0, {matrix.candidates})")
    if state.pool[a]:
        raise ContractError(f"candidate {a} already in pool")


def _find_augmenting_path(state: MatchState, a: int, matrix: RelevanceMatrix):
    """Alternating BFS from candidate `a` over the current pool.

    Returns the id of the reached unmatched slot and a per-slot predecessor
    array for path reconstruction, or (None, None) when no augmenting path
    exists.  Cheap common case first: any unmatched slot directly adjacent.
    """
    ptr, slots = matrix.indptr, matrix.indices
    row = slots[ptr[a] : ptr[a + 1]]
    if row.size == 0 or state.size == matrix.slots:
        return None, None
    direct = row[state.unmatched_slot[row]]
    if direct.size:
        prev = np.empty(matrix.slots, dtype=np.int32)
        prev[direct[0]] = a
        return int(direct[0]), prev
    visited = np.zeros(matrix.slots, dtype=bool)
    prev = np.empty(matrix.slots, dtype=np.int32)
    visited[row] = True
    prev[row] = a
    frontier = row
    while frontier.size:
        # Slots in `frontier` are all matched; hop to their partners and expand.
        partners = state.slot_match[frontier]
        new_slots = []
        for b in partners:
            rb = slots[ptr[b] : ptr[b + 1]]
            fresh = rb[~visited[rb]]
            if fresh.size == 0:
                continue
            visited[fresh] = True
            prev[fresh] = b
            hit = fresh[state.unmatched_slot[fresh]]
            if hit.size:
                return int(hit[0]), prev
            new_slots.append(fresh)
        frontier = np.concatenate(new_slots) if new_slots else np.empty(0, np.int32)
    return None, None


def _apply_path(state: MatchState, a: int, goal: int, prev: np.ndarray):
    """Flip matched/unmatched edges along the path ending at unmatched `goal`."""
    t = goal
    while True:
        b = int(prev[t])
        old = int(state.candidate_match[b])
        state.candidate_match[b] = t
        state.slot_match[t] = b
        if b == a:
            break
        t = old
    state.unmatched_slot[goal] = False
    state.size += 1


def gain_if_added(state: MatchState, a: int, matrix: RelevanceMatrix) -> int:
    """Marginal matching gain (0 or 1) of adding candidate `a`; no mutation."""
    _check_addable(state, a, matrix)
    goal, _ = _find_augmenting_path(state, a, matrix)
    return 0 if goal is None else 1


def commit_add(state: MatchState, a: int, matrix: RelevanceMatrix) -> int:
    """Add candidate `a` to the pool, augmenting in place; returns the gain."""
    _check_addable(state, a, matrix)
    goal, prev = _find_augmenting_path(state, a, matrix)
    state.pool[a] = True
    state.pool_count += 1
    if goal is None:
        return 0
    _apply_path(state, a, goal, prev)
    return 1


def avg_matching(pool: Sequence[int], samples: SampleSet) -> Fraction:
    """Average maximum matching size of `pool` across the sample set.

    Exact rational: the per-sample sizes are integers and the average is their
    sum over n, so no floating-point noise enters comparisons.
    """
    pool = np.asarray(list(pool), dtype=np.int64)
    total = sum(max_matching_size(m, pool) for m in samples.samples)
    return Fraction(int(total), samples.n)


def batched_reach(union) -> np.ndarray:
    """The reach set of a ``ranker._Batched`` union from scratch: a backward
    alternating search from every bin-copy with room at once."""
    reach = union.load < union.cap
    union._backward(reach, np.flatnonzero(reach))
    return reach


class _GreedyBase:
    """Shared state of both greedy oracles: one :class:`MatchState` per
    sample, each queried and grown by plain augmenting-path searches."""

    def __init__(self, samples: SampleSet, stats: RankerStats):
        self.samples = samples
        self.stats = stats
        stats.kernel = "augmenting"
        self.c = samples.candidates
        self.tie_key = _tie_key(samples)
        self.states = [init_state(m, j) for j, m in enumerate(samples.samples)]
        self.total = 0

    def initial_gains(self) -> np.ndarray:
        """Exact gains for the empty pool: #samples with any edge for `a`."""
        gains = np.zeros(self.c, dtype=np.int64)
        for m in self.samples.samples:
            gains += m.degrees() > 0
        self.stats.gain_evals += self.c
        return gains

    def eval_gain(self, a: int) -> int:
        self.stats.gain_evals += 1
        return sum(
            gain_if_added(st, a, m) for st, m in zip(self.states, self.samples.samples)
        )

    def commit(self, a: int, expected_gain: int):
        g = sum(commit_add(st, a, m) for st, m in zip(self.states, self.samples.samples))
        if g != expected_gain:
            raise ContractError(
                f"gain of candidate {a} changed between evaluation and commit"
            )
        self.total += g


def matchrank(
    samples: SampleSet, cfg: RankerConfig | None = None, stats: RankerStats | None = None
) -> Ranking:
    """Greedy ranking, re-evaluating every remaining candidate each round.

    Per round, every remaining candidate's gain is evaluated afresh; the
    best (gain, normalized relevance, -id) wins.  Once the best gain is zero
    it stays zero for every remaining candidate, so the tail is emitted in
    one pass ordered by (normalized relevance, -id).
    """
    cfg = cfg or RankerConfig(algorithm="matchrank")
    stats = stats if stats is not None else RankerStats()
    eng = _GreedyBase(samples, stats)
    limit = cfg.length(eng.c)
    remaining = np.ones(eng.c, dtype=bool)
    order: list[int] = []
    prefix: list[int] = []
    gains = eng.initial_gains()
    while len(order) < limit:
        ids = np.flatnonzero(remaining)
        if order:  # round 1 uses the exact initial gains
            gains = np.zeros(eng.c, dtype=np.int64)
            for a in ids:
                gains[a] = eng.eval_gain(int(a))
        best = _argbest(ids, gains[ids], eng.tie_key[ids])
        if gains[best] == 0:
            tail = ids[np.lexsort((ids, -eng.tie_key[ids]))][: limit - len(order)]
            # Commit the tail too, which checks that every gain there is 0.
            for a in tail:
                eng.commit(int(a), 0)
            order += tail.tolist()
            prefix += [eng.total] * tail.size
            stats.zero_flushed += tail.size
            break
        eng.commit(best, int(gains[best]))
        stats.productive_rounds += 1
        remaining[best] = False
        order.append(best)
        prefix.append(eng.total)
    stats.rounds += len(order)
    return Ranking(np.array(order, dtype=np.int32), tuple(prefix))


def matchrank_lazy(
    samples: SampleSet, cfg: RankerConfig | None = None, stats: RankerStats | None = None
) -> Ranking:
    """Greedy ranking via lazily re-evaluated gains; output-identical to
    :func:`matchrank`.

    Heap entries are (-gain, -normalized relevance, id).  A popped entry is selected
    outright if its gain was computed this round or is zero (gains never
    grow, so zero is always current); otherwise it is re-evaluated and pushed
    back.  Each candidate is re-evaluated at most once per round, so the
    total evaluation count never exceeds the eager implementation's.
    """
    cfg = cfg or RankerConfig(algorithm="matchrank-lazy")
    stats = stats if stats is not None else RankerStats()
    eng = _GreedyBase(samples, stats)
    limit = cfg.length(eng.c)
    gains = eng.initial_gains()
    heap = [(-int(gains[a]), -float(eng.tie_key[a]), a) for a in range(eng.c)]
    heapq.heapify(heap)
    eval_round = np.zeros(eng.c, dtype=np.int64)
    round_no = 0
    order: list[int] = []
    prefix: list[int] = []
    while heap and len(order) < limit:
        neg_gain, _, a = heapq.heappop(heap)
        if neg_gain == 0:
            # True gain is still zero; take the whole tail in heap order.
            eng.commit(a, 0)
            stats.zero_flushed += 1
            order.append(a)
            prefix.append(eng.total)
            continue
        if eval_round[a] < round_no:
            g = eng.eval_gain(a)
            eval_round[a] = round_no
            heapq.heappush(heap, (-g, -float(eng.tie_key[a]), a))
            continue
        eng.commit(a, -neg_gain)
        stats.productive_rounds += 1
        order.append(a)
        prefix.append(eng.total)
        round_no += 1
    stats.rounds += len(order)
    return Ranking(np.array(order, dtype=np.int32), tuple(prefix))


def prefix_match_curve(ranking: Ranking, matrix: RelevanceMatrix) -> np.ndarray:
    """Maximum matching size after each successive candidate of `ranking`,
    which may be partial."""
    if len(ranking) and int(ranking.order.max()) >= matrix.candidates:
        raise InputError("ranking refers to candidates outside the matrix")
    state = init_state(matrix)
    out = np.zeros(len(ranking), dtype=np.int32)
    for i, a in enumerate(ranking.order):
        commit_add(state, int(a), matrix)
        out[i] = state.size
    return out


def _kmin_bisect(matrix: RelevanceMatrix, order: np.ndarray, target: int) -> int | None:
    return _bisect(lambda k: max_matching_size(matrix, order[:k]), len(order), target)


def _kmin_cut(cap: np.ndarray, masks: np.ndarray, order: np.ndarray, target: int) -> int | None:
    """`_kmin_bisect` on the cut form: `cap` holds the slot count of every
    group subset, indexed by its bit mask, and `masks` each candidate's
    group mask in one draw."""

    def size(k: int) -> int:
        within = np.bincount(masks[order[:k]], minlength=cap.size)
        for g in range(cap.size.bit_length() - 1):
            # Add each subset without group g into the same subset with it.
            pairs = within.reshape(-1, 2, 1 << g)
            pairs[:, 1] += pairs[:, 0]
        return int((cap - within).min()) + k

    return _bisect(size, len(order), target)


def _bisect(size, n: int, target: int) -> int | None:
    """Smallest k whose prefix `size(k)` reaches `target`, for a `size` that
    never falls as k grows, or None when not even ``size(n)`` does."""
    if target == 0:
        return 0
    # `size(n)`, the whole candidate set, settles reachability.
    if size(n) < target:
        return None
    # Invariant: prefix `lo` falls short of `target`, prefix `hi` reaches it.
    # Fewer than `target` candidates cannot fill `target` slots.
    lo, hi = target - 1, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if size(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi
