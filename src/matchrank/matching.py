"""Maximum bipartite matching: a batch solver plus incremental maintenance.

:func:`max_matching_size` solves one pool from scratch (Hopcroft–Karp via
scipy).  A :class:`MatchState` keeps a maximum matching while its pool grows
one candidate at a time: the greedy oracles in :mod:`matchrank.ranker` keep
one per sample, and :func:`~matchrank.evaluation.prefix_match_curve` one per
draw.  Maintenance relies on two facts about bipartite matchings (Berge):

* adding one candidate to the pool raises the maximum matching size by 0 or 1,
  and by 1 exactly when an alternating path from that candidate reaches an
  unmatched slot;
* applying that augmenting path (flipping matched/unmatched edges along it)
  yields a maximum matching for the enlarged pool.

Alternating-path searches scan slots in ascending id order and expand
candidates in discovery order, so every operation is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_bipartite_matching

from .core import (
    ContractError,
    InputError,
    RelevanceMatrix,
    SampleSet,
    UNMATCHED,
    _gather_rows,
)

__all__ = [
    "MatchState",
    "max_matching_size",
    "init_state",
    "gain_if_added",
    "commit_add",
    "avg_matching",
]


def max_matching_size(matrix: RelevanceMatrix, pool=None) -> int:
    """Exact maximum matching size between `pool` (default: all candidates)
    and the slots of `matrix`.  Hopcroft–Karp via scipy."""
    if pool is not None:
        pool = np.asarray(pool, dtype=np.int64).ravel()
        if pool.size and (pool.min() < 0 or pool.max() >= matrix.candidates):
            raise InputError("pool candidate ids out of range")
        if np.unique(pool).size != pool.size:
            raise InputError("pool must not repeat a candidate")
    return _matching_size(matrix, pool)


def _matching_size(matrix: RelevanceMatrix, pool: np.ndarray | None = None) -> int:
    """:func:`max_matching_size` without its pool checks, for callers whose
    `pool` is already known to be distinct in-range ids (1-D, integer)."""
    if pool is None:
        indptr, indices = matrix.indptr, matrix.indices
        rows = matrix.candidates
    else:
        counts = matrix.indptr[pool + 1] - matrix.indptr[pool]
        indptr = np.zeros(pool.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = _gather_rows(matrix.indptr, matrix.indices, pool)
        rows = pool.size
    if indices.size == 0 or matrix.slots == 0:
        return 0
    m = sp.csr_matrix(
        (np.ones(indices.size, dtype=np.int8), indices, indptr),
        shape=(rows, matrix.slots),
    )
    match = maximum_bipartite_matching(m, perm_type="column")
    return int(np.count_nonzero(match != UNMATCHED))


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
            if t not in matrix.row(int(a)):
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
    row = matrix.row(a)
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
            rb = matrix.row(int(b))
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
