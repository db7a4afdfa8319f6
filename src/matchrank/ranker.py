"""Rankers: greedy maximization of the average matching size, plus baselines.

The greedy ranker picks, at every rank, the candidate whose addition raises
the summed matching size across the sample set the most.  Two implementations
produce identical output:

* ``matchrank`` re-evaluates every remaining candidate each round via one
  slot-side scan per sample;
* ``matchrank-lazy`` keeps a max-heap of previously seen gains.  Gains only
  shrink as the pool grows, so a popped entry whose gain is current is
  guaranteed optimal; stale entries are re-evaluated only when they surface.

Ties are broken identically everywhere: higher total gain first, then higher
competition-normalized relevance (each slot's empirical frequency column is
scaled to sum to one before the row sum), then lower candidate id.  The
secondary key matters most once the sampled objective saturates — every
remaining gain is zero, and the tail order alone decides how quickly a fresh
relevance draw can finish — where favoring candidates that serve uncrowded
slots keeps the rarely-covered slots from waiting out the whole tail.

Baselines score candidates from the empirical per-(candidate, slot) edge
frequencies and sort by (score, normalized relevance, id) under the same
policy.  Gains are exact integers; the secondary key is a float computed in
one fixed pass over the counts, so comparisons stay reproducible.
"""
from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ContractError,
    InputError,
    PURPOSE_RANKER,
    Ranking,
    SampleSet,
    SparseProbMatrix,
    substream,
)
from .matching import (
    augmenting_slots,
    commit_add,
    commit_nonaugmenting,
    init_state,
    max_matching_size,
    scan_augmenting_candidates,
)

__all__ = [
    "ALGORITHMS",
    "TIE_BREAK",
    "RankerConfig",
    "RankerStats",
    "rank",
    "matchrank",
    "matchrank_lazy",
    "empirical_marginals",
    "baseline_scores",
    "random_ranking",
]

GREEDY_ALGORITHMS = ("matchrank", "matchrank-lazy")
SCORE_RULES = ("and", "or", "tr", "ntr")
ALGORITHMS = GREEDY_ALGORITHMS + SCORE_RULES + ("random",)

#: The one supported tie-break policy (see module docstring).
TIE_BREAK = "gain-ntr-index"

#: An empirical frequency of exactly 1 contributes to the "or" score as if it
#: were 1 - 1e-12; the exact value would be infinite.
_OR_CLAMP_P = 1.0 - 1e-12


@dataclass(frozen=True)
class RankerConfig:
    """Which ranker to run and how.

    `seed` only matters for the ``random`` baseline; every other algorithm is
    fully determined by its input.  `stop_at`, when set, truncates the ranking
    after that many candidates.
    """

    algorithm: str = "matchrank-lazy"
    tie_break: str = TIE_BREAK
    seed: int = 0
    stop_at: int | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InputError(
                f"unknown algorithm {self.algorithm!r}; valid: {', '.join(ALGORITHMS)}"
            )
        if self.tie_break != TIE_BREAK:
            raise InputError(f"unsupported tie_break {self.tie_break!r}; only {TIE_BREAK!r}")
        if self.stop_at is not None and self.stop_at < 1:
            raise InputError("stop_at must be at least 1")


@dataclass
class RankerStats:
    """Work counters, mainly for comparing the two greedy implementations.

    `gain_evals` counts full marginal-gain evaluations of one candidate
    (the initial pass over all candidates included); `zero_flushed` counts
    candidates emitted after the maximum gain reached zero.
    """

    rounds: int = 0
    gain_evals: int = 0
    zero_flushed: int = 0


def _tie_key(samples: SampleSet) -> np.ndarray:
    """Secondary sort key: competition-normalized relevance per candidate."""
    return baseline_scores(empirical_marginals(samples), "ntr")


class _GreedyBase:
    """Shared setup for both greedy implementations.

    Gain queries go through a cached per-sample mask of slots from which an
    alternating path can finish (see :func:`augmenting_slots`): a candidate
    gains on a sample iff its row touches the mask.  The mask survives
    commits that fail to augment that sample and is recomputed at most once
    between augmenting commits, so repeated queries against an unchanged
    matching cost only the row length.
    """

    def __init__(self, samples: SampleSet, stats: RankerStats):
        self.samples = samples
        self.stats = stats
        self.c = samples.candidates
        self.tie_key = _tie_key(samples)
        self.states = [init_state(m, j) for j, m in enumerate(samples.samples)]
        # A sample whose pool already achieves its full-candidate matching
        # size can never contribute gain again; drop it from the active list.
        self.full_size = [max_matching_size(m) for m in samples.samples]
        self.active = [j for j in range(samples.n) if self.full_size[j] > 0]
        self.reach: list[np.ndarray | None] = [None] * samples.n
        self.total = 0

    def initial_gains(self) -> np.ndarray:
        """Exact gains for the empty pool: #samples with any edge for `a`."""
        gains = np.zeros(self.c, dtype=np.int64)
        for j in self.active:
            gains += self.samples.samples[j].degrees() > 0
        self.stats.gain_evals += self.c
        return gains

    def eval_gain(self, a: int) -> int:
        g = 0
        for j in self.active:
            st = self.states[j]
            m = self.samples.samples[j]
            row = m.row(a)
            if row.size == 0:
                continue
            reach = self.reach[j]
            if reach is None:
                # An edge into a currently unmatched slot settles it without
                # paying for the walk.
                if st.unmatched_slot[row].any():
                    g += 1
                    continue
                reach = augmenting_slots(st, m)
                self.reach[j] = reach
            if reach[row].any():
                g += 1
        self.stats.gain_evals += 1
        return g

    def commit(self, a: int, expected_gain: int | None = None) -> int:
        g = 0
        still = []
        for j in self.active:
            st = self.states[j]
            m = self.samples.samples[j]
            reach = self.reach[j]
            row = m.row(a)
            if row.size and (reach is None or reach[row].any()):
                if commit_add(st, a, m):
                    g += 1
                    self.reach[j] = None  # matching changed; mask is stale
            else:
                # The mask (or an empty row) rules out any augmenting path,
                # so the search can be skipped; the mask stays valid.
                commit_nonaugmenting(st, a, m)
            if st.size < self.full_size[j]:
                still.append(j)
        self.active = still
        if expected_gain is not None and g != expected_gain:
            raise ContractError(
                f"gain of candidate {a} changed between evaluation and commit"
            )
        self.total += g
        self.stats.rounds += 1
        return g


def matchrank(
    samples: SampleSet, cfg: RankerConfig | None = None, stats: RankerStats | None = None
) -> Ranking:
    """Greedy ranking, re-evaluating every remaining candidate each round.

    Per round, one slot-side scan per active sample yields the 0/1 gain of
    all remaining candidates at once; the best (gain, normalized relevance,
    -id) wins.  Once the best gain is zero it stays zero for every remaining
    candidate, so the tail is emitted in one pass ordered by (normalized
    relevance, -id).
    """
    cfg = cfg or RankerConfig(algorithm="matchrank")
    stats = stats if stats is not None else RankerStats()
    eng = _GreedyBase(samples, stats)
    limit = _resolve_stop(cfg, eng.c)
    remaining = np.ones(eng.c, dtype=bool)
    order: list[int] = []
    prefix: list[int] = []
    gains = eng.initial_gains()
    while len(order) < limit:
        ids = np.flatnonzero(remaining)
        if order:  # round 1 uses the exact initial gains
            gains = np.zeros(eng.c, dtype=np.int64)
            for j in eng.active:
                hit = scan_augmenting_candidates(
                    eng.states[j], ids, eng.samples.samples[j]
                )
                gains[hit] += 1
            stats.gain_evals += ids.size
        best = _argbest(ids, gains[ids], eng.tie_key[ids])
        if gains[best] == 0:
            _flush_zeros(eng, ids, order, prefix, limit)
            break
        g = eng.commit(best, int(gains[best]))
        remaining[best] = False
        order.append(best)
        prefix.append(eng.total)
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
    limit = _resolve_stop(cfg, eng.c)
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
        order.append(a)
        prefix.append(eng.total)
        round_no += 1
    return Ranking(np.array(order, dtype=np.int32), tuple(prefix))


def _resolve_stop(cfg: RankerConfig, c: int) -> int:
    if cfg.stop_at is None:
        return c
    if cfg.stop_at > c:
        raise InputError(f"stop_at {cfg.stop_at} exceeds candidate count {c}")
    return cfg.stop_at


def _argbest(ids: np.ndarray, gains: np.ndarray, key: np.ndarray) -> int:
    """Id with lexicographically largest (gain, normalized relevance, -id)."""
    top = np.lexsort((ids, -key, -gains))[0]
    return int(ids[top])


def _flush_zeros(eng, ids: np.ndarray, order: list, prefix: list, limit: int):
    tail = ids[np.lexsort((ids, -eng.tie_key[ids]))]
    for a in tail[: limit - len(order)]:
        eng.commit(int(a), 0)
        eng.stats.zero_flushed += 1
        order.append(int(a))
        prefix.append(eng.total)


def empirical_marginals(samples: SampleSet) -> SparseProbMatrix:
    """Per-(candidate, slot) edge frequency across the sample set."""
    c, s = samples.candidates, samples.slots
    counts = np.zeros(c * s, dtype=np.int64)
    for m in samples.samples:
        # Slot ids strictly increase within a row, so one sample's keys are
        # distinct and the fancy-indexed increment counts each exactly once.
        rows = np.repeat(np.arange(c, dtype=np.int64), m.degrees())
        counts[rows * s + m.indices] += 1
    nz = np.flatnonzero(counts)
    rows = nz // s
    indptr = np.zeros(c + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=c), out=indptr[1:])
    return SparseProbMatrix(
        c, s, indptr, (nz % s).astype(np.int32), counts[nz] / samples.n
    )


def _row_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    rows = len(indptr) - 1
    if values.size == 0:
        return np.zeros(rows)
    ids = np.repeat(np.arange(rows), np.diff(indptr))
    return np.bincount(ids, weights=values, minlength=rows)


def baseline_scores(marginals: SparseProbMatrix, rule: str) -> np.ndarray:
    """Per-candidate score under one of the probability-aggregation rules.

    * ``and`` — log-probability that *every* listed slot edge appears;
      candidates with no entries score -inf.
    * ``or``  — -log of the probability that *no* edge appears.
    * ``tr``  — expected number of edges (sum of probabilities).
    * ``ntr`` — like ``tr`` but each slot's column is first normalized to
      sum to one, so crowded slots count for less.
    """
    if rule not in SCORE_RULES:
        raise InputError(f"unknown score rule {rule!r}; valid: {', '.join(SCORE_RULES)}")
    p, idx, ptr = marginals.probs, marginals.indices, marginals.indptr
    if rule == "and":
        scores = _row_sums(np.log(p), ptr)
        scores[np.diff(ptr) == 0] = -np.inf
        return scores
    if rule == "or":
        if np.any(p >= 1.0):
            warnings.warn(
                "probability 1 entries clamped for 'or' scoring", stacklevel=2
            )
            p = np.minimum(p, _OR_CLAMP_P)
        return _row_sums(-np.log1p(-p), ptr)
    if rule == "tr":
        return _row_sums(p, ptr)
    # Columns with no stored entry contribute no terms, so their zero sums
    # never reach the division below.
    col_sums = np.bincount(idx, weights=p, minlength=marginals.slots)
    return _row_sums(p / col_sums[idx], ptr)


def score_ranking(
    marginals: SparseProbMatrix, rule: str, secondary: np.ndarray | None = None
) -> Ranking:
    """Full ranking by descending score under the shared tie-break policy."""
    scores = baseline_scores(marginals, rule)
    if secondary is None:
        secondary = baseline_scores(marginals, "ntr")
    c = marginals.candidates
    order = np.lexsort((np.arange(c), -secondary, -scores))
    return Ranking(order.astype(np.int32))


def random_ranking(candidates: int, seed: int) -> Ranking:
    """Uniform random permutation from the ranker's dedicated sub-stream."""
    rng = substream(seed, PURPOSE_RANKER)
    return Ranking(rng.permutation(candidates).astype(np.int32))


def rank(
    samples: SampleSet,
    cfg: RankerConfig,
    marginals: SparseProbMatrix | None = None,
    stats: RankerStats | None = None,
) -> Ranking:
    """Run the configured algorithm over a sample set.

    `marginals` overrides the empirical frequencies for the score baselines
    (e.g. to rank from model probabilities directly); the greedy algorithms
    always work from the samples themselves.
    """
    if cfg.algorithm == "matchrank":
        return matchrank(samples, cfg, stats)
    if cfg.algorithm == "matchrank-lazy":
        return matchrank_lazy(samples, cfg, stats)
    if cfg.algorithm == "random":
        ranking = random_ranking(samples.candidates, cfg.seed)
        return _truncate(ranking, cfg, samples.candidates)
    if marginals is None:
        marginals = empirical_marginals(samples)
    elif (marginals.candidates, marginals.slots) != (samples.candidates, samples.slots):
        raise InputError("marginals dimensions do not match the sample set")
    return _truncate(score_ranking(marginals, cfg.algorithm), cfg, samples.candidates)


def _truncate(ranking: Ranking, cfg: RankerConfig, c: int) -> Ranking:
    limit = _resolve_stop(cfg, c)
    if limit >= len(ranking):
        return ranking
    return Ranking(ranking.order[:limit])
