"""Rankers: greedy maximization of the average matching size, plus baselines.

The greedy ranker picks, at every rank, the candidate whose addition raises
the summed matching size across the sample set the most.  :func:`rank` is
the one dispatch point, and it runs both greedy algorithms (``matchrank``
and ``matchrank-lazy``) through one greedy loop, :func:`_greedy`, over one
of two kernels.  Each kernel is an engine with the same two methods:
``gains()`` returns every candidate's gain for the current pool and
``commit(a, gain)`` adds candidate ``a``.  Both produce identical output
and the eager greedy's work counters:

* the cut kernel (:class:`_Cut`) for the samples of a group model of at
  most :data:`~matchrank.core.MAX_CUT_CLASSES` groups.  It works on each
  draw's group bit masks, derived from the group coins the samples hold
  (:attr:`~matchrank.core.SampleSet.group_coins`), and the cut form of the
  matching size;
* the batched kernel (:class:`_Batched`) for every other sample set.  It
  keeps one maximum b-matching over the disjoint union of all samples, into
  bins with caps (the slots of an independent sample, the groups of a group
  sample), and advances every sample with one alternating search per round.

Both kernels are tested against a plain augmenting-path reference that
lives with the test oracles: one maximum matching per sample, where a
candidate's gain on a sample is whether one alternating search from it
finds an augmenting path (Berge).  It runs an eager greedy, which
re-evaluates every remaining candidate each round, and a lazy one, which
re-evaluates only stale entries of a max-heap of gains (Minoux).

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

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ContractError,
    InputError,
    MAX_CUT_CLASSES,
    PURPOSE_RANKER,
    Ranking,
    SampleSet,
    SparseProbMatrix,
    _as_count,
    _coin_masks,
    _coin_rows,
    _row_positions,
    substream,
)

__all__ = [
    "ALGORITHMS",
    "TIE_BREAK",
    "RankerConfig",
    "RankerStats",
    "rank",
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
    seed: int = 0
    stop_at: int | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InputError(
                f"unknown algorithm {self.algorithm!r}; valid: {', '.join(ALGORITHMS)}"
            )
        object.__setattr__(self, "seed", _as_count(self.seed, "seed"))
        if self.seed < 0:
            raise InputError("seed must be non-negative")
        if self.stop_at is not None:
            object.__setattr__(self, "stop_at", _as_count(self.stop_at, "stop_at"))
            if self.stop_at < 1:
                raise InputError("stop_at must be at least 1")


@dataclass
class RankerStats:
    """Work counters, mainly for comparing the greedy implementations.

    `rounds` counts the candidates ranked, one per round;
    `productive_rounds` counts the rounds whose candidate raised the total
    matching size (the positive steps of ``prefix_gain``); `gain_evals`
    counts full marginal-gain evaluations of one candidate (the initial pass
    over all candidates included); `zero_flushed` counts candidates emitted
    after the maximum gain reached zero.  `kernel` names the greedy kernel
    that ran: ``"cut"`` or ``"batched"`` (only the augmenting-path greedies
    of the test oracles set ``"augmenting"``).  Both kernels evaluate every
    remaining candidate each round, so they report the eager greedy's
    counters whichever greedy algorithm was asked for.
    """

    rounds: int = 0
    productive_rounds: int = 0
    gain_evals: int = 0
    zero_flushed: int = 0
    kernel: str = ""


def _tie_key(samples: SampleSet) -> np.ndarray:
    """Secondary sort key: competition-normalized relevance per candidate."""
    return baseline_scores(empirical_marginals(samples), "ntr")


def _resolve_stop(cfg: RankerConfig, c: int) -> int:
    if cfg.stop_at is None:
        return c
    if cfg.stop_at > c:
        raise InputError(f"stop_at {cfg.stop_at} exceeds candidate count {c}")
    return cfg.stop_at


def _argbest(ids: np.ndarray, gains: np.ndarray, key: np.ndarray) -> int:
    """Id with lexicographically largest (gain, normalized relevance, -id)."""
    top = gains == gains.max()
    ids, key = ids[top], key[top]
    return int(ids[np.lexsort((ids, -key))[0]])


def _greedy(engine, tie_key: np.ndarray, limit: int, stats: RankerStats) -> Ranking:
    """Greedy ranking over a kernel's `engine`; output- and counter-identical
    to the eager augmenting-path greedy of the test oracles.  Gains never grow, so once the best one is zero the
    rest follow by (normalized relevance, -id) without further commits."""
    stats.kernel = engine.kernel
    remaining = np.ones(tie_key.size, dtype=bool)
    order: list[int] = []
    prefix: list[int] = []
    total = 0
    while len(order) < limit:
        ids = np.flatnonzero(remaining)
        stats.gain_evals += ids.size
        gains = engine.gains()
        left = gains[ids]
        if left.max() == 0:
            tail = ids[np.lexsort((ids, -tie_key[ids]))][: limit - len(order)]
            order += tail.tolist()
            prefix += [total] * tail.size
            stats.zero_flushed += tail.size
            break
        best = _argbest(ids, left, tie_key[ids])
        gain = int(gains[best])
        engine.commit(best, gain)
        stats.productive_rounds += 1
        remaining[best] = False
        total += gain
        order.append(best)
        prefix.append(total)
    stats.rounds += len(order)
    return Ranking(np.array(order, dtype=np.int32), tuple(prefix))


class _Cut:
    """The samples of a class-structured set, as their class bit masks.

    By max-flow min-cut, one sample's matching size for a pool P is the
    minimum over class subsets U of cap(U) + #{a in P : mask_a not within U},
    where cap(U) counts the slots of U.  That function is submodular, so its
    minimizers are closed under union and the maximal one, U*, is unique;
    adding candidate a raises the matching iff mask_a is not within U*.
    Each sample keeps the count term for every U and its U*.  A commit
    recomputes U* only where it raised the matching (a zero-gain addition
    leaves U* a minimizer, and still the maximal one), and the gains of all
    candidates are updated in one vectorized pass over the samples whose U*
    moved.  `cap` holds the slot count of every class subset, indexed by its
    bit mask, and `masks` per sample and candidate the bit mask of the
    classes the candidate is relevant to (uint16, n x candidates).
    """

    kernel = "cut"

    def __init__(self, cap: np.ndarray, masks: np.ndarray):
        self.cap, self.masks = cap, masks
        self.subsets = np.arange(cap.size, dtype=np.uint16)
        # The count term per sample and U, and U* (the empty pool: only
        # U = {} costs 0).
        self.outside = np.zeros((masks.shape[0], cap.size), dtype=np.int32)
        self.ustar = np.zeros(masks.shape[0], dtype=np.uint16)
        self._gains = np.count_nonzero(masks, axis=0)

    def gains(self) -> np.ndarray:
        """Per candidate, the number of samples whose matching it would raise."""
        return self._gains

    def commit(self, a: int, gain: int):
        """Add candidate `a`, moving U* in every sample where it gains."""
        masks, ustar, subsets = self.masks, self.ustar, self.subsets
        mask = masks[:, a]
        raised = np.flatnonzero(mask & ~ustar)
        if raised.size != gain:
            raise ContractError(f"gain of candidate {a} out of step with its commit")
        touched = np.flatnonzero(mask)
        self.outside[touched] += (mask[touched, None] & ~subsets) != 0
        cut = self.outside[raised] + self.cap
        top = np.bitwise_or.reduce(
            np.where(cut == cut.min(axis=1, keepdims=True), subsets, 0), axis=1
        )
        moved = top != ustar[raised]
        rows, new = raised[moved], top[moved]
        block = masks[rows]
        self._gains -= np.count_nonzero(block & ~ustar[rows, None], axis=0)
        self._gains += np.count_nonzero(block & ~new[:, None], axis=0)
        ustar[rows] = new


class _Batched:
    """All samples as one graph of candidates and bins with caps, plus one
    maximum b-matching of the committed pool into the bins: an independent
    sample's slots, of cap 1, or a group sample's groups, of cap their slot
    counts (a group's slots are interchangeable).  The graph is the disjoint
    union of the samples' bin-major CSRs, with candidate-copy ``j*c + a``
    and bin-copy ``j*b + t`` for candidate a and bin t of sample j.

    Each :meth:`gains` runs one alternating BFS over the whole union
    (:meth:`search`) and reads every candidate's gain in every sample off
    the edges of its result.  The gains depend on the pool alone, not on
    which maximum matching is kept: the bins left with room by some maximum
    matching are the same for all of them (Dulmage–Mendelsohn), so
    :meth:`commit` may flip any augmenting path, and it takes the paths of
    the last search.

    Only the pool edges of matched candidate-copies are kept, bin-major, for
    the backward search: a pool copy left unmatched by its commit can never
    be matched again, since a flip only rematches copies already on the path.
    Every array is int32 when the union's sizes fit.
    """

    kernel = "batched"

    def __init__(self, samples: SampleSet):
        n, c = samples.n, samples.candidates
        if samples.group_coins is None:
            cap = np.ones(samples.slots, dtype=np.int64)
            edges = sum(m.edge_count for m in samples.samples)
            draws = ((m.degrees(), m.indices) for m in samples.samples)
        else:
            layout, membership, coins = samples.group_coins
            cap, edges = layout.group_sizes, int(np.count_nonzero(coins))
            draws = ((np.count_nonzero(won, axis=1), membership[won]) for won in coins)
        b = cap.size
        itype = np.int32 if max(n * c, n * b, edges) < 2**31 else np.int64
        self.c = c
        self.cap = np.tile(cap.astype(itype), n)
        self.degrees = np.empty(n * c, dtype=itype)
        self.bin_ptr = np.zeros(n * b + 1, dtype=itype)
        self.bin_cands = np.empty(edges, dtype=itype)
        # The candidate of every edge as well, in the narrowest type, so a
        # commit finds its candidate's edges in all samples with one compare.
        self.bin_local = np.empty(edges, dtype=np.min_scalar_type(c))
        lo = 0
        for j, (deg, bins) in enumerate(draws):
            hi = lo + bins.size
            self.degrees[j * c : (j + 1) * c] = deg
            self.bin_ptr[j * b + 1 : (j + 1) * b + 1] = np.bincount(bins, minlength=b)
            self.bin_local[lo:hi] = np.repeat(np.arange(c, dtype=itype), deg)[
                np.argsort(bins, kind="stable")
            ]
            # Add in the wide type: a narrow loop would wrap j*c + a.
            np.add(self.bin_local[lo:hi], j * c, out=self.bin_cands[lo:hi], dtype=itype)
            lo = hi
        np.cumsum(self.bin_ptr, out=self.bin_ptr)
        self.load = np.zeros(n * b, dtype=itype)
        self.cand_match = np.full(n * c, -1, dtype=itype)
        self.pool_ptr = np.zeros(n * b + 1, dtype=itype)
        self.pool_cand = np.empty(0, dtype=itype)

    def search(self) -> tuple[np.ndarray, np.ndarray]:
        """Backward alternating BFS from every bin-copy with room at once.

        Returns ``reach``, the bin-copies from which an alternating path
        ends at one with room (the bins left with room by some maximum
        matching of the pool), and ``via``: for each reached full bin, the
        pool edge (index into ``pool_cand``) by which such a path leaves it
        (-1 elsewhere): its candidate moves to its bin if the path is flipped.
        """
        reach = self.load < self.cap
        via = np.full(reach.size, -1, dtype=self.load.dtype)
        frontier = np.flatnonzero(reach).astype(via.dtype)
        while frontier.size:
            edge = _row_positions(self.pool_ptr, frontier)
            dst = self.cand_match[self.pool_cand[edge]]
            fresh = ~reach[dst]
            edge, dst = edge[fresh], dst[fresh]
            # An edge occurs once, so of the edges reaching one bin exactly
            # the one kept in `via` survives.
            via[dst] = edge
            frontier = dst[via[dst] == edge]
            reach[frontier] = True
        return reach, via

    def gains(self) -> np.ndarray:
        """Per candidate, the number of samples whose matching it would
        raise: its row there touches the reach set of a fresh
        :meth:`search`, which is kept for :meth:`commit`.  Read from the
        smaller side: the edges into ``reach``, or those into its complement
        (a row misses ``reach`` iff all its edges go there)."""
        self.reach, self.via = self.search()
        reached = np.flatnonzero(self.reach)
        if 2 * reached.size <= self.reach.size:
            touch = np.zeros(self.degrees.size, dtype=bool)
            touch[self.bin_cands[_row_positions(self.bin_ptr, reached)]] = True
        else:
            missed = self.bin_cands[_row_positions(self.bin_ptr, np.flatnonzero(~self.reach))]
            touch = np.bincount(missed, minlength=self.degrees.size) < self.degrees
        return np.count_nonzero(touch.reshape(-1, self.c), axis=0)

    def commit(self, a: int, gain: int):
        """Add candidate `a`, flipping one augmenting path in every sample
        where it gains, all samples in step.  The paths are those of the
        last :meth:`gains`; a zero-gain commit leaves them valid."""
        # Edges of a's copies in bin-major order: by sample, then by bin.
        at = np.flatnonzero(self.bin_local == a)
        owner = self.bin_cands[at]
        bins = np.searchsorted(self.bin_ptr, at, side="right") - 1
        hit = np.flatnonzero(self.reach[bins])
        hit = hit[np.r_[True, owner[hit[1:]] != owner[hit[:-1]]]] if hit.size else hit
        if hit.size != gain:
            raise ContractError(f"gain of candidate {a} out of step with its commit")
        won = np.isin(owner, owner[hit])
        # A candidate enters each bin of the path; a full one sends the
        # candidate of its `via` edge on to that edge's bin.
        cand, into = owner[hit], bins[hit]
        while into.size:
            self.cand_match[cand] = into
            room = self.load[into] < self.cap[into]
            self.load[into[room]] += 1
            edge = self.via[into[~room]]
            if np.any(edge < 0):
                raise ContractError(
                    f"augmenting path of candidate {a} does not end at a bin with room"
                )
            cand = self.pool_cand[edge]
            into = np.searchsorted(self.pool_ptr, edge, side="right") - 1
        # Last: new pool edges move the positions `via` holds.
        self._add_pool_edges(bins[won], owner[won])

    def _add_pool_edges(self, bins: np.ndarray, cands: np.ndarray):
        # A candidate-copy has at most one edge to a bin-copy, so every
        # edge goes to the end of its bin's run.
        self.pool_cand = np.insert(self.pool_cand, self.pool_ptr[bins + 1], cands)
        step = np.zeros_like(self.pool_ptr)
        step[bins + 1] = 1
        self.pool_ptr += np.cumsum(step, out=step)


def empirical_marginals(samples: SampleSet) -> SparseProbMatrix:
    """Per-(candidate, slot) edge frequency across the sample set.  Group coins
    are counted per (candidate, membership); the row count is their oracle."""
    c, s = samples.candidates, samples.slots
    if samples.group_coins is not None:
        layout, membership, coins = samples.group_coins
        hits = coins.sum(axis=0)
        # A candidate's row holds the slots of every group it ever won.
        won = hits > 0
        rows = _coin_rows(layout, membership, won)
        freq = np.repeat(hits[won], layout.group_sizes[membership[won]]) / samples.n
        return SparseProbMatrix(c, s, rows.indptr, rows.indices, freq)
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
    always work from the samples themselves, through the cut kernel for the
    group coins of a group model of at most
    :data:`~matchrank.core.MAX_CUT_CLASSES` groups and the batched kernel
    otherwise (``stats.kernel`` tells which ran).
    """
    if cfg.algorithm in GREEDY_ALGORITHMS:
        limit = _resolve_stop(cfg, samples.candidates)
        coins = samples.group_coins
        if coins is not None and coins[0].group_count <= MAX_CUT_CLASSES:
            engine = _Cut(coins[0].subset_slots, _coin_masks(*coins))
        else:
            engine = _Batched(samples)
        stats = stats if stats is not None else RankerStats()
        return _greedy(engine, _tie_key(samples), limit, stats)
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
