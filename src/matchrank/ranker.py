"""Rankers: greedy maximization of the average matching size, plus baselines.

The greedy ranker picks, at every rank, the candidate whose addition raises
the summed matching size across the sample set the most.  :func:`rank` is
the one dispatch point, and it runs both greedy algorithms (``matchrank``
and ``matchrank-lazy``) through one greedy loop, :func:`_greedy`, over one
of two kernels.  Each kernel is an engine with the same two methods:
``gains()`` returns every candidate's gain for the current pool and
``commit(a, gain)`` adds candidate ``a``.  Both produce identical output
and the eager greedy's work counters:

* the cut kernel (:class:`_Cut`) for a sample set of at most
  :data:`MAX_CUT_KERNEL_GROUPS` bins: the groups of a group model, the
  slots of an independent one.  It works on each draw's bin bit masks,
  derived from the coins the samples hold
  (:attr:`~matchrank.core.SampleSet.coins`), and the cut form of the
  matching size;
* the batched kernel (:class:`_Batched`) for every other sample set.  It
  keeps one maximum b-matching over the disjoint union of all samples, into
  bins with caps (the slots of an independent sample, the groups of a group
  sample), and each sample's reach set: the bins from which an alternating
  path ends at a bin with room, which a candidate's row touches iff it
  gains there.  A commit flips one augmenting path in every sample where
  its candidate gains, all samples in step, and searches a sample's reach
  set again only where it moved.

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

A relevance marginal is one probability per coin, the edge probability of
every slot of the coin's bin: each coin's win frequency across the samples
(:func:`empirical_marginals`), or a model's coin probabilities (a group
model's or an independent one's).  Baselines score candidates from them
(:func:`baseline_scores`) and sort by (score, normalized relevance, id)
under the same policy; the secondary key is the ``ntr`` score of the win
frequencies.  A score adds each coin's term once per slot of its bin, so it
is bitwise the row sum over the per-slot edges.  Gains are exact integers;
the secondary key is a float computed in one fixed pass over the counts, so
comparisons stay reproducible.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ContractError,
    InputError,
    PURPOSE_RANKER,
    ProbabilityModel,
    Ranking,
    SampleSet,
    _as_count,
    _coin_masks,
    _cut_dtype,
    _owned,
    _require_memory,
    _row_positions,
    _row_spans,
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

    def length(self, candidates: int) -> int:
        """How many of `candidates` candidates a ranking holds: `stop_at`,
        or all of them; a `stop_at` beyond them is refused."""
        if self.stop_at is None:
            return candidates
        if self.stop_at > candidates:
            raise InputError(f"stop_at {self.stop_at} exceeds {candidates} candidates")
        return self.stop_at


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
    counters whichever greedy algorithm was asked for.  `moved_samples`
    counts the (sample, round) pairs whose blocked set grew: the maximal
    minimizer of the sample's cut function, which is the cut kernel's U*
    and the complement of the batched kernel's reach set, so both kernels
    count alike (the oracles leave it 0).
    """

    rounds: int = 0
    productive_rounds: int = 0
    gain_evals: int = 0
    zero_flushed: int = 0
    kernel: str = ""
    moved_samples: int = 0


def _tie_key(samples: SampleSet) -> np.ndarray:
    """Secondary sort key: competition-normalized relevance per candidate,
    from each coin's win frequency."""
    return baseline_scores(samples.model, "ntr", empirical_marginals(samples))


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
    stats.moved_samples += engine.moved
    return Ranking(_owned(np.array(order, dtype=np.int32)), tuple(prefix))


class _Cut:
    """The samples of a class-structured set, as their class bit masks.

    By max-flow min-cut, one sample's matching size for a pool P is the
    minimum over class subsets U of cap(U) + #{a in P : mask_a not within U},
    where cap(U) counts the slots of U.  That function is submodular, so its
    minimizers are closed under union and the maximal one, U*, is unique;
    adding candidate a raises the matching iff mask_a is not within U*.
    Each sample keeps that cut value for every U, and its U*.  A commit
    recomputes U* only where it raised the matching (a zero-gain addition
    leaves U* a minimizer, and still the maximal one), and the gains of all
    candidates are updated in one vectorized pass over the samples whose U*
    moved.  The cut values of every sample take a commit in place, in one
    pass: a sample where the candidate's mask is 0 adds 0 to each.  `cap`
    holds the slot count of every class subset, indexed by its
    bit mask, and `masks` per sample and candidate the bit mask of the
    classes the candidate is relevant to (uint16, n x candidates).

    The cut values are stored in reversed subset order: column i holds the
    one of U = full ^ i (full: every class), so a candidate of mask m
    counts in it iff m & i, which :func:`_counts_in` tabulates.  U* contains every other minimizer, so as an integer it is
    the largest one, and it sits in the first minimal column, which is
    where ``np.argmin`` stops.  A cut value is at most candidates + slots,
    so it is int16 when that fits (:func:`~matchrank.core._cut_dtype`).
    """

    kernel = "cut"

    def __init__(self, cap: np.ndarray, masks: np.ndarray):
        n, c = masks.shape
        self.full = cap.size - 1
        ctype = _cut_dtype(c, int(cap[self.full]))
        # The cut values and the table of which columns a mask counts in,
        # refused before either is allocated.
        _require_memory(
            np.dtype(ctype).itemsize * n * cap.size + cap.size**2,
            f"the cut values of {n} samples over {cap.size} class subsets",
        )
        self.masks, self.counts_in = masks, _counts_in(cap.size)
        # The empty pool: every cut value is cap(U), and U* is the classes
        # without slots, the largest U of cap 0.
        empty = cap[::-1].astype(ctype)
        self.cut = np.tile(empty, (n, 1))
        self.ustar = np.full(n, self.full ^ np.argmin(empty), dtype=np.uint16)
        self._gains = np.count_nonzero(masks, axis=0)
        self.moved = 0

    def gains(self) -> np.ndarray:
        """Per candidate, the number of samples whose matching it would raise."""
        return self._gains

    def commit(self, a: int, gain: int):
        """Add candidate `a`, moving U* in every sample where it gains."""
        masks, ustar = self.masks, self.ustar
        mask = masks[:, a]
        raised = np.flatnonzero(mask & ~ustar)
        if raised.size != gain:
            raise ContractError(f"gain of candidate {a} out of step with its commit")
        # Mask 0 counts in no column, so a sample a misses adds 0.
        np.add(self.cut, self.counts_in[mask], out=self.cut)
        top = (self.full ^ np.argmin(self.cut[raised], axis=1)).astype(np.uint16)
        moved = top != ustar[raised]
        rows, new = raised[moved], top[moved]
        self.moved += rows.size
        block = masks[rows]
        self._gains -= np.count_nonzero(block & ~ustar[rows, None], axis=0)
        self._gains += np.count_nonzero(block & ~new[:, None], axis=0)
        ustar[rows] = new


@functools.cache
def _counts_in(size: int) -> np.ndarray:
    """Whether a candidate of mask m counts in column i of the reversed cut
    values (``m & i``), for every mask and column below `size`, a power of
    two: one row per mask, built once per class count (read-only)."""
    subsets = np.arange(size, dtype=np.uint16)
    table = np.bitwise_and.outer(subsets, subsets) != 0
    table.setflags(write=False)
    return table


#: Forward-search marks of a bin-copy (``_Batched._via``): outside
#: ``reach``, unseen, or a start bin; other values are the position whose
#: candidate enters the bin along the path.
_OUT, _UNSEEN, _START = -3, -2, -1


class _Batched:
    """All samples as one graph of candidates and bins with caps, plus one
    maximum b-matching of the committed pool into the bins: an independent
    sample's slots, of cap 1, or a group sample's groups, of cap their slot
    counts (a group's slots are interchangeable).  The graph is the disjoint
    union of the samples, with candidate-copy ``j*c + a`` and bin-copy
    ``j*b + t`` for candidate a and bin t of sample j, held in two static
    CSRs: candidate-major (``cand_ptr``, ``cand_bins``: the samples' rows
    concatenated) and bin-major (``bin_ptr``, ``bin_cands``).

    The b-matching is kept as positions per bin: bin-copy y owns positions
    ``pos_ptr[y]:pos_ptr[y+1]`` (its cap, or fewer when fewer candidates
    have an edge to it), of which the first ``load[y]`` hold a candidate-copy
    (``pos_cand``; ``cand_pos`` is the inverse, -1 for unmatched copies).
    A flip never unmatches a copy, so positions fill in order.

    The state that gives the gains is ``reach``: the bin-copies from which
    an alternating path ends at one with room.  It depends on the pool
    alone, not on which maximum matching is kept (Dulmage–Mendelsohn), and
    its complement is the maximal minimizer of the sample's cut function
    (see :class:`_Cut`).  A candidate gains in a sample iff its row there
    touches ``reach``; ``hits`` counts, per candidate-copy, its edges into
    ``reach``, and the gains count the copies with hits.  The first reach
    set is just the bins with room; every later one is tested against
    ``batched_reach`` in ``tests/oracles.py``, the backward alternating
    search (:meth:`_backward`) from every bin with room.

    :meth:`commit` keeps them exact without a global search.  A commit of a
    moves a sample's reach set only where a gains (a zero-gain addition
    leaves the maximal minimizer alone), and there only when no bin of a's
    row still reaches room after the flip: a maximal minimizer that grows
    must take all of a's row.  So it runs a forward search from a's in-reach
    bins in every sample where a gains, which ends at the first level with
    a bin with room and gives the augmenting path to flip; then, only in
    the samples where none of those start bins still has room, the same
    search again as the test; and only in the samples where that fails, a
    backward re-search and an update of their candidates' hits.

    Where a level reaches several bins with room in a sample, the path ends
    at whichever one the search writes last.  No choice of path changes
    the output: every augmenting path leaves a maximum b-matching of the
    grown pool, and ``reach``, so every gain and the moved count, does not
    depend on which one is kept.

    The search marks (``_via``) hold ``_OUT`` on every bin outside
    ``reach``, kept so by :meth:`_research`, so a level tests one mark per
    bin it meets, and ``free``, the bins with room, kept so by
    :meth:`_flip`, so it tests room with one read per bin.  When no bin has
    two positions (``one_place``: every independent set), a full bin's
    candidate sits at its first position.  The backward search keeps each
    bin of a level once by a scratch mark (``_tag``) where the last write
    wins, as the forward search picks one end bin per sample.  Every id and
    pointer array is int32 when the union's sizes fit.
    """

    kernel = "batched"

    def __init__(self, samples: SampleSet):
        n, c, model = samples.n, samples.candidates, samples.model
        cap, edges = model.bins.group_sizes, int(np.count_nonzero(samples.coins))
        b = cap.size
        itype = np.int32 if max(n * c, n * b, edges) < 2**31 else np.int64
        narrow = np.min_scalar_type(max(b - 1, 0))
        # Four arrays per edge, two per candidate-copy, eight per bin-copy,
        # the hits and two bitmaps per bin-copy: refused before any is
        # allocated.
        hits_type = np.min_scalar_type(b)
        _require_memory(
            np.dtype(itype).itemsize * (4 * edges + 2 * n * c + 8 * n * b)
            + hits_type.itemsize * n * c + 2 * n * b,
            f"the arrays of a batched union of {n} samples ({edges} edges)",
        )
        owner = np.repeat(np.arange(c, dtype=itype), np.diff(model.coin_ptr))
        row_ends = model.coin_ptr[1:]
        self.n, self.c, self.b = n, c, b
        self.cap = np.tile(cap.astype(itype), n)
        self.cand_ptr = np.zeros(n * c + 1, dtype=itype)
        self.cand_bins = np.empty(edges, dtype=itype)
        self.bin_ptr = np.zeros(n * b + 1, dtype=itype)
        self.bin_cands = np.empty(edges, dtype=itype)
        # Edges per candidate-copy into ``reach``: at most one per bin.
        self.hits = np.empty(n * c, dtype=hits_type)
        lo = 0
        for j, coins in enumerate(samples.coins):
            # A sample's edges: its won coins, each into the coin's bin.
            won = np.flatnonzero(coins)
            bins, local = model.coin_bins[won], owner[won]
            hi = lo + bins.size
            # A candidate's edges end after the won coins before its end.
            ptr = self.cand_ptr[j * c + 1 : (j + 1) * c + 1]
            np.add(np.searchsorted(won, row_ends), lo, out=ptr)
            # Add in the wide type: bin ids run to n*b and copy ids to n*c.
            np.add(bins, j * b, out=self.cand_bins[lo:hi], dtype=itype)
            self.bin_ptr[j * b + 1 : (j + 1) * b + 1] = np.bincount(bins, minlength=b)
            # In the narrowest type a stable argsort is a radix sort.
            order = np.argsort(bins.astype(narrow), kind="stable")
            np.add(local[order], j * c, out=self.bin_cands[lo:hi], dtype=itype)
            # An empty pool leaves room in every bin of positive cap.
            self.hits[j * c : (j + 1) * c] = np.bincount(local[cap[bins] > 0], minlength=c)
            lo = hi
        np.cumsum(self.bin_ptr, out=self.bin_ptr)
        # A bin holds at most as many candidates as have an edge to it.
        places = np.minimum(self.cap, np.diff(self.bin_ptr))
        self.pos_ptr = np.zeros(n * b + 1, dtype=itype)
        np.cumsum(places, out=self.pos_ptr[1:])
        # With at most one position per bin, a full bin's candidate sits
        # at its first.
        self.one_place = bool(places.max(initial=0) <= 1)
        self.pos_bin = np.repeat(np.arange(n * b, dtype=itype), places)
        self.pos_cand = np.full(self.pos_bin.size, -1, dtype=itype)
        self.cand_pos = np.full(n * c, -1, dtype=itype)
        self.load = np.zeros(n * b, dtype=itype)
        # The bin-copies with room, kept by :meth:`_flip`.
        self.free = self.load < self.cap
        # No candidate is matched yet, so no full bin reaches one with room:
        # the backward search would add nothing, so it is not run.
        self.reach = self.free.copy()
        self._gains = np.count_nonzero(self.hits.reshape(n, c), axis=0)
        # Forward-search marks, per bin-copy: outside ``reach``, unseen, a
        # start bin, or the position whose candidate enters the bin along
        # the path.
        self._via = np.where(self.reach, _UNSEEN, _OUT).astype(itype)
        # Backward-search marks, per bin-copy: where a bin was last written.
        self._tag = np.empty(n * b, dtype=itype)
        self.moved = 0

    def _backward(self, reach: np.ndarray, frontier: np.ndarray):
        """Grow `reach` in place by every bin whose candidate can move into
        a bin of `frontier`, and on from those."""
        tag = self._tag
        while frontier.size:
            pos = self.cand_pos[self.bin_cands[_row_positions(self.bin_ptr, frontier)]]
            fresh = self.pos_bin[pos[pos >= 0]]
            fresh = fresh[~reach[fresh]]
            # Each bin once: the entry whose write of its mark lands.
            at = np.arange(fresh.size, dtype=tag.dtype)
            tag[fresh] = at
            frontier = fresh[tag[fresh] == at]
            reach[frontier] = True

    def gains(self) -> np.ndarray:
        """Per candidate, the number of samples whose matching it would
        raise: those where its row touches ``reach``."""
        return self._gains

    def commit(self, a: int, gain: int):
        """Add candidate `a`, flipping one augmenting path in every sample
        where it gains, all samples in step, and bring ``reach`` and the
        gains up to date where its reach set moved."""
        copies = np.arange(a, self.n * self.c, self.c, dtype=self.cand_ptr.dtype)
        row = self.cand_bins[_row_positions(self.cand_ptr, copies)]
        start = row[self.reach[row]]
        # The row is in sample order, so its samples run in blocks.
        owner = start // self.b
        if np.count_nonzero(owner[1:] != owner[:-1]) + bool(start.size) != gain:
            raise ContractError(f"gain of candidate {a} out of step with its commit")
        if not gain:
            return
        ends, stuck = self._forward(a, start, flip=True)
        if stuck.size:
            raise ContractError(
                f"augmenting path of candidate {a} does not end at a bin with room"
            )
        # The reach set of a sample moved iff none of a's row reaches room
        # now: searched for only where no start bin still has room.
        b = self.b
        roomy = np.zeros(self.n, dtype=bool)
        roomy[start[self.free[start]] // b] = True
        start = start[~roomy[start // b]]
        if not start.size:
            return
        _, moved = self._forward(a, start, flip=False)
        self.moved += moved.size
        if moved.size:
            self._research(moved)

    def _forward(self, a: int, start: np.ndarray, flip: bool) -> tuple[np.ndarray, np.ndarray]:
        """Forward alternating search inside ``reach`` from the bins `start`
        of candidate `a`'s copies, all samples in step, up to the first bin
        with room in each.  Returns those bins and the samples where none is
        reached.  With `flip`, the path to each found bin is flipped."""
        b, free, via = self.b, self.free, self._via
        via[start] = _START
        seen = [start]
        done = np.zeros(self.n, dtype=bool)
        pick = np.empty(self.n, dtype=start.dtype)
        ends = []
        frontier = start
        while frontier.size:
            owner = frontier // b
            has_room = free[frontier]
            if has_room.any():
                # One bin with room per sample: whichever write lands.
                at, room = owner[has_room], frontier[has_room]
                pick[at] = room
                won = pick[at] == room
                done[at[won]] = True
                ends.append(room[won])
                frontier = frontier[~done[owner]]
                if not frontier.size:
                    break
            # Every bin left is full: its candidates may move on.
            if self.one_place:
                pos = self.pos_ptr[frontier]
            else:
                pos = _row_positions(self.pos_ptr, frontier)
            at, lens = _row_spans(self.cand_ptr, self.pos_cand[pos])
            dst = self.cand_bins[at]
            pos = np.repeat(pos, lens)
            fresh = via[dst] == _UNSEEN
            dst, pos = dst[fresh], pos[fresh]
            via[dst] = pos
            frontier = dst[via[dst] == pos]
            seen.append(frontier)
        ends = np.concatenate(ends) if ends else start[:0]
        if flip:
            self._flip(a, ends)
        for bins in seen:
            via[bins] = _UNSEEN
        started = np.zeros(self.n, dtype=bool)
        started[start // b] = True
        return ends, np.flatnonzero(started & ~done)

    def _flip(self, a: int, ends: np.ndarray):
        """Flip the paths that the marks of a forward search lead back along
        from `ends` to the committed candidate `a`: each bin on a path takes
        the candidate entering it at the position of the one leaving it, and
        each end bin one new position."""
        b, c, via = self.b, self.c, self._via
        into, pos = ends, self.pos_ptr[ends] + self.load[ends]
        self.load[ends] += 1
        self.free[ends] = self.load[ends] < self.cap[ends]
        while into.size:
            leave = via[into]
            first = leave == _START
            cand = np.empty_like(into)
            cand[first] = into[first] // b * c + a
            cand[~first] = self.pos_cand[leave[~first]]
            self.pos_cand[pos] = cand
            self.cand_pos[cand] = pos
            pos = leave[~first]
            into = self.pos_bin[pos]

    def _research(self, rows: np.ndarray):
        """Recompute ``reach`` in samples `rows` by a backward search, and
        take a sample off the gain of every candidate whose copy there lost
        its last edge into it.  The hits are updated from the smaller side:
        minus the edges into the bins that left, or recounted from the
        edges into the bins that stayed (none once a sample is saturated)."""
        b, ptr, hits = self.b, self.bin_ptr, self.hits.reshape(self.n, self.c)
        bins = (rows[:, None] * b + np.arange(b)).ravel()
        was = self.reach[bins]
        self.reach[bins] = self.free[bins]
        self._backward(self.reach, bins[self.reach[bins]])
        now = self.reach[bins]
        self._via[bins] = np.where(now, _UNSEEN, _OUT)
        had = hits[rows] > 0
        left, kept = bins[was & ~now], bins[now]
        if (ptr[left + 1] - ptr[left]).sum() <= (ptr[kept + 1] - ptr[kept]).sum():
            np.subtract.at(self.hits, self.bin_cands[_row_positions(ptr, left)], 1)
        else:
            hits[rows] = 0
            np.add.at(self.hits, self.bin_cands[_row_positions(ptr, kept)], 1)
        self._gains -= np.count_nonzero(had & (hits[rows] == 0), axis=0)


def empirical_marginals(samples: SampleSet) -> np.ndarray:
    """Per coin of the samples' model, the share of samples that won it
    (float64): its relevance marginal, the edge frequency of every slot of
    its bin."""
    return np.count_nonzero(samples.coins, axis=0) / samples.n


def baseline_scores(model: ProbabilityModel, rule: str, p: np.ndarray | None = None) -> np.ndarray:
    """Per-candidate score under one of the probability-aggregation rules,
    from one probability per coin of `model`: `p`, or the model's own coin
    probabilities.  A coin's probability is the edge probability of every
    slot of its bin; a coin of 0, or of a bin without slots, has no edge.

    * ``and`` — log-probability that *every* edge appears; candidates with
      no edge score -inf.
    * ``or``  — -log of the probability that *no* edge appears.
    * ``tr``  — expected number of edges (sum of probabilities).
    * ``ntr`` — like ``tr`` but each slot's column is first normalized to
      sum to one, so crowded slots count for less.

    A candidate's score adds each of its coins' terms once per slot of the
    coin's bin, in coin order: the same additions, in the same order, as a
    row sum over the per-slot edges, so every score is bitwise that sum
    (``size * term`` is not: ten additions of 0.1 make 0.9999999999999999).
    A slot's column sum, for ``ntr``, is its bin's: the same additions too.
    """
    if rule not in SCORE_RULES:
        raise InputError(f"unknown score rule {rule!r}; valid: {', '.join(SCORE_RULES)}")
    p = model.coin_probs if p is None else np.asarray(p, dtype=np.float64)
    if p.shape != model.coin_probs.shape:
        raise InputError(f"p must hold one probability per coin ({model.coin_probs.size})")
    c, sizes = model.candidates, model.bins.group_sizes
    reps = sizes[model.coin_bins]
    # The coins that hold entries: of positive p, in a bin with slots.
    coins = np.flatnonzero((p > 0) & (reps > 0))
    p, bins, reps = p[coins], model.coin_bins[coins], reps[coins]
    owner = np.repeat(np.arange(c), np.diff(model.coin_ptr))[coins]
    entries = int(reps.sum())
    # The owner and the term of every entry, refused before either is allocated.
    _require_memory(16 * entries, f"the {entries} per-slot entries of {c} candidates' scores")
    if rule == "and":
        term = np.log(p)
    elif rule == "or":
        if np.any(p >= 1.0):
            warnings.warn("probability 1 entries clamped for 'or' scoring", stacklevel=2)
            p = np.minimum(p, _OR_CLAMP_P)
        term = -np.log1p(-p)
    elif rule == "tr":
        term = p
    else:
        term = p / np.bincount(bins, weights=p, minlength=sizes.size)[bins]
    # (A bincount of no entries would be integer zeros.)
    scores = np.zeros(c)
    if entries:
        scores = np.bincount(np.repeat(owner, reps), weights=np.repeat(term, reps), minlength=c)
    if rule == "and":
        scores[np.bincount(owner, minlength=c) == 0] = -np.inf
    return scores


def score_ranking(model: ProbabilityModel, rule: str, p: np.ndarray | None = None) -> Ranking:
    """Full ranking by descending :func:`baseline_scores` under `rule`,
    then the shared tie-break policy, from `model`'s coin probabilities or
    from `p`, one per coin."""
    scores = baseline_scores(model, rule, p)
    tie = scores if rule == "ntr" else baseline_scores(model, "ntr", p)
    order = np.lexsort((np.arange(model.candidates), -tie, -scores))
    return Ranking(_owned(order.astype(np.int32)))


def random_ranking(candidates: int, seed: int) -> Ranking:
    """Uniform random permutation from the ranker's dedicated sub-stream."""
    rng = substream(seed, PURPOSE_RANKER)
    return Ranking(_owned(rng.permutation(candidates).astype(np.int32)))


#: Most bins (groups of a group model, slots of an independent one) of a sample
#: set that :func:`rank` hands to the cut kernel (work 2**bins); others go to
#: the batched kernel.  Seconds per rank, cut/batched, engine build and greedy
#: loop alone (no tie key), on C candidates x G groups of k slots (n=200, best
#: of 3-5 in each of four runs, so without the first build of the mask table,
#: mean of two model seeds, busy 2-core host):
#:
#:     C x k       G=8          10           11           12           13
#:     500 x 10    0.008/0.057  0.014/0.073  0.024/0.081  0.049/0.088  0.121/0.094
#:     500 x 2                  0.005/0.030  0.007/0.032  0.014/0.034
#:     2000 x 5                 0.012/0.072  0.016/0.078  0.031/0.085
#:     2000 x 20                0.029/0.141  0.046/0.158  0.102/0.174
#:     10000 x 50               0.104/0.471  0.149/0.533  0.280/0.578
#: The cut kernel wins through 11 groups at every shape, by 3.4-7x.  At 12 it
#: wins by 1.7-2.7x before the first build of its 16 MiB mask table
#: (0.007 s); from 13 the batched kernel wins.  The limit stays at 11, where
#: every model's ``RankerStats.kernel`` has been.  Independent sets rank
#: faster on the cut kernel too (n=200, same runs): two-block 1,000 x 10
#: slots 0.005/0.044 and x 11 0.006/0.047; at density 0.3, 200 x 8
#: 0.001/0.009, 200 x 11 0.003/0.012, 5,000 x 10 0.018/0.063, 5,000 x 11
#: 0.021/0.063.
MAX_CUT_KERNEL_GROUPS = 11


def rank(
    samples: SampleSet,
    cfg: RankerConfig,
    marginals: ProbabilityModel | None = None,
    stats: RankerStats | None = None,
) -> Ranking:
    """Run the configured algorithm over a sample set.

    `marginals`, a model of the same candidates and slots, overrides the
    samples' win frequencies (:func:`empirical_marginals`) for the score
    baselines with its coins' probabilities (``marginals=samples.model``
    ranks from the model's probabilities directly); the greedy algorithms always work from the
    samples themselves, through the kernel :data:`MAX_CUT_KERNEL_GROUPS`
    picks (``stats.kernel`` tells which ran).
    """
    if cfg.algorithm in GREEDY_ALGORITHMS:
        limit = cfg.length(samples.candidates)
        bins = samples.model.bins
        if bins.group_count <= MAX_CUT_KERNEL_GROUPS:
            engine = _Cut(bins.subset_slots, _coin_masks(samples.model, samples.coins))
        else:
            engine = _Batched(samples)
        stats = stats if stats is not None else RankerStats()
        return _greedy(engine, _tie_key(samples), limit, stats)
    if cfg.algorithm == "random":
        ranking = random_ranking(samples.candidates, cfg.seed)
        return _truncate(ranking, cfg, samples.candidates)
    if marginals is None:
        ranking = score_ranking(samples.model, cfg.algorithm, empirical_marginals(samples))
    elif (marginals.candidates, marginals.slots) != (samples.candidates, samples.slots):
        raise InputError("marginals dimensions do not match the sample set")
    else:
        ranking = score_ranking(marginals, cfg.algorithm)
    return _truncate(ranking, cfg, samples.candidates)


def _truncate(ranking: Ranking, cfg: RankerConfig, c: int) -> Ranking:
    limit = cfg.length(c)
    if limit >= len(ranking):
        return ranking
    return Ranking(ranking.order[:limit])
