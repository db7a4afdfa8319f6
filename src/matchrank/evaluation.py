"""Evaluation: how deep into a ranking must one go to fill every slot?

For one realized relevance matrix, ``k_min`` is the smallest prefix length
whose maximum matching covers all slots; dividing by the slot count gives the
normalized depth (1.0 is perfect).  A draw whose full candidate set cannot
fill the slots has no ``k_min`` — such draws are reported and excluded from
the mean/deviation.

Prefix matching size never falls as the prefix grows, so ``k_min`` is found
by bisection over prefix lengths, and all draws of a block at once: each
step is one probe that measures the current prefix of every draw still
open.  A block is a fixed number of consecutive draws, set before any draw
as ``_BLOCK_ENTRIES`` over the most entries a draw of the model can hold,
rounded up, so its entries stay below that budget plus one bound.  Every
draw's first probe is at k = target: fewer candidates cannot fill the
target, so a draw that fills it there is settled.  The others check the
whole candidate set (unfillable draws stop there) and bisect (target, n].
A block is drawn as coins by the sample sets' loop.  :func:`kmin_method`
picks how a probe measures a prefix, and ``_kmin_chunk`` dispatches on it:

* ``"cut"``, for a model of at most :data:`MAX_CUT_FORM_GROUPS` bins (the
  groups of a group model, the slots of an independent one): a block's
  coins become one bin mask per candidate, never expanded to slots.
  By max-flow min-cut, the matching size of a prefix of length k is the
  minimum over bin subsets U of cap(U) + k - F(U), where cap(U) counts
  the slots of U and F(U) the prefix candidates whose mask lies within U: a
  subset-sum (zeta) transform over the 2**G subsets (Björklund, Husfeldt,
  Kaski and Koivisto, "Fourier meets Möbius", STOC 2007) of the prefix
  masks' counts.  A probe is one bincount of every probed draw's prefix
  masks, keyed subset-major (a mask's counts for the probed draws lie
  side by side), and one transform over all of them, whose pass over bin g
  adds runs of 2**g times the probed draws' counts at once.  The counts are
  int16 while candidates + slots fits, else int32: the cut kernel's rule
  (``core._cut_dtype``);
* ``"bisection"``, for every other model: each draw's coins, taken in rank
  order, expand to its slot rows already ranked (``core._coin_slots`` on the
  model ranked once per work unit), stacked as one disjoint union, each
  draw's slots in its own columns, and a probe is one Hopcroft–Karp solve
  on the probed prefix rows (``matching._matching_sizes``).  :func:`k_min`
  on any matrix is this search on one draw.

The per-draw scalar search in ``tests/oracles.py`` (a fresh matching solve,
or the cut form, per probe) is the oracle both are tested against.

Evaluation draws come from dedicated per-draw sub-streams, and both methods
consume a draw's sub-stream alike, so results are identical whichever method
and however many worker processes compute them.
"""
from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ContractError,
    InputError,
    PURPOSE_EVAL,
    ProbabilityModel,
    Ranking,
    RelevanceMatrix,
    _as_count,
    _coin_masks,
    _coin_slots,
    _cut_dtype,
    _owned,
    _row_spans,
)
from .matching import _matching_sizes
from .ranker import TIE_BREAK, RankerConfig, RankerStats, rank
# draw_relevance is not called here: perfbench/tracing.py patches this name.
from .synthgen import _draw_block, build_synthetic_model, draw_relevance, sample_relevances

__all__ = [
    "EvalReport",
    "k_min",
    "kmin_method",
    "evaluate",
    "evaluate_ranking",
    "misspecification_run",
    "require_slots",
]


@dataclass(frozen=True)
class EvalReport:
    """Outcome of evaluating one ranking policy on fresh draws.

    ``per_draw_kmin`` holds one entry per evaluation draw, ``None`` marking a
    draw whose slots cannot all be filled even by the complete candidate set.
    ``normalized_mean``/``normalized_std`` (population deviation) summarize
    ``k_min / slots`` over the fillable draws and are ``None`` when no draw
    is fillable.
    """

    algorithm: str
    candidates: int
    slots: int
    n_samples: int
    sample_seed: int
    draws: int
    eval_seed: int
    per_draw_kmin: tuple[int | None, ...]
    normalized_mean: float | None
    normalized_std: float | None
    unfillable_count: int
    config: dict

    def __post_init__(self):
        if self.draws < 1 or self.slots < 1:
            raise InputError("a report needs at least one draw and one slot")
        if self.n_samples < 1:
            raise InputError("n_samples must be at least 1")
        if self.sample_seed < 0 or self.eval_seed < 0:
            raise InputError("sample_seed and eval_seed must be non-negative")
        if len(self.per_draw_kmin) != self.draws:
            raise InputError("per_draw_kmin must have one entry per draw")
        # A draw fills its slots with one candidate a slot at least, and
        # with no more candidates than the ranking holds.
        fillable = [k for k in self.per_draw_kmin if k is not None]
        if not all(type(k) is int and self.slots <= k <= self.candidates for k in fillable):
            raise InputError(
                f"every k_min must be null or an integer in [{self.slots}, {self.candidates}]"
                " (slots, candidates)"
            )
        if self.unfillable_count != self.draws - len(fillable):
            raise InputError("unfillable_count must count the null k_min entries")
        if {self.normalized_mean is None, self.normalized_std is None} != {not fillable}:
            raise InputError("normalized_mean and normalized_std are null exactly when no draw is fillable")


def k_min(ranking: Ranking, matrix: RelevanceMatrix, target: int | None = None) -> int | None:
    """Smallest prefix length of `ranking` that fills `target` slots.

    `target` defaults to all slots of `matrix`.  Returns ``None`` when even
    the full ranking cannot reach the target, which requires the ranking to
    cover every candidate — otherwise "unfillable" would be ambiguous.
    """
    target = matrix.slots if target is None else _as_count(target, "target")
    if not 0 <= target <= matrix.slots:
        raise InputError(f"target must lie in [0, {matrix.slots}]")
    if not ranking.is_complete(matrix.candidates):
        raise InputError("k_min needs a complete ranking")
    at, lens = _row_spans(matrix.indptr, ranking.order)
    return _lockstep(_union_sizes(matrix.slots, [(lens, matrix.indices[at])]), 1, len(ranking), target)[0]


#: Entry budget of a lockstep block of evaluation draws.  A draw's entries
#: are what the probes hold for it: on the cut path its coins, its candidates'
#: masks and its 2**G subset counts, on the bisection path its slot-level
#: edges, its row pointers (one per candidate) and its slots (the union's
#: columns).  Each method bounds them per draw from the model alone (on the
#: bisection path, by the edges of a draw that wins every coin), and a block
#: is ceil(budget / bound) consecutive draws: one at least, and fewer entries
#: than the budget plus one bound.
_BLOCK_ENTRIES = 2**18


def _lockstep(sizes, draws: int, n: int, target: int) -> list[int | None]:
    """Smallest prefix length of each of `draws` draws whose size reaches
    `target`, or None when not even the whole candidate set's does: a
    bisection of every draw at once.  ``sizes(d, k)`` measures, in one probe,
    the prefix of length ``k[i]`` of draw ``d[i]`` for every i, and a draw's
    prefix size never falls as the prefix grows."""
    if target == 0:
        return [0] * draws
    kmin = np.full(draws, -1, dtype=np.int64)  # -1: unfillable
    d = np.arange(draws)
    if target <= n:
        # Fewer than `target` candidates cannot fill `target` slots, so a draw
        # whose prefix of length `target` fills them is settled by one probe.
        short = sizes(d, np.full(draws, target)) < target
        kmin[d[~short]] = target
        d = d[short]
        if target < n and d.size:
            # The whole candidate set settles reachability.
            d = d[sizes(d, np.full(d.size, n)) >= target]
            # Invariant: prefix `lo` of a draw falls short of `target`,
            # prefix `hi` reaches it.
            lo, hi = np.full(d.size, target), np.full(d.size, n)
            while (step := np.flatnonzero(hi - lo > 1)).size:
                mid = (lo[step] + hi[step]) // 2
                fills = sizes(d[step], mid) >= target
                hi[step[fills]] = mid[fills]
                lo[step[~fills]] = mid[~fills]
            kmin[d] = hi
    return [None if k < 0 else k for k in kmin.tolist()]


def _prefix_positions(d: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """Flat positions, in a draw-major array of `n` entries per draw, of the
    first ``k[i]`` entries of draw ``d[i]``, for every i in turn."""
    width = int(k.max())
    cols = np.arange(width)
    return (d[:, None] * n + cols)[cols < k[:, None]]


def _cut_sizes(cap: np.ndarray, masks: np.ndarray):
    """The lockstep probe on the cut form.  `cap` holds the slot count of
    every bin subset, indexed by its bit mask, and `masks` each draw's
    candidate bin masks in rank order (draws x candidates)."""
    groups = cap.size.bit_length() - 1
    n, flat = masks.shape[1], masks.ravel()
    ctype = _cut_dtype(n, int(cap[-1]))
    cap = cap.astype(ctype)[:, None]

    def sizes(d: np.ndarray, k: np.ndarray) -> np.ndarray:
        # Key each prefix mask as mask * d.size + its probed draw's place, so
        # that one bincount counts every probed prefix, subset-major.
        keys = flat[_prefix_positions(d, k, n)].astype(np.intp) * d.size
        keys += np.repeat(np.arange(d.size), k)
        within = np.bincount(keys, minlength=d.size << groups).astype(ctype)
        for g in range(groups):
            # Add each subset without bin g into the same subset with it: one
            # run of 2**g subsets of every draw's counts into the next.
            pairs = within.reshape(-1, 2, d.size << g)
            pairs[:, 1] += pairs[:, 0]
        # The least cut of each draw, in two stages of about 2**(groups / 2)
        # rows each: a reduction along the first axis pays for every row.
        cut = (cap - within.reshape(-1, d.size)).reshape(1 << groups // 2, -1)
        return cut.min(axis=0).reshape(-1, d.size).min(axis=0) + k

    return sizes


def _union_sizes(slots: int, block: list[tuple[np.ndarray, np.ndarray]]):
    """The lockstep probe on slot-level draws, each given by its rows in rank
    order: their lengths and their slots.  The draws are stacked as one
    disjoint union: draw j's rows come j-th and its slots become the columns
    ``[j * slots, (j + 1) * slots)``, so one Hopcroft–Karp solve on the
    probed prefix rows measures every probed draw."""
    n = block[0][0].size
    indptr = np.zeros(len(block) * n + 1, dtype=np.int64)
    np.cumsum(np.concatenate([lens for lens, _ in block]), out=indptr[1:])
    if len(block) == 1:
        indices = block[0][1]  # a lone draw is its own union: no copy
    else:
        indices = np.concatenate([cols + j * slots for j, (_, cols) in enumerate(block)])

    def sizes(d: np.ndarray, k: np.ndarray) -> np.ndarray:
        if d.size == 1:
            # One draw's prefix is a run of consecutive rows: solve a view.
            rows = indptr[d[0] * n : d[0] * n + k[0] + 1]
            part = (rows - rows[0], indices[rows[0] : rows[-1]])
            return _matching_sizes(*part, slots, len(block))[d]
        pool = _prefix_positions(d, k, n)
        return _matching_sizes(indptr, indices, slots, len(block), pool)[d]

    return sizes


#: Most bins (groups of a group model, slots of an independent one) of a model
#: evaluated in the cut form (2**bins per draw and probe): 0.8 ms a draw on
#: 10,000 candidates x 12 groups x 50 slots, 19 ms by bisection; 0.3 ms a draw
#: on 5,000 candidates x 12 independent slots (30% stored), 0.6 ms by bisection.
#:
#: The limit is a bin count, but past it the bin count alone does not say
#: which probe wins: the cut form's cost grows with 2**bins, the bisection's
#: with the slots each bin expands to.  20 draws of a lazy-greedy ranking
#: from 50 samples, best of 5 on a 2-core host (Python 3.11); the independent
#: model stores 30% of its entries, each a probability in [0.1, 0.9]:
#:
#:   candidates x bins x slots per bin      cut form   bisection
#:   2,000 x 13 x 50                        0.010 s    0.443 s
#:   2,000 x 14 x 50                        0.019 s    0.483 s
#:   10,000 x 13 x 50                       0.021 s    0.416 s
#:   2,000 x 16 x 20                        0.119 s    0.074 s
#:   2,000 x 13 x 5                         0.009 s    0.018 s
#:   2,000 x 16 independent slots, 30%      0.015 s    0.006 s
#:
#: So the cut form wins past 12 on wide bins and, at 13 groups, on bins of 5
#: slots too, while 2**16 subsets lose to the bisection on bins of 20 slots
#: or of one; a limit that weighed bin width would have to be measured on
#: both sides before it replaced this one.
MAX_CUT_FORM_GROUPS = 12


def kmin_method(model: ProbabilityModel) -> str:
    """How evaluation finds ``k_min`` on draws of `model` (see the module
    docstring): ``"cut"`` up to :data:`MAX_CUT_FORM_GROUPS` bins, else ``"bisection"``."""
    return "cut" if model.bins.group_count <= MAX_CUT_FORM_GROUPS else "bisection"


def _kmin_chunk(
    model: ProbabilityModel, order: np.ndarray, eval_seed: int, lo: int, hi: int
) -> list[int | None]:
    """k_min of draws [lo, hi) — the process-pool work unit.  The draws are
    searched in lockstep blocks of as many draws as :data:`_BLOCK_ENTRIES`
    holds of the method's per-draw bound, rounded up."""
    if kmin_method(model) == "cut":
        cap = model.bins.subset_slots
        bound = model.coin_probs.size + order.size + cap.size

        def probe(coins):
            return _cut_sizes(cap, _coin_masks(model, coins)[:, order])
    else:
        # The model with its candidates in rank order: a draw's coins taken
        # at `at` are that model's draw, whose rows come out ranked.
        at, lens = _row_spans(model.coin_ptr, order)
        ranked_coins = np.append(0, np.cumsum(lens)), model.coin_bins[at], model.coin_probs[at]
        ranked = ProbabilityModel(model.kind, model.bins, *map(_owned, ranked_coins))
        # A draw that wins every coin has the most edges.
        bound = int(model.bins.group_sizes[model.coin_bins].sum()) + order.size + model.slots

        def probe(coins):
            rows = (_coin_slots(ranked, won[at]) for won in coins)
            return _union_sizes(model.slots, [(np.diff(indptr), cols) for indptr, cols in rows])
    size = -(-_BLOCK_ENTRIES // bound)
    out: list[int | None] = []
    for start in range(lo, hi, size):
        coins = _draw_block(model, eval_seed, PURPOSE_EVAL, start, min(start + size, hi))
        out += _lockstep(probe(coins), len(coins), order.size, model.slots)
    return out


def _draw_chunks(draws: int, threads: int) -> list[tuple[int, int]]:
    """Consecutive draw ranges [lo, hi), one per worker process: as many as
    `threads` asks for, but no more than there are draws or CPUs."""
    workers = min(threads, draws, os.cpu_count() or 1)
    bounds = np.linspace(0, draws, workers + 1, dtype=int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _per_draw_kmins(
    model: ProbabilityModel,
    order: np.ndarray,
    draws: int,
    eval_seed: int,
    threads: int,
) -> list[int | None]:
    chunks = _draw_chunks(draws, threads)
    if len(chunks) == 1:
        return _chunk_result(lambda: _kmin_chunk(model, order, eval_seed, 0, draws), 0, draws)
    out: list[int | None] = []
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(_kmin_chunk, model, order, eval_seed, lo, hi) for lo, hi in chunks]
        # Reduce in submission order: the draw index alone determines each
        # result, so the thread count can never change the output.
        for (lo, hi), f in zip(chunks, futures):
            out.extend(_chunk_result(f.result, lo, hi))
    return out


def _chunk_result(run, lo: int, hi: int) -> list[int | None]:
    """`run()`, the k_min values of draws [lo, hi).  A data error passes
    through; any other failure becomes a ContractError naming the draws,
    chained to the original, which keeps its traceback (a worker's included)."""
    try:
        return run()
    except InputError:
        raise
    except Exception as e:
        raise ContractError(f"evaluation of draws [{lo}, {hi}) failed: {e!r}") from e


def require_slots(model: ProbabilityModel, verb: str = "evaluate"):
    """Refuse a model without slots, whose rankings cannot be evaluated:
    k_min is reported over the slot count."""
    if model.slots == 0:
        raise InputError(f"cannot {verb} a model without slots")


def evaluate_ranking(
    ranking: Ranking,
    model: ProbabilityModel,
    draws: int,
    eval_seed: int,
    threads: int = 1,
    *,
    algorithm: str,
    n_samples: int,
    sample_seed: int,
    config: dict | None = None,
) -> EvalReport:
    """Measure k_min of an existing ranking on fresh draws from `model`.

    The ranking must be a complete permutation of the model's candidates;
    otherwise a draw that the full candidate set could fill would be
    indistinguishable from a truly unfillable one.  `threads` only
    distributes the evaluation draws; it cannot affect any reported number.
    The keyword fields describe how the ranking was produced and are echoed
    into the report.
    """
    draws = _as_count(draws, "draws")
    if draws < 1:
        raise InputError("need at least one evaluation draw")
    threads = _as_count(threads, "threads")
    if threads < 1:
        raise InputError(f"threads must be at least 1, got {threads}")
    require_slots(model)
    if not ranking.is_complete(model.candidates):
        raise InputError(
            f"ranking dimensions do not match the model "
            f"(a permutation of {model.candidates} candidates is required)"
        )
    kmins = _per_draw_kmins(model, ranking.order, draws, eval_seed, threads)
    normalized = [k / model.slots for k in kmins if k is not None]
    unfillable = sum(1 for k in kmins if k is None)
    if unfillable:
        warnings.warn(
            f"{unfillable} of {draws} evaluation draws cannot fill all "
            f"{model.slots} slots; they are excluded from the summary",
            stacklevel=2,
        )
    return EvalReport(
        algorithm=algorithm,
        candidates=model.candidates,
        slots=model.slots,
        n_samples=n_samples,
        sample_seed=sample_seed,
        draws=draws,
        eval_seed=eval_seed,
        per_draw_kmin=tuple(kmins),
        normalized_mean=float(np.mean(normalized)) if normalized else None,
        normalized_std=float(np.std(normalized)) if normalized else None,
        unfillable_count=unfillable,
        config=config if config is not None else {},
    )


def evaluate(
    cfg: RankerConfig,
    model: ProbabilityModel,
    n_samples: int,
    sample_seed: int,
    draws: int,
    eval_seed: int,
    sample_model: ProbabilityModel | None = None,
    threads: int = 1,
    stats: RankerStats | None = None,
    config_extra: dict | None = None,
) -> EvalReport:
    """Rank from sampled matrices, then measure k_min on fresh draws.

    The ranker sees samples from `sample_model` when given (a deliberately
    wrong model, say), while evaluation draws always come from `model`.
    """
    require_slots(model)
    if cfg.stop_at is not None:
        raise InputError("evaluation needs complete rankings; unset stop_at")
    ranking_source = sample_model if sample_model is not None else model
    if (ranking_source.candidates, ranking_source.slots) != (model.candidates, model.slots):
        raise InputError("sample_model dimensions must match the evaluation model")
    samples = sample_relevances(ranking_source, n_samples, sample_seed)
    ranking = rank(samples, cfg, stats=stats)
    config = {
        "algorithm": cfg.algorithm,
        "tie_break": TIE_BREAK,
        "seed": cfg.seed,
        "stop_at": cfg.stop_at,
        "misspecified_sampling": sample_model is not None,
    }
    if config_extra:
        config.update(config_extra)
    return evaluate_ranking(
        ranking,
        model,
        draws,
        eval_seed,
        threads,
        algorithm=cfg.algorithm,
        n_samples=n_samples,
        sample_seed=sample_seed,
        config=config,
    )


def misspecification_run(
    base_params,
    assumed_p_bases,
    cfg: RankerConfig,
    n_samples: int,
    sample_seed: int,
    draws: int,
    eval_seed: int,
    threads: int = 1,
) -> list[EvalReport]:
    """Evaluate rankings built under assumed base rates against the true model.

    `base_params` defines the true generator.  For each assumed base rate a
    model is built with the *same* seed — sharing memberships and noise, so
    the only difference is the success-rate level — and its samples drive the
    ranking, while evaluation draws always come from the true model.
    """
    true_model = build_synthetic_model(base_params)
    reports = []
    for p_base in assumed_p_bases:
        assumed = None
        if p_base != base_params.p_base:
            assumed = build_synthetic_model(replace(base_params, p_base=p_base))
        reports.append(
            evaluate(
                cfg,
                true_model,
                n_samples,
                sample_seed,
                draws,
                eval_seed,
                sample_model=assumed,
                threads=threads,
                config_extra={
                    "assumed_p_base": p_base,
                    "true_p_base": base_params.p_base,
                },
            )
        )
    return reports
