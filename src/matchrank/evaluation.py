"""Evaluation: how deep into a ranking must one go to fill every slot?

For one realized relevance matrix, ``k_min`` is the smallest prefix length
whose maximum matching covers all slots; dividing by the slot count gives the
normalized depth (1.0 is perfect).  A draw whose full candidate set cannot
fill the slots has no ``k_min`` — such draws are reported and excluded from
the mean/deviation.

Prefix matching size never falls as the prefix grows, so ``k_min`` is found
by bisection over prefix lengths.  :func:`kmin_method` picks how a probe
measures a prefix, and ``_kmin_chunk`` dispatches on it for every draw:

* ``"cut"``, for a group model of at most
  :data:`~matchrank.core.MAX_CUT_CLASSES` groups: a draw is one group mask
  per candidate (:func:`~matchrank.synthgen.draw_group_masks`), never
  expanded to slots.  By max-flow min-cut, the matching size of a prefix of
  length k is the minimum over group subsets U of cap(U) + k - F(U), where
  cap(U) counts the slots of U and F(U) the prefix candidates whose mask
  lies within U: one bincount of the prefix masks and a subset-sum (zeta)
  transform over the 2**G subsets (Björklund, Husfeldt, Kaski and Koivisto,
  "Fourier meets Möbius", STOC 2007);
* ``"bisection"``, for every other model: each probe is a fresh
  Hopcroft–Karp solve (:func:`~matchrank.matching.max_matching_size`) on the
  slot-level draw of :func:`~matchrank.synthgen.draw_relevance`.  This path,
  and :func:`k_min` on any matrix, are the oracle the cut form is tested
  against.

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
    MAX_CUT_CLASSES,
    PURPOSE_EVAL,
    ProbabilityModel,
    Ranking,
    RelevanceMatrix,
    _as_count,
    substream,
)
from .matching import _matching_size
from .ranker import TIE_BREAK, RankerConfig, RankerStats, rank
from .synthgen import (
    build_synthetic_model,
    draw_group_masks,
    draw_relevance,
    sample_relevances,
)

__all__ = [
    "EvalReport",
    "k_min",
    "kmin_method",
    "evaluate",
    "evaluate_ranking",
    "misspecification_run",
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
        if len(self.per_draw_kmin) != self.draws:
            raise InputError("per_draw_kmin must have one entry per draw")

    def normalized_kmins(self) -> list[float]:
        return [k / self.slots for k in self.per_draw_kmin if k is not None]


def k_min(ranking: Ranking, matrix: RelevanceMatrix, target: int | None = None) -> int | None:
    """Smallest prefix length of `ranking` that fills `target` slots.

    `target` defaults to all slots of `matrix`.  Returns ``None`` when even
    the full ranking cannot reach the target, which requires the ranking to
    cover every candidate — otherwise "unfillable" would be ambiguous.
    """
    _check_ranking_ids(ranking, matrix)
    target = matrix.slots if target is None else _as_count(target, "target")
    if not 0 <= target <= matrix.slots:
        raise InputError(f"target must lie in [0, {matrix.slots}]")
    if not ranking.is_complete(matrix.candidates):
        raise InputError("k_min needs a complete ranking")
    return _kmin_bisect(matrix, ranking.order, target)


def _check_ranking_ids(ranking: Ranking, matrix: RelevanceMatrix):
    if len(ranking) and int(ranking.order.max()) >= matrix.candidates:
        raise InputError("ranking refers to candidates outside the matrix")


def _kmin_bisect(matrix: RelevanceMatrix, order: np.ndarray, target: int) -> int | None:
    # `order` is a validated permutation, so its prefixes skip the pool checks.
    return _bisect(lambda k: _matching_size(matrix, order[:k]), len(order), target)


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


def kmin_method(model: ProbabilityModel) -> str:
    """How evaluation finds ``k_min`` on draws of `model`: ``"cut"`` for a
    group model of at most :data:`~matchrank.core.MAX_CUT_CLASSES` groups,
    ``"bisection"`` otherwise (see the module docstring)."""
    return "cut" if model.layout and model.layout.group_count <= MAX_CUT_CLASSES else "bisection"


def _kmin_chunk(
    model: ProbabilityModel, order: np.ndarray, eval_seed: int, lo: int, hi: int
) -> list[int | None]:
    """k_min of draws [lo, hi) — the process-pool work unit."""
    target = model.slots
    rngs = (substream(eval_seed, PURPOSE_EVAL, i) for i in range(lo, hi))
    if kmin_method(model) == "cut":
        cap = model.layout.subset_slots
        return [_kmin_cut(cap, draw_group_masks(model, rng), order, target) for rng in rngs]
    return [_kmin_bisect(draw_relevance(model, rng), order, target) for rng in rngs]


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
