"""Synthetic model construction and relevance sampling.

The group-structured generator assigns each candidate a few groups uniformly
at random and gives each (candidate, group) pair a success probability drawn
from a Gaussian whose mean rises linearly with the group id — later groups
are systematically easier.  Probabilities are drawn once, at model
construction; sampling a relevance matrix afterwards only flips the
per-(candidate, group) coins.  Every model is sampled alike, by its coins
(:class:`~matchrank.core.ProbabilityModel`), and a sample set keeps them.

Keeping the probability draw inside the model (and keyed off the model seed
alone) means two models built with the same seed but different base rates
share memberships and noise exactly — which is what a controlled
misspecification comparison needs.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .core import (
    InputError,
    PROB_CLIP,
    PURPOSE_MODEL,
    PURPOSE_SAMPLE,
    ProbabilityModel,
    RelevanceMatrix,
    SampleSet,
    SlotLayout,
    _as_count,
    _coin_rows,
    _owned,
    _require_memory,
    substream,
)

__all__ = [
    "SynthParams",
    "build_synthetic_model",
    "draw_relevance",
    "sample_relevances",
    "two_block_model",
    "model_metadata",
]

#: Standard deviation of the per-(candidate, group) probability noise.
GAUSSIAN_STD = 0.1
#: Increment of the mean probability per group id (groups count from 1 here).
GROUP_SLOPE = 0.03


@dataclass(frozen=True)
class SynthParams:
    """Knobs of the group-structured generator.

    The noise scale, the per-group slope, and the clipping range are part of
    the generator's definition and are not configurable.
    """

    groups: int = 10
    slots_per_group: int = 50
    candidates: int = 10_000
    memberships: int = 2
    p_base: float = 0.3
    seed: int = 0

    gaussian_std = GAUSSIAN_STD
    group_slope = GROUP_SLOPE
    clip_range = PROB_CLIP

    def __post_init__(self):
        for name in ("groups", "slots_per_group", "candidates", "memberships", "seed"):
            object.__setattr__(self, name, _as_count(getattr(self, name), name))
        if isinstance(self.p_base, bool) or not isinstance(self.p_base, Real):
            raise InputError(f"p_base must be a real number, got {self.p_base!r}")
        if self.seed < 0:
            raise InputError("seed must be non-negative")
        if self.groups < 1 or self.slots_per_group < 1 or self.candidates < 1:
            raise InputError("groups, slots_per_group and candidates must be positive")
        if self.memberships < 1:
            raise InputError("memberships must be positive")
        if self.memberships > self.groups:
            raise InputError("memberships exceed groups")
        if not 0.0 < self.p_base < 1.0:
            raise InputError("p_base must lie strictly inside (0, 1)")


def build_synthetic_model(params: SynthParams) -> ProbabilityModel:
    """Construct the group-structured model for `params`.

    Membership is a uniform draw of `memberships` distinct groups per
    candidate (via ranking one uniform key per group).  Success probabilities
    are ``N(p_base + slope * group_id, std)`` with 1-based group ids, clipped
    into the closed range `clip_range`.

    The draw order (membership keys first, then noise) is fixed, and the
    noise does not depend on `p_base`, so models that differ only in
    `p_base` share memberships and noise realizations.
    """
    rng = substream(params.seed, PURPOSE_MODEL)
    c, g, a = params.candidates, params.groups, params.memberships
    keys = rng.random((c, g))
    membership = np.sort(np.argsort(keys, axis=1)[:, :a], axis=1).astype(np.int32)
    noise = rng.normal(0.0, params.gaussian_std, size=(c, a))
    means = params.p_base + params.group_slope * (membership + 1)
    group_prob = np.clip(means + noise, *params.clip_range)
    layout = SlotLayout.uniform(g, params.slots_per_group)
    return ProbabilityModel.group_structured(layout, _owned(membership), _owned(group_prob))


def draw_relevance(model: ProbabilityModel, rng: np.random.Generator) -> RelevanceMatrix:
    """Draw one relevance matrix from `model` using `rng`.

    Group models flip one coin per (candidate, group) membership; a success
    makes the candidate relevant to every slot of that group.  Independent
    models flip one coin per stored (candidate, slot) probability.
    """
    return _coin_rows(model, _draw_coins(model, rng))


def _draw_coins(model: ProbabilityModel, rng: np.random.Generator) -> np.ndarray:
    """One coin per coin of `model`: True where the candidate won it.  This
    is all of a draw's randomness."""
    return rng.random(model.coin_probs.size) < model.coin_probs


def sample_relevances(model: ProbabilityModel, n: int, seed: int) -> SampleSet:
    """Draw `n` i.i.d. relevance matrices, as their coins
    (:class:`~matchrank.core.SampleSet`).

    Sample i comes from the sub-stream (sample, i) of `seed`, so any sample
    can be regenerated alone and the set is independent of iteration order.
    The set holds exactly n bytes per coin of the model, and is refused
    before anything is drawn when the process cannot have that much memory.
    """
    n = _as_count(n, "n")
    if n < 1:
        raise InputError("need at least one sample")
    size = model.coin_probs.size
    _require_memory(n * size, f"{n} samples of {size} coins")
    return SampleSet(model, _owned(_draw_block(model, seed, PURPOSE_SAMPLE, 0, n)), seed)


def _draw_block(model: ProbabilityModel, seed: int, purpose: int, lo: int, hi: int) -> np.ndarray:
    """Draws [lo, hi) of `model` from the sub-streams (`purpose`, i) of
    `seed`, as one (draws, coins) array: row j holds draw lo + j's coins."""
    coins = np.empty((hi - lo, model.coin_probs.size), dtype=bool)
    for i, won in enumerate(coins, lo):
        won[:] = _draw_coins(model, substream(seed, purpose, i))
    return coins


def two_block_model(
    candidates: int = 1000,
    slots: int = 10,
    p_first: float = 0.5,
    p_second: float = 0.4,
) -> ProbabilityModel:
    """Two-population benchmark: the first half of the candidates sees the
    first half of the slots with probability `p_first`, the second half sees
    the rest with `p_second`; entries are independent coins."""
    candidates, slots = _as_count(candidates, "candidates"), _as_count(slots, "slots")
    if candidates < 2 or slots < 2:
        raise InputError("need at least two candidates and two slots")
    for p in (p_first, p_second):
        if isinstance(p, bool) or not isinstance(p, Real) or not 0.0 < p <= 1.0:
            raise InputError(f"block probabilities must be real numbers in (0, 1], got {p!r}")
    half_c, half_s = candidates // 2, slots // 2
    dense = np.zeros((candidates, slots))
    dense[:half_c, :half_s] = p_first
    dense[half_c:, half_s:] = p_second
    return ProbabilityModel.from_dense(dense)


def model_metadata(model: ProbabilityModel) -> dict:
    """Realized summary of a model, for report/metadata files."""
    meta: dict = {
        "kind": model.kind,
        "candidates": model.candidates,
        "slots": model.slots,
    }
    probs = model.coin_probs
    if model.kind == "group":
        meta["group_count"] = g = model.bins.group_count
        meta["slots_per_group"] = model.bins.group_sizes.tolist()
        meta["members_per_group"] = np.bincount(model.coin_bins, minlength=g).tolist()
        meta["memberships_per_candidate"] = probs.size // max(model.candidates, 1)
        name = "group_prob"
    else:
        meta["stored_entries"] = probs.size
        name = "prob"
    if probs.size:
        for stat in ("min", "max", "mean"):
            meta[f"{name}_{stat}"] = float(getattr(probs, stat)())
    return meta
