"""Output checks for the benchmark, computed apart from the program.

Matching sizes here come from ``scipy.sparse.csgraph.maximum_bipartite_matching``
called directly on the relevance matrices, never from ``matchrank.matching``,
and competition-normalized relevance is recomputed with plain numpy.  Every
check raises :class:`CheckError` with a message naming what failed.

The functions read only the ``candidates``, ``slots``, ``indptr`` and
``indices`` fields of a relevance matrix, so they accept the program's
``RelevanceMatrix`` and any stand-in with the same fields.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_bipartite_matching


class CheckError(Exception):
    """An output of the program is wrong."""


def as_csr(matrix) -> sp.csr_matrix:
    """Candidate-by-slot 0/1 matrix of one relevance matrix."""
    indices = np.asarray(matrix.indices)
    return sp.csr_matrix(
        (np.ones(indices.size, dtype=np.int8), indices, np.asarray(matrix.indptr)),
        shape=(matrix.candidates, matrix.slots),
    )


def matching_size(csr: sp.csr_matrix, rows) -> int:
    """Maximum matching size between the candidates `rows` and every slot."""
    sub = csr[np.asarray(rows, dtype=np.int64)]
    if sub.nnz == 0:
        return 0
    return int(np.count_nonzero(maximum_bipartite_matching(sub, perm_type="column") >= 0))


def check_permutation(order, candidates: int, label: str):
    order = np.asarray(order)
    if order.shape != (candidates,) or not np.array_equal(
        np.sort(order), np.arange(candidates)
    ):
        raise CheckError(f"{label}: ranking is not a permutation of {candidates} candidates")


def check_kmin(matrix, order, kmin, label: str):
    """`kmin` is the shortest prefix of `order` whose matching fills every slot."""
    if kmin is None:
        raise CheckError(f"{label}: draw is unfillable")
    csr = as_csr(matrix)
    if matching_size(csr, order[:kmin]) != matrix.slots:
        raise CheckError(f"{label}: prefix of length k_min={kmin} does not fill all slots")
    if kmin > 0 and matching_size(csr, order[: kmin - 1]) >= matrix.slots:
        raise CheckError(f"{label}: prefix of length k_min-1={kmin - 1} already fills all slots")


def check_report(normalized_mean, unfillable: int, label: str):
    if unfillable != 0:
        raise CheckError(f"{label}: {unfillable} unfillable draws")
    if normalized_mean is None or not normalized_mean >= 1.0:
        raise CheckError(f"{label}: normalized mean k_min {normalized_mean} is below 1")


def check_prefix_gain(samples, order, prefix_gain, lengths, label: str):
    """``prefix_gain[k-1]`` is the summed matching size of ``order[:k]`` over `samples`."""
    csrs = [as_csr(m) for m in samples]
    for k in lengths:
        want = sum(matching_size(csr, order[:k]) for csr in csrs)
        if prefix_gain[k - 1] != want:
            raise CheckError(
                f"{label}: prefix_gain at length {k} is {prefix_gain[k - 1]}, "
                f"direct solves give {want}"
            )


def check_gains_nonincreasing(prefix_gain, label: str):
    """Greedy on a monotone submodular objective never gains more than the step before."""
    gains = np.diff(np.concatenate([[0], np.asarray(prefix_gain, dtype=np.int64)]))
    rises = np.flatnonzero(np.diff(gains) > 0)
    if rises.size:
        i = int(rises[0]) + 1
        raise CheckError(f"{label}: greedy gain rises at rank {i + 1} ({gains[i - 1]} -> {gains[i]})")


def check_same_ranking(first, second, label: str):
    same_order = np.array_equal(np.asarray(first.order), np.asarray(second.order))
    if not same_order or first.prefix_gain != second.prefix_gain:
        raise CheckError(f"{label}: rankings differ")


def ntr_scores(samples) -> np.ndarray:
    """Competition-normalized total relevance of every candidate.

    Each slot's empirical frequency column is scaled to sum to one, then each
    candidate's row is summed.  Equivalently, each sampled edge into slot t
    weighs 1 / (edges into t over all samples).
    """
    first = samples[0]
    c, s = first.candidates, first.slots
    per_slot = np.zeros(s, dtype=np.int64)
    for m in samples:
        per_slot += np.bincount(np.asarray(m.indices), minlength=s)
    weight = np.zeros(s)
    np.divide(1.0, per_slot, out=weight, where=per_slot > 0)
    scores = np.zeros(c)
    for m in samples:
        rows = np.repeat(np.arange(c), np.diff(np.asarray(m.indptr)))
        scores += np.bincount(rows, weights=weight[np.asarray(m.indices)], minlength=c)
    return scores


def check_score_order(order, scores, label: str, rel_tol: float = 1e-9):
    """Scores never increase along `order`, up to rounding in their sums."""
    ranked = np.asarray(scores)[np.asarray(order)]
    tol = rel_tol * max(1.0, float(np.max(np.abs(ranked))) if ranked.size else 1.0)
    rises = np.flatnonzero(np.diff(ranked) > tol)
    if rises.size:
        i = int(rises[0])
        raise CheckError(
            f"{label}: score rises from rank {i + 1} to {i + 2} "
            f"({ranked[i]!r} -> {ranked[i + 1]!r})"
        )
