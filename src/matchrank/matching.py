"""Maximum bipartite matching: one fresh solve per pool.

:func:`max_matching_size` solves one pool from scratch (Hopcroft–Karp via
scipy); ``k_min`` bisection on slot-level draws probes each prefix with one
such solve.  The greedy kernels in :mod:`matchrank.ranker` keep their own
matchings and do not call it.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_bipartite_matching

from .core import InputError, RelevanceMatrix, UNMATCHED, _as_int_array, _row_positions

__all__ = ["max_matching_size"]


def max_matching_size(matrix: RelevanceMatrix, pool=None) -> int:
    """Exact maximum matching size between `pool` (default: all candidates)
    and the slots of `matrix`.  Hopcroft–Karp via scipy."""
    if pool is not None:
        pool = _as_int_array(pool, np.int64, "pool").ravel()
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
        indices = matrix.indices[_row_positions(matrix.indptr, pool)]
        rows = pool.size
    if indices.size == 0 or matrix.slots == 0:
        return 0
    m = sp.csr_matrix(
        (np.ones(indices.size, dtype=np.int8), indices, indptr),
        shape=(rows, matrix.slots),
    )
    match = maximum_bipartite_matching(m, perm_type="column")
    return int(np.count_nonzero(match != UNMATCHED))
