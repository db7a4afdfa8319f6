"""Maximum bipartite matching: one fresh solve per pool.

:func:`max_matching_size` solves one pool from scratch (Hopcroft–Karp via
scipy).  It is the one-draw case of ``_matching_sizes``, which solves many
draws at once as one disjoint union: ``k_min`` evaluation on slot-level draws
probes the prefixes of a block of draws with one such solve per step.  The
greedy kernels in :mod:`matchrank.ranker` keep their own matchings and do not
call it.
"""
from __future__ import annotations

import numpy as np

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
    return int(_matching_sizes(matrix.indptr, matrix.indices, matrix.slots, 1, pool)[0])


def _matching_sizes(
    indptr: np.ndarray, indices: np.ndarray, slots: int, draws: int, pool: np.ndarray | None = None
) -> np.ndarray:
    """Maximum matching size of each of `draws` draws held as one disjoint
    union in CSR form (`indptr`, `indices`): a row belongs to one draw, and
    draw j owns the columns ``[j * slots, (j + 1) * slots)``.  `pool` selects
    the rows that take part (default: all); the caller guarantees distinct
    in-range ids (1-D, integer).  One Hopcroft–Karp solve on the union
    matches every draw at once, since no edge joins two draws."""
    # Imported here, so a process that never solves does not load scipy.
    import scipy.sparse as sp
    from scipy.sparse.csgraph import maximum_bipartite_matching
    if pool is not None:
        counts = indptr[pool + 1] - indptr[pool]
        indices = indices[_row_positions(indptr, pool)]
        indptr = np.zeros(pool.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
    rows = indptr.size - 1
    if indices.size == 0:
        return np.zeros(draws, dtype=np.int64)
    m = sp.csr_matrix(
        (np.ones(indices.size, dtype=np.int8), indices, indptr),
        shape=(rows, draws * slots),
    )
    # Per row, the column it is matched to: the draw is the column's block.
    match = maximum_bipartite_matching(m, perm_type="column")
    return np.bincount(match[match != UNMATCHED] // slots, minlength=draws)
