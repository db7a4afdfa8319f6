import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from matchrank.core import RelevanceMatrix, SampleSet


def random_relevance(rng: np.random.Generator, c: int, s: int, density: float) -> RelevanceMatrix:
    return RelevanceMatrix.from_dense(rng.random((c, s)) < density)


def edge_set(matrix: RelevanceMatrix) -> set[tuple[int, int]]:
    """The (candidate, slot) pairs of `matrix`."""
    return set(zip(matrix.row_ids().tolist(), matrix.indices.tolist()))


def random_sampleset(
    rng: np.random.Generator, c: int, s: int, n: int, density: float, seed: int = 0
) -> SampleSet:
    return SampleSet(tuple(random_relevance(rng, c, s, density) for _ in range(n)), seed)


@pytest.fixture
def toy_instance() -> RelevanceMatrix:
    """Five candidates, three slots; maximum matching size 3.

    Candidate 2 bridges slots 0 and 1, candidate 4 is isolated.
    """
    return RelevanceMatrix.from_edges(
        5, 3, [(0, 0), (1, 1), (2, 0), (2, 1), (3, 2)]
    )
