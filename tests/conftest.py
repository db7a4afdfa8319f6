import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from matchrank.core import InputError, ProbabilityModel, RelevanceMatrix, SampleSet, SlotLayout
from matchrank.synthgen import sample_relevances


def random_relevance(rng: np.random.Generator, c: int, s: int, density: float) -> RelevanceMatrix:
    return RelevanceMatrix.from_dense(rng.random((c, s)) < density)


def edge_set(matrix: RelevanceMatrix) -> set[tuple[int, int]]:
    """The (candidate, slot) pairs of `matrix`."""
    return set(zip(matrix.row_ids().tolist(), matrix.indices.tolist()))


def random_sampleset(
    rng: np.random.Generator, c: int, s: int, n: int, density: float, seed: int = 0
) -> SampleSet:
    return SampleSet(tuple(random_relevance(rng, c, s, density) for _ in range(n)), seed)


def random_group_samples(rng: np.random.Generator, groups: int, n: int | None = None) -> SampleSet:
    """`n` samples (default: 1 to 6) of a random group model: zero-slot
    groups, near-certain and near-impossible memberships, and slot counts
    that leave some samples saturated (more able candidates than slots) and
    some unfillable."""
    c = int(rng.integers(1, 21))
    layout = SlotLayout(tuple(int(k) for k in rng.integers(0, 4, size=groups)))
    k = int(rng.integers(1, groups + 1))
    membership = np.sort(np.argsort(rng.random((c, groups)), axis=1)[:, :k], axis=1)
    group_prob = rng.choice([0.02, 0.3, 0.6, 0.98], size=(c, k))
    model = ProbabilityModel.group_structured(layout, membership, group_prob)
    n = int(rng.integers(1, 7)) if n is None else n
    return sample_relevances(model, n, int(rng.integers(0, 1000)))


def read_samples(path) -> SampleSet:
    """Read a sample file of ``matchrank sample`` (`write_samples`) back."""
    try:
        lines = Path(path).read_text().splitlines()
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    if not lines:
        raise InputError(f"{path}: empty file")
    try:
        n, c, s, seed = (int(x) for x in lines[0].split())
    except ValueError:
        raise InputError(f"{path}:1: header must be 'n candidates slots seed'")
    pos = 1
    mats = []
    for i in range(n):
        if pos >= len(lines):
            raise InputError(f"{path}: truncated before sample {i}")
        parts = lines[pos].split()
        if len(parts) != 3 or parts[0] != "sample" or int(parts[1]) != i:
            raise InputError(f"{path}:{pos + 1}: expected 'sample {i} <edges>'")
        edges = int(parts[2])
        pos += 1
        pairs = []
        for j in range(edges):
            try:
                a, t = (int(x) for x in lines[pos + j].split())
            except (ValueError, IndexError):
                raise InputError(f"{path}:{pos + j + 1}: expected 'candidate slot'")
            pairs.append((a, t))
        pos += edges
        try:
            mats.append(RelevanceMatrix.from_edges(c, s, pairs))
        except InputError as e:
            raise InputError(f"{path}: sample {i}: {e}")
    return SampleSet(tuple(mats), seed)


@pytest.fixture
def os_open_calls(monkeypatch) -> list[tuple[str, int]]:
    """The path and flags of every ``os.open`` call made while the test runs."""
    calls = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        calls.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    return calls


@pytest.fixture
def toy_instance() -> RelevanceMatrix:
    """Five candidates, three slots; maximum matching size 3.

    Candidate 2 bridges slots 0 and 1, candidate 4 is isolated.
    """
    return RelevanceMatrix.from_edges(
        5, 3, [(0, 0), (1, 1), (2, 0), (2, 1), (3, 2)]
    )
