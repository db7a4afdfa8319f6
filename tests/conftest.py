import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from matchrank.core import (
    InputError,
    ProbabilityModel,
    RelevanceMatrix,
    SampleSet,
    SlotLayout,
)
from matchrank.core import _coin_masks
from matchrank.fileio import FORMAT_VERSION, REPORT_FORMAT
from matchrank.synthgen import _draw_coins, sample_relevances


#: ``pytest --hypothesis-profile thorough`` runs the property tests sized
#: by :func:`examples` at 1,000 examples each.
settings.register_profile("thorough", max_examples=1000)


def examples(n: int) -> int:
    """`n` examples, or the thorough profile's count while it is loaded."""
    thorough = settings.get_profile("thorough")
    return thorough.max_examples if settings.default is thorough else n


def draw_masks(model: ProbabilityModel, rng: np.random.Generator) -> np.ndarray:
    """The bin masks of the draw ``draw_relevance(model, rng)`` makes, from
    the same coins (uint16; bins without slots set no bit)."""
    return _coin_masks(model, _draw_coins(model, rng))


def coin_view(model) -> bytes:
    """Every array of a model's coins, to compare two models by."""
    return model.coin_ptr.tobytes() + model.coin_bins.tobytes() + model.coin_probs.tobytes()


def coin_candidates(model) -> np.ndarray:
    """The candidate of every coin."""
    return np.repeat(np.arange(model.candidates), np.diff(model.coin_ptr))


def write_triplets(model, path):
    """Write an independent model as a triplet file (`read_prob_triplets`'s
    format): one line per coin, its slot being its bin."""
    coins = zip(coin_candidates(model).tolist(), model.coin_bins.tolist(), model.coin_probs.tolist())
    lines = [f"{model.candidates} {model.slots} {model.coin_probs.size}"]
    lines += [f"{a} {t} {p!r}" for a, t, p in coins]
    Path(path).write_text("\n".join(lines) + "\n")


def report_file(path, **changes):
    """Write a report file of 3 draws over 6 candidates and 2 slots, the
    last draw unfillable, with `changes` to its fields, and return its path."""
    obj = {
        "format": REPORT_FORMAT, "version": FORMAT_VERSION, "algorithm": "ntr",
        "candidates": 6, "slots": 2, "n_samples": 4, "sample_seed": 1,
        "draws": 3, "eval_seed": 2, "per_draw_kmin": [2, 4, None],
        "normalized_mean": 1.5, "normalized_std": 0.5, "unfillable_count": 1,
        "config": {},
    }
    Path(path).write_text(json.dumps({**obj, **changes}))
    return path


#: Changes that make `report_file`'s report contradict itself, each with a
#: fragment of the refusal.
CONTRADICTORY_REPORTS = {
    "negative k_min": ({"per_draw_kmin": [-1, 4, None]}, "k_min must be null or an integer in [2, 6]"),
    "k_min beyond the candidates": ({"per_draw_kmin": [10**9, 4, None]}, "in [2, 6]"),
    "k_min below the slots": ({"per_draw_kmin": [1, 4, None]}, "in [2, 6]"),
    "unfillable_count below the nulls": (
        {"per_draw_kmin": [None] * 3, "unfillable_count": 0, "normalized_mean": None, "normalized_std": None},
        "unfillable_count must count the null k_min entries",
    ),
    "no draws": (
        {"draws": 0, "per_draw_kmin": [], "unfillable_count": 0, "normalized_mean": None, "normalized_std": None},
        "at least one draw and one slot",
    ),
    "no slots": ({"slots": 0}, "at least one draw and one slot"),
    "no samples": ({"n_samples": 0}, "n_samples must be at least 1"),
    "negative sample seed": ({"sample_seed": -1}, "seed must be non-negative"),
    "negative eval seed": ({"eval_seed": -7}, "seed must be non-negative"),
    "a mean of no fillable draw": (
        {"per_draw_kmin": [None] * 3, "unfillable_count": 3, "normalized_std": None},
        "null exactly when no draw is fillable",
    ),
    "no mean beside fillable draws": ({"normalized_mean": None}, "null exactly when no draw is fillable"),
}


def relevance_matrix(c: int, s: int, edges) -> RelevanceMatrix:
    """The c x s relevance matrix of the (candidate, slot) pairs `edges`;
    duplicates collapse to one edge.  The constructor refuses an id out of
    range: a candidate's, through the row pointers' endpoints."""
    pairs = sorted({(int(a), int(t)) for a, t in edges})
    rows = np.array([a for a, _ in pairs], dtype=np.int64)
    slots = np.array([t for _, t in pairs], dtype=np.int64)
    return RelevanceMatrix(c, s, np.searchsorted(rows, np.arange(c + 1)), slots)


def random_relevance(rng: np.random.Generator, c: int, s: int, density: float) -> RelevanceMatrix:
    return relevance_matrix(c, s, zip(*np.nonzero(rng.random((c, s)) < density)))


def edge_set(matrix: RelevanceMatrix) -> set[tuple[int, int]]:
    """The (candidate, slot) pairs of `matrix`."""
    return set(zip(matrix.row_ids().tolist(), matrix.indices.tolist()))


def sample_set(rows, seed: int = 0) -> SampleSet:
    """The sample set whose samples are the slot-level matrices `rows` (at
    least one, of equal dimensions): the coins of an independent model whose
    support is the union of the rows, each entry at its frequency in them."""
    rows = tuple(rows)
    c, s = rows[0].candidates, rows[0].slots
    if any((m.candidates, m.slots) != (c, s) for m in rows):
        raise InputError("all samples must share dimensions")
    keys = [m.row_ids().astype(np.int64) * s + m.indices for m in rows]
    support, counts = np.unique(np.concatenate(keys), return_counts=True)
    cands, slots = np.divmod(support, max(s, 1))
    indptr = np.zeros(c + 1, dtype=np.int64)
    np.cumsum(np.bincount(cands, minlength=c), out=indptr[1:])
    model = ProbabilityModel.independent(s, indptr, slots.astype(np.int32), counts / len(rows))
    coins = np.array([np.isin(support, k) for k in keys]).reshape(len(rows), support.size)
    return SampleSet(model, coins, seed)


def random_sampleset(
    rng: np.random.Generator, c: int, s: int, n: int, density: float, seed: int = 0
) -> SampleSet:
    return sample_set((random_relevance(rng, c, s, density) for _ in range(n)), seed)


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


def random_independent_samples(rng: np.random.Generator, slots: int, n: int | None = None) -> SampleSet:
    """`n` samples (default: 1 to 6) of a random independent model of `slots`
    slots: empty rows and columns, near-impossible and sure entries."""
    c = int(rng.integers(1, 21))
    dense = rng.choice([0.02, 0.3, 0.6, 1.0], size=(c, slots))
    dense[rng.random((c, slots)) < rng.choice([0.2, 0.5, 0.9])] = 0.0
    model = ProbabilityModel.from_dense(dense)
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
            mats.append(relevance_matrix(c, s, pairs))
        except InputError as e:
            raise InputError(f"{path}: sample {i}: {e}")
    return sample_set(mats, seed)


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
    return relevance_matrix(5, 3, [(0, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
