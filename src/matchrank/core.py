"""Shared domain types: slot layouts, relevance matrices, probability models,
sample sets, and rankings.

All randomness in the library flows through :func:`substream`, which derives an
independent PCG64 generator from a user seed plus a structured spawn key.
Streams therefore never depend on evaluation order or thread schedule.
"""
from __future__ import annotations

import numbers
import operator
import os
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "InputError",
    "ContractError",
    "UNMATCHED",
    "PROB_CLIP",
    "MAX_MASK_GROUPS",
    "substream",
    "SlotLayout",
    "RelevanceMatrix",
    "ProbabilityModel",
    "SampleSet",
    "Ranking",
]


class InputError(ValueError):
    """Invalid user-supplied data: bad dimensions, malformed files, values out of range."""


class ContractError(RuntimeError):
    """An internal precondition was violated; indicates a bug in calling code."""


#: Sentinel for "no partner" in matching arrays.
UNMATCHED = -1

#: Probabilities in generated models are clipped into this closed range.
PROB_CLIP = (0.0001, 0.9999)

#: Group bit masks are uint16: masks and subset tables hold at most 16 groups.
MAX_MASK_GROUPS = 16

# Spawn-key purposes.  Every consumer of randomness owns one purpose so that
# sub-streams for model construction, sampling, evaluation draws, and the
# ranker never collide even under a shared top-level seed.
PURPOSE_MODEL = 0
PURPOSE_SAMPLE = 1
PURPOSE_EVAL = 2
PURPOSE_RANKER = 3


def substream(seed: int, purpose: int, *index: int) -> np.random.Generator:
    """Return a PCG64 generator for the sub-stream (purpose, *index) of `seed`,
    a non-negative integer."""
    seed = _as_count(seed, "seed")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence(seed, spawn_key=(purpose, *index))
    return np.random.Generator(np.random.PCG64(ss))


def _as_int_array(values, dtype, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise InputError(f"{name} must be integers, got dtype {arr.dtype}")
    # A narrowing cast wraps out-of-range values, so only it is checked.
    if arr.size and not np.can_cast(arr.dtype, dtype):
        info = np.iinfo(dtype)
        if arr.min() < info.min or arr.max() > info.max:
            raise InputError(f"{name} must lie in [{info.min}, {info.max}]")
    return np.ascontiguousarray(arr, dtype=dtype)


def _owned(arr: np.ndarray, given=None) -> np.ndarray:
    """`arr` as an array its object owns, read-only.  `given` is the
    constructor argument `arr` was converted from: where `arr` may still be
    memory that another holder can write to (`given` itself, or a view),
    it is copied.  A read-only array is taken as handed over, so library
    code that builds an array for an object freezes it first with
    ``_owned(arr)``, and the object keeps it without a copy."""
    if given is not None and arr.flags.writeable and (arr is given or arr.base is not None):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _as_count(value, name: str) -> int:
    """`value` as a Python int: an integer, never a bool or a float, so no
    value is truncated.  NumPy integer scalars are integers too."""
    if isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None


#: Candidate and slot ids are int32, so dimensions stay below this.
_ID_LIMIT = 2**31


def _physical_memory() -> int:
    """Bytes of memory this process can have: the host's RAM, or the memory
    limit of the process's cgroup when that is smaller."""
    host = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit = _cgroup_memory_max()
    return host if limit is None else min(host, limit)


def _require_memory(nbytes: int, what: str):
    """Refuse, before allocating, `nbytes` that the process cannot have."""
    if nbytes > _physical_memory():
        raise InputError(f"{what} need more memory than this process may use")


@cache
def _cgroup_memory_max() -> int | None:
    """The memory limit of this process's cgroup in bytes, found through
    ``/proc/self/cgroup``: the smallest limit on the path from its group up
    to the root, as cgroup v2 ``memory.max`` files, else, as on a hybrid
    host whose memory controller is on cgroup v1, as v1
    ``memory.limit_in_bytes`` files.  None when no group on the path has a
    limit (``max``) or none can be read.  v1 writes no limit as a huge
    number, which the host's RAM undercuts.  Read once per process."""
    v2, v1 = [], []
    for line in (_read_text("/proc/self/cgroup") or "").splitlines():
        # "<id>:<controllers>:<path>"; the v2 line is "0::<path>".
        fields = line.split(":", 2)
        if len(fields) < 3:
            continue
        parts = fields[2].rstrip("/").split("/")
        groups = ["/".join(parts[:i]) for i in range(len(parts), 0, -1)]
        if fields[:2] == ["0", ""]:
            v2 += [f"/sys/fs/cgroup{g}/memory.max" for g in groups]
        elif "memory" in fields[1].split(","):
            v1 += [f"/sys/fs/cgroup/memory{g}/memory.limit_in_bytes" for g in groups]
    for files in (v2, v1):
        values = [v for v in map(_read_text, files) if v is not None]
        if values:  # the first hierarchy with a readable file decides
            return min((int(v) for v in values if v.strip().isdecimal()), default=None)
    return None


def _read_text(path: str) -> str | None:
    """The text of the file at `path`, or None when it cannot be read."""
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


@dataclass(frozen=True, eq=False)
class SlotLayout:
    """Slots partitioned into groups; slot ids are dense and group-contiguous.

    Group ``j`` owns the contiguous slot id range
    ``[group_start[j], group_start[j] + group_sizes[j])``.
    A layout may have no group: the bins of a model without slots.  Layouts
    have no value equality: compare their ``group_sizes``.
    """

    group_sizes: np.ndarray  # int64 slot count of each group, read-only

    def __post_init__(self):
        counts = self.group_sizes
        if np.ndim(counts) != 1:
            raise InputError("slot counts must be 1-D")
        sizes = _as_int_array(counts, np.int64, "slot counts")
        # NumPy reads a bool beside integers as 0 or 1.
        if not isinstance(counts, np.ndarray) and {bool, np.bool_} & set(map(type, counts)):
            raise InputError("slot counts must be integers, got a bool")
        # Each count below the limit first, so that the int64 sum cannot wrap.
        if sizes.min(initial=0) < 0 or sizes.max(initial=0) >= _ID_LIMIT:
            raise InputError(f"slot counts must lie in [0, {_ID_LIMIT})")
        if sizes.sum() >= _ID_LIMIT:
            raise InputError(f"a layout holds fewer than {_ID_LIMIT} slots (ids are int32)")
        object.__setattr__(self, "group_sizes", _owned(sizes, counts))

    @classmethod
    def uniform(cls, groups: int, slots_per_group: int) -> "SlotLayout":
        if groups < 1:
            raise InputError("layout needs at least one group")
        return cls(_owned(np.full(groups, slots_per_group)))  # a float or bool count is refused

    @property
    def group_count(self) -> int:
        return self.group_sizes.size

    @cached_property
    def total_slots(self) -> int:
        return int(self.group_sizes.sum())

    @property
    def group_start(self) -> np.ndarray:
        """First slot id of each group."""
        starts = np.zeros(self.group_count, dtype=np.int64)
        np.cumsum(self.group_sizes[:-1], out=starts[1:])
        return starts

    @cached_property
    def subset_slots(self) -> np.ndarray:
        """Slot count of every subset of the groups, indexed by its bit mask
        (at most :data:`MAX_MASK_GROUPS` groups; read-only)."""
        if self.group_count > MAX_MASK_GROUPS:
            raise InputError(f"group masks cover at most {MAX_MASK_GROUPS} groups")
        counts = np.zeros(1 << self.group_count, dtype=np.int64)
        for g, k in enumerate(self.group_sizes):
            counts[1 << g : 2 << g] = counts[: 1 << g] + k
        counts.setflags(write=False)
        return counts

    @property
    def slotted_bits(self) -> int:
        """Bit mask of the groups that own at least one slot."""
        return sum(1 << g for g in np.flatnonzero(self.group_sizes).tolist())

    def slots_of(self, groups: np.ndarray) -> np.ndarray:
        """Concatenated slot ids of `groups` (repeats allowed), in order, as int32."""
        if self._one_slot_each:
            return groups.astype(np.int32)  # group g is slot g
        indptr = np.append(self.group_start, self.total_slots)
        return _row_positions(indptr, groups).astype(np.int32)

    @cached_property
    def _one_slot_each(self) -> bool:
        sizes = self.group_sizes  # two passes, no temporary a slot
        return bool(sizes.min(initial=1) == sizes.max(initial=1) == 1)


def _row_positions(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions, in `indptr`'s dtype, of the entries of CSR `rows` (repeats
    allowed): ``entries[_row_positions(indptr, rows)]`` is ``np.concatenate(
    [entries[indptr[r]:indptr[r+1]] for r in rows])`` without the loop."""
    return _row_spans(indptr, rows)[0]


def _row_spans(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_row_positions` of `rows`, and the length of each row."""
    first = indptr[rows]
    lens = indptr[rows + 1] - first
    ends = np.cumsum(lens, dtype=indptr.dtype)
    total = int(ends[-1]) if ends.size else 0
    # Output i of row k is first[k] + i - (ends[k] - lens[k]).
    return np.arange(total, dtype=indptr.dtype) + np.repeat(first + lens - ends, lens), lens


def _cut_dtype(candidates: int, slots: int) -> type:
    """The integer type of the cut values of `candidates` over `slots`, in
    [0, candidates + slots], and of the subset counts, in [0, candidates]:
    int16 while their sum fits, else int32."""
    return np.int16 if candidates + slots < 2**15 - 1 else np.int32


def _coin_slots(model: "ProbabilityModel", won: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR (indptr, slot ids) over candidates of the slots of the bins of
    `model`'s coins where `won` (bool, one per coin) is set."""
    bins, won = model.bins, np.flatnonzero(won)
    won_bins = model.coin_bins[won]
    ends = np.zeros(won.size + 1, dtype=np.int64)
    np.cumsum(bins.group_sizes[won_bins], out=ends[1:])
    # Row a ends after the slots of the won coins before a's last coin.
    indptr = ends[np.searchsorted(won, model.coin_ptr)]
    # A candidate's bins ascend, so its slot ids do too.
    return _owned(indptr), _owned(bins.slots_of(won_bins))


def _coin_rows(model: "ProbabilityModel", won: np.ndarray) -> "RelevanceMatrix":
    """The slot-level draw of `model` whose coins are `won` (bool, one per
    coin): row a holds the slots of the bins of a's won coins."""
    return RelevanceMatrix(model.candidates, model.slots, *_coin_slots(model, won))


def _coin_masks(model: "ProbabilityModel", coins: np.ndarray) -> np.ndarray:
    """Per candidate (after any leading draw axes of `coins`), the uint16 bit
    mask of the bins that own slots and whose coin is set (<= 16 bins)."""
    bins = model.bins
    if bins.group_count > MAX_MASK_GROUPS:
        raise InputError(f"group masks cover at most {MAX_MASK_GROUPS} groups")
    bits = ((1 << model.coin_bins) & bins.slotted_bits).astype(np.uint16)
    # A candidate's coins cover distinct bins, so it has at most 16 and the
    # sum of their bits is their OR: add them up position by position, a
    # row past its last coin adding 0.
    first, lens = model.coin_ptr[:-1], np.diff(model.coin_ptr)
    masks = np.zeros(coins.shape[:-1] + lens.shape, dtype=np.uint16)
    for i in range(int(lens.max(initial=0))):
        at = np.minimum(first + i, bits.size - 1)
        masks += coins[..., at] * np.where(lens > i, bits[at], 0).astype(np.uint16)
    return masks


def _validate_csr(candidates: int, slots: int, indptr: np.ndarray, indices: np.ndarray, what="slot"):
    if candidates < 0 or slots < 0:
        raise InputError("dimensions must be non-negative")
    if indptr.shape != (candidates + 1,):
        raise InputError(f"indptr must have length {candidates + 1}")
    if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
        raise InputError("indptr endpoints do not bracket the entry array")
    if (indptr[1:] < indptr[:-1]).any():
        raise InputError("indptr must be non-decreasing")
    if indices.size:
        if indices.min() < 0 or indices.max() >= slots:
            raise InputError(f"{what} ids must lie in [0, {slots})")
        # Sorted with no duplicates within each row: strictly increasing runs.
        # Only an entry that opens a row may step down.  `indptr` is sorted,
        # so the row starts inside (0, nnz) are one slice of it: no temporary
        # the size of the candidate count.
        interior = indptr[1:-1]
        lo, hi = np.searchsorted(interior, [1, indices.size])
        steps_down = indices[1:] <= indices[:-1]
        steps_down[interior[lo:hi] - 1] = False  # the steps into a row's first entry
        if steps_down.any():
            raise InputError(f"{what} ids must be strictly increasing within each row")


@dataclass(frozen=True, eq=False)
class RelevanceMatrix:
    """One realized 0/1 relevance matrix in CSR form over candidate rows.

    ``indices[indptr[a]:indptr[a+1]]`` lists the slots relevant to candidate
    ``a``, strictly increasing.  Immutable once constructed.
    """

    candidates: int
    slots: int
    indptr: np.ndarray  # int64, length candidates+1
    indices: np.ndarray  # int32, slot ids

    def __post_init__(self):
        indptr = _as_int_array(self.indptr, np.int64, "indptr")
        indices = _as_int_array(self.indices, np.int32, "indices")
        _validate_csr(self.candidates, self.slots, indptr, indices)
        object.__setattr__(self, "indptr", _owned(indptr, self.indptr))
        object.__setattr__(self, "indices", _owned(indices, self.indices))

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def edge_count(self) -> int:
        return int(self.indices.shape[0])

    def row_ids(self) -> np.ndarray:
        """Candidate id of every edge, aligned with `indices`."""
        return np.repeat(np.arange(self.candidates, dtype=np.int32), self.degrees())


KIND_INDEPENDENT = "independent"
KIND_GROUP = "group"


@dataclass(frozen=True, eq=False)
class ProbabilityModel:
    """Distribution over relevance matrices: coins in bins of slots.

    A draw flips one coin per entry of ``coin_probs``, and a won coin makes
    its candidate relevant to every slot of its bin.  Candidate a's coins
    are ``coin_ptr[a]:coin_ptr[a+1]``, in bins ``coin_bins`` of the layout
    ``bins``, ascending within a candidate.  ``kind`` names the file format
    and what a model of it may hold:

    * ``group`` — the bins are groups, and every candidate has a coin in
      the same number of them, strictly inside (0, 1): a won coin toggles
      *all* slots of its group at once.
    * ``independent`` — every bin is one slot, so every stored (candidate,
      slot) entry is an independent coin, in (0, 1].
    """

    kind: str
    bins: SlotLayout
    coin_ptr: np.ndarray  # int64, candidates + 1
    coin_bins: np.ndarray  # int32
    coin_probs: np.ndarray  # float64

    def __post_init__(self):
        if self.kind not in (KIND_INDEPENDENT, KIND_GROUP):
            raise InputError(f"unknown model kind {self.kind!r}")
        ptr = _as_int_array(self.coin_ptr, np.int64, "coin_ptr")
        coin_bins = _as_int_array(self.coin_bins, np.int32, "coin_bins")
        probs = np.ascontiguousarray(self.coin_probs, dtype=np.float64)
        if ptr.ndim != 1 or coin_bins.ndim != 1 or probs.shape != coin_bins.shape:
            raise InputError("coin_ptr, coin_bins and coin_probs must be 1-D, the last two aligned")
        # The coins are a CSR over the bins: bins ascend within a candidate.
        what = "membership" if self.kind == KIND_GROUP else "bin"
        _validate_csr(ptr.size - 1, self.bins.group_count, ptr, coin_bins, what)
        if self.kind == KIND_INDEPENDENT:
            if not self.bins._one_slot_each:
                raise InputError("every bin of an independent model must be one slot")
            if probs.size and not (np.isfinite(probs).all() and 0 < probs.min() <= probs.max() <= 1):
                raise InputError("stored probabilities must lie in (0, 1]")
        else:
            if probs.size and not (np.isfinite(probs).all() and 0 < probs.min() <= probs.max() < 1):
                raise InputError("group probabilities must lie strictly inside (0, 1)")
            if (lens := ptr[1:] - ptr[:-1]).size and lens.min() != lens.max():
                raise InputError("every candidate of a group model needs the same number of groups")
        for name, values in (("coin_ptr", ptr), ("coin_bins", coin_bins), ("coin_probs", probs)):
            object.__setattr__(self, name, _owned(values, getattr(self, name)))

    @classmethod
    def independent(
        cls, slots: int, coin_ptr, coin_bins, coin_probs, like: SlotLayout | None = None
    ) -> "ProbabilityModel":
        """One coin per stored (candidate, slot) entry, each in a one-slot
        bin: candidate a's entries are ``coin_ptr[a]:coin_ptr[a+1]``, on the
        slots ``coin_bins`` (ascending within a candidate), each won with
        its ``coin_probs`` in (0, 1].  A layout is read-only, so the model
        shares `like` (a source model's bins, say) when that is `slots`
        one-slot bins already."""
        slots = _as_count(slots, "slots")
        if not 0 <= slots < _ID_LIMIT:
            raise InputError(f"slots must lie in [0, {_ID_LIMIT})")
        if like is not None and like.group_count == slots and like._one_slot_each:
            bins = like
        else:
            _require_memory(8 * slots, f"{slots} one-slot bins")  # an int64 count each
            bins = SlotLayout(_owned(np.ones(slots, np.int64)))
        return cls(KIND_INDEPENDENT, bins, coin_ptr, coin_bins, coin_probs)

    @classmethod
    def from_dense(cls, dense) -> "ProbabilityModel":
        """Independent model of a dense candidates x slots probability
        matrix; zero entries hold no coin."""
        arr = np.asarray(dense, dtype=np.float64)
        if arr.ndim != 2:
            raise InputError("dense probability matrix must be 2-D")
        if arr.size and (
            not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0
        ):
            raise InputError("probabilities must lie in [0, 1]")
        rows, cols = np.nonzero(arr)
        c, s = arr.shape
        indptr = np.zeros(c + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=c), out=indptr[1:])
        return cls.independent(s, *map(_owned, (indptr, cols.astype(np.int32), arr[rows, cols])))

    @classmethod
    def from_triplets(
        cls,
        candidates: int,
        slots: int,
        entries: Sequence[tuple[int, int, float]],
    ) -> "ProbabilityModel":
        """Independent model of (candidate, slot, p) triplets; zero entries
        are dropped.

        Dimensions and ids must be integers and probabilities real numbers:
        nothing is truncated, and no bool passes for a number."""
        candidates, slots = _as_count(candidates, "candidates"), _as_count(slots, "slots")
        if not (0 <= candidates < _ID_LIMIT and 0 <= slots < _ID_LIMIT):
            raise InputError(f"candidates and slots must lie in [0, {_ID_LIMIT})")
        # The row pointers follow the declared count, not the entries, so a
        # few bytes of file could otherwise ask for any amount of memory.
        # At the peak, `indptr` and bincount's counts are both held: 16 bytes
        # a candidate.
        _require_memory(16 * (candidates + 1), f"{candidates} candidates")
        seen = set()
        kept = []
        for a, t, p in entries:
            # Plain ints and floats, as JSON and the triplet reader give
            # them, skip the slower checks.
            if type(a) is not int or type(t) is not int:
                a, t = _as_count(a, "candidate id"), _as_count(t, "slot id")
            if type(p) is not float:
                if isinstance(p, bool) or not isinstance(p, numbers.Real):
                    raise InputError(f"probability must be a number, got {p!r}")
                p = float(p)
            if not 0 <= a < candidates:
                raise InputError(f"candidate id {a} out of range [0, {candidates})")
            if not 0 <= t < slots:
                raise InputError(f"slot id {t} out of range [0, {slots})")
            if not 0.0 <= p <= 1.0:
                raise InputError(f"probability {p} out of range [0, 1]")
            if (a, t) in seen:
                raise InputError(f"duplicate entry for candidate {a}, slot {t}")
            seen.add((a, t))
            if p > 0.0:
                kept.append((a, t, p))
        kept.sort()
        rows = np.array([e[0] for e in kept], dtype=np.int64)
        indptr = np.zeros(candidates + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=candidates), out=indptr[1:])
        cols = np.array([e[1] for e in kept], dtype=np.int32)
        vals = np.array([e[2] for e in kept], dtype=np.float64)
        return cls.independent(slots, *map(_owned, (indptr, cols, vals)))

    @classmethod
    def group_structured(
        cls, layout: SlotLayout, membership, group_prob
    ) -> "ProbabilityModel":
        """One coin per (candidate, group) of `membership` (candidates x
        memberships, rows ascending), won with `group_prob` (same shape)."""
        g = layout.group_count
        mem = _as_int_array(membership, np.int32, "membership")
        if mem.ndim != 2 or not 1 <= mem.shape[1] <= g:
            raise InputError("membership must be candidates x memberships, in [1, group_count]")
        gp = np.ascontiguousarray(group_prob, dtype=np.float64)
        if gp.shape != mem.shape:
            raise InputError("membership and group_prob must share shape (candidates, memberships)")
        c, k = mem.shape
        ptr = _owned(np.arange(0, c * k + 1, k, dtype=np.int64))
        # Owned before the flat views are taken, which the model then keeps.
        mem, gp = _owned(mem, membership).ravel(), _owned(gp, group_prob).ravel()
        return cls(KIND_GROUP, layout, ptr, mem, gp)

    @property
    def candidates(self) -> int:
        return self.coin_ptr.size - 1

    @property
    def slots(self) -> int:
        return self.bins.total_slots


@dataclass(frozen=True, eq=False)
class SampleSet:
    """n relevance matrices drawn i.i.d. from `model`, plus the seed used.

    A set holds the coins its draws flipped: per sample and coin of the
    model, whether the coin was won (bool, n x coins; see
    :class:`ProbabilityModel`), 1 byte per coin and sample.  A sample's row
    for candidate a is the slots of the bins of a's won coins;
    :meth:`sample` expands one sample into its rows, and :attr:`samples`
    all of them, on first use.
    """

    model: ProbabilityModel
    coins: np.ndarray
    seed: int

    def __post_init__(self):
        coins = np.asarray(self.coins)
        if coins.dtype != bool or coins.ndim != 2 or coins.shape[1] != self.model.coin_probs.size:
            raise InputError("coins must be n x coins booleans of the model")
        if len(coins) < 1:
            raise InputError("a sample set needs at least one sample")
        object.__setattr__(self, "coins", _owned(coins, self.coins))

    def sample(self, i: int) -> RelevanceMatrix:
        """Sample i's slot-level matrix, expanded afresh on every call."""
        return _coin_rows(self.model, self.coins[i])

    @cached_property
    def samples(self) -> tuple[RelevanceMatrix, ...]:
        """Every sample's slot-level matrix, expanded once."""
        return tuple(self.sample(i) for i in range(self.n))

    @property
    def n(self) -> int:
        return len(self.coins)

    @property
    def candidates(self) -> int:
        return self.model.candidates

    @property
    def slots(self) -> int:
        return self.model.slots


@dataclass(frozen=True, eq=False)
class Ranking:
    """An ordered list of distinct candidate ids, best first.

    ``prefix_gain[k]``, when present, is the total matching size over the
    ranker's sample set after committing the first k+1 candidates — an exact
    integer, non-decreasing in k.
    """

    order: np.ndarray  # int32 candidate ids
    prefix_gain: tuple[int, ...] | None = None

    def __post_init__(self):
        order = _as_int_array(self.order, np.int32, "order")
        if order.ndim != 1:
            raise InputError("order must be 1-D")
        if order.size and order.min() < 0:
            raise InputError("candidate ids must be non-negative")
        if np.unique(order).size != order.size:
            raise InputError("order must not repeat a candidate")
        order = _owned(order, self.order)
        object.__setattr__(self, "order", order)
        if self.prefix_gain is not None:
            pg = tuple(int(v) for v in self.prefix_gain)
            if len(pg) != order.size:
                raise InputError("prefix_gain must align with order")
            if any(b < a for a, b in zip(pg, pg[1:])) or (pg and pg[0] < 0):
                raise InputError("prefix_gain must be non-negative and non-decreasing")
            object.__setattr__(self, "prefix_gain", pg)

    def __len__(self) -> int:
        return int(self.order.size)

    def is_complete(self, candidates: int) -> bool:
        """True when the ranking is a full permutation of range(candidates)."""
        # Ids are distinct and non-negative, so `candidates` of them below
        # `candidates` are all of them.
        return len(self) == candidates and int(self.order.max(initial=-1)) < candidates
