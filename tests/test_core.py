import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coin_view, dense_probs, edge_set, examples
from matchrank import core
from matchrank.core import (
    InputError,
    MAX_MASK_GROUPS,
    ProbabilityModel,
    Ranking,
    RelevanceMatrix,
    SampleSet,
    SlotLayout,
    substream,
)


class TestSlotLayout:
    def test_uniform(self):
        lay = SlotLayout.uniform(10, 50)
        assert lay.group_count == 10
        assert lay.total_slots == 500
        assert lay.group_sizes.tolist() == [50] * 10

    def test_group_ranges(self):
        lay = SlotLayout((2, 0, 3))
        assert lay.total_slots == 5
        assert lay.group_start.tolist() == [0, 2, 2]
        assert lay.slots_of(np.array([2])).tolist() == [2, 3, 4]

    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=6),
        st.lists(st.integers(0, 5), max_size=12),
    )
    @settings(max_examples=examples(200), deadline=None)
    def test_slots_of_matches_naive_expansion(self, sizes, picks):
        lay = SlotLayout(tuple(sizes))
        groups = np.array([g % lay.group_count for g in picks], dtype=np.int32)
        starts = lay.group_start
        naive = np.concatenate(
            [np.arange(starts[g], starts[g] + sizes[g]) for g in groups] + [[]]
        ).astype(np.int32)
        got = lay.slots_of(groups)
        assert got.dtype == np.int32
        assert np.array_equal(got, naive)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_subset_slots_sums_member_groups(self, sizes):
        counts = SlotLayout(tuple(sizes)).subset_slots
        assert counts.tolist() == [
            sum(k for g, k in enumerate(sizes) if u >> g & 1) for u in range(1 << len(sizes))
        ]

    def test_slotted_bits(self):
        assert SlotLayout((2, 0, 1, 0)).slotted_bits == 0b101

    def test_masks_and_subset_tables_hold_at_most_16_groups(self):
        # uint16 masks: group 16's bit would be dropped, so 17 groups are
        # refused by both builders rather than masked wrongly.
        coins = np.ones((1, 2), dtype=bool)
        full = SlotLayout((1,) * MAX_MASK_GROUPS)
        assert full.subset_slots.size == 1 << 16 and full.subset_slots[-1] == 16
        model = ProbabilityModel.group_structured(full, [[0, 15]], [[0.5, 0.5]])
        masks = core._coin_masks(model, coins)
        assert masks.dtype == np.uint16 and masks.tolist() == [[1 | 1 << 15]]
        wide = SlotLayout((1,) * (MAX_MASK_GROUPS + 1))
        with pytest.raises(InputError, match="at most 16 groups"):
            wide.subset_slots
        model = ProbabilityModel.group_structured(wide, [[0, 16]], [[0.5, 0.5]])
        with pytest.raises(InputError, match="at most 16 groups"):
            core._coin_masks(model, coins)

    def test_zero_groups_are_the_layout_of_no_slots(self):
        # The bins of an independent model without slots.
        lay = SlotLayout(())
        assert (lay.group_count, lay.total_slots, lay.slotted_bits) == (0, 0, 0)
        assert lay.subset_slots.tolist() == [0]
        assert lay.group_start.size == lay.slots_of(np.zeros(0, dtype=np.int32)).size == 0

    def test_rejects_bad_layouts(self):
        with pytest.raises(InputError):
            SlotLayout((3, -1))
        with pytest.raises(InputError):
            SlotLayout.uniform(0, 5)

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, np.True_, "2", None])
    def test_refuses_counts_that_are_not_integers(self, bad):
        # A cast would truncate 1.5 to 1, and NumPy reads True beside an
        # integer as 1.
        with pytest.raises(InputError, match="slot counts must be integers"):
            SlotLayout((bad, 2))

    @pytest.mark.parametrize("dtype", [bool, np.float64])
    def test_refuses_count_arrays_that_are_not_integers(self, dtype):
        with pytest.raises(InputError, match="slot counts must be integers"):
            SlotLayout(np.ones(3, dtype=dtype))

    @pytest.mark.parametrize("bad", [np.ones((2, 3), dtype=np.int64), [[1, 2], [3, 4]], 5])
    def test_refuses_counts_that_are_not_1d(self, bad):
        with pytest.raises(InputError, match="1-D"):
            SlotLayout(bad)

    def test_accepts_numpy_integer_counts(self):
        lay = SlotLayout((np.int64(3), np.int32(0), np.uint8(2)))
        assert lay.group_sizes.tolist() == [3, 0, 2]

    @pytest.mark.parametrize("counts", [(2, 0, 3), np.array([2, 0, 3], dtype=np.uint8), [2, 0, 3]])
    def test_counts_are_one_read_only_int64_array(self, counts):
        sizes = SlotLayout(counts).group_sizes
        assert sizes.dtype == np.int64 and sizes.ndim == 1 and sizes.tolist() == [2, 0, 3]
        with pytest.raises(ValueError):
            sizes[0] = 1

    def test_refuses_more_slots_than_int32_ids(self):
        assert SlotLayout((2**30, 2**30 - 1)).total_slots == 2**31 - 1
        with pytest.raises(InputError, match="ids are int32"):
            SlotLayout((2**30, 2**30))

    @pytest.mark.parametrize(
        "counts", [(2**62, 2**62), (2**31, 0), (2**63 - 1, 1), np.array([2**62] * 4, dtype=np.int64)]
    )
    def test_refuses_counts_whose_int64_sum_would_wrap(self, counts):
        # 2**62 + 2**62 wraps to -2**63 in int64, which passes a check on the sum.
        with pytest.raises(InputError, match=r"slot counts must lie in \[0, 2147483648\)"):
            SlotLayout(counts)

    @pytest.mark.parametrize("counts", [(2**64, 1), (2**63, 1)])
    def test_refuses_counts_beyond_int64(self, counts):
        with pytest.raises(InputError):
            SlotLayout(counts)

    def test_caller_keeps_its_counts(self):
        counts = np.array([2, 1])
        lay = SlotLayout(counts)
        counts[0] = 3  # neither refused nor seen by the layout
        assert lay.group_sizes.tolist() == [2, 1] and not lay.group_sizes.flags.writeable

    def test_one_slot_bins_are_handed_over_without_a_copy(self):
        # The library builds an independent model's counts itself and hands
        # them over read-only: one int64 count a slot at the peak, not two.
        slots = 1_000_000
        tracemalloc.start()
        try:
            model = ProbabilityModel.independent(slots, [0, 0], [], [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * slots <= peak < 8 * slots + 64 * 1024
        assert model.bins.group_sizes.base is None

    def test_layouts_compare_by_identity(self):
        lay = SlotLayout((1, 2))
        assert lay == lay and lay != SlotLayout((1, 2))

    def test_one_slot_bins_keep_no_python_object_per_slot(self):
        # The layout of an independent model is one int64 array, which
        # NumPy reports to tracemalloc in its own domain.  What Python
        # objects the model keeps are counted apart from it.
        slots = 1_000_000
        tracemalloc.start()
        try:
            model = ProbabilityModel.independent(slots, [0, 0], [], [])
            python_bytes = sum(
                stat.size
                for stat in tracemalloc.take_snapshot()
                .filter_traces([tracemalloc.DomainFilter(True, 0)])
                .statistics("filename")
            )
        finally:
            tracemalloc.stop()
        assert model.bins.group_sizes.nbytes == 8 * slots
        assert python_bytes < slots  # under a byte a slot: no tuple, no list
        assert model.slots == slots and model.bins.slots_of(np.array([5, 2])).tolist() == [5, 2]


class TestRowPositions:
    @given(
        st.lists(st.integers(0, 4), max_size=8),
        st.lists(st.integers(0, 7), max_size=12),
        st.sampled_from([np.int32, np.int64]),
        st.sampled_from([np.int32, np.int64]),
    )
    @settings(max_examples=examples(200), deadline=None)
    def test_matches_row_concatenation(self, lens, picks, ptype, rtype):
        # Empty rows, repeated rows, no row at all, and a CSR of no rows.
        p = np.zeros(len(lens) + 1, dtype=ptype)
        np.cumsum(lens, out=p[1:])
        entries = np.arange(100, 100 + int(p[-1]))
        rows = np.array([r % len(lens) for r in picks] if lens else [], dtype=rtype)
        naive = np.concatenate([entries[p[r] : p[r + 1]] for r in rows] + [entries[:0]])
        got = core._row_positions(p, rows)
        assert got.dtype == p.dtype
        assert np.array_equal(entries[got], naive)
        spans, lens = core._row_spans(p, rows)
        assert np.array_equal(spans, got) and lens.tolist() == [p[r + 1] - p[r] for r in rows]


class TestOwnedArrays:
    def test_a_read_only_array_is_kept_as_handed_over(self):
        frozen = np.arange(3)
        frozen.setflags(write=False)
        assert core._owned(frozen, frozen) is frozen
        assert core._owned(np.arange(3)).base is None  # built for the object

    @pytest.mark.parametrize("view", [lambda a: a, lambda a: a[:], lambda a: memoryview(a)])
    def test_memory_another_holder_may_write_is_copied(self, view):
        given = view(np.arange(3))
        owned = core._owned(np.asarray(given), given)
        assert not np.shares_memory(owned, np.asarray(given)) and not owned.flags.writeable


class TestRelevanceMatrix:
    def test_rows_and_edges(self):
        m = RelevanceMatrix(3, 4, [0, 2, 2, 3], [0, 3, 1])
        assert m.degrees().tolist() == [2, 0, 1]
        assert m.row_ids().tolist() == [0, 0, 2]
        assert m.edge_count == 3
        assert edge_set(m) == {(0, 0), (0, 3), (2, 1)}

    def test_rejects_malformed(self):
        with pytest.raises(InputError):
            RelevanceMatrix(2, 3, [0, 1, 2], [0, 5])  # slot id out of range
        with pytest.raises(InputError):
            RelevanceMatrix(2, 3, [0, 2, 2], [1, 1])  # duplicate in row
        with pytest.raises(InputError):
            RelevanceMatrix(2, 3, [0, 2], [0, 1])  # indptr wrong length
        with pytest.raises(InputError):
            RelevanceMatrix(2, 3, [0, 2, 1], [0, 1, 2])  # decreasing indptr

    def test_rows_immutable(self):
        m = RelevanceMatrix(2, 2, [0, 1, 1], [0])
        with pytest.raises(ValueError):
            m.indices[0] = 1

    def test_caller_keeps_its_arrays(self):
        indptr, indices = np.array([0, 1, 2]), np.array([0, 1], dtype=np.int32)
        m = RelevanceMatrix(2, 2, indptr, indices)
        indptr[1], indices[0] = 0, 1
        assert (m.indptr.tolist(), m.indices.tolist()) == ([0, 1, 2], [0, 1])


class TestIndependentModel:
    """The constructors of an independent model: one coin per stored
    (candidate, slot) entry, in one-slot bins."""

    def test_from_dense_drops_zeros(self):
        p = ProbabilityModel.from_dense([[0.5, 0.0], [0.0, 1.0]])
        assert p.kind == "independent" and p.bins.group_sizes.tolist() == [1, 1]
        assert (p.coin_ptr.tolist(), p.coin_bins.tolist()) == ([0, 1, 2], [0, 1])
        assert p.coin_probs.tolist() == [0.5, 1.0]
        assert np.array_equal(dense_probs(p), [[0.5, 0.0], [0.0, 1.0]])

    def test_from_triplets_validates(self):
        with pytest.raises(InputError):
            ProbabilityModel.from_triplets(2, 2, [(0, 0, 1.5)])
        with pytest.raises(InputError):
            ProbabilityModel.from_triplets(2, 2, [(0, 0, 0.5), (0, 0, 0.6)])
        with pytest.raises(InputError):
            ProbabilityModel.from_triplets(2, 2, [(2, 0, 0.5)])
        with pytest.raises(InputError):
            ProbabilityModel.from_triplets(2, 2, [(0, 2, 0.5)])

    @pytest.mark.parametrize(
        "dims, entry, fragment",
        [
            ((3.9, 2), (0, 0, 0.5), "candidates must be an integer"),
            ((3, True), (0, 0, 0.5), "slots must be an integer"),
            ((3, 2), (True, 1, 0.5), "candidate id must be an integer"),
            ((3, 2), (2.7, 1, 0.5), "candidate id must be an integer"),
            ((3, 2), (1, 1.0, 0.5), "slot id must be an integer"),
            ((3, 2), (1, 1, True), "probability must be a number"),
            ((3, 2), (1, 1, "0.5"), "probability must be a number"),
            ((2**31, 2), (0, 0, 0.5), "must lie in"),
            ((-1, 2), (0, 0, 0.5), "must lie in"),
        ],
    )
    def test_from_triplets_refuses_truncation(self, dims, entry, fragment):
        with pytest.raises(InputError, match=fragment):
            ProbabilityModel.from_triplets(*dims, [entry])

    @pytest.mark.parametrize(
        "slots, fragment",
        [(2.0, "slots must be an integer"), (True, "slots must be an integer"),
         (-1, "slots must lie in"), (2**31, "slots must lie in")],
    )
    def test_independent_refuses_bad_slot_counts(self, slots, fragment):
        with pytest.raises(InputError, match=fragment):
            ProbabilityModel.independent(slots, [0, 1], [0], [0.5])

    @pytest.mark.parametrize("sizes", [(2, 3), (1, 0), (1, 2, 1)])
    def test_refuses_bins_of_other_than_one_slot(self, sizes):
        # Each of its coins is one (candidate, slot) entry: a bin of two slots
        # would put one coin on both, and a bin of none on no slot at all.
        with pytest.raises(InputError, match="one slot"):
            ProbabilityModel("independent", SlotLayout(sizes), [0, 1], [1], [0.5])
        model = ProbabilityModel("independent", SlotLayout((1, 1)), [0, 1], [1], [0.5])
        assert model.slots == 2

    def test_from_triplets_takes_numpy_scalars_and_integer_probabilities(self):
        p = ProbabilityModel.from_triplets(
            np.int64(2), 2, [(np.int32(1), np.int64(0), np.float64(0.5)), (0, 1, 1)]
        )
        assert dense_probs(p).tolist() == [[0.0, 1.0], [0.5, 0.0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, 1.5])
    def test_rejects_stored_probabilities_outside_0_1(self, bad):
        # A dense 0 is no entry, but a stored one is no coin.
        if bad != 0.0:
            with pytest.raises(InputError):
                ProbabilityModel.from_dense([[bad, 0.5]])
            with pytest.raises(InputError):
                ProbabilityModel.from_triplets(1, 2, [(0, 0, bad)])
        with pytest.raises(InputError, match="stored probabilities"):
            ProbabilityModel.independent(2, [0, 2], [0, 1], [bad, 0.5])

    def test_from_dense_refuses_other_shapes(self):
        with pytest.raises(InputError, match="2-D"):
            ProbabilityModel.from_dense([0.5, 0.25])

    def test_from_triplets_refuses_more_candidates_than_memory_holds(self, monkeypatch):
        # 1,000 candidates take 16,016 bytes: the row pointers and their counts.
        monkeypatch.setattr(core, "_physical_memory", lambda: 16015)
        with pytest.raises(InputError, match="1000 candidates need more memory"):
            ProbabilityModel.from_triplets(1000, 2, [])
        monkeypatch.setattr(core, "_physical_memory", lambda: 16016)
        assert ProbabilityModel.from_triplets(1000, 2, []).candidates == 1000

    def test_preflight_covers_the_peak_allocation(self):
        # NumPy reports its arrays to tracemalloc.  A few entries and many
        # declared candidates: the peak is what the count alone costs.
        candidates = 200_000
        tracemalloc.start()
        try:
            ProbabilityModel.from_triplets(candidates, 2, [(0, 1, 0.5), (candidates - 1, 0, 0.5)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * (candidates + 1) < peak <= 16 * (candidates + 1) + 64 * 1024

    def test_triplets_zero_dropped_and_sorted(self):
        p = ProbabilityModel.from_triplets(2, 3, [(1, 2, 0.3), (1, 0, 0.2), (0, 1, 0.0)])
        assert p.coin_probs.tolist() == [0.2, 0.3]
        assert (p.coin_ptr.tolist(), p.coin_bins.tolist()) == ([0, 0, 2], [0, 2])


@pytest.fixture
def fresh_cgroup_limit():
    """The cgroup limit read afresh in the test, and again after it."""
    core._cgroup_memory_max.cache_clear()
    yield
    core._cgroup_memory_max.cache_clear()


class TestPhysicalMemory:
    def test_physical_memory_is_positive(self):
        assert core._physical_memory() > 0

    @pytest.mark.parametrize(
        "files, want",
        [
            # The cgroup's limit, when below the host's RAM.
            ({"/proc/self/cgroup": "0::/box/run\n", "/sys/fs/cgroup/box/run/memory.max": "4096\n"}, 4096),
            # The root group, as a container with its own cgroup namespace sees it.
            ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": "8192\n"}, 8192),
            # "max" is no limit.
            ({"/proc/self/cgroup": "0::/box\n", "/sys/fs/cgroup/box/memory.max": "max\n"}, None),
            # A missing memory.max, or a host with cgroup v1 controllers only
            # and no limit file.
            ({"/proc/self/cgroup": "0::/box\n"}, None),
            ({"/proc/self/cgroup": "4:memory:/box\n1:cpu:/\n"}, None),
            ({}, None),
            # A hybrid host: the v2 line names a group without memory.max, and
            # the memory controller's v1 group holds the limit.
            (
                {
                    "/proc/self/cgroup": "4:memory:/box/run\n1:cpu:/\n0::/\n",
                    "/sys/fs/cgroup/memory/box/run/memory.limit_in_bytes": "4096\n",
                },
                4096,
            ),
            (
                {
                    "/proc/self/cgroup": "3:cpu,memory:/\n0::/\n",
                    "/sys/fs/cgroup/memory/memory.limit_in_bytes": "8192\n",
                },
                8192,
            ),
            # v1 writes "no limit" as this number; the host's RAM is smaller.
            (
                {
                    "/proc/self/cgroup": "4:memory:/box\n0::/\n",
                    "/sys/fs/cgroup/memory/box/memory.limit_in_bytes": "9223372036854771712\n",
                },
                None,
            ),
            # Where both exist, the v2 file decides, "max" included.
            (
                {
                    "/proc/self/cgroup": "4:memory:/box\n0::/box\n",
                    "/sys/fs/cgroup/box/memory.max": "max\n",
                    "/sys/fs/cgroup/memory/box/memory.limit_in_bytes": "4096\n",
                },
                None,
            ),
            # A parent's limit below the group's own is the one that holds.
            (
                {
                    "/proc/self/cgroup": "0::/box/run\n",
                    "/sys/fs/cgroup/box/run/memory.max": "8192\n",
                    "/sys/fs/cgroup/box/memory.max": "4096\n",
                },
                4096,
            ),
            # So is a limited parent's above a group without a limit.
            (
                {
                    "/proc/self/cgroup": "0::/box/run/job\n",
                    "/sys/fs/cgroup/box/run/job/memory.max": "max\n",
                    "/sys/fs/cgroup/box/run/memory.max": "max\n",
                    "/sys/fs/cgroup/box/memory.max": "4096\n",
                },
                4096,
            ),
            # The same on cgroup v1, up to the hierarchy's root.
            (
                {
                    "/proc/self/cgroup": "4:memory:/box/run\n",
                    "/sys/fs/cgroup/memory/box/run/memory.limit_in_bytes": "9223372036854771712\n",
                    "/sys/fs/cgroup/memory/memory.limit_in_bytes": "4096\n",
                },
                4096,
            ),
            # Lines that are not hierarchies are skipped.
            ({"/proc/self/cgroup": "garbage\n0::/\n", "/sys/fs/cgroup/memory.max": "4096\n"}, 4096),
        ],
    )
    def test_physical_memory_takes_the_cgroup_limit(self, monkeypatch, fresh_cgroup_limit, files, want):
        monkeypatch.setattr(core, "_read_text", files.get)
        host = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert core._physical_memory() == (host if want is None else want)

    def test_read_text_is_none_for_what_cannot_be_read(self, tmp_path):
        (tmp_path / "memory.max").write_text("4096\n")
        assert core._read_text(str(tmp_path / "memory.max")) == "4096\n"
        assert core._read_text(str(tmp_path / "absent")) is None
        assert core._read_text(str(tmp_path)) is None  # a directory

    def test_cgroup_limit_above_the_host_is_ignored(self, monkeypatch, fresh_cgroup_limit):
        host = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        files = {"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": f"{2 * host}\n"}
        monkeypatch.setattr(core, "_read_text", files.get)
        assert core._physical_memory() == host

    def test_cgroup_limit_is_read_once(self, monkeypatch, fresh_cgroup_limit):
        files = {"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": "4096\n"}
        reads = []
        monkeypatch.setattr(core, "_read_text", lambda path: reads.append(path) or files.get(path))
        assert [core._physical_memory() for _ in range(3)] == [4096] * 3
        assert reads == ["/proc/self/cgroup", "/sys/fs/cgroup/memory.max"]


class TestProbabilityModel:
    def test_caller_keeps_its_arrays(self):
        ptr, bins, probs = np.array([0, 1, 2]), np.array([1, 0], dtype=np.int32), np.array([0.5, 1.0])
        indep = ProbabilityModel.independent(2, ptr, bins, probs)
        # Flat views of the caller's 2-D arrays are the caller's too.
        membership, group_prob = np.array([[0], [1]], dtype=np.int32), np.full((2, 1), 0.5)
        group = ProbabilityModel.group_structured(SlotLayout((1, 1)), membership, group_prob)
        ptr[1], bins[0], probs[0], membership[0, 0], group_prob[0, 0] = 2, 0, 0.25, 1, 0.75
        assert (indep.coin_ptr.tolist(), indep.coin_bins.tolist()) == ([0, 1, 2], [1, 0])
        assert indep.coin_probs.tolist() == [0.5, 1.0]
        assert (group.coin_bins.tolist(), group.coin_probs.tolist()) == ([0, 1], [0.5, 0.5])
        assert not any(a.flags.writeable for a in (indep.coin_ptr, group.coin_bins, group.coin_probs))

    @pytest.mark.parametrize(
        "membership",
        [[[0, 1], [0, 3], [1, 2]], [[0, 1], [2, 0], [1, 2]], [[0, 1], [1, 1], [1, 2]],
         [[0.0, 1.0], [0, 2], [1, 2]], [0, 1, 2]],
    )
    def test_refuses_membership_that_is_not_the_layouts(self, membership):
        with pytest.raises(InputError, match="membership"):
            ProbabilityModel.group_structured(
                SlotLayout((2, 0, 1)), np.array(membership), np.full((3, 2), 0.5)
            )

    def test_group_coins_are_the_memberships(self):
        layout = SlotLayout((2, 0, 1))
        model = ProbabilityModel.group_structured(
            layout, [[0, 1], [0, 2]], [[0.5, 0.25], [0.4, 0.8]]
        )
        assert model.bins is layout
        assert model.coin_ptr.tolist() == [0, 2, 4]
        assert model.coin_bins.tolist() == [0, 1, 0, 2]
        assert model.coin_probs.tolist() == [0.5, 0.25, 0.4, 0.8]

    def test_a_derived_model_shares_its_sources_one_slot_bins(self):
        # A layout is read-only: an independent model made from one of one-
        # slot bins keeps its source's, and one from wider bins gets its own.
        model = ProbabilityModel.from_dense([[0.5, 0.2], [0.0, 0.7]])
        assert model.marginal_matrix().bins is model.bins
        wide = ProbabilityModel.group_structured(SlotLayout((2, 1)), [[0], [1]], [[0.5], [0.4]])
        spread = wide.marginal_matrix()
        assert spread.bins is not wide.bins and spread.bins.group_sizes.tolist() == [1, 1, 1]
        # A layout of one-slot bins but of another slot count is not shared.
        other = ProbabilityModel.independent(3, [0, 0], [], [], like=model.bins)
        assert other.bins.group_count == 3

    def test_marginals_of_one_slot_bins_allocate_no_second_layout(self):
        slots = 1_000_000
        model = ProbabilityModel.independent(slots, [0, 1], [7], [0.5])
        tracemalloc.start()
        try:
            marginals = model.marginal_matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < slots  # under a byte a slot: no int64 count each
        assert coin_view(marginals) == coin_view(model)

    def test_independent_marginals_identity(self):
        model = ProbabilityModel.from_dense([[0.5, 0.2], [0.0, 0.7]])
        assert model.candidates == 2
        assert model.slots == 2
        assert model.bins.group_sizes.tolist() == [1, 1]
        marginals = model.marginal_matrix()
        assert marginals.kind == "independent"
        assert np.array_equal(marginals.bins.group_sizes, model.bins.group_sizes)
        assert coin_view(marginals) == coin_view(model)

    def test_group_marginal_expansion(self):
        lay = SlotLayout((2, 1, 2))
        model = ProbabilityModel.group_structured(
            lay, [[0, 2], [1, 2]], [[0.5, 0.25], [0.4, 0.8]]
        )
        dense = dense_probs(model)
        want = np.array(
            [
                [0.5, 0.5, 0.0, 0.25, 0.25],
                [0.0, 0.0, 0.4, 0.8, 0.8],
            ]
        )
        assert np.array_equal(dense, want)

    def test_group_validation(self):
        lay = SlotLayout((2, 2))
        with pytest.raises(InputError):
            ProbabilityModel.group_structured(lay, [[0, 0]], [[0.5, 0.5]])
        with pytest.raises(InputError):
            ProbabilityModel.group_structured(lay, [[1, 0]], [[0.5, 0.5]])
        with pytest.raises(InputError):
            ProbabilityModel.group_structured(lay, [[0, 2]], [[0.5, 0.5]])
        with pytest.raises(InputError):
            ProbabilityModel.group_structured(lay, [[0, 1]], [[0.5, 1.0]])
        with pytest.raises(InputError, match="unknown model kind"):
            ProbabilityModel("nope", lay, [0, 2], [0, 1], [0.5, 0.5])

    # One candidate with coins in bins 0 and 2 of three one-slot bins.
    VALID = dict(bins=SlotLayout((1, 1, 1)), coin_ptr=[0, 2], coin_bins=[0, 2], coin_probs=[0.5, 0.25])
    # What the refusals call a coin's bin: a group model's are its memberships.
    BIN_NAME = {"independent": "bin", "group": "membership"}

    @pytest.mark.parametrize("kind", ["independent", "group"])
    def test_direct_construction_takes_valid_coins(self, kind):
        model = ProbabilityModel(kind, **self.VALID)
        assert (model.candidates, model.slots) == (1, 3)
        assert dense_probs(model).tolist() == [[0.5, 0.0, 0.25]]

    @pytest.mark.parametrize("kind", ["independent", "group"])
    @pytest.mark.parametrize(
        "change, match",
        [
            (dict(coin_bins=[0, 3]), "{bin} ids must lie in"),
            (dict(coin_bins=[2, 0]), "{bin} ids must be strictly increasing"),
            (dict(coin_bins=[1, 1]), "{bin} ids must be strictly increasing"),
            (dict(coin_ptr=[0, 1]), "bracket"),
            (dict(coin_ptr=[1, 2]), "bracket"),
            (dict(coin_ptr=[0, 3, 2]), "non-decreasing"),
            (dict(coin_ptr=[]), "non-negative"),
            (dict(coin_ptr=[[0, 2]]), "1-D"),
            (dict(coin_probs=[0.5]), "aligned"),
            (dict(coin_probs=[0.5, 0.0]), "probabilities"),
            (dict(coin_probs=[np.nan, 0.5]), "probabilities"),
            (dict(coin_probs=[0.5, 1.5]), "probabilities"),
        ],
    )
    def test_direct_construction_refuses_bad_coins(self, kind, change, match):
        with pytest.raises(InputError, match=match.format(bin=self.BIN_NAME[kind])):
            ProbabilityModel(kind, **{**self.VALID, **change})

    def test_group_coins_stay_below_one_and_even(self):
        assert ProbabilityModel("independent", **{**self.VALID, "coin_probs": [1.0, 0.5]})
        with pytest.raises(InputError, match="strictly inside"):
            ProbabilityModel("group", **{**self.VALID, "coin_probs": [1.0, 0.5]})
        # Two candidates with one coin and two coins.
        uneven = dict(self.VALID, coin_ptr=[0, 1, 3], coin_bins=[0, 0, 2], coin_probs=[0.5] * 3)
        assert ProbabilityModel("independent", **uneven).candidates == 2
        with pytest.raises(InputError, match="same number"):
            ProbabilityModel("group", **uneven)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_group_rejects_non_finite(self, bad):
        with pytest.raises(InputError):
            ProbabilityModel.group_structured(
                SlotLayout.uniform(2, 1), [[0], [1]], [[bad], [0.5]]
            )


class TestSampleSet:
    LAYOUT = SlotLayout((2, 0, 1))
    MEMBERSHIP = [[0, 1], [0, 2], [1, 2]]
    # Sample 0: candidate 0 wins group 0 (and slotless group 1), candidate 1
    # groups 0 and 2, candidate 2 nothing.  Sample 1: candidate 2 wins group 2.
    COINS = [[1, 1, 1, 1, 0, 0], [0, 0, 0, 0, 0, 1]]

    def model(self):
        return ProbabilityModel.group_structured(
            self.LAYOUT, self.MEMBERSHIP, np.full((3, 2), 0.5)
        )

    # The slot-level edges of each sample.
    EDGES = [{(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)}, {(2, 2)}]

    def test_holds_the_coins_and_derives_the_rows(self):
        ss = SampleSet(self.model(), np.array(self.COINS, dtype=bool), seed=42)
        assert ss.coins.tolist() == np.array(self.COINS, dtype=bool).tolist()
        assert not ss.coins.flags.writeable
        assert (ss.n, ss.candidates, ss.slots, ss.seed) == (2, 3, 3, 42)
        assert [edge_set(m) for m in ss.samples] == self.EDGES
        assert ss.samples is ss.samples  # expanded once
        # One sample at a time, afresh on every call.
        assert edge_set(ss.sample(1)) == self.EDGES[1]
        assert ss.sample(1) is not ss.sample(1)

    def test_caller_keeps_its_coins(self):
        coins = np.array(self.COINS, dtype=bool)
        ss = SampleSet(self.model(), coins, seed=0)
        coins[1] = True
        assert ss.coins.tolist() == np.array(self.COINS, dtype=bool).tolist()

    def test_an_independent_model_draws_its_entries(self):
        # Each coin is one stored entry; its bin is its slot, of one slot.
        model = ProbabilityModel.from_dense([[0.5, 0.0, 1.0], [0.0, 0.0, 0.0], [0.2, 0.3, 0.0]])
        assert model.bins.group_sizes.tolist() == [1, 1, 1]
        assert (model.coin_ptr.tolist(), model.coin_bins.tolist()) == ([0, 2, 2, 4], [0, 2, 0, 1])
        ss = SampleSet(model, np.array([[1, 1, 0, 1], [0, 1, 0, 0]], dtype=bool), 0)
        assert [sorted(edge_set(m)) for m in ss.samples] == [
            [(0, 0), (0, 2), (2, 1)], [(0, 2)]
        ]

    def test_takes_more_groups_than_masks_hold(self):
        layout = SlotLayout((1,) * (MAX_MASK_GROUPS + 4))
        model = ProbabilityModel.group_structured(layout, [[0, MAX_MASK_GROUPS + 3]], [[0.5, 0.5]])
        ss = SampleSet(model, np.array([[True, False], [False, True]]), 0)
        assert [m.indices.tolist() for m in ss.samples] == [[0], [MAX_MASK_GROUPS + 3]]

    @pytest.mark.parametrize(
        "coins",
        [
            [[1, 1, 1, 1, 0, 0]],  # ints, not booleans
            [[True] * 5],  # five coins, not six
            [[[True, True]] * 3],  # n x candidates x memberships, not n x coins
            np.zeros((0, 6), dtype=bool),  # no sample
        ],
    )
    def test_refuses_coins_that_are_not_n_by_coins(self, coins):
        with pytest.raises(InputError, match="coins|at least one sample"):
            SampleSet(self.model(), np.array(coins), 0)


class TestNarrowingCasts:
    def test_ranking_refuses_ids_beyond_int32(self):
        with pytest.raises(InputError, match="must lie in"):
            Ranking([2**32, 1])
        with pytest.raises(InputError, match="must lie in"):
            Ranking(np.array([2**31, 0], dtype=np.uint64))
        assert Ranking(np.array([2**31 - 1, 0], dtype=np.int64)).order.tolist() == [2**31 - 1, 0]

    def test_relevance_matrix_refuses_slots_beyond_int32(self):
        with pytest.raises(InputError, match="must lie in"):
            RelevanceMatrix(1, 3, [0, 1], np.array([2**32 + 1]))
        m = RelevanceMatrix(1, 3, np.array([0, 1], dtype=np.int32), np.array([1], dtype=np.int64))
        assert (m.indptr.dtype, m.indices.dtype) == (np.int64, np.int32)


class TestRanking:
    def test_caller_keeps_its_order(self):
        order = np.array([2, 0, 1], dtype=np.int32)
        r = Ranking(order)
        order[0] = 5
        assert r.order.tolist() == [2, 0, 1] and not r.order.flags.writeable

    def test_valid(self):
        r = Ranking(np.array([2, 0, 1]), prefix_gain=(1, 3, 3))
        assert len(r) == 3
        assert r.is_complete(3)
        assert not r.is_complete(4)
        assert not Ranking([0, 5]).is_complete(2)

    def test_prefix_allowed(self):
        r = Ranking(np.array([5, 1]))
        assert len(r) == 2 and r.prefix_gain is None

    def test_rejects_bad(self):
        with pytest.raises(InputError):
            Ranking(np.array([1, 1]))
        with pytest.raises(InputError):
            Ranking(np.array([0, -1]))
        with pytest.raises(InputError):
            Ranking(np.array([0, 1]), prefix_gain=(2, 1))
        with pytest.raises(InputError):
            Ranking(np.array([0, 1]), prefix_gain=(1,))


class TestSubstream:
    def test_reproducible(self):
        a = substream(7, 1, 3).random(4)
        b = substream(7, 1, 3).random(4)
        assert np.array_equal(a, b)

    def test_purposes_and_indices_distinct(self):
        draws = {
            substream(7, p, i).random(): (p, i)
            for p in (0, 1, 2, 3)
            for i in (0, 1, 2)
        }
        assert len(draws) == 12

    @given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_streams_stable_under_reconstruction(self, seed, purpose, idx):
        x = substream(seed, purpose, idx).integers(0, 2**63)
        y = substream(seed, purpose, idx).integers(0, 2**63)
        assert x == y

    @pytest.mark.parametrize("seed", [1.5, True, "3", None, -1])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InputError, match="seed must"):
            substream(seed, 0)

    def test_numpy_integer_seed_is_the_same_stream(self):
        assert substream(np.uint8(7), 1, 3).random() == substream(7, 1, 3).random()
