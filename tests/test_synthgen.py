import numpy as np
import pytest

from conftest import coin_candidates, coin_view, dense_probs, draw_masks, edge_set
from matchrank import core, synthgen
from matchrank.core import (
    InputError,
    MAX_MASK_GROUPS,
    PROB_CLIP,
    PURPOSE_SAMPLE,
    ProbabilityModel,
    SlotLayout,
    substream,
)
from matchrank.synthgen import (
    SynthParams,
    build_synthetic_model,
    draw_relevance,
    model_metadata,
    sample_relevances,
    two_block_model,
)


def group_rows(model):
    """A group model's memberships and their probabilities: its coins as
    candidates x memberships."""
    shape = (model.candidates, -1)
    return model.coin_bins.reshape(shape), model.coin_probs.reshape(shape)


def small_params(**kw):
    base = dict(groups=4, slots_per_group=3, candidates=300, memberships=2, p_base=0.3, seed=1)
    base.update(kw)
    return SynthParams(**base)


class TestSynthParams:
    def test_defaults(self):
        p = SynthParams()
        assert (p.groups, p.slots_per_group, p.candidates) == (10, 50, 10_000)
        assert (p.memberships, p.p_base) == (2, 0.3)
        assert p.gaussian_std == 0.1
        assert p.group_slope == 0.03
        assert p.clip_range == PROB_CLIP

    def test_memberships_cannot_exceed_groups(self):
        with pytest.raises(InputError, match="memberships exceed groups"):
            SynthParams(groups=3, memberships=4)

    def test_other_validation(self):
        with pytest.raises(InputError):
            SynthParams(candidates=0)
        with pytest.raises(InputError):
            SynthParams(p_base=0.0)
        with pytest.raises(InputError):
            SynthParams(p_base=1.0)
        with pytest.raises(InputError):
            SynthParams(memberships=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("candidates", 30.5),
            ("candidates", True),
            ("groups", 3.0),
            ("slots_per_group", "2"),
            ("memberships", False),
            ("seed", 1.5),
            ("seed", None),
            ("seed", -1),
            ("p_base", True),
            ("p_base", "0.3"),
            ("p_base", None),
        ],
    )
    def test_fields_are_type_checked(self, field, value):
        params = dict(candidates=30, groups=3, slots_per_group=2)
        with pytest.raises(InputError, match=field):
            SynthParams(**{**params, field: value})

    def test_numpy_integers_are_stored_as_int(self):
        p = SynthParams(candidates=np.int64(30), groups=np.int32(3), seed=np.uint8(4))
        assert [type(v) for v in (p.candidates, p.groups, p.seed)] == [int] * 3
        a = build_synthetic_model(p)
        b = build_synthetic_model(SynthParams(candidates=30, groups=3, seed=4))
        assert coin_view(a) == coin_view(b)


class TestBuildModel:
    def test_shape_and_determinism(self):
        m1 = build_synthetic_model(small_params())
        m2 = build_synthetic_model(small_params())
        m3 = build_synthetic_model(small_params(seed=2))
        assert m1.slots == 12
        assert m1.candidates == 300
        assert coin_view(m1) == coin_view(m2)
        assert not np.array_equal(m1.coin_probs, m3.coin_probs)

    def test_membership_rows_distinct_sorted(self):
        m = build_synthetic_model(small_params(memberships=3))
        membership, _ = group_rows(m)
        assert membership.shape == (300, 3)
        assert np.all(np.diff(membership, axis=1) > 0)
        assert membership.min() >= 0
        assert membership.max() < 4

    def test_membership_roughly_uniform(self):
        m = build_synthetic_model(small_params(candidates=8000))
        counts = np.bincount(m.coin_bins, minlength=4)
        # 8000 candidates x 2 memberships over 4 groups: expect 4000 each.
        assert np.all(np.abs(counts - 4000) < 300)

    def test_group_means_rise_with_group_id(self):
        m = build_synthetic_model(small_params(candidates=20000, groups=6, memberships=1))
        means = [float(m.coin_probs[m.coin_bins == j].mean()) for j in range(6)]
        # Mean should track p_base + slope * (j+1) within sampling noise.
        for j, got in enumerate(means):
            assert got == pytest.approx(0.3 + 0.03 * (j + 1), abs=0.01)

    def test_clipping_hits_exact_bounds(self):
        hi = build_synthetic_model(small_params(p_base=0.98, candidates=2000))
        lo = build_synthetic_model(small_params(p_base=0.001, candidates=2000))
        assert hi.coin_probs.max() == PROB_CLIP[1]
        assert np.mean(hi.coin_probs == PROB_CLIP[1]) > 0.05
        assert lo.coin_probs.min() == PROB_CLIP[0]
        assert np.mean(lo.coin_probs == PROB_CLIP[0]) > 0.05

    def test_p_base_shift_shares_memberships_and_noise(self):
        a = build_synthetic_model(small_params(p_base=0.2))
        b = build_synthetic_model(small_params(p_base=0.4))
        assert np.array_equal(a.coin_bins, b.coin_bins)
        inner = (
            (a.coin_probs > PROB_CLIP[0]) & (a.coin_probs < PROB_CLIP[1])
            & (b.coin_probs > PROB_CLIP[0]) & (b.coin_probs < PROB_CLIP[1])
        )
        assert inner.any()
        shift = b.coin_probs[inner] - a.coin_probs[inner]
        assert np.allclose(shift, 0.2)


class TestDrawRelevance:
    def test_rows_are_unions_of_member_group_blocks(self):
        model = build_synthetic_model(small_params(seed=3))
        m = draw_relevance(model, substream(9, 1, 0))
        lay, (membership, _) = model.bins, group_rows(model)
        for a in range(model.candidates):
            row = set(m.indices[m.indptr[a] : m.indptr[a + 1]].tolist())
            allowed = [set(lay.slots_of(np.array([g])).tolist()) for g in membership[a]]
            # row must be a union of whole blocks among the candidate's groups
            rest = set(row)
            for block in allowed:
                if rest & block:
                    assert block <= rest
                    rest -= block
            assert not rest

    def test_draw_deterministic_in_rng(self):
        model = build_synthetic_model(small_params())
        a = draw_relevance(model, substream(5, 1, 7))
        b = draw_relevance(model, substream(5, 1, 7))
        c = draw_relevance(model, substream(5, 1, 8))
        assert edge_set(a) == edge_set(b)
        assert edge_set(a) != edge_set(c)

    def test_group_block_frequency(self):
        model = build_synthetic_model(small_params(candidates=60, seed=5))
        lay, (membership, group_prob) = model.bins, group_rows(model)
        hits = np.zeros_like(group_prob)
        trials = 1500
        for i in range(trials):
            m = draw_relevance(model, substream(11, 1, i))
            edges = edge_set(m)
            for cand in range(model.candidates):
                for k, g in enumerate(membership[cand]):
                    hits[cand, k] += (cand, int(lay.group_start[g])) in edges
        freq = hits / trials
        err = np.abs(freq - group_prob)
        assert err.mean() < 0.01
        assert err.max() < 0.06

    def test_independent_draw_frequencies(self):
        model = two_block_model(40, 6, 0.5, 0.2)
        acc = np.zeros((40, 6))
        trials = 2000
        for i in range(trials):
            m = draw_relevance(model, substream(13, 1, i))
            acc[m.row_ids(), m.indices] += 1
        freq = acc / trials
        assert np.abs(freq - dense_probs(model)).max() < 0.06

    def test_zero_prob_entries_never_appear(self):
        model = two_block_model(20, 4, 0.9, 0.9)
        for i in range(50):
            m = draw_relevance(model, substream(17, 1, i))
            assert all((a < 10) == (t < 2) for a, t in edge_set(m))


class TestSampleRelevances:
    def test_reproducible_and_prefix_stable(self):
        model = build_synthetic_model(small_params())
        s5 = sample_relevances(model, 5, 21)
        s5b = sample_relevances(model, 5, 21)
        s3 = sample_relevances(model, 3, 21)
        assert np.array_equal(s5.coins, s5b.coins)
        # sample i depends only on (seed, i), not on n
        assert np.array_equal(s5.coins[:3], s3.coins)
        assert s5.n == 5 and s5.seed == 21

    @pytest.mark.parametrize(
        "sizes", [(3, 0, 2, 0), (1, 2, 3), (0, 4), (2, 0) * 7, (1,) * 16]
    )
    def test_group_coins_are_the_won_groups_of_each_row(self, sizes):
        layout = SlotLayout(sizes)
        g = layout.group_count
        rng = np.random.default_rng(len(sizes))
        membership = np.sort(np.argsort(rng.random((40, g)), axis=1)[:, :2], axis=1)
        model = ProbabilityModel.group_structured(layout, membership, np.full((40, 2), 0.5))
        ss = sample_relevances(model, 6, 3)
        assert ss.model is model
        assert ss.coins.dtype == bool and ss.coins.shape == (6, 80)
        for m, won in zip(ss.samples, ss.coins.reshape(6, 40, 2)):
            for a in range(40):
                groups = membership[a][won[a]]
                assert m.indices[m.indptr[a] : m.indptr[a + 1]].tolist() == layout.slots_of(groups).tolist()
        # A mask-only draw takes the same coins from the same sub-stream, and
        # sets no bit of a slotless group.
        for i, won in enumerate(ss.coins.reshape(6, 40, 2)):
            alone = draw_masks(model, substream(3, PURPOSE_SAMPLE, i))
            want = [sum(1 << int(k) for k in membership[a][won[a]] if sizes[k]) for a in range(40)]
            assert alone.dtype == np.uint16 and alone.tolist() == want

    def test_independent_coins_are_the_drawn_entries(self):
        # An independent model's bins are its slots: a mask is the set of
        # slots of the candidate's row.
        model = two_block_model(30, 6, 0.5, 0.4)
        ss = sample_relevances(model, 5, 4)
        assert ss.coins.shape == (5, model.coin_probs.size)
        entries = coin_candidates(model), model.coin_bins
        for i, (m, won) in enumerate(zip(ss.samples, ss.coins)):
            assert edge_set(m) == set(zip(entries[0][won].tolist(), entries[1][won].tolist()))
            alone = draw_masks(model, substream(4, PURPOSE_SAMPLE, i))
            assert alone.tolist() == np.bincount(m.row_ids(), 1 << m.indices, 30).tolist()

    @pytest.mark.parametrize("groups", [4, MAX_MASK_GROUPS + 1])
    def test_group_coins_leave_draws_unchanged(self, groups):
        model = build_synthetic_model(small_params(groups=groups))
        ss = sample_relevances(model, 4, 2)
        for i, m in enumerate(ss.samples):
            plain = draw_relevance(model, substream(2, PURPOSE_SAMPLE, i))
            assert edge_set(plain) == edge_set(m)

    def test_independent_coins_leave_draws_unchanged(self):
        # Sure entries and empty rows: one coin per stored entry, in order.
        dense = np.zeros((12, 5))
        dense[2:, :3] = 0.4
        dense[5, 4] = dense[7, 3] = 1.0
        model = ProbabilityModel.from_dense(dense)
        ss = sample_relevances(model, 4, 2)
        for i, m in enumerate(ss.samples):
            rng = substream(2, PURPOSE_SAMPLE, i)
            keep = rng.random(model.coin_probs.size) < model.coin_probs
            assert edge_set(m) == set(zip(coin_candidates(model)[keep].tolist(),
                                          model.coin_bins[keep].tolist()))
            assert {(5, 4), (7, 3)} <= edge_set(m)
            assert edge_set(draw_relevance(model, substream(2, PURPOSE_SAMPLE, i))) == edge_set(m)

    def test_refuses_samples_that_outgrow_memory_before_drawing(self, monkeypatch):
        # 3 samples of 300 x 2 coins hold 1,800 bytes.
        model = build_synthetic_model(small_params())
        monkeypatch.setattr(core, "_physical_memory", lambda: 1799)
        drawn = []
        monkeypatch.setattr(synthgen, "substream", lambda *a: drawn.append(a))
        with pytest.raises(InputError, match="3 samples of 600 coins need more memory"):
            sample_relevances(model, 3, 0)
        assert drawn == []
        monkeypatch.undo()
        monkeypatch.setattr(core, "_physical_memory", lambda: 1800)
        assert sample_relevances(model, 3, 0).coins.nbytes == 1800

    def test_rejects_bad_n(self):
        model = build_synthetic_model(small_params())
        with pytest.raises(InputError):
            sample_relevances(model, 0, 1)

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_n_must_be_an_integer(self, n):
        model = build_synthetic_model(small_params())
        with pytest.raises(InputError, match="n must"):
            sample_relevances(model, n, 1)

    @pytest.mark.parametrize("seed", [1.5, -1, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        model = build_synthetic_model(small_params())
        with pytest.raises(InputError, match="seed must"):
            sample_relevances(model, 2, seed)


class TestTwoBlockModel:
    def test_structure(self):
        m = two_block_model(1000, 10, 0.5, 0.4)
        dense = dense_probs(m)
        assert dense.shape == (1000, 10)
        assert np.all(dense[:500, :5] == 0.5)
        assert np.all(dense[500:, 5:] == 0.4)
        assert dense[:500, 5:].sum() == 0
        assert dense[500:, :5].sum() == 0

    def test_validation(self):
        with pytest.raises(InputError):
            two_block_model(1, 10)
        with pytest.raises(InputError):
            two_block_model(10, 10, p_first=0.0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(candidates=10.5), "candidates"),
            (dict(candidates=10.0), "candidates"),
            (dict(slots=10.0), "slots"),
            (dict(slots="10"), "slots"),
            (dict(p_first=True), "real numbers"),
            (dict(p_second=True), "real numbers"),
            (dict(p_second="0.4"), "real numbers"),
            (dict(p_first=None), "real numbers"),
        ],
    )
    def test_rejects_non_integer_sizes_and_non_real_probabilities(self, kwargs, match):
        with pytest.raises(InputError, match=match):
            two_block_model(**{"candidates": 100, "slots": 10, **kwargs})

    def test_accepts_numpy_numbers(self):
        a = two_block_model(np.int64(10), np.int32(4), np.float64(0.5), 0.25)
        b = two_block_model(10, 4, 0.5, 0.25)
        assert a.slots == b.slots and coin_view(a) == coin_view(b)


class TestModelMetadata:
    def test_group_metadata(self):
        model = build_synthetic_model(small_params())
        meta = model_metadata(model)
        assert meta["kind"] == "group"
        assert meta["group_count"] == 4
        assert sum(meta["members_per_group"]) == 300 * 2
        assert PROB_CLIP[0] <= meta["group_prob_min"] <= meta["group_prob_max"] <= PROB_CLIP[1]

    def test_independent_metadata(self):
        meta = model_metadata(two_block_model(10, 4, 0.5, 0.25))
        assert meta["kind"] == "independent"
        assert meta["stored_entries"] == 5 * 2 + 5 * 2
        assert meta["prob_max"] == 0.5
