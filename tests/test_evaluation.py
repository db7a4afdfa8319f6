from concurrent.futures import Future
from contextlib import contextmanager
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import draw_masks, examples, random_relevance, random_sampleset, relevance_matrix
import matchrank.evaluation as evaluation
from matchrank.core import (
    ContractError,
    InputError,
    PURPOSE_EVAL,
    PURPOSE_SAMPLE,
    ProbabilityModel,
    Ranking,
    SampleSet,
    SlotLayout,
    _coin_masks,
    _coin_rows,
    _cut_dtype,
    substream,
)
from matchrank.evaluation import (
    MAX_CUT_FORM_GROUPS,
    EvalReport,
    _draw_chunks,
    _kmin_chunk,
    _per_draw_kmins,
    evaluate,
    evaluate_ranking,
    k_min,
    kmin_method,
    misspecification_run,
)
from matchrank.matching import max_matching_size
from matchrank.ranker import RankerConfig, _Cut
from matchrank.synthgen import (
    SynthParams,
    _draw_block,
    build_synthetic_model,
    draw_relevance,
    sample_relevances,
    two_block_model,
)
from oracles import (
    _kmin_bisect,
    _kmin_cut,
    avg_matching,
    commit_add,
    init_state,
    matchrank,
    prefix_match_curve,
)


def full_ranking(order):
    return Ranking(np.array(order, dtype=np.int32))


class TestPrefixMatchCurve:
    def test_toy_identity_order(self, toy_instance):
        got = prefix_match_curve(full_ranking([0, 1, 2, 3, 4]), toy_instance)
        assert got.tolist() == [1, 2, 2, 3, 3]

    def test_toy_bridge_first(self, toy_instance):
        got = prefix_match_curve(full_ranking([2, 0, 3, 1, 4]), toy_instance)
        assert got.tolist() == [1, 2, 3, 3, 3]

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_fresh_matchings(self, seed):
        rng = np.random.default_rng(6000 + seed)
        c, s = int(rng.integers(2, 10)), int(rng.integers(1, 6))
        m = random_relevance(rng, c, s, 0.4)
        order = rng.permutation(c)
        curve = prefix_match_curve(full_ranking(order), m)
        for k in range(1, c + 1):
            assert curve[k - 1] == max_matching_size(m, order[:k])

    def test_rejects_foreign_ids(self, toy_instance):
        with pytest.raises(InputError):
            prefix_match_curve(full_ranking([7]), toy_instance)


class TestKMin:
    def test_toy_orders(self, toy_instance):
        assert k_min(full_ranking([0, 1, 2, 3, 4]), toy_instance) == 4
        assert k_min(full_ranking([2, 0, 3, 1, 4]), toy_instance) == 3

    def test_unfillable_returns_none(self):
        m = relevance_matrix(3, 2, [(0, 0), (1, 0), (2, 0)])
        assert k_min(full_ranking([0, 1, 2]), m) is None

    def test_needs_complete_ranking(self, toy_instance):
        with pytest.raises(InputError, match="complete"):
            k_min(full_ranking([2, 0, 3]), toy_instance)

    def test_refuses_an_id_beyond_the_matrix(self, toy_instance):
        with pytest.raises(InputError, match="complete"):
            k_min(full_ranking([0, 1, 2, 3, 5]), toy_instance)

    def test_target_variants(self, toy_instance):
        r = full_ranking([0, 1, 2, 3, 4])
        assert k_min(r, toy_instance, target=0) == 0
        assert k_min(r, toy_instance, target=2) == 2
        with pytest.raises(InputError):
            k_min(r, toy_instance, target=4)

    @pytest.mark.parametrize("target", [1.5, True, "2"])
    def test_target_must_be_an_integer(self, toy_instance, target):
        with pytest.raises(InputError, match="target"):
            k_min(full_ranking([0, 1, 2, 3, 4]), toy_instance, target)

    def test_at_least_target_candidates_needed(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            m = random_relevance(np.random.default_rng(seed), 8, 4, 0.6)
            k = k_min(full_ranking(rng.permutation(8)), m)
            assert k is None or k >= 4

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_first_reach_of_prefix_curve(self, data):
        # The incremental kernel's prefix curve is the reference for the
        # bisection: k_min is the first prefix whose size reaches the target.
        c, s = data.draw(st.integers(0, 9)), data.draw(st.integers(1, 6))
        cells = data.draw(st.lists(st.booleans(), min_size=c * s, max_size=c * s))
        m = relevance_matrix(c, s, zip(*np.nonzero(np.array(cells, dtype=bool).reshape(c, s))))
        r = full_ranking(data.draw(st.permutations(range(c))))
        sizes = [0, *prefix_match_curve(r, m).tolist()]
        for target in range(s + 1):
            want = next((k for k, size in enumerate(sizes) if size >= target), None)
            assert k_min(r, m, target) == want


def random_group_model(sizes: list[int], seed: int) -> ProbabilityModel:
    """A group model over `sizes`: up to 20 candidates, so that some draws
    cannot fill the slots, and memberships that are near-certain or
    near-impossible, so that some candidates win no group (mask 0)."""
    rng = np.random.default_rng(seed)
    g, c = len(sizes), int(rng.integers(1, 21))
    k = int(rng.integers(1, g + 1))
    membership = np.sort(np.argsort(rng.random((c, g)), axis=1)[:, :k], axis=1)
    group_prob = rng.choice([0.02, 0.3, 0.6, 0.98], size=(c, k))
    return ProbabilityModel.group_structured(SlotLayout(tuple(sizes)), membership, group_prob)


def bisection_kmins(model: ProbabilityModel, order, eval_seed: int, draws: int) -> list:
    """k_min of each evaluation draw by the bisection on its slot-level draw."""
    return [
        _kmin_bisect(draw_relevance(model, substream(eval_seed, PURPOSE_EVAL, i)), order, model.slots)
        for i in range(draws)
    ]


class TestCutForm:
    """k_min on group masks against the bisection on slot-level draws."""

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=MAX_CUT_FORM_GROUPS),
        st.integers(0, 2**32 - 1),
    )
    @example([0, 0, 0], 0)  # no slots: target 0
    @example([3, 0, 1], 7)
    @settings(max_examples=examples(300), deadline=None)
    def test_equals_bisection_on_the_same_draws(self, sizes, seed):
        model = random_group_model(sizes, seed)
        assert kmin_method(model) == "cut"
        order = np.random.default_rng(seed).permutation(model.candidates)
        assert _kmin_chunk(model, order, seed, 0, 6) == bisection_kmins(model, order, seed, 6)

    @given(st.integers(0, MAX_CUT_FORM_GROUPS), st.integers(0, 2**32 - 1))
    @settings(max_examples=examples(150), deadline=None)
    def test_independent_slots_equal_bisection_on_the_same_draws(self, slots, seed):
        # An independent model's bins are its slots: within the limit its
        # draws are evaluated as slot masks.
        model = random_independent_model(seed, slots)
        assert kmin_method(model) == "cut"
        order = np.random.default_rng(seed).permutation(model.candidates)
        assert _kmin_chunk(model, order, seed, 0, 6) == bisection_kmins(model, order, seed, 6)

    @pytest.mark.parametrize(
        "candidates, dtype", [(2**15 - 4, np.int16), (2**15 - 3, np.int32), (33_100, np.int32)]
    )
    def test_counts_past_int16_take_int32(self, candidates, dtype):
        # Two slots: candidates + slots just below the bound, at it, and far
        # past it.  The first candidates - 100 ranked hold no coin, so a
        # probe past them counts that many masks of 0 in every subset, more
        # than int16 holds in the last case.
        model = zero_led_model(candidates, 2, 100)
        assert _cut_dtype(candidates, model.slots) == dtype
        order = np.arange(candidates)
        want = scalar_kmins(model, order, 3, 0, 6)
        assert all(k is not None and k > candidates - 100 for k in want)
        assert _kmin_chunk(model, order, 3, 0, 6) == want

    @pytest.mark.parametrize("candidates, dtype", [(2**15 - 4, np.int16), (2**15 - 3, np.int32)])
    def test_cut_kernel_narrows_by_the_probes_rule(self, candidates, dtype):
        # Just below and at the bound on candidates + slots, with two slots.
        cap = zero_led_model(candidates, 2, 100).bins.subset_slots
        assert _Cut(cap, np.zeros((1, candidates), np.uint16)).cut.dtype == dtype

    def test_default_scale_agrees_with_bisection(self):
        model = build_synthetic_model(SynthParams(seed=3))
        order = np.random.default_rng(0).permutation(model.candidates)
        assert _kmin_chunk(model, order, 5, 0, 2) == bisection_kmins(model, order, 5, 2)

    @pytest.mark.parametrize(
        "model, method",
        [
            (build_synthetic_model(SynthParams(groups=MAX_CUT_FORM_GROUPS, slots_per_group=1, candidates=30)), "cut"),
            (build_synthetic_model(SynthParams(groups=MAX_CUT_FORM_GROUPS + 1, slots_per_group=1, candidates=30)),
             "bisection"),
            (two_block_model(30, MAX_CUT_FORM_GROUPS, 0.7, 0.6), "cut"),
            (two_block_model(30, MAX_CUT_FORM_GROUPS + 1, 0.7, 0.6), "bisection"),
        ],
    )
    def test_dispatch(self, monkeypatch, model, method):
        assert kmin_method(model) == method
        order = np.random.default_rng(2).permutation(model.candidates)
        want = bisection_kmins(model, order, 4, 5)

        def unused(*args):
            raise AssertionError("the other k_min method ran")

        monkeypatch.setattr(evaluation, "_union_sizes" if method == "cut" else "_cut_sizes", unused)
        # Both methods read a draw from its coins: no slot-level draw is made.
        monkeypatch.setattr(evaluation, "draw_relevance", unused)
        assert _kmin_chunk(model, order, 4, 0, 5) == want

    @pytest.mark.parametrize("groups, method", [(10, "cut"), (11, "cut"), (12, "cut"), (13, "bisection")])
    def test_method_follows_evaluations_own_limit(self, groups, method):
        # The ranker's cut kernel stops at 10 groups; evaluation keeps the
        # cut form up to 12.
        model = build_synthetic_model(SynthParams(groups=groups, slots_per_group=1, candidates=30))
        assert kmin_method(model) == method

    @pytest.mark.parametrize("slots, method", [(0, "cut"), (12, "cut"), (13, "bisection")])
    def test_method_counts_bins_not_model_kinds(self, slots, method):
        # An independent model's bins are its slots.
        dense = np.full((20, slots), 0.5)
        assert kmin_method(ProbabilityModel.from_dense(dense)) == method


def random_independent_model(seed: int, slots: int | None = None) -> ProbabilityModel:
    """An independent model of `slots` slots (default: up to 5; none: target
    0) and up to 12 candidates (2 * slots + 2 when `slots` is given) whose
    entries are 0, 0.3, 0.7 or 1, so that some draws fill their slots with
    the first candidates and some cannot fill them at all."""
    rng = np.random.default_rng(seed)
    if slots is None:
        c, s = int(rng.integers(1, 13)), int(rng.integers(0, 6))
    else:
        c, s = int(rng.integers(1, 2 * slots + 3)), slots
    dense = rng.choice([0.0, 0.3, 0.7, 1.0], size=(c, s), p=[0.4, 0.2, 0.2, 0.2])
    return ProbabilityModel.from_dense(dense)


def zero_led_model(candidates: int, slots: int, tail: int) -> ProbabilityModel:
    """An independent model in which only the last `tail` of `candidates`
    candidates hold coins, one on each of the `slots` slots at 0.5."""
    ptr = np.concatenate([np.zeros(candidates - tail, np.int64), np.arange(tail + 1) * slots])
    bins = np.tile(np.arange(slots, dtype=np.int32), tail)
    return ProbabilityModel.independent(slots, ptr, bins, np.full(tail * slots, 0.5))


def method_draw(model: ProbabilityModel, eval_seed: int, i: int):
    """Evaluation draw i as its method reads it: bin masks on the cut
    path, a slot-level matrix on the bisection path."""
    rng = substream(eval_seed, PURPOSE_EVAL, i)
    return draw_masks(model, rng) if kmin_method(model) == "cut" else draw_relevance(model, rng)


def scalar_kmins(model: ProbabilityModel, order, eval_seed: int, lo: int, hi: int) -> list:
    """k_min of draws [lo, hi) by the per-draw scalar search of the oracles."""
    if kmin_method(model) == "cut":
        cap = model.bins.subset_slots
        return [_kmin_cut(cap, method_draw(model, eval_seed, i), order, model.slots) for i in range(lo, hi)]
    return [_kmin_bisect(method_draw(model, eval_seed, i), order, model.slots) for i in range(lo, hi)]


def draw_entries(model: ProbabilityModel, draw) -> int:
    """What the probes hold for one draw (`draw` as :func:`method_draw` gives
    it): its coins, its candidates' masks and the 2**G subset counts on the
    cut path; its edges, row pointers and slots on the bisection path."""
    if kmin_method(model) == "cut":
        return model.coin_probs.size + draw.size + (1 << model.bins.group_count)
    return draw.edge_count + draw.candidates + draw.slots


def block_bound(model: ProbabilityModel) -> int:
    """The most entries one draw of `model` can hold: the entries of the
    draw that wins every coin."""
    won = np.ones(model.coin_probs.size, dtype=bool)
    draw = _coin_masks(model, won) if kmin_method(model) == "cut" else _coin_rows(model, won)
    return draw_entries(model, draw)


@contextmanager
def lockstep_blocks(budget: int):
    """Evaluation with the block budget set to `budget`; yields the list
    that collects the number of draws of every lockstep block searched."""
    sizes, search = [], evaluation._lockstep

    def recording(probe, draws, n, target):
        sizes.append(draws)
        return search(probe, draws, n, target)

    with patch.object(evaluation, "_BLOCK_ENTRIES", budget), patch.object(evaluation, "_lockstep", recording):
        yield sizes


#: The models of the lockstep tests: None, an independent model of up to 5
#: slots; an int, one of that many slots; a list, a group model of those slot
#: counts (more than MAX_CUT_FORM_GROUPS bins, slots or groups, take the
#: bisection path).
lockstep_sizes = st.one_of(
    st.none(),
    st.integers(0, MAX_CUT_FORM_GROUPS + 3),
    st.lists(st.integers(0, 3), min_size=1, max_size=MAX_CUT_FORM_GROUPS + 2),
)

#: Models past MAX_CUT_FORM_GROUPS bins alone (the bisection path): an int,
#: an independent model of that many slots; a list, a group model.
wide_sizes = st.one_of(
    st.integers(MAX_CUT_FORM_GROUPS + 1, MAX_CUT_FORM_GROUPS + 3),
    st.lists(st.integers(0, 3), min_size=MAX_CUT_FORM_GROUPS + 1, max_size=MAX_CUT_FORM_GROUPS + 2),
)


def lockstep_model(sizes, seed: int) -> ProbabilityModel:
    if sizes is None or isinstance(sizes, int):
        return random_independent_model(seed, sizes)
    return random_group_model(sizes, seed)


class TestLockstep:
    """The lockstep search over blocks of draws against the per-draw scalar
    search of the oracles, on the same draws and both methods."""

    @given(
        # Wide models (bisection) in about one example of three: a quarter
        # of the draws pick them, and lockstep_sizes gives a few more.
        st.sampled_from([False, False, False, True]).flatmap(
            lambda wide: wide_sizes if wide else lockstep_sizes
        ),
        st.integers(0, 2**32 - 1),
        st.integers(0, 3),
        st.integers(1, 6),
        st.sampled_from(["default", "one", "pair"]),
    )
    # Unfillable draws beside draws settled at the target and past it.
    @example(None, 38, 0, 6, "default")
    @example(None, 170, 0, 6, "pair")
    @example([3, 2, 3, 3], 82, 0, 6, "pair")
    @example([3, 0, 0, 2, 1, 0, 0, 0, 3, 0, 2, 0, 3, 1], 122, 0, 6, "pair")
    # No slots: target 0, on both methods.
    @example([0, 0, 0], 0, 0, 4, "pair")
    @example([0] * (MAX_CUT_FORM_GROUPS + 2), 0, 0, 4, "one")
    @settings(max_examples=examples(300), deadline=None)
    def test_equals_per_draw_oracle(self, sizes, seed, lo, count, budget):
        """The budget is the default (one block), 1 (one draw per block), or
        one entry more than a draw's bound (blocks of two draws)."""
        model = lockstep_model(sizes, seed)
        order = np.random.default_rng(seed).permutation(model.candidates)
        want = scalar_kmins(model, order, seed, lo, lo + count)
        entries = {
            "default": evaluation._BLOCK_ENTRIES,
            "one": 1,
            "pair": block_bound(model) + 1,
        }[budget]
        with lockstep_blocks(entries) as blocks:
            assert _kmin_chunk(model, order, seed, lo, lo + count) == want
        assert sum(blocks) == count
        if budget == "default":
            assert blocks == [count]
        elif budget == "one":
            assert blocks == [1] * count
        else:
            assert blocks[0] == min(2, count)

    @pytest.mark.parametrize(
        "model, seed, method",
        [
            (random_independent_model(170), 170, "cut"),
            (random_group_model([3, 2, 3, 3], 82), 82, "cut"),
            (random_group_model([3, 0, 0, 2, 1, 0, 0, 0, 3, 0, 2, 0, 3, 1], 122), 122, "bisection"),
        ],
        ids=["independent", "group", "wide-group"],
    )
    def test_examples_cover_every_outcome(self, model, seed, method):
        """The examples above hold unfillable draws, draws settled at the
        target and draws past it, and a budget that splits the chunk."""
        assert kmin_method(model) == method
        order = np.random.default_rng(seed).permutation(model.candidates)
        want = scalar_kmins(model, order, seed, 0, 6)
        assert None in want and model.slots in want
        assert any(k is not None and k > model.slots for k in want)
        with lockstep_blocks(block_bound(model) + 1) as blocks:
            assert _kmin_chunk(model, order, seed, 0, 6) == want
        assert len(blocks) > 1 and blocks[0] == 2

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("slots, seed", [(None, 170), (MAX_CUT_FORM_GROUPS + 1, 25)])
    def test_evaluate_ranking_equals_oracle(self, threads, slots, seed):
        # Slot masks within the cut form's limit, slot rows past it.
        model = random_independent_model(seed, slots)
        order = np.random.default_rng(1).permutation(model.candidates)
        want = scalar_kmins(model, order, 9, 0, 16)
        assert None in want
        with pytest.warns(UserWarning, match="cannot fill"):
            report = evaluate_ranking(
                full_ranking(order), model, 16, 9, threads,
                algorithm="random", n_samples=1, sample_seed=0,
            )
        assert list(report.per_draw_kmin) == want


class TestBlockRule:
    """A chunk's lockstep blocks are ceil(budget / bound) draws each, the
    last one excepted, where bound is the most entries one draw of the model
    can hold: fixed before any draw, whatever the draws hold."""

    @given(
        # Models of both methods, wide ones (bisection) two times in three.
        st.one_of(lockstep_sizes, wide_sizes),
        st.integers(0, 2**32 - 1),
        st.integers(0, 3),
        st.integers(1, 12),
        st.integers(0, 4000),
    )
    @example(MAX_CUT_FORM_GROUPS + 2, 5, 0, 10, 2500)
    @example([3, 2, 3, 3], 82, 1, 7, 1500)
    @settings(max_examples=examples(200), deadline=None)
    def test_blocks_are_fixed_by_the_model(self, sizes, seed, lo, count, scale):
        """The budget runs from 1 to about four bounds (`scale` thousandths
        of a bound, plus one entry)."""
        model = lockstep_model(sizes, seed)
        order = np.random.default_rng(seed).permutation(model.candidates)
        bound = block_bound(model)
        budget = 1 + scale * bound // 1000
        size = -(-budget // bound)
        runs = []
        for eval_seed in (seed, seed ^ 1):
            with lockstep_blocks(budget) as blocks:
                _kmin_chunk(model, order, eval_seed, lo, lo + count)
            runs.append(blocks)
        blocks = runs[0]
        assert runs[1] == blocks
        assert sum(blocks) == count
        assert all(b == size for b in blocks[:-1]) and 1 <= blocks[-1] <= size
        start = lo
        for b in blocks:
            held = sum(draw_entries(model, method_draw(model, seed, i)) for i in range(start, start + b))
            assert held < budget + bound
            start += b


class TestDrawBlock:
    """Evaluation draws its blocks by the loop that draws a sample set."""

    @pytest.mark.parametrize(
        "model",
        [random_independent_model(170), random_group_model([3, 2, 3, 3], 82), two_block_model(40)],
        ids=["independent", "group", "two-block"],
    )
    def test_rows_are_a_sample_sets_coins(self, model):
        want = sample_relevances(model, 6, 11).coins
        assert np.array_equal(_draw_block(model, 11, PURPOSE_SAMPLE, 0, 6), want)
        assert np.array_equal(_draw_block(model, 11, PURPOSE_SAMPLE, 2, 5), want[2:5])


def coinless_independent_model(seed: int, slots: int) -> ProbabilityModel:
    """An independent model of `slots` slots whose candidates hold no coin
    about a third of the time, and else a random few."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 2 * slots + 3))
    dense = rng.choice([0.0, 0.3, 0.7, 1.0], size=(c, slots), p=[0.4, 0.2, 0.2, 0.2])
    dense[rng.random(c) < 0.3] = 0.0
    return ProbabilityModel.from_dense(dense)


class TestRankedRows:
    """The bisection path reads each draw's rows from its coins, through the
    model with its candidates in rank order; they must be the slot-level
    draw's rows gathered in rank order."""

    @given(
        st.one_of(
            st.integers(MAX_CUT_FORM_GROUPS + 1, MAX_CUT_FORM_GROUPS + 4),
            st.lists(st.integers(0, 3), min_size=MAX_CUT_FORM_GROUPS + 1, max_size=MAX_CUT_FORM_GROUPS + 4),
        ),
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
    )
    # Zero-slot groups; coinless candidates.
    @example([3, 0, 0, 2, 1, 0, 0, 0, 3, 0, 2, 0, 3, 1], 122, 3)
    @example(MAX_CUT_FORM_GROUPS + 1, 1, 3)
    @settings(max_examples=examples(300), deadline=None)
    def test_equal_slot_level_rows_in_rank_order(self, sizes, seed, draws):
        """`sizes` an int: an independent model of that many slots; a list:
        a group model of those slot counts.  Both take the bisection path."""
        if isinstance(sizes, int):
            model = coinless_independent_model(seed, sizes)
        else:
            model = random_group_model(sizes, seed)
        assert kmin_method(model) == "bisection"
        order = np.random.default_rng(seed).permutation(model.candidates)
        blocks, union = [], evaluation._union_sizes

        def recording(slots, block):
            blocks.append(block)
            return union(slots, block)

        with patch.object(evaluation, "_union_sizes", recording):
            _kmin_chunk(model, order, seed, 0, draws)
        assert len(blocks) == 1 and len(blocks[0]) == draws
        for i, (lens, cols) in enumerate(blocks[0]):
            m = draw_relevance(model, substream(seed, PURPOSE_EVAL, i))
            want_lens = np.diff(m.indptr)[order]
            want_cols = np.concatenate([m.indices[m.indptr[a] : m.indptr[a + 1]] for a in order])
            assert lens.dtype == want_lens.dtype and cols.dtype == want_cols.dtype
            assert lens.tolist() == want_lens.tolist()
            assert cols.tolist() == want_cols.tolist()


def avg_matching_curve(ranking: Ranking, samples: SampleSet) -> tuple[Fraction, ...]:
    """Average matching size across `samples` after each ranking prefix, as
    exact rationals: one incremental matching per sample."""
    states = [init_state(m) for m in samples.samples]
    total, out = 0, []
    for a in ranking.order:
        total += sum(commit_add(st, int(a), m) for st, m in zip(states, samples.samples))
        out.append(Fraction(total, samples.n))
    return tuple(out)


class TestAvgMatchingCurve:
    def test_matches_prefix_gain(self):
        rng = np.random.default_rng(8)
        ss = random_sampleset(rng, 10, 4, 4, 0.35)
        r = matchrank(ss)
        curve = avg_matching_curve(r, ss)
        assert curve == tuple(Fraction(g, ss.n) for g in r.prefix_gain)

    def test_matches_fresh_averages(self):
        rng = np.random.default_rng(9)
        ss = random_sampleset(rng, 8, 4, 3, 0.4)
        order = rng.permutation(8)
        curve = avg_matching_curve(full_ranking(order), ss)
        for k in (1, 4, 8):
            assert curve[k - 1] == avg_matching(order[:k].tolist(), ss)


class TestEvaluate:
    CFG = RankerConfig(algorithm="matchrank-lazy")

    def small_model(self):
        return two_block_model(24, 6, 0.7, 0.6)

    def test_report_shape_and_determinism(self):
        model = self.small_model()
        a = evaluate(self.CFG, model, 8, 3, 12, 4)
        b = evaluate(self.CFG, model, 8, 3, 12, 4)
        assert a == b
        assert a.draws == 12 and len(a.per_draw_kmin) == 12
        assert a.candidates == 24 and a.slots == 6
        assert a.config["algorithm"] == "matchrank-lazy"
        assert a.unfillable_count == a.per_draw_kmin.count(None)

    def test_threads_do_not_change_results(self):
        model = self.small_model()
        a = evaluate(self.CFG, model, 6, 3, 9, 4, threads=1)
        b = evaluate(self.CFG, model, 6, 3, 9, 4, threads=3)
        assert a == b

    def test_normalized_depth_at_least_one(self):
        model = self.small_model()
        rep = evaluate(self.CFG, model, 8, 1, 10, 2)
        for k in rep.per_draw_kmin:
            assert k is None or k >= rep.slots

    def test_near_certain_model_gives_exact_depth(self):
        model = two_block_model(12, 4, 0.9999, 0.9999)
        rep = evaluate(self.CFG, model, 4, 1, 8, 2)
        assert rep.normalized_mean == 1.0
        assert rep.normalized_std == 0.0
        assert rep.unfillable_count == 0

    def test_unfillable_all_draws(self):
        # Slot 3 has no probability mass anywhere: never fillable.
        dense = np.zeros((6, 4))
        dense[:, :3] = 0.8
        model = ProbabilityModel.from_dense(dense)
        with pytest.warns(UserWarning, match="cannot fill"):
            rep = evaluate(self.CFG, model, 4, 1, 5, 2)
        assert rep.unfillable_count == 5
        assert rep.normalized_mean is None
        assert rep.normalized_std is None
        assert rep.per_draw_kmin == (None,) * 5

    def test_rejects_stop_at(self):
        with pytest.raises(InputError, match="stop_at"):
            evaluate(RankerConfig(stop_at=3), self.small_model(), 4, 1, 4, 2)

    def test_rejects_bad_draws(self):
        with pytest.raises(InputError):
            evaluate(self.CFG, self.small_model(), 4, 1, 0, 2)

    @pytest.mark.parametrize(
        "model",
        [
            ProbabilityModel.from_dense(np.full((2, 2), 0.5)),
            ProbabilityModel.from_dense(np.full((2, 20), 0.5)),
            ProbabilityModel.group_structured(SlotLayout((1, 2, 1)), [[0], [1], [2]], np.full((3, 1), 0.5)),
        ],
    )
    def test_refuses_ids_beyond_the_candidates(self, model):
        # As many distinct ids as candidates, the last of them none.
        ranking = full_ranking([*range(model.candidates - 1), model.candidates + 3])
        with pytest.raises(InputError, match="permutation"):
            evaluate_ranking(ranking, model, 3, 0, algorithm="ntr", n_samples=4, sample_seed=1)

    @pytest.mark.parametrize(
        "model",
        [
            ProbabilityModel.from_dense(np.zeros((3, 0))),
            ProbabilityModel.group_structured(SlotLayout((0, 0)), [[0], [1], [0]], np.full((3, 1), 0.5)),
        ],
    )
    def test_refuses_a_model_without_slots(self, model):
        ranking = full_ranking(np.arange(model.candidates))
        with pytest.raises(InputError, match="without slots"):
            evaluate_ranking(ranking, model, 3, 0, algorithm="ntr", n_samples=4, sample_seed=1)

    @pytest.mark.parametrize(
        "model",
        [
            ProbabilityModel.from_dense(np.zeros((3, 0))),
            ProbabilityModel.group_structured(SlotLayout((0, 0)), [[0], [1], [0]], np.full((3, 1), 0.5)),
        ],
    )
    def test_evaluate_refuses_a_model_without_slots_before_sampling(self, model):
        with patch.object(evaluation, "sample_relevances", side_effect=AssertionError("sampled")):
            with pytest.raises(InputError, match="without slots"):
                evaluate(self.CFG, model, 4, 1, 3, 0)

    @pytest.mark.parametrize("draws", [2.5, True, "3"])
    def test_draws_must_be_an_integer(self, draws):
        model = self.small_model()
        ranking = full_ranking(np.arange(model.candidates))
        with pytest.raises(InputError, match="draws"):
            evaluate_ranking(
                ranking, model, draws, 2, algorithm="ntr", n_samples=4, sample_seed=1
            )

    @pytest.mark.parametrize("eval_seed", [1.5, True, -1])
    def test_eval_seed_must_be_a_non_negative_integer(self, eval_seed):
        model = self.small_model()
        ranking = full_ranking(np.arange(model.candidates))
        with pytest.raises(InputError, match="seed must"):
            evaluate_ranking(
                ranking, model, 3, eval_seed, algorithm="ntr", n_samples=4, sample_seed=1
            )

    @pytest.mark.parametrize("threads", [0, -3, True, 2.5, "2"])
    def test_threads_must_be_a_positive_integer(self, threads):
        model = self.small_model()
        ranking = full_ranking(np.arange(model.candidates))
        with pytest.raises(InputError, match="threads must"):
            evaluate_ranking(
                ranking, model, 3, 2, threads, algorithm="ntr", n_samples=4, sample_seed=1
            )

    def test_sample_model_changes_ranking_only(self):
        model = self.small_model()
        skew = two_block_model(24, 6, 0.95, 0.1)
        a = evaluate(self.CFG, model, 8, 3, 10, 4)
        b = evaluate(self.CFG, model, 8, 3, 10, 4, sample_model=skew)
        assert b.config["misspecified_sampling"] is True
        assert a.config["misspecified_sampling"] is False
        # Same evaluation draws underneath: identical unfillable pattern.
        assert [k is None for k in a.per_draw_kmin] == [k is None for k in b.per_draw_kmin]


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size and runs each
    work unit when it is submitted."""

    def __init__(self, sizes: list, max_workers: int):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as e:
            future.set_exception(e)
        return future


class TestWorkerPool:
    def test_workers_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 4)
        assert _draw_chunks(5000, 5000) == [(0, 1250), (1250, 2500), (2500, 3750), (3750, 5000)]
        assert _draw_chunks(3, 5000) == [(0, 1), (1, 2), (2, 3)]
        assert _draw_chunks(10, 2) == [(0, 5), (5, 10)]
        assert _draw_chunks(10, 1) == [(0, 10)]
        monkeypatch.setattr(evaluation.os, "cpu_count", lambda: None)
        assert _draw_chunks(10, 8) == [(0, 10)]

    def test_pool_size_follows_the_cap(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(
            evaluation, "ProcessPoolExecutor", lambda max_workers: _InlinePool(sizes, max_workers)
        )
        model = two_block_model(24, 6, 0.7, 0.6)
        order = np.random.default_rng(1).permutation(24)
        many = _per_draw_kmins(model, order, 12, 4, threads=5000)
        assert sizes == [3]
        assert many == _per_draw_kmins(model, order, 12, 4, threads=1)
        assert sizes == [3]

    def test_failing_worker_names_its_draw_range(self, monkeypatch):
        def fail_late(model, order, eval_seed, lo, hi):
            if hi > 2:  # draw 2 fails
                raise RuntimeError("draw failed")
            return [None] * (hi - lo)

        monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(
            evaluation, "ProcessPoolExecutor", lambda max_workers: _InlinePool([], max_workers)
        )
        monkeypatch.setattr(evaluation, "_kmin_chunk", fail_late)
        with pytest.raises(ContractError, match=r"draws \[2, 4\) failed: RuntimeError\('draw failed'\)"):
            _per_draw_kmins(two_block_model(24, 6, 0.7, 0.6), np.arange(24), 4, 4, threads=2)
        # One chunk runs in this process, and names its draws the same way.
        with pytest.raises(ContractError, match=r"draws \[0, 4\) failed") as info:
            _per_draw_kmins(two_block_model(24, 6, 0.7, 0.6), np.arange(24), 4, 4, threads=1)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_worker_data_error_passes_through(self, monkeypatch):
        def bad_data(model, order, eval_seed, lo, hi):
            raise InputError("bad draw")

        monkeypatch.setattr(evaluation.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(
            evaluation, "ProcessPoolExecutor", lambda max_workers: _InlinePool([], max_workers)
        )
        monkeypatch.setattr(evaluation, "_kmin_chunk", bad_data)
        for threads in (1, 2):
            with pytest.raises(InputError, match="^bad draw$"):
                _per_draw_kmins(two_block_model(24, 6, 0.7, 0.6), np.arange(24), 4, 4, threads)


class TestEvalReport:
    def test_validates_draw_count(self):
        with pytest.raises(InputError):
            EvalReport(
                algorithm="tr",
                candidates=3,
                slots=2,
                n_samples=1,
                sample_seed=0,
                draws=3,
                eval_seed=0,
                per_draw_kmin=(2, 2),
                normalized_mean=1.0,
                normalized_std=0.0,
                unfillable_count=0,
                config={},
            )


class TestMisspecification:
    PARAMS = SynthParams(groups=3, slots_per_group=2, candidates=40, memberships=1, p_base=0.3, seed=5)

    def test_matched_entry_equals_direct_evaluate(self):
        cfg = RankerConfig()
        reports = misspecification_run(self.PARAMS, [0.1, 0.3], cfg, 6, 1, 6, 2)
        from matchrank.synthgen import build_synthetic_model

        direct = evaluate(
            cfg,
            build_synthetic_model(self.PARAMS),
            6,
            1,
            6,
            2,
            config_extra={"assumed_p_base": 0.3, "true_p_base": 0.3},
        )
        assert reports[1] == direct
        assert reports[0].config["assumed_p_base"] == 0.1
        assert reports[0].config["misspecified_sampling"] is True
        assert reports[1].config["misspecified_sampling"] is False

    def test_all_entries_share_eval_draws(self):
        reports = misspecification_run(
            self.PARAMS, [0.1, 0.3, 0.5], RankerConfig(), 6, 1, 8, 2
        )
        patterns = [[k is None for k in r.per_draw_kmin] for r in reports]
        assert patterns[0] == patterns[1] == patterns[2]
