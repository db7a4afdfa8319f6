import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    coin_view,
    edge_set,
    examples,
    random_group_samples,
    random_independent_samples,
    random_relevance,
    random_sampleset,
    relevance_matrix,
    sample_set,
)
from matchrank import core, ranker
from matchrank.core import (
    ContractError,
    InputError,
    ProbabilityModel,
    Ranking,
    SampleSet,
    SlotLayout,
    _coin_masks,
)
from matchrank.ranker import (
    ALGORITHMS,
    GREEDY_ALGORITHMS,
    MAX_CUT_KERNEL_GROUPS,
    SCORE_RULES,
    RankerConfig,
    RankerStats,
    baseline_scores,
    empirical_marginals,
    random_ranking,
    rank,
    score_ranking,
    _UNSEEN,
    _Batched,
    _Cut,
    _greedy,
    _tie_key,
)
from matchrank.evaluation import evaluate
from matchrank.fileio import ingest_model
from matchrank.synthgen import (
    SynthParams,
    build_synthetic_model,
    sample_relevances,
    two_block_model,
)
from oracles import (
    MatchState,
    all_ksubset_totals,
    avg_matching,
    commit_add,
    dense_probs,
    gain_if_added,
    init_state,
    matchrank,
    matchrank_lazy,
    row_count_marginals,
    spread_marginals,
    spread_order,
    spread_scores,
)


def cut_values(cap: np.ndarray, pool_masks: np.ndarray) -> np.ndarray:
    """Each sample's cut value cap(U) + #{pool masks not within U} for every
    class subset U, in reversed subset order (column i is U = full ^ i), as
    ``_Cut.cut`` keeps them: `pool_masks` is samples x pool."""
    full = cap.size - 1
    u = full ^ np.arange(cap.size)
    outside = (pool_masks[:, :, None] & ~u & full) != 0
    return cap[u] + np.count_nonzero(outside, axis=1)


def total_marginal_gain(states: list[MatchState], a: int, samples: SampleSet) -> int:
    """Summed 0/1 matching gain of adding candidate `a` across all states.

    All states must describe the same committed pool (checked via counts).
    """
    if len({state.pool_count for state in states}) > 1:
        raise ContractError("states disagree on pool size")
    return sum(
        gain_if_added(state, a, samples.samples[state.sample_ref]) for state in states
    )


class TestRankerConfig:
    def test_defaults(self):
        cfg = RankerConfig()
        assert cfg.algorithm == "matchrank-lazy"
        assert cfg.stop_at is None

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(InputError, match="valid:"):
            RankerConfig(algorithm="best-first")

    def test_rejects_bad_stop(self):
        with pytest.raises(InputError):
            RankerConfig(stop_at=0)

    @pytest.mark.parametrize(
        "field, value",
        [("stop_at", 2.5), ("stop_at", True), ("stop_at", "3"), ("seed", 2.5),
         ("seed", False), ("seed", None), ("seed", -1)],
    )
    def test_fields_are_type_checked(self, field, value):
        with pytest.raises(InputError, match=field):
            RankerConfig(**{field: value})

    def test_numpy_integers_are_stored_as_int(self):
        cfg = RankerConfig(seed=np.int64(2), stop_at=np.int32(3))
        assert (type(cfg.seed), type(cfg.stop_at)) == (int, int)


class TestTotalMarginalGain:
    def test_counts_each_sample(self, toy_instance):
        thin = relevance_matrix(5, 3, [(1, 0)])
        ss = sample_set((toy_instance, thin))
        states = [init_state(m, j) for j, m in enumerate(ss.samples)]
        assert total_marginal_gain(states, 1, ss) == 2
        assert total_marginal_gain(states, 4, ss) == 0
        commit_add(states[0], 1, ss.samples[0])
        commit_add(states[1], 1, ss.samples[1])
        assert total_marginal_gain(states, 0, ss) == 1  # thin sample is full

    def test_rejects_inconsistent_pools(self, toy_instance):
        ss = sample_set((toy_instance, toy_instance))
        states = [init_state(m, j) for j, m in enumerate(ss.samples)]
        commit_add(states[0], 0, ss.samples[0])
        with pytest.raises(ContractError):
            total_marginal_gain(states, 1, ss)


class TestGreedy:
    def test_hand_checked_order(self, toy_instance):
        ss = sample_set((toy_instance,))
        ranking = matchrank(ss)
        # Candidate 2 has the most edges.  Among the remaining gain-1 ties,
        # candidate 3 — the sole provider of slot 2 — outranks 0 and 1 on the
        # competition-normalized key; candidate 1 is displaced to the
        # zero-gain tail once slots 0/1 are sewn up.
        assert ranking.order.tolist() == [2, 3, 0, 1, 4]
        assert ranking.prefix_gain == (1, 2, 3, 3, 3)

    def test_stop_at(self, toy_instance):
        ss = sample_set((toy_instance,))
        r3 = matchrank(ss, RankerConfig(algorithm="matchrank", stop_at=3))
        assert r3.order.tolist() == [2, 3, 0]
        assert r3.prefix_gain == (1, 2, 3)
        lazy3 = matchrank_lazy(ss, RankerConfig(stop_at=3))
        assert lazy3.order.tolist() == [2, 3, 0]
        with pytest.raises(InputError):
            matchrank(ss, RankerConfig(algorithm="matchrank", stop_at=6))

    def test_all_zero_instance_flushes_by_id(self):
        empty = relevance_matrix(4, 2, [])
        ss = sample_set((empty,))
        for fn in (matchrank, matchrank_lazy):
            r = fn(ss)
            assert r.order.tolist() == [0, 1, 2, 3]
            assert r.prefix_gain == (0, 0, 0, 0)

def test_prefix_gain_is_total_over_samples():
    rng = np.random.default_rng(5)
    ss = random_sampleset(rng, 9, 4, 3, 0.4)
    r = matchrank(ss)
    for k in range(1, 10):
        want = avg_matching(r.order[:k].tolist(), ss)
        assert r.prefix_gain[k - 1] == want * ss.n


@pytest.mark.parametrize("seed", range(25))
def test_lazy_equals_eager(seed):
    rng = np.random.default_rng(4000 + seed)
    c = int(rng.integers(2, 14))
    s = int(rng.integers(1, 7))
    n = int(rng.integers(1, 6))
    ss = random_sampleset(rng, c, s, n, float(rng.choice([0.15, 0.35, 0.6])))
    st_naive, st_lazy = RankerStats(), RankerStats()
    a = matchrank(ss, stats=st_naive)
    b = matchrank_lazy(ss, stats=st_lazy)
    assert a.order.tolist() == b.order.tolist()
    assert a.prefix_gain == b.prefix_gain
    assert st_lazy.gain_evals <= st_naive.gain_evals


@pytest.mark.parametrize("seed", range(12))
def test_greedy_hits_constant_factor_of_best_subset(seed):
    rng = np.random.default_rng(5000 + seed)
    c = int(rng.integers(4, 9))
    s = int(rng.integers(2, 5))
    k = int(rng.integers(1, min(c, 4) + 1))
    ss = random_sampleset(rng, c, s, int(rng.integers(1, 4)), 0.4)
    best = max(all_ksubset_totals(ss, k).values())
    r = matchrank(ss, RankerConfig(algorithm="matchrank", stop_at=k))
    got = r.prefix_gain[k - 1]
    assert got >= (1 - 1 / math.e) * best - 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=examples(40), deadline=None)
def test_greedy_increments_never_increase(seed):
    rng = np.random.default_rng(seed)
    c, s, n = int(rng.integers(2, 10)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
    ss = random_sampleset(rng, c, s, n, 0.4)
    r = matchrank_lazy(ss)
    pg = (0,) + r.prefix_gain
    diffs = [b - a for a, b in zip(pg, pg[1:])]
    assert all(x >= y for x, y in zip(diffs, diffs[1:]))
    assert all(d >= 0 for d in diffs)


class TestEmpiricalMarginals:
    def test_counts(self, toy_instance):
        thin = relevance_matrix(5, 3, [(0, 0), (2, 1)])
        ss = sample_set((toy_instance, thin))
        dense = dense_probs(ss.model, empirical_marginals(ss))
        want = np.array(
            [
                [1.0, 0, 0],
                [0, 0.5, 0],
                [0.5, 1.0, 0],
                [0, 0, 0.5],
                [0, 0, 0],
            ]
        )
        assert np.array_equal(dense, want)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.booleans())
    @settings(max_examples=examples(40), deadline=None)
    def test_bytes_equal_the_coin_count(self, seed, groups, grouped):
        # The score rules and the tie key of every greedy kernel read these
        # bytes: one win frequency per coin of the model.
        rng = np.random.default_rng(seed)
        if grouped:
            ss = random_group_samples(rng, groups)
        else:
            ss = random_unstructured_samples(rng)
        got = empirical_marginals(ss)
        assert got.dtype == np.float64 and got.shape == ss.model.coin_probs.shape
        assert got.tobytes() == (ss.coins.sum(axis=0, dtype=np.int64) / ss.n).tobytes()
        # Spread over its bin's slots, a coin's is each slot's edge frequency.
        counts = np.zeros((ss.candidates, ss.slots))
        for m in ss.samples:
            counts[m.row_ids(), m.indices] += 1
        assert np.array_equal(dense_probs(ss.model, got), counts / ss.n)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 16), st.booleans(), st.booleans())
    @settings(max_examples=examples(100), deadline=None)
    def test_coins_count_as_their_rows(self, seed, bins, grouped, blank):
        # Group sets with zero-slot groups, and independent sets of up to
        # 16 slots (none included) with empty rows and sure entries; `blank`
        # also clears every coin of candidate 0.
        rng = np.random.default_rng(seed)
        if grouped:
            ss = random_group_samples(rng, max(bins, 1))
        else:
            ss = random_independent_samples(rng, bins)
        if blank:
            coins = ss.coins.copy()
            coins[:, ss.model.coin_ptr[0] : ss.model.coin_ptr[1]] = False
            ss = SampleSet(ss.model, coins, ss.seed)
        got, want = spread_marginals(ss.model, empirical_marginals(ss)), row_count_marginals(ss)
        assert (got.bins.group_sizes.tolist(), coin_view(got)) == (want.bins.group_sizes.tolist(), coin_view(want))


class TestBaselineScores:
    def make(self, dense):
        return ProbabilityModel.from_dense(dense)

    def test_and_formula_and_empty_rows(self):
        m = self.make([[0.5, 0.2], [0.0, 0.0], [1.0, 1.0]])
        s = baseline_scores(m, "and")
        assert s[0] == pytest.approx(math.log(0.5) + math.log(0.2))
        assert s[1] == -math.inf
        assert s[2] == pytest.approx(0.0)

    def test_and_orders_like_product(self):
        rng = np.random.default_rng(11)
        dense = rng.random((30, 4)) * (rng.random((30, 4)) < 0.7)
        m = self.make(dense)
        s = baseline_scores(m, "and")
        prods = np.where(
            (dense > 0).any(axis=1),
            np.where(dense > 0, dense, 1.0).prod(axis=1),
            0.0,
        )
        # identical ordering, log domain vs product domain
        assert np.array_equal(np.argsort(-s, kind="stable"), np.argsort(-prods, kind="stable"))

    def test_or_formula(self):
        m = self.make([[0.5, 0.2], [0.0, 0.0]])
        s = baseline_scores(m, "or")
        assert s[0] == pytest.approx(-math.log(0.5) - math.log(0.8))
        assert s[1] == 0.0

    def test_or_clamps_certain_edges_with_warning(self):
        m = self.make([[1.0, 0.5], [0.9, 0.0]])
        with pytest.warns(UserWarning, match="clamped") as caught:
            s = baseline_scores(m, "or")
        assert caught[0].filename == __file__  # the warning points at the caller
        assert np.isfinite(s).all()
        assert s[0] > s[1]

    def test_tr_formula(self):
        m = self.make([[0.5, 0.2], [0.0, 0.9]])
        assert baseline_scores(m, "tr") == pytest.approx([0.7, 0.9])

    def test_ntr_normalizes_columns(self):
        m = self.make([[0.5, 0.4, 0.0], [0.5, 0.0, 0.0], [0.0, 0.6, 0.0]])
        s = baseline_scores(m, "ntr")
        assert s[0] == pytest.approx(0.5 + 0.4)
        assert s[1] == pytest.approx(0.5)
        assert s[2] == pytest.approx(0.6)

    def test_ntr_ignores_empty_columns(self):
        m = self.make([[0.5, 0.0], [0.5, 0.0]])
        s = baseline_scores(m, "ntr")
        assert np.isfinite(s).all()
        assert s[0] == pytest.approx(0.5)

    def test_rejects_unknown_rule(self):
        m = self.make([[0.5]])
        with pytest.raises(InputError):
            baseline_scores(m, "xor")

    def test_scores_a_group_model_as_its_spread(self):
        # Its coins' bins are groups: each coin counts once per slot.
        group = ProbabilityModel.group_structured(SlotLayout((2, 1)), [[0], [1]], [[0.5], [0.5]])
        assert baseline_scores(group, "tr").tolist() == [1.0, 0.5]
        for rule in SCORE_RULES:
            assert_bitwise(baseline_scores(group, rule), baseline_scores(spread_marginals(group), rule))

    def test_scores_given_coin_probabilities(self):
        # `p` stands in for the model's own, one per coin; a coin of 0 has no edge.
        m = self.make([[0.5, 0.2], [0.0, 0.9]])
        p = np.array([0.25, 0.0, 0.5])
        other = self.make([[0.25, 0.0], [0.0, 0.5]])
        for rule in SCORE_RULES:
            assert_bitwise(baseline_scores(m, rule, p), baseline_scores(other, rule))
        with pytest.raises(InputError):
            baseline_scores(m, "xor", p)
        with pytest.raises(InputError, match="one probability per coin"):
            baseline_scores(m, "tr", p[:2])


class TestScoreRanking:
    def test_tie_break_by_normalized_relevance_then_id(self):
        m = ProbabilityModel.from_dense([[0.4, 0.0], [0.4, 0.2], [0.9, 0.9]])
        r = score_ranking(m, "and")
        # and-scores: log(.4) ; log(.4)+log(.2) ; log(.81): best is row 2
        assert r.order[0] == 2
        m2 = ProbabilityModel.from_dense([[0.4, 0.2], [0.2, 0.4], [0.1, 0.1]])
        r2 = score_ranking(m2, "and")  # rows 0,1 tie on product and on the
        assert r2.order.tolist() == [0, 1, 2]  # symmetric secondary -> id

    def test_tie_break_prefers_uncrowded_slots(self):
        # Rows 0 and 1 tie on total relevance, but row 1 owns its slot
        # outright while row 0 competes with row 2.
        m = ProbabilityModel.from_dense([[0.5, 0.0], [0.0, 0.5], [0.4, 0.0]])
        r = score_ranking(m, "tr")
        assert r.order.tolist() == [1, 0, 2]


def assert_bitwise(got: np.ndarray, want: np.ndarray):
    """Two float arrays hold the same bits."""
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def warned(fn, *args):
    """`fn(*args)` and whether it warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, bool(caught)


def score_samples(rng: np.random.Generator, grouped: bool) -> SampleSet:
    """1 to 10 samples of a random model: a group model of 1-8 groups of 0-12
    slots, or an independent one of 0-12 slots with empty rows and sure
    entries; about one coin in five is then lost in every sample and one
    in five won in every sample."""
    c, g, n = int(rng.integers(1, 21)), int(rng.integers(1, 9)), int(rng.integers(1, 11))
    probs = [0.02, 0.1, 0.3, 0.7, 0.98]
    if grouped:
        layout = SlotLayout(tuple(int(k) for k in rng.integers(0, 13, size=g)))
        k = int(rng.integers(1, g + 1))
        membership = np.sort(np.argsort(rng.random((c, g)), axis=1)[:, :k], axis=1)
        model = ProbabilityModel.group_structured(layout, membership, rng.choice(probs, size=(c, k)))
    else:
        s = int(rng.integers(0, 13))
        dense = rng.choice(probs[1:-1] + [1.0], size=(c, s))
        dense[rng.random((c, s)) < 0.5] = 0.0
        model = ProbabilityModel.from_dense(dense)
    coins = sample_relevances(model, n, int(rng.integers(0, 1000))).coins.copy()
    coins[:, rng.random(coins.shape[1]) < 0.2] = False
    coins[:, rng.random(coins.shape[1]) < 0.2] = True
    return SampleSet(model, coins, 0)


class TestCoinScores:
    """The score rules and the greedy tie key read each coin's probability
    or win frequency and its bin's size, against a row sum over the
    per-slot entries of the independent model that spreads them."""

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=examples(200), deadline=None)
    def test_equal_the_spread_oracle(self, seed, grouped):
        ss = score_samples(np.random.default_rng(seed), grouped)
        model, counted, freq = ss.model, row_count_marginals(ss), empirical_marginals(ss)
        for rule in SCORE_RULES:
            # The model's probabilities, and the samples' win frequencies.
            for got, want in (
                (warned(baseline_scores, model, rule), warned(spread_scores, spread_marginals(model), rule)),
                (warned(baseline_scores, model, rule, freq), warned(spread_scores, counted, rule)),
            ):
                assert got[1] == want[1]
                assert_bitwise(got[0], want[0])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # "or" clamps sure entries
                cfg = RankerConfig(algorithm=rule)
                assert rank(ss, cfg).order.tobytes() == spread_order(counted, rule).tobytes()
                want = spread_order(spread_marginals(model), rule).tobytes()
                assert rank(ss, cfg, marginals=model).order.tobytes() == want
        assert_bitwise(_tie_key(ss), spread_scores(counted, "ntr"))

    def test_add_a_coins_term_once_per_slot(self):
        # Ten additions of 0.1 make 0.9999999999999999; 10 * 0.1 makes 1.0.
        model = ProbabilityModel.group_structured(SlotLayout((10, 0)), [[0], [0], [1]], [[0.1], [0.3], [0.5]])
        assert spread_scores(spread_marginals(model), "tr")[0] == sum([0.1] * 10) != 1.0
        ss = SampleSet(model, np.array([[True, False, True]] * 9 + [[False] * 3]), 0)
        freq = empirical_marginals(ss)
        assert freq[0] == 0.9
        for rule in SCORE_RULES:
            assert_bitwise(baseline_scores(model, rule), spread_scores(spread_marginals(model), rule))
            assert_bitwise(baseline_scores(model, rule, freq), spread_scores(row_count_marginals(ss), rule))
        # A candidate whose coins own no slot has no entry.
        assert baseline_scores(model, "and")[2] == -math.inf

    def test_or_clamps_only_entries_that_exist(self):
        # Candidate 1's sure coin is in a group without slots.
        model = ProbabilityModel.group_structured(SlotLayout((2, 0)), [[0], [1]], [[0.5], [0.5]])
        ss = SampleSet(model, np.array([[False, True], [True, True]]), 0)
        _, clamped = warned(baseline_scores, model, "or", empirical_marginals(ss))
        assert not clamped
        ss = SampleSet(model, np.array([[True, True], [True, False]]), 0)
        scores, clamped = warned(baseline_scores, model, "or", empirical_marginals(ss))
        assert clamped and np.isfinite(scores).all()

    def test_refuses_entries_beyond_memory(self, monkeypatch):
        model = ProbabilityModel.group_structured(SlotLayout((10, 5)), [[0], [1]], [[0.5], [0.5]])
        monkeypatch.setattr(core, "_physical_memory", lambda: 16 * 15 - 1)
        with pytest.raises(InputError, match="15 per-slot entries"):
            baseline_scores(model, "tr")
        monkeypatch.setattr(core, "_physical_memory", lambda: 16 * 15)
        assert baseline_scores(model, "tr").tolist() == [5.0, 2.5]


class TestWinFrequencyHook:
    """``rank()`` reads the samples' win frequencies through the module-level
    name ``ranker.empirical_marginals``, once, wherever it reads them: the
    benchmark's tracer patches that name to time the tie key and score
    input."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = ranker.empirical_marginals
        monkeypatch.setattr(ranker, "empirical_marginals", lambda ss: calls.append(ss) or real(ss))
        return calls

    @pytest.fixture(scope="class")
    def sets(self):
        # A cut-kernel set, a batched-kernel one, and an independent one.
        rng = np.random.default_rng(4)
        return [
            random_group_samples(rng, 6, n=5),
            random_group_samples(rng, MAX_CUT_KERNEL_GROUPS + 2, n=5),
            random_independent_samples(rng, 8, n=5),
        ]

    @pytest.mark.filterwarnings("ignore:probability 1")
    def test_once_per_rank_from_the_samples(self, calls, sets):
        kernels = set()
        for ss in sets:
            for algorithm in GREEDY_ALGORITHMS + SCORE_RULES:
                cfg, stats = RankerConfig(algorithm=algorithm), RankerStats()
                calls.clear()
                assert rank(ss, cfg, stats=stats).is_complete(ss.candidates)
                assert len(calls) == 1 and calls[0] is ss
                kernels.add(stats.kernel)
            # The greedies rank from the samples whatever marginals are given.
            for algorithm in GREEDY_ALGORITHMS:
                calls.clear()
                rank(ss, RankerConfig(algorithm=algorithm, stop_at=1), marginals=ss.model)
                assert len(calls) == 1
        assert kernels == {"cut", "batched", ""}

    @pytest.mark.filterwarnings("ignore:probability 1")
    def test_none_for_random_or_given_marginals(self, calls, sets):
        for ss in sets:
            assert rank(ss, RankerConfig(algorithm="random")).is_complete(ss.candidates)
            for rule in SCORE_RULES:
                assert rank(ss, RankerConfig(algorithm=rule), marginals=ss.model).is_complete(ss.candidates)
        assert calls == []


class TestRandomRanking:
    def test_deterministic_per_seed(self):
        a = random_ranking(10, 3)
        b = random_ranking(10, 3)
        c = random_ranking(10, 4)
        assert a.order.tolist() == b.order.tolist()
        assert a.order.tolist() != c.order.tolist()

    def test_roughly_uniform_first_position(self):
        c = 4
        counts = np.zeros(c)
        trials = 4000
        for seed in range(trials):
            counts[random_ranking(c, seed).order[0]] += 1
        freq = counts / trials
        # ~7 sigma band around 0.25 for a binomial(4000, 0.25)
        assert np.all(np.abs(freq - 0.25) < 0.05)


class TestDispatcher:
    @pytest.mark.filterwarnings("ignore:probability 1")
    def test_all_algorithms_produce_permutations(self):
        rng = np.random.default_rng(21)
        ss = random_sampleset(rng, 12, 5, 4, 0.3)
        for algo in ALGORITHMS:
            r = rank(ss, RankerConfig(algorithm=algo, seed=9))
            assert sorted(r.order.tolist()) == list(range(12))

    def test_marginal_override_changes_baseline(self):
        rng = np.random.default_rng(22)
        ss = random_sampleset(rng, 6, 3, 5, 0.5)
        override = ProbabilityModel.from_dense(
            np.linspace(0.9, 0.1, 18).reshape(6, 3)
        )
        b = rank(ss, RankerConfig(algorithm="tr"), marginals=override)
        assert b.order.tolist() == [0, 1, 2, 3, 4, 5]

    def test_marginal_dim_mismatch(self):
        rng = np.random.default_rng(23)
        ss = random_sampleset(rng, 6, 3, 2, 0.5)
        bad = ProbabilityModel.from_dense(np.full((5, 3), 0.5))
        with pytest.raises(InputError):
            rank(ss, RankerConfig(algorithm="tr"), marginals=bad)

    @pytest.mark.parametrize("algorithm", ["and", "or", "tr", "ntr"])
    def test_group_marginals_rank_as_their_spread(self, algorithm):
        # Six candidates in 3 one-slot groups, and in 3 groups of 1-3 slots
        # beside the sample set of as many slots.
        for sizes in ((1, 1, 1), (3, 2, 1)):
            group = ProbabilityModel.group_structured(
                SlotLayout(sizes), [[0], [1], [2], [0], [1], [2]], np.linspace(0.1, 0.6, 6)[:, None]
            )
            ss = random_sampleset(np.random.default_rng(23), 6, sum(sizes), 2, 0.5)
            cfg = RankerConfig(algorithm=algorithm)
            want = rank(ss, cfg, marginals=spread_marginals(group)).order
            assert rank(ss, cfg, marginals=group).order.tobytes() == want.tobytes()

    def test_stop_at_truncates_baselines(self):
        rng = np.random.default_rng(24)
        ss = random_sampleset(rng, 8, 3, 2, 0.5)
        for algo in ("tr", "random"):
            r = rank(ss, RankerConfig(algorithm=algo, stop_at=3, seed=1))
            assert len(r) == 3


def assert_matches_oracles(
    ss: SampleSet, stop_at: int | None, run, kernel: str
) -> list[RankerStats]:
    """`run(cfg, stats)` equals both augmenting-path greedy functions, with
    eager's counters, for either greedy algorithm; returns its stats per
    algorithm."""
    eager_stats, lazy_stats = RankerStats(), RankerStats()
    eager = matchrank(ss, RankerConfig(algorithm="matchrank", stop_at=stop_at), eager_stats)
    lazy = matchrank_lazy(ss, RankerConfig(stop_at=stop_at), lazy_stats)
    assert eager_stats.kernel == "augmenting"
    productive = int(np.count_nonzero(np.diff(eager.prefix_gain, prepend=0)))
    assert eager_stats.productive_rounds == lazy_stats.productive_rounds == productive
    runs = []
    for algorithm in GREEDY_ALGORITHMS:
        stats = RankerStats()
        runs.append(stats)
        r = run(RankerConfig(algorithm=algorithm, stop_at=stop_at), stats)
        for oracle in (eager, lazy):
            assert r.order.tolist() == oracle.order.tolist()
            assert r.prefix_gain == oracle.prefix_gain
        assert (
            stats.kernel, stats.rounds, stats.productive_rounds, stats.gain_evals, stats.zero_flushed
        ) == (
            kernel, eager_stats.rounds, productive, eager_stats.gain_evals, eager_stats.zero_flushed
        )
    return runs


def assert_rank_matches_oracles(
    ss: SampleSet, stop_at: int | None, kernel: str
) -> list[RankerStats]:
    """`rank` runs `kernel` and equals both augmenting-path greedy functions."""
    return assert_matches_oracles(ss, stop_at, lambda cfg, stats: rank(ss, cfg, stats=stats), kernel)


def engine_run(ss: SampleSet, make_engine):
    """A `run` for `assert_matches_oracles`: the greedy loop of `rank` over a
    fresh engine from `make_engine()` rather than the one `rank` picks."""
    return lambda cfg, stats: _greedy(
        make_engine(), _tie_key(ss), cfg.length(ss.candidates), stats
    )


def assert_cut_matches_oracles(ss: SampleSet, stop_at: int | None) -> list[RankerStats]:
    """The cut kernel, handed every slot as a class of its own (at most
    MAX_CUT_KERNEL_GROUPS slots), equals both augmenting-path greedy functions."""
    assert ss.slots <= MAX_CUT_KERNEL_GROUPS
    bits = 1 << np.arange(ss.slots)
    masks = np.array(
        [np.bincount(m.row_ids(), bits[m.indices], ss.candidates) for m in ss.samples],
        dtype=np.uint16,
    )
    cap = np.array([bin(u).count("1") for u in range(1 << ss.slots)])
    return assert_matches_oracles(ss, stop_at, engine_run(ss, lambda: _Cut(cap, masks)), "cut")


def moved(runs: list[RankerStats]) -> list[int]:
    return [stats.moved_samples for stats in runs]


class TestCutKernel:
    @given(st.integers(0, 2**32 - 1), st.integers(1, MAX_CUT_KERNEL_GROUPS), st.booleans())
    @settings(max_examples=examples(80), deadline=None)
    def test_group_models_match_augmenting_path(self, seed, groups, truncate):
        rng = np.random.default_rng(seed)
        ss = random_group_samples(rng, groups)
        stop_at = int(rng.integers(1, ss.candidates + 1)) if truncate else None
        cut = assert_rank_matches_oracles(ss, stop_at, "cut")
        # The batched kernel takes group samples too, when called directly.
        bins = assert_matches_oracles(ss, stop_at, engine_run(ss, lambda: _Batched(ss)), "batched")
        # A sample's maximal minimizer grows in the same rounds over groups,
        # group bins and slot rows (the slot minimizer is a union of groups).
        rows = sample_set(ss.samples, ss.seed)
        slots = [RankerStats() for _ in GREEDY_ALGORITHMS]
        for algorithm, stats in zip(GREEDY_ALGORITHMS, slots):
            rank(rows, RankerConfig(algorithm=algorithm, stop_at=stop_at), stats=stats)
        assert moved(cut) == moved(bins) == moved(slots)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_samplesets_match_augmenting_path(self, seed):
        # Up to 16 slots; the cut kernel takes those of at most
        # MAX_CUT_KERNEL_GROUPS when handed each slot as a class.
        rng = np.random.default_rng(7000 + seed)
        c, s, n = int(rng.integers(1, 20)), int(rng.integers(0, 17)), int(rng.integers(1, 6))
        ss = random_sampleset(rng, c, s, n, float(rng.choice([0.1, 0.3, 0.6])))
        stop_at = int(rng.integers(1, c + 1)) if seed % 3 == 0 else None
        assert_both_kernels_match_oracles(ss, stop_at)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=examples(80), deadline=None)
    def test_cut_values_equal_a_recompute_after_every_commit(self, seed, groups):
        # Every candidate is committed, in random order, zero gains too: so
        # commits whose mask is 0 in a sample, and ones that touch a sample
        # without raising it.
        rng = np.random.default_rng(seed)
        ss = random_group_samples(rng, groups)
        cap, masks = ss.model.bins.subset_slots, _coin_masks(ss.model, ss.coins)
        engine = _Cut(cap, masks)
        order = rng.permutation(ss.candidates)
        for k, a in enumerate(order):
            engine.commit(int(a), int(engine.gains()[a]))
            assert np.array_equal(engine.cut, cut_values(cap, masks[:, order[: k + 1]]))

    def test_cut_values_count_commits_that_raise_nothing(self):
        # One sample, two groups of one slot.  After candidate 0 (group 0),
        # U* is group 0: candidate 1 (group 0 too) touches the sample but
        # does not raise it, candidate 2 (no group) does not touch it, and
        # candidate 3 (both groups) raises it.
        cap = SlotLayout((1, 1)).subset_slots
        masks = np.array([[1, 1, 0, 3]], dtype=np.uint16)
        engine = _Cut(cap, masks)
        for a, gain, ustar in ((0, 1, 1), (1, 0, 1), (2, 0, 1), (3, 1, 3)):
            assert engine.gains()[a] == gain
            engine.commit(a, gain)
            assert engine.ustar.tolist() == [ustar]
            assert np.array_equal(engine.cut, cut_values(cap, masks[:, : a + 1]))

    def test_two_block_model_slots_are_singleton_classes(self):
        # Independent coins of as many slots as the limit: their bins are
        # the slots, so rank() takes the cut kernel, and the batched kernel
        # agrees.
        ss = sample_relevances(two_block_model(60, MAX_CUT_KERNEL_GROUPS, 0.5, 0.4), 20, 1)
        assert ss.model.bins.group_count == MAX_CUT_KERNEL_GROUPS
        assert_both_kernels_match_oracles(ss, None)

    def test_group_model_takes_cut_kernel(self):
        model = build_synthetic_model(
            SynthParams(groups=4, slots_per_group=3, candidates=40, seed=3)
        )
        ss = sample_relevances(model, 8, 1)
        layout = ss.model.bins
        assert layout.subset_slots[[1, 2, 4, 8, 15]].tolist() == [3, 3, 3, 3, 12]
        assert_rank_matches_oracles(ss, None, "cut")

    def test_gain_out_of_step_with_commit_is_refused(self, monkeypatch):
        model = build_synthetic_model(
            SynthParams(groups=4, slots_per_group=3, candidates=40, seed=3)
        )
        ss = sample_relevances(model, 8, 1)
        gains = _Cut.gains
        monkeypatch.setattr(_Cut, "gains", lambda self: gains(self) * 2)
        with pytest.raises(ContractError, match="out of step"):
            rank(ss, RankerConfig())

    def test_group_model_at_the_limit_takes_cut_kernel(self):
        model = build_synthetic_model(
            SynthParams(groups=MAX_CUT_KERNEL_GROUPS, slots_per_group=2, candidates=60, seed=2)
        )
        assert_rank_matches_oracles(sample_relevances(model, 4, 1), None, "cut")

    def test_masked_samples_are_never_expanded(self, monkeypatch):
        # Neither rank() nor evaluate() expands group coins into slot rows,
        # whichever kernel ranks them.
        def expand(self, *i):
            raise AssertionError("group coins expanded into rows")

        monkeypatch.setattr(SampleSet, "samples", property(expand))
        monkeypatch.setattr(SampleSet, "sample", expand)
        kernels = ((4, "cut"), (10, "cut"), (11, "cut"), (12, "batched"), (13, "batched"),
                   (16, "batched"))
        for groups, kernel in kernels:
            model = build_synthetic_model(
                SynthParams(groups=groups, slots_per_group=3, candidates=40, seed=3)
            )
            ss = sample_relevances(model, 8, 1)
            for algorithm in ALGORITHMS:
                stats = RankerStats()
                assert len(rank(ss, RankerConfig(algorithm=algorithm), stats=stats)) == 40
                assert stats.kernel == (kernel if algorithm in GREEDY_ALGORITHMS else "")
            report = evaluate(RankerConfig(), model, 8, 1, 5, 2)
            assert report.draws == 5 and report.config["algorithm"] == "matchrank-lazy"

    def test_more_groups_than_limit_take_batched_kernel(self):
        model = build_synthetic_model(
            SynthParams(groups=MAX_CUT_KERNEL_GROUPS + 1, slots_per_group=2, candidates=60, seed=2)
        )
        ss = sample_relevances(model, 4, 1)
        assert_rank_matches_oracles(ss, None, "batched")

    def test_cut_values_beyond_memory_are_refused_before_they_are_built(self, monkeypatch):
        # 20 samples over the 2**8 subsets of 8 groups: an int16 cut value
        # per sample and subset, and the 4**8 bools of the mask table.
        ss = random_group_samples(np.random.default_rng(8), 8, n=20)
        cap, masks = ss.model.bins.subset_slots, _coin_masks(ss.model, ss.coins)
        need = 2 * 20 * 2**8 + 4**8
        monkeypatch.setattr(core, "_physical_memory", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=r"cut values of 20 samples over 256 class subsets need more"):
                _Cut(cap, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < need / 8
        with pytest.raises(InputError, match="need more memory"):
            rank(ss, RankerConfig())
        monkeypatch.setattr(core, "_physical_memory", lambda: need)
        assert _Cut(cap, masks).gains().size == ss.candidates

    def test_cut_values_are_int16_while_candidates_and_slots_fit(self):
        # One sample of 3 groups (6 slots): 40 candidates of random masks,
        # padded with mask-0 candidates up to candidates + slots of
        # 2**15 - 2 (int16) and 2**15 - 1 (int32).  The padding never
        # gains, and both engines keep the same gains and U* commit by commit.
        cap = SlotLayout((1, 2, 3)).subset_slots
        head = np.random.default_rng(3).integers(0, 8, size=40)
        engines = []
        for total, ctype in ((2**15 - 2, np.int16), (2**15 - 1, np.int32)):
            masks = np.zeros((1, total - 6), dtype=np.uint16)
            masks[0, :40] = head
            engine = _Cut(cap, masks)
            assert engine.cut.dtype == ctype
            engines.append(engine)
        narrow, wide = engines
        for a in range(40):
            gains = narrow.gains().copy()
            assert np.array_equal(gains, wide.gains()[:-1]) and not gains[40:].any()
            narrow.commit(a, int(gains[a]))
            wide.commit(a, int(gains[a]))
            assert narrow.ustar.tolist() == wide.ustar.tolist()
            assert np.array_equal(narrow.cut, wide.cut)


class TestKernelDispatch:
    """rank() picks the kernel from the sample set's bin count alone: at most
    MAX_CUT_KERNEL_GROUPS bins take the cut kernel, whatever the model kind."""

    @pytest.mark.parametrize("slots", [0, 1, MAX_CUT_KERNEL_GROUPS, MAX_CUT_KERNEL_GROUPS + 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_independent_sets_on_both_sides_of_the_limit(self, slots, seed):
        rng = np.random.default_rng(9000 + 10 * seed + slots)
        ss = random_independent_samples(rng, slots)
        assert ss.model.bins.group_count == slots
        assert_both_kernels_match_oracles(ss, None)

    @pytest.mark.parametrize("groups", [MAX_CUT_KERNEL_GROUPS, MAX_CUT_KERNEL_GROUPS + 1])
    def test_group_sets_on_both_sides_of_the_limit(self, groups):
        ss = random_group_samples(np.random.default_rng(groups), groups, n=5)
        assert_both_kernels_match_oracles(ss, None)

    def test_zero_slot_independent_set_takes_cut_kernel(self):
        model = ProbabilityModel.from_dense(np.zeros((4, 0)))
        ss = sample_relevances(model, 3, 0)
        assert ss.coins.shape == (3, 0)
        stats = RankerStats()
        r = rank(ss, RankerConfig(), stats=stats)
        assert r.order.tolist() == [0, 1, 2, 3] and r.prefix_gain == (0, 0, 0, 0)
        assert (stats.kernel, stats.zero_flushed) == ("cut", 4)
        assert_both_kernels_match_oracles(ss, None)


def assert_both_kernels_match_oracles(ss: SampleSet, stop_at: int | None):
    """rank() takes the kernel the bin count picks, and it and the batched
    kernel, run directly, equal both augmenting-path greedy functions; within
    the cut kernel's limit, so does the cut kernel handed each slot of the
    expanded rows as a class.  Their blocked sets grow in the same rounds."""
    cut = ss.model.bins.group_count <= MAX_CUT_KERNEL_GROUPS
    ranked = assert_rank_matches_oracles(ss, stop_at, "cut" if cut else "batched")
    bat = assert_matches_oracles(ss, stop_at, engine_run(ss, lambda: _Batched(ss)), "batched")
    assert moved(ranked) == moved(bat)
    if ss.slots <= MAX_CUT_KERNEL_GROUPS:
        assert moved(assert_cut_matches_oracles(ss, stop_at)) == moved(bat)


def random_unstructured_samples(rng: np.random.Generator) -> SampleSet:
    """Independent samples with up to 20 slots, on both sides of the cut
    kernel's limit of bins; each sample has its own density, so rows are
    empty, samples saturated or unfillable, and slots may be 0."""
    c, s, n = int(rng.integers(1, 25)), int(rng.integers(0, 21)), int(rng.integers(1, 7))
    densities = rng.choice([0.05, 0.15, 0.3, 0.6, 0.9], size=n)
    return sample_set(random_relevance(rng, c, s, float(d)) for d in densities)


class TestBatchedKernel:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=examples(150), deadline=None)
    def test_unstructured_samples_match_augmenting_path(self, seed, truncate):
        rng = np.random.default_rng(seed)
        ss = random_unstructured_samples(rng)
        stop_at = int(rng.integers(1, ss.candidates + 1)) if truncate else None
        assert_both_kernels_match_oracles(ss, stop_at)

    def test_independent_model_takes_batched_kernel(self):
        model = ProbabilityModel.from_dense(
            np.random.default_rng(3).uniform(0.05, 0.6, size=(40, 16))
        )
        ss = sample_relevances(model, 12, 1)
        assert_rank_matches_oracles(ss, None, "batched")

    def test_candidate_copy_ids_do_not_wrap(self):
        # 200 candidates and 14 slots fit every local id in uint8, while the
        # copy ids j*200 + a of the second sample on reach 200 + 199: both
        # CSRs must compute them, and the bin ids j*14 + t, in the wide type.
        rng = np.random.default_rng(11)
        ss = sample_set(random_relevance(rng, 200, 14, 0.05) for _ in range(3))
        union = _Batched(ss)
        assert union.cand_bins.dtype == union.bin_cands.dtype == np.int32
        for j, m in enumerate(ss.samples):
            ptr, edges = union.bin_ptr[j * ss.slots : (j + 1) * ss.slots + 1], edge_set(m)
            for t in range(ss.slots):
                got = union.bin_cands[ptr[t] : ptr[t + 1]]
                assert got.tolist() == [j * 200 + a for a in range(200) if (a, t) in edges]
            for a in range(200):
                lo, hi = union.cand_ptr[j * 200 + a : j * 200 + a + 2]
                row = m.indices[m.indptr[a] : m.indptr[a + 1]]
                assert union.cand_bins[lo:hi].tolist() == (row + j * ss.slots).tolist()
        assert_rank_matches_oracles(ss, 30, "batched")

    def test_union_beyond_memory_is_refused_before_it_is_built(self, monkeypatch):
        # 20 samples of 200 candidates into 14 bins, int32: four words per
        # edge, two per candidate-copy, eight per bin-copy, a uint8 hit
        # count per candidate-copy and two bitmaps per bin-copy.
        rng = np.random.default_rng(11)
        ss = sample_set(random_relevance(rng, 200, 14, 0.05) for _ in range(20))
        edges = int(np.count_nonzero(ss.coins))
        need = 4 * (4 * edges + 2 * 20 * 200 + 8 * 20 * 14) + 20 * 200 + 2 * 20 * 14
        monkeypatch.setattr(core, "_physical_memory", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=rf"batched union of 20 samples \({edges} edges\) need more"):
                _Batched(ss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < need / 8
        with pytest.raises(InputError, match="need more memory"):
            rank(ss, RankerConfig())
        monkeypatch.setattr(core, "_physical_memory", lambda: need)
        assert _Batched(ss).gains().size == 200

    def test_gain_out_of_step_with_commit_is_refused(self, toy_instance, monkeypatch):
        gains = _Batched.gains
        monkeypatch.setattr(_Batched, "gains", lambda self: gains(self) * 2)
        for ss in contract_samples(toy_instance):
            with pytest.raises(ContractError, match="out of step"):
                engine_run(ss, lambda: _Batched(ss))(RankerConfig(), RankerStats())

    def test_path_must_end_at_a_bin_with_room(self, toy_instance):
        # Once the greedy's productive candidates are in, every bin is full
        # and none reaches room.  Marked reached anyway, and unseen by the
        # search, a full bin offers the first zero-gain candidate with edges
        # (1 in the rows, 3 in the groups) a sample to gain in, in step with
        # a gain of 1, but its forward search walks every full bin and finds
        # none with room.
        for ss in contract_samples(toy_instance):
            ranking = rank(ss, RankerConfig())
            union = _Batched(ss)
            steps = np.diff(ranking.prefix_gain, prepend=0)
            for a, gain in zip(ranking.order.tolist(), steps.tolist()):
                if gain:
                    union.commit(a, gain)
            assert np.all(union.load == union.cap) and not union.reach.any()
            idle = next(
                a for a, gain in zip(ranking.order.tolist(), steps.tolist())
                if not gain and union.cand_ptr[a + 1] > union.cand_ptr[a]
            )
            union.reach[:] = True
            union._via[:] = _UNSEEN
            with pytest.raises(ContractError, match="bin with room"):
                union.commit(idle, 1)


def contract_samples(toy_instance) -> list[SampleSet]:
    """One sample as slot rows, and one as the coins of MAX_CUT_KERNEL_GROUPS
    + 1 groups: group 0 of 2 slots, group 1 of 1 and the others without
    slots, so it ranks through the batched kernel.  Candidate 0 holds
    groups 0 and 1, candidates 1 and 2 group 0, candidate 3 group 1; the
    greedy takes 0, 1, then 2."""
    layout = SlotLayout((2, 1) + (0,) * (MAX_CUT_KERNEL_GROUPS - 1))
    model = ProbabilityModel.group_structured(layout, [[0, 1]] * 4, np.full((4, 2), 0.5))
    coins = np.array([[True, True, True, False, True, False, False, True]])
    return [sample_set((toy_instance,)), SampleSet(model, coins, 0)]


class TestCapacitatedBins:
    """Group coins ranked by the batched kernel over bins with caps (more
    groups than the cut kernel takes) against the same draws as slot rows,
    each slot a bin of cap 1."""

    @given(st.integers(0, 2**32 - 1), st.integers(MAX_CUT_KERNEL_GROUPS + 1, 16), st.booleans())
    @settings(max_examples=examples(80), deadline=None)
    def test_group_bins_equal_slot_rows_and_oracles(self, seed, groups, truncate):
        # Zero-slot groups (cap 0), saturated and unfillable samples.
        rng = np.random.default_rng(seed)
        ss = random_group_samples(rng, groups)
        rows = sample_set(ss.samples, ss.seed)
        stop_at = int(rng.integers(1, ss.candidates + 1)) if truncate else None
        for algorithm in GREEDY_ALGORITHMS:
            cfg = RankerConfig(algorithm=algorithm, stop_at=stop_at)
            got_stats, want_stats = RankerStats(), RankerStats()
            got, want = rank(ss, cfg, stats=got_stats), rank(rows, cfg, stats=want_stats)
            assert got.order.tobytes() == want.order.tobytes()
            assert got.prefix_gain == want.prefix_gain
            assert replace(got_stats, kernel="") == replace(want_stats, kernel="")
            assert got_stats.kernel == "batched"
        assert_rank_matches_oracles(ss, stop_at, "batched")

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=examples(60), deadline=None)
    def test_twelve_groups_rank_batched_as_the_cut_kernel_would(self, seed, truncate):
        # One group past the ranker's cut limit of 11 but within the cut
        # kernel's reach: rank() takes the batched kernel, and the cut
        # kernel forced on the same coins gives the same ranking and
        # counters.  Slot counts 0-3 give 2-slot and cap-0 groups.
        rng = np.random.default_rng(seed)
        ss = random_group_samples(rng, MAX_CUT_KERNEL_GROUPS + 1)
        layout = ss.model.bins
        cut = engine_run(ss, lambda: _Cut(layout.subset_slots, _coin_masks(ss.model, ss.coins)))
        stop_at = int(rng.integers(1, ss.candidates + 1)) if truncate else None
        for algorithm in GREEDY_ALGORITHMS:
            cfg = RankerConfig(algorithm=algorithm, stop_at=stop_at)
            got_stats, want_stats = RankerStats(), RankerStats()
            got, want = rank(ss, cfg, stats=got_stats), cut(cfg, want_stats)
            assert got.order.tobytes() == want.order.tobytes()
            assert got.prefix_gain == want.prefix_gain
            assert (got_stats.kernel, want_stats.kernel) == ("batched", "cut")
            assert replace(got_stats, kernel="") == replace(want_stats, kernel="")
        assert_rank_matches_oracles(ss, stop_at, "batched")

    def test_path_through_a_full_group(self):
        # The contract sample: candidate 2 gains only by moving candidate 0
        # out of the full group 0, and the greedy's totals say it did.
        ss = contract_samples(relevance_matrix(4, 3, []))[1]
        r = rank(ss, RankerConfig())
        assert r.order.tolist()[:3] == [0, 1, 2] and r.prefix_gain[:3] == (1, 2, 3)
        assert_rank_matches_oracles(ss, None, "batched")


def ingested_model(candidates: int, labels: int, per_candidate: int, slots_per_label: int, seed: int):
    """An independent model such as ``matchrank ingest`` makes of a triplet
    file: each candidate on `per_candidate` distinct labels with Beta(2, 3)
    probabilities, each label expanded to `slots_per_label` slots."""
    rng = np.random.default_rng(seed)
    picked = np.sort(np.argsort(rng.random((candidates, labels)), axis=1)[:, :per_candidate], axis=1)
    probs = rng.beta(2.0, 3.0, size=(candidates, per_candidate))
    ptr = np.arange(0, candidates * per_candidate + 1, per_candidate)
    labelled = ProbabilityModel.independent(labels, ptr, picked.ravel(), probs.ravel())
    return ingest_model(labelled, slots_per_label=slots_per_label)


def uneven_group_model(slots: tuple[int, ...], candidates: int, memberships: int, seed: int):
    """A group model of uneven slot counts (0 included), each candidate in
    `memberships` groups at probabilities uniform in [0.1, 0.9]."""
    rng = np.random.default_rng(seed)
    g = len(slots)
    membership = np.sort(np.argsort(rng.random((candidates, g)), axis=1)[:, :memberships], axis=1)
    probs = rng.uniform(0.1, 0.9, size=(candidates, memberships))
    return ProbabilityModel.group_structured(SlotLayout(slots), membership, probs)


#: The sha256 of each greedy ranking's order, prefix gains and every
#: ``RankerStats`` field on sample sets that rank through the batched kernel;
#: which augmenting path the kernel flips must not change any of them.
BATCHED_PINS = {
    "ingested 150 x 30 labels x 3": (
        "2d4c12624be7208e53638f82e53519fe8f4800225f2f4745188d08ce11423a90"
    ),
    "13 x 50 groups": (
        "1a177e129ee528c6d206ab9e28eb1a9a12d1c4b40358bb9717dd3e63af7d3104"
    ),
    "14 x 10 groups": (
        "0f0e61365144226f45517303d40c13eac4688f4a8ac3f89d4e0ffbd309899a37"
    ),
    "14 uneven groups": (
        "5a099a7d1151864bd600806c2a69138b72f93311610f2e6b3a913c9e24d4e2c4"
    ),
}


def batched_pin_samples(name: str) -> SampleSet:
    if name == "ingested 150 x 30 labels x 3":
        return sample_relevances(ingested_model(150, 30, 3, 3, seed=0), 20, 1)
    if name == "13 x 50 groups":
        params = SynthParams(groups=13, slots_per_group=50, candidates=2000, seed=0)
        return sample_relevances(build_synthetic_model(params), 20, 1)
    if name == "14 x 10 groups":
        params = SynthParams(groups=14, slots_per_group=10, candidates=300, seed=0)
        return sample_relevances(build_synthetic_model(params), 20, 1)
    model = uneven_group_model((3, 0, 2, 5, 1, 0, 4, 2, 3, 1, 2, 6, 0, 3), 120, 3, seed=0)
    return sample_relevances(model, 20, 1)


class TestBatchedPins:
    @pytest.mark.parametrize("name", sorted(BATCHED_PINS))
    def test_output_bytes_are_pinned(self, name):
        ss = batched_pin_samples(name)
        assert ss.model.bins.group_count > MAX_CUT_KERNEL_GROUPS
        for algorithm in GREEDY_ALGORITHMS:
            stats = RankerStats()
            r = rank(ss, RankerConfig(algorithm=algorithm), stats=stats)
            assert stats.kernel == "batched"
            blob = r.order.tobytes() + repr(r.prefix_gain).encode() + repr(stats).encode()
            assert hashlib.sha256(blob).hexdigest() == BATCHED_PINS[name], algorithm
