import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_relevance, random_sampleset
from matchrank.core import (
    ContractError,
    InputError,
    Ranking,
    RelevanceMatrix,
    SampleSet,
    SparseProbMatrix,
)
from matchrank.matching import (
    MatchState,
    avg_matching,
    commit_add,
    gain_if_added,
    init_state,
)
from matchrank.ranker import (
    ALGORITHMS,
    RankerConfig,
    RankerStats,
    baseline_scores,
    empirical_marginals,
    matchrank,
    matchrank_lazy,
    random_ranking,
    rank,
    score_ranking,
)
from oracles import all_ksubset_totals


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

    def test_rejects_unknown_tie_break(self):
        with pytest.raises(InputError):
            RankerConfig(tie_break="random")

    def test_rejects_bad_stop(self):
        with pytest.raises(InputError):
            RankerConfig(stop_at=0)


class TestTotalMarginalGain:
    def test_counts_each_sample(self, toy_instance):
        thin = RelevanceMatrix.from_edges(5, 3, [(1, 0)])
        ss = SampleSet((toy_instance, thin), seed=0)
        states = [init_state(m, j) for j, m in enumerate(ss.samples)]
        assert total_marginal_gain(states, 1, ss) == 2
        assert total_marginal_gain(states, 4, ss) == 0
        commit_add(states[0], 1, ss.samples[0])
        commit_add(states[1], 1, ss.samples[1])
        assert total_marginal_gain(states, 0, ss) == 1  # thin sample is full

    def test_rejects_inconsistent_pools(self, toy_instance):
        ss = SampleSet((toy_instance, toy_instance), seed=0)
        states = [init_state(m, j) for j, m in enumerate(ss.samples)]
        commit_add(states[0], 0, ss.samples[0])
        with pytest.raises(ContractError):
            total_marginal_gain(states, 1, ss)


class TestGreedy:
    def test_hand_checked_order(self, toy_instance):
        ss = SampleSet((toy_instance,), seed=0)
        ranking = matchrank(ss)
        # Candidate 2 has the most edges.  Among the remaining gain-1 ties,
        # candidate 3 — the sole provider of slot 2 — outranks 0 and 1 on the
        # competition-normalized key; candidate 1 is displaced to the
        # zero-gain tail once slots 0/1 are sewn up.
        assert ranking.order.tolist() == [2, 3, 0, 1, 4]
        assert ranking.prefix_gain == (1, 2, 3, 3, 3)

    def test_stop_at(self, toy_instance):
        ss = SampleSet((toy_instance,), seed=0)
        r3 = matchrank(ss, RankerConfig(algorithm="matchrank", stop_at=3))
        assert r3.order.tolist() == [2, 3, 0]
        assert r3.prefix_gain == (1, 2, 3)
        lazy3 = matchrank_lazy(ss, RankerConfig(stop_at=3))
        assert lazy3.order.tolist() == [2, 3, 0]
        with pytest.raises(InputError):
            matchrank(ss, RankerConfig(algorithm="matchrank", stop_at=6))

    def test_all_zero_instance_flushes_by_id(self):
        empty = RelevanceMatrix.from_edges(4, 2, [])
        ss = SampleSet((empty,), seed=0)
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
@settings(max_examples=40, deadline=None)
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
        thin = RelevanceMatrix.from_edges(5, 3, [(0, 0), (2, 1)])
        ss = SampleSet((toy_instance, thin), seed=0)
        m = empirical_marginals(ss)
        dense = m.to_dense()
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


class TestBaselineScores:
    def make(self, dense):
        return SparseProbMatrix.from_dense(dense)

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
        with pytest.warns(UserWarning, match="clamped"):
            s = baseline_scores(m, "or")
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


class TestScoreRanking:
    def test_tie_break_by_normalized_relevance_then_id(self):
        m = SparseProbMatrix.from_dense([[0.4, 0.0], [0.4, 0.2], [0.9, 0.9]])
        r = score_ranking(m, "and")
        # and-scores: log(.4) ; log(.4)+log(.2) ; log(.81): best is row 2
        assert r.order[0] == 2
        m2 = SparseProbMatrix.from_dense([[0.4, 0.2], [0.2, 0.4], [0.1, 0.1]])
        r2 = score_ranking(m2, "and")  # rows 0,1 tie on product and on the
        assert r2.order.tolist() == [0, 1, 2]  # symmetric secondary -> id

    def test_tie_break_prefers_uncrowded_slots(self):
        # Rows 0 and 1 tie on total relevance, but row 1 owns its slot
        # outright while row 0 competes with row 2.
        m = SparseProbMatrix.from_dense([[0.5, 0.0], [0.0, 0.5], [0.4, 0.0]])
        r = score_ranking(m, "tr")
        assert r.order.tolist() == [1, 0, 2]


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
        override = SparseProbMatrix.from_dense(
            np.linspace(0.9, 0.1, 18).reshape(6, 3)
        )
        b = rank(ss, RankerConfig(algorithm="tr"), marginals=override)
        assert b.order.tolist() == [0, 1, 2, 3, 4, 5]

    def test_marginal_dim_mismatch(self):
        rng = np.random.default_rng(23)
        ss = random_sampleset(rng, 6, 3, 2, 0.5)
        bad = SparseProbMatrix.from_dense(np.full((5, 3), 0.5))
        with pytest.raises(InputError):
            rank(ss, RankerConfig(algorithm="tr"), marginals=bad)

    def test_stop_at_truncates_baselines(self):
        rng = np.random.default_rng(24)
        ss = random_sampleset(rng, 8, 3, 2, 0.5)
        for algo in ("tr", "random"):
            r = rank(ss, RankerConfig(algorithm=algo, stop_at=3, seed=1))
            assert len(r) == 3
