import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples, random_group_samples, random_relevance, random_sampleset, relevance_matrix, sample_set
from matchrank.core import ContractError, InputError, RelevanceMatrix, SampleSet, UNMATCHED
from matchrank.matching import _matching_sizes, max_matching_size
from matchrank.ranker import _OUT, _UNSEEN, _Batched
from oracles import avg_matching, batched_reach, brute_max_matching, commit_add, gain_if_added, init_state


def state_snapshot(st_):
    return (
        st_.pool.copy(),
        st_.candidate_match.copy(),
        st_.slot_match.copy(),
        st_.unmatched_slot.copy(),
        st_.size,
        st_.pool_count,
    )


class TestMaxMatchingSize:
    def test_toy(self, toy_instance):
        assert max_matching_size(toy_instance) == 3

    def test_empty_pool_and_no_edges(self, toy_instance):
        assert max_matching_size(toy_instance, []) == 0
        empty = relevance_matrix(4, 3, [])
        assert max_matching_size(empty) == 0

    def test_pool_variants(self, toy_instance):
        assert max_matching_size(toy_instance, [4]) == 0
        assert max_matching_size(toy_instance, [0, 2]) == 2
        assert max_matching_size(toy_instance, [0, 1, 2]) == 2
        assert max_matching_size(toy_instance, [2, 3]) == 2
        for dtype in (np.int8, np.uint16, np.int32, np.uint64):
            assert max_matching_size(toy_instance, np.array([2, 3], dtype=dtype)) == 2

    @pytest.mark.parametrize("pool", [[0.5, 1.7], [True, False], ["1"]])
    def test_rejects_non_integer_pool(self, toy_instance, pool):
        with pytest.raises(InputError, match="pool"):
            max_matching_size(toy_instance, pool)

    def test_rejects_bad_pool(self, toy_instance):
        with pytest.raises(InputError):
            max_matching_size(toy_instance, [0, 9])
        with pytest.raises(InputError):
            max_matching_size(toy_instance, [1, 1])

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, 10))
        s = int(rng.integers(1, 7))
        m = random_relevance(rng, c, s, float(rng.choice([0.1, 0.3, 0.6])))
        assert max_matching_size(m) == brute_max_matching(m)
        pool = np.flatnonzero(rng.random(c) < 0.6)
        assert max_matching_size(m, pool) == brute_max_matching(m, pool)


class TestDisjointUnion:
    """``_matching_sizes`` solves many draws at once: draw j's rows hold its
    slots shifted to the columns [j * slots, (j + 1) * slots)."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=examples(100), deadline=None)
    def test_each_draw_matches_alone(self, seed):
        rng = np.random.default_rng(seed)
        s, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        draws = [random_relevance(rng, int(rng.integers(0, 8)), s, 0.4) for _ in range(d)]
        indptr = np.concatenate([[0], np.cumsum(np.concatenate([m.degrees() for m in draws]))])
        indices = np.concatenate([m.indices + j * s for j, m in enumerate(draws)]).astype(np.int32)
        got = _matching_sizes(indptr, indices, s, d)
        assert got.tolist() == [brute_max_matching(m) for m in draws]
        # A pool of union rows measures each draw's share of it.
        pool = np.flatnonzero(rng.random(indptr.size - 1) < 0.5)
        first = np.cumsum([0] + [m.candidates for m in draws])
        want = [
            brute_max_matching(m, pool[(pool >= lo) & (pool < hi)] - lo)
            for m, lo, hi in zip(draws, first[:-1], first[1:])
        ]
        assert _matching_sizes(indptr, indices, s, d, pool).tolist() == want


class TestIncrementalState:
    def test_init_state(self, toy_instance):
        st_ = init_state(toy_instance, sample_ref=3)
        assert st_.size == 0
        assert st_.pool_count == 0
        assert st_.sample_ref == 3
        assert st_.unmatched_slots.tolist() == [0, 1, 2]
        st_.check_invariants(toy_instance)

    def test_toy_commit_sequence(self, toy_instance):
        st_ = init_state(toy_instance)
        sizes = []
        for a in range(5):
            commit_add(st_, a, toy_instance)
            st_.check_invariants(toy_instance)
            sizes.append(st_.size)
        assert sizes == [1, 2, 2, 3, 3]

    def test_commit_rearranges_via_augmenting_path(self):
        # Candidate 1 prefers slot 0 which candidate 0 holds; committing 1
        # must displace 0 onto slot 1 rather than give up.
        m = relevance_matrix(2, 2, [(0, 0), (0, 1), (1, 0)])
        st_ = init_state(m)
        assert commit_add(st_, 0, m) == 1
        assert st_.candidate_match[0] == 0
        assert commit_add(st_, 1, m) == 1
        assert st_.size == 2
        assert st_.candidate_match[1] == 0
        assert st_.candidate_match[0] == 1

    def test_gain_matches_delta_and_leaves_state_alone(self, toy_instance):
        st_ = init_state(toy_instance)
        commit_add(st_, 0, toy_instance)
        before = state_snapshot(st_)
        g = gain_if_added(st_, 2, toy_instance)
        assert g == 1
        after = state_snapshot(st_)
        for x, y in zip(before, after):
            assert np.array_equal(x, y)

    def test_rejects_double_commit(self, toy_instance):
        st_ = init_state(toy_instance)
        commit_add(st_, 1, toy_instance)
        with pytest.raises(ContractError):
            commit_add(st_, 1, toy_instance)
        with pytest.raises(ContractError):
            gain_if_added(st_, 1, toy_instance)
        with pytest.raises(InputError):
            commit_add(st_, 17, toy_instance)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sequences_stay_maximum(self, seed):
        rng = np.random.default_rng(1000 + seed)
        c = int(rng.integers(2, 10))
        s = int(rng.integers(1, 7))
        m = random_relevance(rng, c, s, float(rng.choice([0.15, 0.4, 0.7])))
        st_ = init_state(m)
        order = rng.permutation(c)
        for a in order:
            expected_gain = brute_max_matching(m, np.flatnonzero(st_.pool).tolist() + [int(a)]) - st_.size
            g_peek = gain_if_added(st_, int(a), m)
            g = commit_add(st_, int(a), m)
            assert g == g_peek == expected_gain
            st_.check_invariants(m)

    def test_gain_zero_when_saturated(self):
        m = relevance_matrix(3, 1, [(0, 0), (1, 0), (2, 0)])
        st_ = init_state(m)
        commit_add(st_, 0, m)
        assert gain_if_added(st_, 1, m) == 0
        assert commit_add(st_, 1, m) == 0
        assert st_.size == 1


# The batched kernel (`ranker._Batched`) is where augmenting slots are read
# off a reach set; the classes below check its search, its incremental reach
# set and its gain scan against the per-sample MatchState.


def union_of(*samples: RelevanceMatrix) -> _Batched:
    return _Batched(sample_set(samples))


def bins_of(samples: SampleSet, j: int, a: int) -> list[int]:
    """The bins candidate `a` has an edge to in sample `j`: those of the
    coins it won (its slots for an independent model, its groups for a
    group model)."""
    lo, hi = samples.model.coin_ptr[a : a + 2]
    return samples.model.coin_bins[lo:hi][samples.coins[j, lo:hi]].tolist()


def union_size(union: _Batched, samples: SampleSet) -> int:
    """The union's matching size, after checking it is a b-matching of
    edges: each bin-copy holds its load, at most its cap, in its first
    positions; each matched candidate-copy sits at the position that names
    it, in a bin-copy of its sample that it has an edge to."""
    c, b = samples.candidates, union.cap.size // samples.n
    assert np.all(union.load <= union.cap)
    rank_in_bin = np.arange(union.pos_bin.size) - union.pos_ptr[union.pos_bin]
    assert np.array_equal(union.pos_cand >= 0, rank_in_bin < union.load[union.pos_bin])
    matched = np.flatnonzero(union.cand_pos >= 0)
    assert np.array_equal(union.pos_cand[union.cand_pos[matched]], matched)
    assert np.count_nonzero(union.pos_cand >= 0) == matched.size
    for x, t in zip(matched.tolist(), union.pos_bin[union.cand_pos[matched]].tolist()):
        j, a = divmod(x, c)
        assert t // b == j and t % b in bins_of(samples, j, a)
    return int(matched.size)


class TestScan:
    def test_empty_state_returns_degree_filter(self, toy_instance):
        union = union_of(toy_instance)
        gains = union.gains()
        assert np.flatnonzero(gains).tolist() == [0, 1, 2, 3]  # candidate 4 has no edges

    def test_saturated_returns_nothing(self):
        m = relevance_matrix(3, 1, [(0, 0), (1, 0), (2, 0)])
        union = union_of(m)
        union.gains()
        union.commit(0, 1)
        assert not union.gains().any()

    @pytest.mark.parametrize("seed", range(40))
    def test_scan_equals_pointwise_gains(self, seed):
        # The batched gains, summed over samples, equal each sample's
        # pointwise gains after any sequence of commits.
        rng = np.random.default_rng(2000 + seed)
        c = int(rng.integers(2, 16))
        s = int(rng.integers(1, 11))
        n = int(rng.integers(1, 4))
        samples = random_sampleset(rng, c, s, n, float(rng.choice([0.2, 0.4, 0.7])))
        assert_scan_equals_pointwise_gains(samples, rng)

    @pytest.mark.parametrize("seed", range(40))
    def test_group_bins_scan_equals_pointwise_gains(self, seed):
        # The same over group bins with caps (zero-slot groups included),
        # against the per-sample MatchState on the slot-level rows.
        rng = np.random.default_rng(2500 + seed)
        samples = random_group_samples(rng, int(rng.integers(1, 17)))
        assert_scan_equals_pointwise_gains(samples, rng)


def assert_scan_equals_pointwise_gains(samples: SampleSet, rng: np.random.Generator):
    c = samples.candidates
    states = [init_state(m) for m in samples.samples]
    union = _Batched(samples)
    committed = rng.permutation(c)[: int(rng.integers(0, c))]
    for a in committed.tolist():
        gain = sum(commit_add(st_, a, m) for st_, m in zip(states, samples.samples))
        union.gains()
        union.commit(a, gain)
        assert union_size(union, samples) == sum(st_.size for st_ in states)
    frontier = np.setdiff1d(np.arange(c), committed)
    got = union.gains()[frontier]
    want = [
        sum(gain_if_added(st_, int(a), m) for st_, m in zip(states, samples.samples))
        for a in frontier
    ]
    assert got.tolist() == want
    assert union_size(union, samples) == sum(st_.size for st_ in states)


class TestAugmentingSlots:
    @pytest.mark.parametrize("seed", range(30))
    def test_mask_membership_equals_gain(self, seed):
        # Touching the reach set must be exactly equivalent to having a gain.
        rng = np.random.default_rng(3000 + seed)
        c = int(rng.integers(2, 16))
        s = int(rng.integers(1, 11))
        m = random_relevance(rng, c, s, float(rng.choice([0.2, 0.4, 0.7])))
        st_ = init_state(m)
        union = union_of(m)
        for a in rng.permutation(c)[: int(rng.integers(1, c))].tolist():
            union.gains()
            union.commit(a, commit_add(st_, a, m))
        mask = batched_reach(union)
        np.testing.assert_array_equal(union.reach, mask)
        for a in np.flatnonzero(~st_.pool):
            touches = bool(mask[m.indices[m.indptr[a] : m.indptr[a + 1]]].any())
            assert touches == bool(gain_if_added(st_, int(a), m))

    @pytest.mark.parametrize("seed", range(30))
    def test_mask_survives_nonaugmenting_commits(self, seed):
        # Admitting candidates that cannot augment must leave the reach set
        # exact, so later commits still find their augmenting paths in it.
        rng = np.random.default_rng(4000 + seed)
        c = int(rng.integers(3, 16))
        s = int(rng.integers(1, 11))
        m = random_relevance(rng, c, s, float(rng.choice([0.2, 0.3, 0.5])))
        samples = sample_set((m,))
        union = _Batched(samples)
        union.gains()
        for a in rng.permutation(c).tolist():
            row = m.indices[m.indptr[a] : m.indptr[a + 1]]
            if row.size and union.reach[row].any():
                size_before = union_size(union, samples)
                union.commit(a, 1)
                assert union_size(union, samples) == size_before + 1
                union.gains()
            else:
                size_before = union_size(union, samples)
                union.commit(a, 0)
                assert union_size(union, samples) == size_before
                np.testing.assert_array_equal(union.reach, batched_reach(union))
        assert union_size(union, samples) == brute_max_matching(m)

    def test_mask_reaches_along_long_paths(self):
        # A path: candidate i on slots i and i+1, then one probe candidate
        # per slot.  Every slot is exposed in some maximum matching of the
        # path, at alternating distances up to k from the exposed one.
        k = 8
        edges = [(i, i) for i in range(k)] + [(i, i + 1) for i in range(k)]
        edges += [(k + t, t) for t in range(k + 1)]
        m = relevance_matrix(2 * k + 1, k + 1, edges)
        st_ = init_state(m)
        union = union_of(m)
        for a in range(k):
            union.gains()
            union.commit(a, commit_add(st_, a, m))
        gains = union.gains()
        assert union.reach.all()
        for a in range(k, 2 * k + 1):
            assert gain_if_added(st_, a, m) == 1
        assert gains[k:].tolist() == [1] * (k + 1)


class TestIncrementalReach:
    """The reach set the batched kernel keeps from commit to commit, against
    a fresh backward search (`batched_reach`), and its b-matching and gains
    against the per-sample MatchState."""

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=examples(200), deadline=None)
    def test_every_commit_leaves_reach_exact(self, seed, grouped):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        if grouped:
            # Group bins of caps 0 to 3.
            samples = random_group_samples(rng, int(rng.integers(1, 17)), n)
        else:
            c, s = int(rng.integers(1, 16)), int(rng.integers(0, 11))
            samples = random_sampleset(rng, c, s, n, float(rng.choice([0.15, 0.3, 0.6])))
        c = samples.candidates
        states = [init_state(m) for m in samples.samples]
        union = _Batched(samples)
        np.testing.assert_array_equal(union.reach, batched_reach(union))
        left = list(range(c))
        # Any order, so zero-gain commits come between the others.
        for a in rng.permutation(c).tolist():
            before, moved = union.reach.reshape(n, union.b).copy(), union.moved
            gain = sum(commit_add(st_, a, m) for st_, m in zip(states, samples.samples))
            union.commit(a, gain)
            left.remove(a)
            np.testing.assert_array_equal(union.reach, batched_reach(union))
            # A sample counts as moved iff its reach set changed.
            changed = (union.reach.reshape(n, union.b) != before).any(axis=1)
            assert union.moved - moved == np.count_nonzero(changed)
            assert union_size(union, samples) == sum(st_.size for st_ in states)
            want = [
                sum(gain_if_added(st_, x, m) for st_, m in zip(states, samples.samples))
                for x in left
            ]
            assert union.gains()[left].tolist() == want


class TestSearchMarks:
    """The forward search's marks between commits: ``_OUT`` on exactly the
    bins outside ``reach``, ``_UNSEEN`` on the others, so a search tests
    one mark per bin; and the one-position shortcut only where no bin has
    two positions."""

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=examples(200), deadline=None)
    def test_marks_follow_reach(self, seed, grouped):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        if grouped:
            samples = random_group_samples(rng, int(rng.integers(1, 17)), n)
        else:
            c, s = int(rng.integers(1, 16)), int(rng.integers(0, 11))
            samples = random_sampleset(rng, c, s, n, float(rng.choice([0.15, 0.3, 0.6])))
        union = _Batched(samples)
        assert union.one_place == (np.diff(union.pos_ptr).max(initial=0) <= 1)
        for a in rng.permutation(samples.candidates).tolist():
            np.testing.assert_array_equal(union._via, np.where(union.reach, _UNSEEN, _OUT))
            union.commit(a, int(union.gains()[a]))
        np.testing.assert_array_equal(union._via, np.where(union.reach, _UNSEEN, _OUT))


class TestProperties:
    @given(st.integers(0, 10**6))
    @settings(max_examples=examples(60), deadline=None)
    def test_gain_is_binary_and_size_monotone(self, seed):
        rng = np.random.default_rng(seed)
        c, s = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        m = random_relevance(rng, c, s, 0.4)
        st_ = init_state(m)
        prev = 0
        for a in rng.permutation(c):
            g = commit_add(st_, int(a), m)
            assert g in (0, 1)
            assert st_.size == prev + g
            prev = st_.size

    @given(st.integers(0, 10**6))
    @settings(max_examples=examples(60), deadline=None)
    def test_marginal_gains_diminish_along_any_chain(self, seed):
        # Submodularity of pool -> max matching size: the gain of a fixed
        # candidate never increases as the pool grows along a chain.
        rng = np.random.default_rng(seed)
        c, s = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        m = random_relevance(rng, c, s, 0.4)
        order = rng.permutation(c)
        probe = int(order[-1])
        st_ = init_state(m)
        gains = []
        for a in order[:-1]:
            gains.append(gain_if_added(st_, probe, m))
            commit_add(st_, int(a), m)
        gains.append(gain_if_added(st_, probe, m))
        assert all(x >= y for x, y in zip(gains, gains[1:]))


class TestAvgMatching:
    def test_trivial_cases(self, toy_instance):
        ss = sample_set((toy_instance, toy_instance))
        assert avg_matching([], ss) == 0
        assert avg_matching([0, 1, 2, 3, 4], ss) == 3

    def test_mixed_samples_exact_fraction(self, toy_instance):
        other = relevance_matrix(5, 3, [(0, 0), (1, 0)])
        ss = sample_set((toy_instance, other))
        assert avg_matching([0, 1], ss) == Fraction(3, 2)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_brute_mean(self, seed):
        rng = np.random.default_rng(3000 + seed)
        ss = random_sampleset(rng, 8, 4, int(rng.integers(1, 5)), 0.5)
        pool = np.flatnonzero(rng.random(8) < 0.5).tolist()
        want = Fraction(sum(brute_max_matching(m, pool) for m in ss.samples), ss.n)
        assert avg_matching(pool, ss) == want
