import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.special import gammaln

from raretype.partitions import (
    IntegerPartition,
    SetPartition,
    augment,
    enumerate_partitions,
    reduce_sample,
    to_integer_partition,
)
from raretype.pitman import (
    PdParams,
    PopulationVector,
    SeatingPlan,
    _log_rising,
    _opening_thresholds,
    crp_sample,
    eppf_log,
    gem_stick_breaking,
    powerlaw_reference,
    ranked_frequencies,
)
from raretype.rng import as_generator

PARAM_GRID = [PdParams(a, t) for a in (0.2, 0.5, 0.8) for t in (-0.1, 1.0, 50.0)]


def _seating_rule(table_counts, params):
    """Next-customer law: join table i with weight n_i - alpha, open a new
    one (last entry) with weight theta + k alpha, over n + theta."""
    counts = np.asarray(table_counts, dtype=float)
    weights = np.append(counts - params.alpha, params.theta + counts.size * params.alpha)
    return weights / (counts.sum() + params.theta)


params_st = st.builds(
    PdParams,
    alpha=st.floats(0.05, 0.95),
    theta=st.floats(0.0, 80.0),
)


class TestPdParams:
    def test_domain_enforced(self):
        PdParams(0.5, -0.4)  # theta > -alpha is fine
        with pytest.raises(ValueError):
            PdParams(0.0, 1.0)
        with pytest.raises(ValueError):
            PdParams(1.0, 1.0)
        with pytest.raises(ValueError):
            PdParams(0.3, -0.3)
        with pytest.raises(ValueError):
            PdParams(0.5, float("nan"))


class TestEppf:
    def test_single_observation_is_certain(self):
        one = IntegerPartition((1,), (1,))
        for params in PARAM_GRID:
            assert eppf_log(one, params) == pytest.approx(0.0, abs=1e-14)

    def test_two_singletons_matches_seating_rule(self):
        two = IntegerPartition((1,), (2,))
        for params in PARAM_GRID:
            expected = math.log((params.theta + params.alpha) / (1.0 + params.theta))
            assert eppf_log(two, params) == pytest.approx(expected, abs=1e-13)

    def test_normalizes_over_partitions_of_four(self):
        parts = list(enumerate_partitions(4))
        assert len(parts) == 15
        for params in PARAM_GRID:
            total = sum(math.exp(eppf_log(p, params)) for p in parts)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_accepts_set_partition_directly(self):
        p = reduce_sample("aabcc")
        params = PdParams(0.4, 2.0)
        assert eppf_log(p, params) == eppf_log(to_integer_partition(p), params)

    @given(params_st, st.randoms(use_true_random=False))
    def test_depends_only_on_size_multiset(self, params, rnd):
        # two set partitions sharing (a, r) but with scrambled index detail
        labels = [rnd.randint(0, 4) for _ in range(rnd.randint(1, 12))]
        scrambled = list(labels)
        rnd.shuffle(scrambled)
        assert eppf_log(reduce_sample(labels), params) == pytest.approx(
            eppf_log(reduce_sample(scrambled), params), rel=1e-14, abs=1e-14
        )

    @pytest.mark.parametrize("params", [PdParams(0.5, 1.0), PdParams(0.8, -0.3), PdParams(0.2, 10.0)])
    def test_sequential_consistency_brute_force(self, params):
        # extending any partition of [n] by element n+1 multiplies its
        # probability by the corresponding predictive entry (n <= 7)
        for n in range(1, 8):
            for p in enumerate_partitions(n):
                base = math.exp(eppf_log(p, params))
                pred = _seating_rule(p.block_sizes(), params)
                for choice in range(p.k + 1):
                    if choice < p.k:
                        blocks = list(list(b) for b in p.blocks)
                        blocks[choice].append(n + 1)
                    else:
                        blocks = [list(b) for b in p.blocks] + [[n + 1]]
                    bigger = SetPartition.from_blocks(blocks)
                    assert math.exp(eppf_log(bigger, params)) == pytest.approx(
                        base * pred[choice], rel=1e-10
                    )

    @given(params_st, st.integers(1, 60), st.randoms(use_true_random=False))
    def test_rare_type_extension_identity(self, params, n, rnd):
        # adding the trace to the suspect's fresh singleton costs exactly
        # (1 - alpha)/(n + 1 + theta)
        labels = [rnd.randint(0, 6) for _ in range(n)]
        db = reduce_sample(labels)
        plus = augment(db, "suspect_only")
        plusplus = augment(db, "suspect_and_trace")
        delta = eppf_log(plusplus, params) - eppf_log(plus, params)
        expected = math.log((1.0 - params.alpha) / (db.n + 1 + params.theta))
        assert delta == pytest.approx(expected, abs=1e-12)


def _log_rising_reference(x, k):
    """sum_{i<k} log(x + i) summed exactly, and the sum of |log(x + i)|: for
    x >= 1 the two agree, below 1 mixed signs make the value itself a poor
    scale for its rounding error."""
    logs = [math.log(x + i) for i in range(k)]
    return math.fsum(logs), math.fsum(abs(v) for v in logs)


class TestLogRising:
    @given(
        st.one_of(
            st.floats(-6.0, 12.0).map(lambda e: 10.0**e),  # log-uniform over [1e-6, 1e12]
            st.floats(1e-6, 1e12),
            st.floats(9.0, 11.0),  # both sides of the branch point x = 10
        ),
        st.integers(0, 20000),
    )
    @example(1e9, 3750)
    @example(10.0, 1)
    @example(1e12, 1)
    def test_matches_exact_sum(self, x, k):
        value, scale = _log_rising_reference(x, k)
        assert abs(float(_log_rising(x, k)) - value) <= 1e-13 * scale

    def test_gammaln_difference_fails_where_it_holds(self):
        # x >> k: gammaln(x + k) - gammaln(x) keeps only the digits left
        # after subtracting two numbers of size x log x
        for x, k in ((1e9, 3750), (1e12, 1), (2.5e8, 18924)):
            value, scale = _log_rising_reference(x, k)
            assert abs(gammaln(x + k) - gammaln(x) - value) > 1e-13 * scale
            assert abs(float(_log_rising(x, k)) - value) <= 1e-13 * scale

    def test_vectorised_matches_scalar_calls(self):
        x = np.array([1e-6, 0.5, 9.999, 10.0, 216.0, 1e9])
        k = np.array([3, 0, 7, 1, 18924, 3750])
        assert _log_rising(x, k).tolist() == [float(_log_rising(a, b)) for a, b in zip(x, k)]


def _loop_crp_sample(n, params, seed=None):
    """Reference: the seating scheme one customer at a time."""
    rng = as_generator(seed)
    alpha, theta = params.alpha, params.theta
    ys = [1]
    counts = [1]
    joined = []  # the table of every customer who joined one
    k = 1
    for t, u in enumerate(rng.random(n - 1).tolist(), start=1):
        u *= t + theta
        opening = theta + k * alpha
        if u < opening:
            k += 1
            counts.append(1)
            ys.append(k)
            continue
        v = u - opening
        if v < t - k:
            y = joined[int(v)]
        else:
            y = min(int((v - (t - k)) / (1.0 - alpha)), k - 1) + 1
        joined.append(y)
        counts[y - 1] += 1
        ys.append(y)
    plan = SeatingPlan(tuple(ys))
    assert plan.table_counts == tuple(counts) and plan.k == k
    return plan


@st.composite
def crp_params(draw):
    alpha = draw(st.floats(1e-12, 1.0 - 1e-12))
    theta = draw(st.floats(-alpha, 1e6, exclude_min=True))
    return PdParams(alpha, theta)


class TestCrpSample:
    @given(crp_params(), st.integers(1, 3000), st.integers(0, 2**32 - 1))
    @example(PdParams(1e-12, 1e6), 3000, 0)
    @example(PdParams(1e-12, 1e4), 3000, 1)
    @example(PdParams(1.0 - 1e-12, 1e6), 3000, 2)
    @example(PdParams(0.5, -0.4999999), 3000, 3)
    def test_matches_customer_by_customer_loop(self, params, n, seed):
        assert crp_sample(n, params, seed=seed) == _loop_crp_sample(n, params, seed=seed)

    @pytest.mark.parametrize("seed", [901, 902, 903])
    def test_matches_loop_at_database_size(self, seed):
        params = PdParams(0.51, 216.0)
        assert crp_sample(18_925, params, seed=seed) == _loop_crp_sample(18_925, params, seed=seed)

    def test_thresholds_exact_where_the_quotient_misleads(self):
        # u a few ulps above theta: rounding in theta + k*alpha moves the
        # least opening level by up to ten places from (u - theta)/alpha
        alpha, theta = 1e-13, 1e4
        u = theta + np.arange(200) * np.spacing(theta)
        levels = theta + np.arange(5000) * alpha
        expected = [next(k for k in range(5000) if x < theta + k * alpha) for x in u.tolist()]
        quotient = (np.floor((u - theta) / alpha) + 1).astype(int)
        assert (quotient != expected).any()
        assert _opening_thresholds(u, levels, theta, alpha).tolist() == expected

    def test_first_customer_alone(self):
        plan = crp_sample(1, PdParams(0.5, 1.0), seed=0)
        assert plan.k == 1 and plan.assignments == (1,)

    def test_seed_reproducible(self):
        params = PdParams(0.62, 22.0)
        a = crp_sample(500, params, seed=123)
        b = crp_sample(500, params, seed=123)
        assert a == b
        c = crp_sample(500, params, seed=124)
        assert a != c

    def test_advances_shared_generator_like_one_uniform_per_customer(self):
        # customers 2..n each consume one uniform, drawn as one block
        g, reference = np.random.default_rng(9), np.random.default_rng(9)
        crp_sample(300, PdParams(0.4, 3.0), seed=g)
        reference.random(299)
        assert g.bit_generator.state == reference.bit_generator.state

    def test_plan_invariants(self):
        plan = crp_sample(200, PdParams(0.5, 5.0), seed=7)
        assert plan.n == 200
        assert sum(plan.table_counts) == 200
        assert max(plan.assignments) == plan.k

    def test_mean_table_count_grows_with_alpha(self):
        rng_means = []
        for i, alpha in enumerate((0.2, 0.5, 0.8)):
            params = PdParams(alpha, 1.0)
            ks = [crp_sample(120, params, seed=1000 * i + rep).k for rep in range(150)]
            rng_means.append(np.mean(ks))
        assert rng_means[0] < rng_means[1] < rng_means[2]

    def test_matches_eppf_distribution_small(self):
        # coarse sanity version of the goodness-of-fit acceptance check
        params = PdParams(0.5, 1.0)
        rng = np.random.default_rng(42)
        counts = {}
        reps = 20_000
        for _ in range(reps):
            plan = crp_sample(4, params, seed=rng)
            counts[plan.to_set_partition().blocks] = counts.get(plan.to_set_partition().blocks, 0) + 1
        for p in enumerate_partitions(4):
            expected = reps * math.exp(eppf_log(p, params))
            observed = counts.get(p.blocks, 0)
            assert abs(observed - expected) < 5 * math.sqrt(expected) + 5


class TestSeatingPlan:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SeatingPlan(assignments=(2,))
        with pytest.raises(ValueError):
            SeatingPlan(assignments=(1, 3))
        with pytest.raises(ValueError, match="created in order"):
            SeatingPlan(assignments=(1, 0))

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=8))
    def test_accepts_exactly_the_ordered_plans(self, ys):
        # loop reference for the vectorized check: each customer sits at an
        # open table or opens the next one
        ordered = ys[0] == 1 and all(1 <= y <= max(ys[:t]) + 1 for t, y in enumerate(ys) if t)
        if ordered:
            plan = SeatingPlan(tuple(ys))
            assert plan.n == len(ys) and plan.k == max(ys)
            assert plan.table_counts == tuple(ys.count(table) for table in range(1, max(ys) + 1))
        else:
            with pytest.raises(ValueError):
                SeatingPlan(tuple(ys))

    def test_to_set_partition(self):
        plan = SeatingPlan((1, 2, 1, 3))
        assert plan.to_set_partition().blocks == ((1, 3), (2,), (4,))
        assert plan.to_set_partition() is plan.to_set_partition()


class TestGem:
    def test_single_stick(self):
        pop = gem_stick_breaking(PdParams(0.5, 1.0), m=1, seed=3)
        assert pop.probs == (1.0,)

    @pytest.mark.parametrize("seed", [0, 1, 2, 99])
    def test_sorted_and_normalized(self, seed):
        pop = gem_stick_breaking(PdParams(0.3, 4.0), m=40, seed=seed)
        assert all(pop.probs[i] >= pop.probs[i + 1] for i in range(pop.m - 1))
        assert math.fsum(pop.probs) == pytest.approx(1.0, abs=1e-12)
        assert pop.tail_mass is not None and 0.0 <= pop.tail_mass < 1.0
        assert pop.pop_size is None

    def test_first_break_mean(self):
        # V_1 ~ Beta(1-alpha, theta+alpha) has mean (1-alpha)/(1+theta); at
        # m=1 the recorded tail mass is exactly 1 - V_1
        alpha, theta = 0.4, 3.0
        rng = np.random.default_rng(11)
        v1 = np.array(
            [1.0 - gem_stick_breaking(PdParams(alpha, theta), m=1, seed=rng).tail_mass
             for _ in range(20_000)]
        )
        assert v1.mean() == pytest.approx((1 - alpha) / (1 + theta), abs=5e-3)

    def test_deterministic(self):
        a = gem_stick_breaking(PdParams(0.5, 10.0), m=25, seed=8)
        b = gem_stick_breaking(PdParams(0.5, 10.0), m=25, seed=8)
        assert a == b


class TestPowerlaw:
    def test_slope_is_inverse_alpha(self):
        ref = dict(powerlaw_reference(0.5, range(1, 11)))
        assert ref[1] == 1.0
        # slope on log-log axes between ranks 2 and 4
        slope = (math.log(ref[4]) - math.log(ref[2])) / (math.log(4) - math.log(2))
        assert slope == pytest.approx(-2.0, abs=1e-12)

    def test_paper_scale_slope(self):
        ref = dict(powerlaw_reference(0.51, [1, 10, 100]))
        slope = (math.log(ref[100]) - math.log(ref[10])) / math.log(10)
        assert slope == pytest.approx(-1.9608, abs=5e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            powerlaw_reference(1.2, [1, 2])
        with pytest.raises(ValueError):
            powerlaw_reference(0.5, [0])


class TestRankedFrequencies:
    def test_worked_example(self):
        freqs = ranked_frequencies((2, 4, 2, 4, 3, 3, 10, 13, 5, 4))
        assert freqs.tolist() == pytest.approx([0.3, 0.2, 0.2, 0.1, 0.1, 0.1])

    def test_single_block(self):
        assert ranked_frequencies("aaa").tolist() == [1.0]

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    def test_sums_to_one_and_sorted(self, labels):
        freqs = ranked_frequencies(labels)
        assert freqs.sum() == pytest.approx(1.0)
        assert (np.diff(freqs) <= 0).all()

    def test_accepts_plan_and_partitions(self):
        plan = SeatingPlan((1, 1, 2))
        assert ranked_frequencies(plan).tolist() == pytest.approx([2 / 3, 1 / 3])
        assert ranked_frequencies(IntegerPartition((1, 2), (1, 1))).tolist() == pytest.approx(
            [2 / 3, 1 / 3]
        )


class TestPopulationVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            PopulationVector(probs=())
        with pytest.raises(ValueError):
            PopulationVector(probs=(0.4, 0.6))  # increasing
        with pytest.raises(ValueError):
            PopulationVector(probs=(0.7, 0.2))  # does not sum to 1
        with pytest.raises(ValueError):
            PopulationVector(probs=(1.0,), pop_size=0)

    def test_round_trip(self):
        pop = PopulationVector(probs=(0.5, 0.3, 0.2), pop_size=10)
        assert PopulationVector.from_dict(pop.to_dict()) == pop
