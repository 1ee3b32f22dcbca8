import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import digamma, gammaln, zeta

from raretype.partitions import (
    IntegerPartition,
    SetPartition,
    reduce_sample,
    to_integer_partition,
)
from raretype.pitman import (
    PdParams,
    PopulationVector,
    SeatingPlan,
    _log_rising,
    _rising_sums,
    crp_sample,
    eppf_log,
    gem_stick_breaking,
    powerlaw_reference,
    ranked_frequencies,
)

from reference import (
    augment, block_term, enumerate_partitions, grid_loglik, log_rising_reference, loop_crp_sample,
)

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
            total = sum(math.exp(eppf_log(to_integer_partition(p), params)) for p in parts)
            assert total == pytest.approx(1.0, abs=1e-12)

    @given(params_st, st.randoms(use_true_random=False))
    def test_depends_only_on_size_multiset(self, params, rnd):
        # two set partitions sharing (a, r) but with scrambled index detail
        labels = [rnd.randint(0, 4) for _ in range(rnd.randint(1, 12))]
        scrambled = list(labels)
        rnd.shuffle(scrambled)
        assert eppf_log(to_integer_partition(reduce_sample(labels)), params) == pytest.approx(
            eppf_log(to_integer_partition(reduce_sample(scrambled)), params), rel=1e-14, abs=1e-14
        )

    @pytest.mark.parametrize("params", [PdParams(0.5, 1.0), PdParams(0.8, -0.3), PdParams(0.2, 10.0)])
    def test_sequential_consistency_brute_force(self, params):
        # extending any partition of [n] by element n+1 multiplies its
        # probability by the corresponding predictive entry (n <= 7)
        for n in range(1, 8):
            for p in enumerate_partitions(n):
                base = math.exp(eppf_log(to_integer_partition(p), params))
                pred = _seating_rule(p.block_sizes(), params)
                for choice in range(p.k + 1):
                    if choice < p.k:
                        blocks = list(list(b) for b in p.blocks)
                        blocks[choice].append(n + 1)
                    else:
                        blocks = [list(b) for b in p.blocks] + [[n + 1]]
                    bigger = SetPartition.from_blocks(blocks)
                    assert math.exp(eppf_log(to_integer_partition(bigger), params)) == pytest.approx(
                        base * pred[choice], rel=1e-10
                    )

    @given(params_st, st.integers(1, 60), st.randoms(use_true_random=False))
    def test_rare_type_extension_identity(self, params, n, rnd):
        # adding the trace to the suspect's fresh singleton costs exactly
        # (1 - alpha)/(n + 1 + theta)
        labels = [rnd.randint(0, 6) for _ in range(n)]
        db = reduce_sample(labels)
        plus = to_integer_partition(augment(db, "suspect_only"))
        plusplus = to_integer_partition(augment(db, "suspect_and_trace"))
        delta = eppf_log(plusplus, params) - eppf_log(plus, params)
        expected = math.log((1.0 - params.alpha) / (db.n + 1 + params.theta))
        assert delta == pytest.approx(expected, abs=1e-12)


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
        value, scale = log_rising_reference(x, k)
        assert abs(float(_log_rising(x, k)) - value) <= 1e-13 * scale

    def test_gammaln_difference_fails_where_it_holds(self):
        # x >> k: gammaln(x + k) - gammaln(x) keeps only the digits left
        # after subtracting two numbers of size x log x
        for x, k in ((1e9, 3750), (1e12, 1), (2.5e8, 18924)):
            value, scale = log_rising_reference(x, k)
            assert abs(gammaln(x + k) - gammaln(x) - value) > 1e-13 * scale
            assert abs(float(_log_rising(x, k)) - value) <= 1e-13 * scale

    def test_vectorised_matches_scalar_calls(self):
        x = np.array([1e-6, 0.5, 9.999, 10.0, 216.0, 1e9])
        k = np.array([3, 0, 7, 1, 18924, 3750])
        assert _log_rising(x, k).tolist() == [float(_log_rising(a, b)) for a, b in zip(x, k)]


class TestRisingSums:
    # from theta = -alpha (alpha = 0.51) over a grid that crosses the
    # direct head's end at theta + 1 = 16, out to theta >> n
    THETAS = [-0.51 + 1e-9, -0.5, *np.linspace(0.0, 30.0, 121).tolist(), 204.85, 1e3, 1e5, 1e8]

    @pytest.mark.parametrize("n", [2, 3, 17, 18, 101, 2086, 18926])
    def test_matches_fsum_over_the_terms(self, n):
        for theta in self.THETAS:
            sum1, sum2 = _rising_sums(theta + 1.0, n - 1)
            want1 = math.fsum(1.0 / (theta + i) for i in range(1, n))
            want2 = math.fsum(1.0 / (theta + i) ** 2 for i in range(1, n))
            assert abs(sum1 - want1) <= 1e-15 * want1, (theta, n)
            assert abs(sum2 - want2) <= 1e-15 * want2, (theta, n)

    def test_no_terms(self):
        assert _rising_sums(0.3, 0) == _rising_sums(1e8, 0) == (0.0, 0.0)


# the reference sums the logs of blocks up to this size exactly
_EXACT_SIZES = 65


@st.composite
def block_partitions(draw):
    """Up to six distinct block sizes in 2..10^6, on both sides of the
    series' start at i = 8 (sizes 2-9 and just past them) and far past
    it, with 1-5 blocks each, and an alpha."""
    sizes = draw(
        st.sets(
            st.one_of(st.integers(2, 9), st.integers(9, 16), st.integers(17, 10**6)),
            min_size=1,
            max_size=6,
        )
    )
    counts = draw(st.lists(st.integers(1, 5), min_size=len(sizes), max_size=len(sizes)))
    alpha = draw(st.floats(1e-12, 1.0 - 1e-12))
    return IntegerPartition(a=tuple(sorted(sizes)), r=tuple(counts)), alpha


class TestBlockTerm:
    """sum_j r_j log [1-alpha]_{a_j-1;1} and its alpha-derivatives, each
    within 1e-13 of the sum of its terms' magnitudes, on a grid and at a
    point. The derivatives are checked against scipy's digamma and
    zeta(2, .), the value against gammaln for sizes above 65 and, below,
    against the exact sum of log(i) + log1p(-alpha / i): scipy's own
    rounding of gammaln(2 - alpha) - gammaln(1 - alpha) is 1.5e-16 at
    alpha = 1e-6, over 1e-13 of that block's whole term."""

    @settings(deadline=None)
    @given(block_partitions())
    @example((IntegerPartition(a=(2, 65, 66, 10**6), r=(1, 2, 3, 1)), 1.0 - 1e-6))
    @example((IntegerPartition(a=(2,), r=(3,)), 1e-6))
    @example((IntegerPartition(a=(5,), r=(1,)), 0.9))
    @example((IntegerPartition(a=(8, 9, 10), r=(1, 2, 1)), 1e-12))
    @example((IntegerPartition(a=(8, 9, 10, 10**6), r=(1, 2, 1, 5)), 1.0 - 1e-12))
    def test_matches_reference(self, case):
        part, alpha = case
        a, r = np.asarray(part.a, dtype=float), np.asarray(part.r, dtype=float)
        per_block = [
            math.fsum(math.log(i) + math.log1p(-alpha / i) for i in range(1, size))
            if size <= _EXACT_SIZES
            else float(gammaln(size - alpha) - gammaln(1.0 - alpha))
            for size in part.a
        ]
        value = float(r @ per_block)
        # only the factor 1 - alpha has a negative log
        scale = value - 2.0 * r.sum() * math.log1p(-alpha)
        grad = float(r @ (digamma(1.0 - alpha) - digamma(a - alpha)))
        hess = float(r @ (zeta(2.0, a - alpha) - zeta(2.0, 1.0 - alpha)))
        grid, (point, point_grad, point_hess) = block_term(part, alpha)
        assert abs(grid - value) <= 1e-13 * scale
        assert abs(point - value) <= 1e-13 * scale
        # every term of either derivative has the same sign
        assert abs(point_grad - grad) <= 1e-13 * abs(grad)
        assert abs(point_hess - hess) <= 1e-13 * abs(hess)

    @settings(deadline=None)
    @given(block_partitions(), st.integers(0, 50), st.floats(-6.0, 4.0))
    def test_eppf_log_point_matches_grid_kernel(self, case, singletons, log_lift):
        # one point takes the scalar path; the grid kernel is the reference,
        # within 1e-13 of the magnitudes of the rising and block terms
        part, alpha = case
        if singletons:
            part = IntegerPartition((1, *part.a), (singletons, *part.r))
        params = PdParams(alpha, -alpha + 10.0**log_lift)
        grid, scale = grid_loglik(part, params)
        assert abs(eppf_log(part, params) - grid) <= 1e-13 * scale


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
    # u a few ulps above theta: rounding in theta + k*alpha moves the least
    # opening level by up to ten places from (u - theta)/alpha
    @example(PdParams(1e-13, 1e4), 1, 4)
    @example(PdParams(1e-13, 1e4), 2, 5)
    @example(PdParams(1e-13, 1e4), 3000, 6)
    def test_matches_customer_by_customer_loop(self, params, n, seed):
        assert crp_sample(n, params, seed=seed) == loop_crp_sample(n, params, seed=seed)

    @pytest.mark.parametrize("seed", [901, 902, 903])
    def test_matches_loop_at_database_size(self, seed):
        params = PdParams(0.51, 216.0)
        assert crp_sample(18_925, params, seed=seed) == loop_crp_sample(18_925, params, seed=seed)

    def test_plan_is_its_label_string(self):
        plan = crp_sample(3000, PdParams(0.51, 216.0), seed=11)
        again = SeatingPlan(plan.assignments)
        assert plan == again
        assert (plan.k, plan.table_counts) == (again.k, again.table_counts)
        assert type(plan.assignments) is tuple
        assert {type(y) for y in plan.assignments} == {int}
        assert plan.to_set_partition().labels is plan.assignments

    @pytest.mark.parametrize("n", [10.0, 2.5, True, np.float64(3.0), "3", 0])
    def test_rejects_non_integer_sizes(self, n):
        # checked before any draw, so a shared Generator does not advance
        g = np.random.default_rng(5)
        state = g.bit_generator.state
        with pytest.raises(ValueError, match="n must be an integer"):
            crp_sample(n, PdParams(0.5, 1.0), seed=g)
        assert g.bit_generator.state == state

    def test_takes_numpy_integer_sizes(self):
        params = PdParams(0.51, 216.0)
        assert crp_sample(np.int32(500), params, seed=4) == crp_sample(500, params, seed=4)

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
            expected = reps * math.exp(eppf_log(to_integer_partition(p), params))
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


    def test_plan_is_its_set_partition(self):
        plan = SeatingPlan(np.array([1, 2, 1, 3]))
        assert plan.to_set_partition() is plan and isinstance(plan, SetPartition)
        assert plan.labels is plan.assignments == (1, 2, 1, 3)
        assert plan.table_counts == plan.block_sizes() == (2, 1, 1)
        assert repr(plan) == "SeatingPlan(assignments=(1, 2, 1, 3))"
        assert SeatingPlan(assignments=(1, 2, 1, 3)) == plan
        # a plan equals only a plan
        assert plan != SetPartition((1, 2, 1, 3)) and SetPartition((1, 2, 1, 3)) != plan


class TestGem:
    @pytest.mark.parametrize("m", [5.0, 2.5, True, np.float64(3.0), "3", 0])
    def test_rejects_non_integer_sizes(self, m):
        g = np.random.default_rng(5)
        state = g.bit_generator.state
        with pytest.raises(ValueError, match="truncation length must be an integer"):
            gem_stick_breaking(PdParams(0.5, 1.0), m, seed=g)
        assert g.bit_generator.state == state

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

    @pytest.mark.parametrize("ranks", [[2.5], [2.0], [True], [1, np.float64(2.0)]])
    def test_non_integer_rank_is_rejected(self, ranks):
        with pytest.raises(ValueError, match="ranks must be integers"):
            powerlaw_reference(0.5, ranks)

    def test_numpy_integer_ranks(self):
        assert powerlaw_reference(0.5, np.arange(1, 4)) == powerlaw_reference(0.5, range(1, 4))


class TestRankedFrequencies:
    def test_worked_example(self):
        freqs = ranked_frequencies((3, 2, 2, 1, 1, 1))
        assert freqs.tolist() == pytest.approx([0.3, 0.2, 0.2, 0.1, 0.1, 0.1])

    def test_single_block(self):
        assert ranked_frequencies((3,)).tolist() == [1.0]

    @pytest.mark.parametrize(
        "sizes", [[True, 2], [2.5, 1], np.array([True, False]), np.array([2.0])], ids=repr
    )
    def test_bool_or_fractional_sizes_rejected(self, sizes):
        # [True, 2] gave [0.667, 0.333] and [2.5, 1] gave [0.714, 0.286]
        with pytest.raises(ValueError, match="block sizes must be integers"):
            ranked_frequencies(sizes)

    @pytest.mark.parametrize(
        "sizes",
        [[0, 0], [-1, 2], [], np.array([], dtype=np.int64), np.array([0, 3]), np.array([[1, 2], [3, 4]])],
        ids=["zeros", "negative", "empty", "empty-array", "zero-in-array", "2-d-array"],
    )
    def test_empty_nested_or_nonpositive_sizes_rejected(self, sizes):
        # [0, 0] gave [nan, nan] with a RuntimeWarning, [-1, 2] gave [2.0, -1.0]
        with pytest.raises(ValueError, match="nonempty 1-d sequence of sizes >= 1"):
            ranked_frequencies(sizes)

    def test_numpy_integer_sizes(self):
        sizes = np.array([1, 3, 1], dtype=np.int32)
        assert ranked_frequencies(sizes).tolist() == ranked_frequencies((3, 1, 1)).tolist()

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=30))
    def test_sums_to_one_and_sorted(self, sizes):
        freqs = ranked_frequencies(sizes)
        assert freqs.sum() == pytest.approx(1.0)
        assert (np.diff(freqs) <= 0).all()


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

    @pytest.mark.parametrize(
        "probs, message",
        [
            # every comparison with NaN is False, so a NaN passed each check
            ((0.5, math.nan, 0.5), "finite"),
            ((math.inf, 0.5), "finite"),
            ((0.5, 0.5, -0.0), "positive"),
            ((0.5, 0.5, 0.0), "positive"),
        ],
    )
    def test_rejects_non_finite_and_non_positive(self, probs, message):
        with pytest.raises(ValueError, match=f"must be {message}"):
            PopulationVector(probs=probs, pop_size=10)

    def test_array_is_read_only_and_built_once(self):
        pop = PopulationVector(probs=(0.5, 0.3, 0.2), pop_size=10)
        probs = pop.as_array()
        assert probs is pop.as_array() and probs.tolist() == [0.5, 0.3, 0.2]
        with pytest.raises(ValueError):
            probs[0] = 1.0
        # not a compared field
        assert pop == PopulationVector(probs=(0.5, 0.3, 0.2), pop_size=10)

    def test_round_trip(self):
        pop = PopulationVector(probs=(0.5, 0.3, 0.2), pop_size=10)
        assert PopulationVector.from_dict(pop.to_dict()) == pop

    def test_pop_size_must_be_an_integer(self):
        # a fractional population would scale the census caps of lr._support_caps
        for size in (2.5, 3.0, np.float64(3.0), True, "4"):
            with pytest.raises(ValueError, match="integer"):
                PopulationVector(probs=(0.5, 0.5), pop_size=size)
        with pytest.raises(ValueError, match="integer"):
            PopulationVector.from_dict({"probs": [0.5, 0.5], "pop_size": 3.7})
        pop = PopulationVector(probs=(0.5, 0.5), pop_size=np.int64(4))
        assert pop.pop_size == 4 and json.dumps(pop.to_dict())
