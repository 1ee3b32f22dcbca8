import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from raretype.cli import cli_dispatch
from raretype.lr import (
    InfeasibleAssignmentError,
    MhConfig,
    exact_true_lr,
    lr_empirical_bayes,
    lr_frequentist,
    lr_true_mh,
    saddle_true_lr,
)
from raretype.lr import SADDLE_LOG10_BOUND
from raretype.partitions import IntegerPartition
from raretype.pitman import PdParams, PopulationVector, crp_sample
from raretype.workbench import ExperimentSpec, dutch_fixture, population_from_partition, run_experiment

from reference import (
    brute_force_true_lr,
    check_labels,
    crp_case,
    forbid_chain,
    greedy_labels,
    log_space_singletons_lr,
    loop_assignment_check,
    loop_chi_init,
    members_swap_chain,
    replicate_draws,
    saddle_products,
    stationary_acceptance,
    swap_chain,
    tilt,
    uncollapsed_true_lr,
)


def uniform_population(m, pop_size=None):
    return PopulationVector(probs=(1.0 / m,) * m, pop_size=pop_size or 100 * m)


class TestEmpiricalBayes:
    def test_reference_value(self):
        lr = lr_empirical_bayes(18925, PdParams(0.51, 216.0))
        assert lr == pytest.approx(19142 / 0.49, rel=1e-12)
        assert math.log10(lr) == pytest.approx(4.5918, abs=0.005)

    def test_reduces_to_n_plus_one(self):
        lr = lr_empirical_bayes(50, PdParams(1e-12, 0.0))
        assert lr == pytest.approx(51.0, rel=1e-9)

    def test_dutch_scale_value(self):
        lr = lr_empirical_bayes(2085, PdParams(0.62, 22.0))
        assert lr == pytest.approx(2108 / 0.38, rel=1e-12)
        assert math.log10(lr) == pytest.approx(3.744, abs=5e-4)

    def test_monotone_in_theta_and_alpha(self):
        thetas = np.linspace(-0.05, 300, 40)
        values = [lr_empirical_bayes(500, PdParams(0.5, t)) for t in thetas]
        assert all(a < b for a, b in zip(values, values[1:]))
        alphas = np.linspace(0.05, 0.95, 40)
        values = [lr_empirical_bayes(500, PdParams(a, 10.0)) for a in alphas]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            lr_empirical_bayes(0, PdParams(0.5, 1.0))

    @pytest.mark.parametrize("n", [2.5, 100.0, True, np.float64(100.0)])
    def test_non_integer_n_is_rejected(self, n):
        with pytest.raises(ValueError, match="database size must be an integer"):
            lr_empirical_bayes(n, PdParams(0.5, 1.0))

    def test_numpy_integer_n(self):
        params = PdParams(0.5, 1.0)
        assert lr_empirical_bayes(np.int64(50), params) == lr_empirical_bayes(50, params)


class TestFrequentist:
    def test_uniform(self):
        assert lr_frequentist(uniform_population(100), 37) == pytest.approx(100.0)

    def test_rank_lookup(self):
        pop = PopulationVector(probs=(0.5, 0.3, 0.2), pop_size=10)
        assert lr_frequentist(pop, 3) == pytest.approx(5.0)

    def test_log10_scale(self):
        probs = (0.999,) + (0.001,)
        pop = PopulationVector(probs=probs, pop_size=1000)
        assert math.log10(lr_frequentist(pop, 2)) == pytest.approx(3.0)

    def test_rank_out_of_range(self):
        pop = uniform_population(5)
        with pytest.raises(ValueError):
            lr_frequentist(pop, 0)
        with pytest.raises(ValueError):
            lr_frequentist(pop, 6)

    @pytest.mark.parametrize("rank", [2.0, 2.5, True, np.float64(2.0)])
    def test_non_integer_rank_is_rejected(self, rank):
        with pytest.raises(ValueError, match="matched_rank must be an integer"):
            lr_frequentist(uniform_population(5), rank)

    def test_numpy_integer_rank(self):
        pop = PopulationVector(probs=(0.5, 0.3, 0.2), pop_size=10)
        assert lr_frequentist(pop, np.int64(3)) == lr_frequentist(pop, 3)


class TestChiInit:
    """The chain's greedy start."""

    def test_uniform_all_singletons(self):
        pi = IntegerPartition((1,), (4,))
        pop = uniform_population(4, pop_size=40)
        assert greedy_labels(pi, pop).tolist() == [1, 1, 1, 1]

    def test_more_classes_than_types_is_infeasible(self):
        pi = IntegerPartition((1,), (5,))
        pop = uniform_population(4, pop_size=40)
        with pytest.raises(InfeasibleAssignmentError):
            lr_true_mh(pi, pop)

    def test_dutch_population_supports_itself(self):
        pi = dutch_fixture()
        pop = population_from_partition(pi)
        est = lr_true_mh(pi, pop, MhConfig(2000, 0, 100, seed=0))
        assert est.mean_singleton_mass > 0

    def test_strict_rule_rejects_exact_counts(self):
        # under the strict census rule a type carried by exactly a_j
        # individuals cannot be observed a_j times, so a population built
        # from the partition itself becomes infeasible at the largest block
        pi = dutch_fixture()
        pop = population_from_partition(pi)
        with pytest.raises(InfeasibleAssignmentError):
            lr_true_mh(pi, pop, strict_support=True)

    def test_greedy_prefers_frequent_ranks(self):
        pi = IntegerPartition((1, 3), (1, 1))
        pop = PopulationVector(probs=(0.6, 0.3, 0.1), pop_size=100)
        # block of size 3 takes rank 1, singleton takes rank 2
        assert greedy_labels(pi, pop).tolist() == [2, 1, 0]


class TestAssignmentVector:
    """The chain's end-of-run check on its labels."""

    def test_class_counts_enforced(self):
        pi = IntegerPartition((1, 2), (2, 1))
        pop = PopulationVector(probs=(0.4, 0.3, 0.2, 0.1), pop_size=1000)
        check_labels([2, 1, 1, 0], pi, pop)
        with pytest.raises(ValueError, match=r"class counts \(1, 1\) must equal r=\(2, 1\)"):
            check_labels([2, 1, 0, 0], pi, pop)

    def test_support_enforced(self):
        pi = IntegerPartition((1, 5), (1, 1))
        pop = PopulationVector(probs=(0.7, 0.2, 0.1), pop_size=10)
        # rank 3 carries 1 individual: cannot be seen 5 times
        with pytest.raises(InfeasibleAssignmentError, match="rank 3 cannot carry block size 5"):
            check_labels([1, 0, 2], pi, pop)


class TestMhConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            MhConfig(iterations=0)
        with pytest.raises(ValueError):
            MhConfig(iterations=100, burn_in=100)
        with pytest.raises(ValueError):
            MhConfig(thinning=0)
        assert MhConfig().n_retained == 80

    @pytest.mark.parametrize(
        "schedule", [{"iterations": 1500.5}, {"thinning": 2.5}, {"burn_in": 10.0}, {"thinning": True}]
    )
    def test_schedule_must_be_integers(self, schedule):
        # a fractional schedule made n_retained a float and the chain's range fail
        with pytest.raises(ValueError, match="must be an integer"):
            MhConfig(**schedule)

    def test_numpy_integer_schedule(self):
        cfg = MhConfig(iterations=np.int64(3000), burn_in=np.int32(1000), thinning=np.int64(100))
        assert cfg.n_retained == 20


def small_cfg(seed, iterations=100_000):
    # burn_in must lie in [0, iterations): a fifth of the chain is discarded
    return MhConfig(iterations=iterations, burn_in=iterations // 5,
                    thinning=max(1, iterations // 200), seed=seed)


class TestTrueLr:
    def test_uniform_population_gives_m(self):
        # every assignment is equally likely and the singleton mass is
        # constant, so the estimate is exact
        pi = IntegerPartition((1, 2), (2, 2))  # n+1 = 6, s1 = 2
        for seed in range(5):
            pop = uniform_population(7)
            est = lr_true_mh(pi, pop, small_cfg(seed, 20_000))
            assert est.lr == pytest.approx(7.0, rel=1e-2)

    def test_single_singleton_hand_enumeration(self):
        # one observation, m = 2: E[mass] = (p1^2 + p2^2) and LR = 1/0.58
        pi = IntegerPartition((1,), (1,))
        pop = PopulationVector(probs=(0.7, 0.3), pop_size=10)
        assert exact_true_lr(pi, pop) == pytest.approx(1 / 0.58, rel=1e-12)

    def test_exact_uniform_gives_m(self):
        pi = IntegerPartition((1, 2), (2, 1))
        pop = uniform_population(6)
        assert exact_true_lr(pi, pop) == pytest.approx(6.0, rel=1e-12)

    def test_mh_matches_enumeration_on_random_small_instances(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 3:
            m = int(rng.integers(4, 8))
            raw = np.sort(rng.dirichlet(np.ones(m) * 2.0))[::-1]
            probs = tuple(float(x) for x in raw / raw.sum())
            try:
                pop = PopulationVector(probs=probs, pop_size=500)
            except ValueError:
                continue
            pi = IntegerPartition((1, 2), (2, 1)).add_singleton()  # n+1 = 5, s1 = 3
            exact = exact_true_lr(pi, pop)
            est = lr_true_mh(pi, pop, small_cfg(int(rng.integers(10_000))))
            assert abs(est.lr - exact) <= max(0.02 * exact, 3 * est.stderr)
            checked += 1

    def test_chain_preserves_class_counts(self):
        pi = IntegerPartition((1, 2, 3), (2, 2, 1))
        pop = PopulationVector(
            probs=(0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05), pop_size=200
        )
        est = lr_true_mh(pi, pop, small_cfg(3, 5_000))
        assert est.n_retained > 0
        assert 0.0 <= est.acceptance_rate <= 1.0

    # the config is built outside pytest.raises so that a schedule error
    # cannot stand in for the input check under test

    def test_requires_singleton(self):
        cfg = small_cfg(0, 1000)
        with pytest.raises(ValueError, match="at least one singleton"):
            lr_true_mh(IntegerPartition((2,), (2,)), uniform_population(5), cfg)

    def test_two_singletons_one_type_pigeonhole(self):
        # two observed classes cannot map into a single population type
        pop = PopulationVector(probs=(1.0,), pop_size=10)
        cfg = small_cfg(0, 1000)
        with pytest.raises(InfeasibleAssignmentError):
            lr_true_mh(IntegerPartition((1,), (2,)), pop, cfg)

    @pytest.mark.parametrize(
        "route", [lr_true_mh, exact_true_lr, saddle_true_lr], ids=lambda f: f.__name__
    )
    def test_requires_pop_size(self, route, tmp_path, capsys):
        # census caps need the population's size: every known-population
        # route refuses without it, or with fewer people than listed types,
        # and so does the CLI's chain
        pop = PopulationVector(probs=(0.5, 0.5))
        with pytest.raises(ValueError, match="^population needs pop_size"):
            route(IntegerPartition((1,), (1,)), pop)
        short = PopulationVector(probs=(0.5, 0.3, 0.2), pop_size=2)
        with pytest.raises(ValueError, match="^pop_size below the number of listed types"):
            route(IntegerPartition((1,), (2,)), short)
        # the routes share one prelude, so one error order: the inputs, then
        # feasibility with the greedy fill's message, then (for the exact
        # pass) its state budget, which Dutch over three types exceeds
        census = PopulationVector(probs=(0.5, 0.3, 0.2), pop_size=10)
        with pytest.raises(ValueError, match="^rare-type partition needs at least one singleton"):
            route(IntegerPartition((2,), (1,)), census)
        for part in (IntegerPartition((1, 8), (1, 1)), dutch_fixture()):
            _, expected = _outcome(loop_chi_init, part, census)
            with pytest.raises(InfeasibleAssignmentError) as err:
                route(part, census)
            assert str(err.value) == expected
        (tmp_path / "part.json").write_text('{"a": [1], "r": [1]}')
        (tmp_path / "pop.json").write_text('{"probs": [0.5, 0.5]}')
        argv = ["true-lr", "--partition", str(tmp_path / "part.json"),
                "--population", str(tmp_path / "pop.json"), "--quiet"]
        assert cli_dispatch(argv) == 2
        assert "population needs pop_size" in capsys.readouterr().err

    def test_zero_retained_is_config_error(self):
        pi = IntegerPartition((1,), (1,))
        pop = uniform_population(3)
        with pytest.raises(ValueError):
            lr_true_mh(pi, pop, MhConfig(iterations=10, burn_in=5, thinning=50, seed=0))
        # one retained sample has no error bar
        with pytest.raises(ValueError, match="fewer than 2"):
            lr_true_mh(pi, pop, MhConfig(1000, 0, 1000, seed=0))

    def test_short_schedule_is_rejected_before_the_chain(self, monkeypatch):
        forbid_chain(monkeypatch)
        short = MhConfig(1000, 0, 1000, seed=0)
        with pytest.raises(ValueError, match="fewer than 2"):
            lr_true_mh(IntegerPartition((1,), (1,)), uniform_population(3), short)
        # an infeasible census is still reported first
        with pytest.raises(InfeasibleAssignmentError):
            lr_true_mh(IntegerPartition((1,), (5,)), uniform_population(4, pop_size=40), short)

    def test_deterministic_given_seed(self):
        pi = IntegerPartition((1, 2), (2, 1))
        pop = PopulationVector(probs=(0.4, 0.3, 0.2, 0.05, 0.05), pop_size=300)
        a = lr_true_mh(pi, pop, small_cfg(11, 10_000))
        b = lr_true_mh(pi, pop, small_cfg(11, 10_000))
        assert a == b

    def test_frozen_state_space(self):
        # all ranks observed as singletons: no valid swap exists and the
        # single state is the whole space, so LR = m exactly
        pi = IntegerPartition((1,), (4,))
        pop = uniform_population(4)
        est = lr_true_mh(pi, pop, small_cfg(0, 5_000))
        assert est.lr == pytest.approx(4.0, rel=1e-12)
        assert est.acceptance_rate == 0.0


def _outcome(f, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        return f(*args, **kwargs)
    except (ValueError, InfeasibleAssignmentError) as err:
        return type(err), str(err)


@st.composite
def assignment_cases(draw):
    """A census of 1-8 types, a partition of 1-6 blocks of sizes 1-4, and a
    labelling with classes 0..J that is the greedy start, a shuffle of it
    or a one-label edit."""
    counts = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=8)), reverse=True)
    pop = PopulationVector(probs=tuple(c / sum(counts) for c in counts), pop_size=sum(counts))
    pi = IntegerPartition.from_block_sizes(draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)))
    chi = [0] * pop.m
    labels = [j for j, r_j in enumerate(pi.r, start=1) for _ in range(r_j)][: pop.m]
    chi[: len(labels)] = labels
    chi = draw(st.permutations(chi))
    if draw(st.integers(0, 2)) == 0:
        chi[draw(st.integers(0, len(chi) - 1))] = draw(st.integers(0, pi.num_size_classes))
    return pi, pop, tuple(chi)


class TestVectorisedChecks:
    @settings(max_examples=300, deadline=None)
    @given(assignment_cases(), st.booleans())
    def test_chi_init_matches_loop_reference(self, case, strict):
        pi, pop, _ = case
        expected = _outcome(loop_chi_init, pi, pop, strict)
        got = _outcome(greedy_labels, pi, pop, strict)
        assert (tuple(got.tolist()) if isinstance(got, np.ndarray) else got) == expected

    @settings(max_examples=300, deadline=None)
    @given(assignment_cases(), st.booleans())
    def test_assignment_checks_match_loop_reference(self, case, strict):
        pi, pop, chi = case
        expected = _outcome(loop_assignment_check, chi, pi, pop, strict)
        got = _outcome(check_labels, chi, pi, pop, strict)
        assert got == expected


class TestProposalLaw:
    POP = PopulationVector(probs=(0.35, 0.25, 0.15, 0.12, 0.08, 0.05), pop_size=1000)

    @pytest.mark.parametrize(
        "pi, exact, uniform_pairs",
        [
            (IntegerPartition((1, 2, 3), (1, 1, 1)), 0.4161, 0.4644),
            (IntegerPartition((1, 3), (3, 1)), 0.4602, 0.3745),
        ],
    )
    def test_acceptance_matches_uniform_cross_class_rank_pairs(self, pi, exact, uniform_pairs):
        # a uniform cross-class rank pair puts weight n_c n_d on the class
        # pair; drawing class pairs uniformly is also symmetric, but accepts
        # at another rate, which this test would see
        assert stationary_acceptance(pi, self.POP, lambda nc, nd: nc * nd) == pytest.approx(
            exact, abs=1e-4
        )
        assert stationary_acceptance(pi, self.POP, lambda nc, nd: 1.0) == pytest.approx(
            uniform_pairs, abs=1e-4
        )
        est = lr_true_mh(pi, self.POP, MhConfig(200_000, 1_000, 1_000, seed=5))
        assert abs(est.acceptance_rate - exact) < 0.01


def dutch_replicates(spec):
    """Population and suspect-augmented database of each of spec's replicates."""
    for pop, db, _, _ in replicate_draws(spec):
        yield pop, db.add_singleton()


@pytest.mark.slow
def test_chain_agrees_with_exact_pass_over_dutch_replicates(monkeypatch):
    # 24 validation replicates of a database of 100 from the Dutch population;
    # each fits the exact pass's state budget
    monkeypatch.setenv("RARETYPE_THREADS", "1")
    spec = ExperimentSpec(population=dutch_fixture(), replicates=24, seed=2024)
    errors = []
    for row, (pop, db_plus) in zip(run_experiment(spec).rows, dutch_replicates(spec)):
        errors.append(row.log10_lr_true - math.log10(exact_true_lr(db_plus, pop)))
    assert math.sqrt(np.mean(np.square(errors))) <= 0.03


SCHEDULES = [
    MhConfig(16384, 0, 8192),  # retained steps on both block boundaries
    MhConfig(3000, 600, 30),  # one short block
    MhConfig(9000, 8999, 1),  # only the last step kept, in the second block
    MhConfig(20000, 1234, 97),  # retained steps off the block grid
    MhConfig(8193, 0, 1),  # every step kept, one proposal in the last block
]


@st.composite
def chain_instances(draw):
    """A feasible start on a census of 2-9 types (at times all singletons
    over every type, the frozen case) and one of SCHEDULES with a seed."""
    counts = sorted(draw(st.lists(st.integers(1, 12), min_size=2, max_size=9)), reverse=True)
    pop = PopulationVector(probs=tuple(c / sum(counts) for c in counts), pop_size=sum(counts))
    if draw(st.integers(0, 9)) == 0:
        pi = IntegerPartition((1,), (len(counts),))
    else:
        sizes = draw(st.lists(st.integers(1, 4), min_size=0, max_size=len(counts) - 1))
        pi = IntegerPartition.from_block_sizes(sizes + [1])
    strict = draw(st.booleans())
    try:
        loop_chi_init(pi, pop, strict)
    except InfeasibleAssignmentError:
        pi, strict = IntegerPartition((1,), (1,)), False
    cfg = draw(st.sampled_from(SCHEDULES))
    seed = draw(st.integers(0, 999))
    return pi, pop, strict, MhConfig(cfg.iterations, cfg.burn_in, cfg.thinning, seed=seed)


def chain_run(pi, pop, strict, cfg):
    """The chain's (trace, acceptance rate) by lr_true_mh, which takes
    every schedule that keeps two samples or more."""
    if cfg.n_retained < 2:
        return swap_chain(pi, pop, strict, cfg)
    est = lr_true_mh(pi, pop, cfg, strict_support=strict)
    return list(est.trace), est.acceptance_rate


class TestChainReference:
    @settings(max_examples=150, deadline=None)
    @given(chain_instances())
    def test_matches_members_chain(self, instance):
        trace, acceptance = chain_run(*instance)
        expected_trace, expected_acceptance = members_swap_chain(*instance)
        assert tuple(trace) == tuple(expected_trace)
        assert acceptance == expected_acceptance

    def test_frozen_start_matches(self):
        pi, pop, cfg = IntegerPartition((1,), (5,)), uniform_population(5), MhConfig(16384, 0, 8192, seed=3)
        assert chain_run(pi, pop, False, cfg) == members_swap_chain(pi, pop, False, cfg)


@pytest.mark.slow
def test_chain_matches_members_chain_at_scale():
    # the 24 Dutch-101 replicates and one census-like population of ~9k
    # ranks: a database of 18925 drawn from 100,000 people seated
    # under PD(0.51, 216)
    spec = ExperimentSpec(population=dutch_fixture(), replicates=24, seed=2024)
    instances = list(dutch_replicates(spec))
    plan = crp_sample(100_000, PdParams(0.51, 216.0), seed=11)
    census = np.sort(plan.table_counts)[::-1]
    people = np.repeat(np.arange(census.size), census)
    drawn = np.random.default_rng(12).choice(people, size=18_925, replace=False)
    sizes = np.bincount(drawn)
    db_plus = IntegerPartition.from_block_sizes(sizes[sizes > 0]).add_singleton()
    pop = PopulationVector(probs=tuple((census / census.sum()).tolist()), pop_size=100_000)
    instances.append((pop, db_plus))
    assert pop.m > 9_000
    for k, (pop, db_plus) in enumerate(instances):
        cfg = MhConfig(seed=k)
        assert chain_run(db_plus, pop, False, cfg) == members_swap_chain(db_plus, pop, False, cfg)


@st.composite
def small_instances(draw):
    """A census of 2-7 types and a rare-type partition with block sizes
    1-3 and at most as many blocks as types; blocks bigger than the census
    counts (or, under the strict rule, equal to them) make it infeasible."""
    counts = sorted(draw(st.lists(st.integers(1, 60), min_size=2, max_size=7)), reverse=True)
    total = sum(counts)
    pop = PopulationVector(probs=tuple(c / total for c in counts), pop_size=total)
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=len(counts) - 1))
    return IntegerPartition.from_block_sizes(sizes + [1]), pop


class TestExactEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(small_instances(), st.booleans())
    def test_matches_brute_force(self, instance, strict):
        pi, pop = instance
        try:
            expected = brute_force_true_lr(pi, pop, strict)
        except InfeasibleAssignmentError:
            # the same message as the rank-by-rank greedy fill's
            expected = _outcome(loop_chi_init, pi, pop, strict)
            assert _outcome(exact_true_lr, pi, pop, strict_support=strict) == expected
            return
        collapsed = exact_true_lr(pi, pop, strict_support=strict)
        assert collapsed == pytest.approx(expected, rel=1e-12)
        assert collapsed == pytest.approx(uncollapsed_true_lr(pi, pop, strict), rel=1e-12)

    def test_collapse_matches_full_pass_over_dutch_replicates(self):
        spec = ExperimentSpec(population=dutch_fixture(), replicates=40, seed=77)
        for pop, db_plus in dutch_replicates(spec):
            assert exact_true_lr(db_plus, pop) == pytest.approx(
                uncollapsed_true_lr(db_plus, pop), rel=1e-12
            )

    def test_large_uniform_instance_gives_m(self):
        # 40!/(10! 5! 25!), about 1.2e14 assignments, all equally likely
        pi = IntegerPartition((1, 2), (10, 5))
        pop = uniform_population(40)
        assert exact_true_lr(pi, pop) == pytest.approx(40.0, rel=1e-12)

    def test_steep_population_does_not_underflow(self):
        # 400 singletons over p_i proportional to i^-2: scaling the weights
        # by p_1 alone drives the total weight to 0
        raw = np.arange(1, 1001, dtype=float) ** -2.0
        probs = raw / raw.sum()
        pop = PopulationVector(probs=tuple(probs.tolist()), pop_size=10**7)
        lr = exact_true_lr(IntegerPartition((1,), (400,)), pop)
        assert math.isfinite(lr)
        assert lr == pytest.approx(log_space_singletons_lr(probs, 400), rel=1e-9)

    def test_heavy_block_on_steep_population(self):
        # one block of 2000 over p_i proportional to i^-2 sits on rank 1 (its
        # weight beats rank 2's by 4^2000), so the 400 singletons fall on
        # ranks 2..1000; at the tilt, rank 1's logit for the heavy class is
        # ~1400, past exp's range unless each row is shifted by its largest
        raw = np.arange(1, 1001, dtype=float) ** -2.0
        probs = raw / raw.sum()
        pop = PopulationVector(probs=tuple(probs.tolist()), pop_size=10**7)
        lr = exact_true_lr(IntegerPartition((1, 2000), (400, 1)), pop)
        assert lr == pytest.approx(log_space_singletons_lr(probs[1:], 400), rel=1e-9)

    def test_uniform_population_with_many_assignments(self):
        # 5000 choose 400 is about 1e640 equally likely assignments, past
        # any float; the pass must still return the number of types
        pop = PopulationVector(probs=(1 / 5000,) * 5000, pop_size=10**6)
        assert exact_true_lr(IntegerPartition((1,), (400,)), pop) == pytest.approx(
            5000.0, rel=1e-12
        )

    def test_state_budget_refusal(self):
        pi = dutch_fixture()
        pop = population_from_partition(pi)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="states"):
            exact_true_lr(pi, pop)
        assert time.perf_counter() - t0 < 0.1

    def test_infeasible_population(self):
        pi = IntegerPartition((1, 8), (1, 1))
        pop = PopulationVector(probs=(0.5, 0.3, 0.2), pop_size=10)
        with pytest.raises(InfeasibleAssignmentError):
            exact_true_lr(pi, pop)

    def test_support_rule_changes_answer(self):
        # under the strict rule a type carried twice cannot host the pair
        # class, shrinking the assignment space
        pi = IntegerPartition((1, 2), (1, 1))
        pop = PopulationVector(probs=(0.5, 0.25, 0.25), pop_size=8)
        loose = exact_true_lr(pi, pop)
        strict = exact_true_lr(pi, pop, strict_support=True)
        assert loose != pytest.approx(strict)


def _dual_instances():
    spec = ExperimentSpec(population=dutch_fixture(), replicates=1, seed=77)
    pop, db_plus = next(dutch_replicates(spec))
    small = PopulationVector(probs=(0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05), pop_size=200)
    return {"dutch": (db_plus, pop), "small": (IntegerPartition((1, 2), (3, 2)), small)}


class TestCountDual:
    @pytest.mark.parametrize("which", ["dutch", "small"])
    def test_derivatives_match_central_differences(self, which):
        # at the saddle point exact_true_lr solves for, and off it: the
        # exact LR holds for any tilt, so only this check sees the Hessian
        _, saddle, _, dual = tilt(*_dual_instances()[which])
        rng = np.random.default_rng(3)
        for eta in (saddle, saddle + rng.normal(0.0, 0.5, saddle.size)):
            _, g, h = dual(eta)
            fd_g, fd_h = np.empty_like(g), np.empty_like(h)
            for j in range(eta.size):
                step = np.zeros(eta.size)
                step[j] = 1e-5
                (f_up, g_up, _), (f_down, g_down, _) = dual(eta + step), dual(eta - step)
                fd_g[j] = (f_up - f_down) / 2e-5
                fd_h[:, j] = (g_up - g_down) / 2e-5
            scale = np.abs(h).max()
            assert np.abs(g - fd_g).max() <= 1e-6 * max(scale, 1.0)
            assert np.abs(h - fd_h).max() <= 1e-6 * scale


def test_saddle_products_run_in_small_chunks():
    # the casework shapes: 244 rank groups by 90 classes
    rng = np.random.default_rng(5)
    a, b, s = rng.random((244, 90)), rng.random((244, 90)), rng.random((90, 90))
    pairs, rows, most = saddle_products(a, b, s)
    for got, want in pairs:
        np.testing.assert_allclose(got, want, rtol=1e-13)
    # so a 90x90 product over 244 rows takes several chunks, each within
    # OpenBLAS's default single-thread threshold
    assert rows < 244 and rows * 90 * 90 <= most == 65536 * 4


@st.composite
def census_instances(draw):
    """A crp_sample census of 500-5000 people and a database of 30-200
    drawn from it plus a suspect, in the exact pass's budget."""
    size = draw(st.integers(500, 5000))
    params = PdParams(draw(st.floats(0.1, 0.9)), draw(st.floats(1.0, 300.0)))
    db, pop = crp_case(size, params, draw(st.integers(0, 2**32 - 1)), draw(st.integers(30, 200)))
    part = db.add_singleton()
    assume(part.k <= pop.m)
    return part, pop


class TestSaddlePoint:
    @settings(max_examples=40, deadline=None)
    @given(census_instances(), st.booleans())
    def test_within_its_bound_of_the_exact_pass(self, instance, strict):
        part, pop = instance
        try:
            exact = math.log10(exact_true_lr(part, pop, strict_support=strict))
        except ValueError as err:
            # past the exact pass's state budget, which it checks after feasibility
            assume("budget" not in str(err))
            raise
        except InfeasibleAssignmentError:
            # the same message as the rank-by-rank greedy fill's
            expected = _outcome(loop_chi_init, part, pop, strict)
            assert _outcome(saddle_true_lr, part, pop, strict_support=strict) == expected
            return
        est = saddle_true_lr(part, pop, strict_support=strict)
        assume(est.calibrated)
        assert abs(est.log10_lr - exact) <= SADDLE_LOG10_BOUND

    def test_dutch_replicates_match_the_exact_pass(self):
        # the second order's error is +0.0001 on average and at most 0.00075
        # here; the first order alone is off by -0.0039 on average
        spec = ExperimentSpec(population=dutch_fixture(), replicates=40, seed=77)
        for strict in (False, True):
            errors = []
            for pop, db_plus in dutch_replicates(spec):
                est = saddle_true_lr(db_plus, pop, strict_support=strict)
                assert est.calibrated and est.max_rel_grad <= 1e-10
                errors.append(est.log10_lr - math.log10(exact_true_lr(db_plus, pop, strict_support=strict)))
            assert abs(np.mean(errors)) <= 0.0003
            assert np.abs(errors).max() <= 0.001

    def test_tilt_matches_the_counts_rank_by_rank(self):
        # the groups stand for their ranks: at the tilt, the expected class
        # counts summed over ranks, one row each, equal r; on Dutch-101
        # databases and on a census of 10^6 with m = 427,613 ranks in 301 runs
        spec = ExperimentSpec(population=dutch_fixture(), replicates=3, seed=77)
        db, census = crp_case(10**6, PdParams(0.8, 5000.0), 11, 100, db_seed=5)
        for pop, db_plus in [*dutch_replicates(spec), (census, db.add_singleton())]:
            mult, _, expected, _ = tilt(db_plus, pop)
            assert mult.sum() == pop.m and mult.size < pop.m
            assert np.abs(expected / db_plus.r - 1.0).max() <= 1e-9
        assert census.m == 427_613 and mult.size == 301
        # exact_true_lr's value on this census at 0c267c6, pinned rather than
        # recomputed: the call takes 3-5 s
        exact = math.log10(float.fromhex("0x1.9f9874287ec46p+14"))
        est = saddle_true_lr(db_plus, census)
        assert est.calibrated and abs(est.log10_lr - exact) <= 1e-4

    def test_no_finite_tilt_gives_no_value(self):
        # every one of 300 ranks must carry one of the 300 blocks, and so for
        # 300 singletons and for one singleton on one type; the counts match
        # within the tolerance, so the note names the tilt's finiteness
        pop = PopulationVector(probs=(1 / 300,) * 300, pop_size=3000)
        one_type = PopulationVector(probs=(1.0,), pop_size=10)
        for part, census in (
            (IntegerPartition((1, 2, 3), (100, 100, 100)), pop),
            (IntegerPartition((1,), (300,)), pop),
            (IntegerPartition((1,), (1,)), one_type),
        ):
            est = saddle_true_lr(part, census)
            assert not est.converged and not est.calibrated
            assert est.log10_lr is est.log10_lr_first_order is None
            assert est.max_rel_grad <= 1e-10
            assert est.note.startswith("saddle point without a finite tilt"), est.note

    def test_infeasible_population(self):
        pop = PopulationVector(probs=(0.5, 0.3, 0.2), pop_size=10)
        with pytest.raises(InfeasibleAssignmentError):
            saddle_true_lr(IntegerPartition((1, 8), (1, 1)), pop)

    @pytest.mark.slow
    def test_casework_scale_matches_long_chains(self):
        # a database of 18,925 from a census of 100,000: ~9k ranks, ~90
        # classes; 5e6-iteration chains agree with each other to ~0.001
        for seed in (1, 2, 3):
            db, pop = crp_case(100_000, PdParams(0.51, 216.0), seed, 18_925)
            db_plus = db.add_singleton()
            est = saddle_true_lr(db_plus, pop)
            assert est.calibrated and est.max_rel_grad <= 1e-10 and est.newton_steps <= 40
            chain = lr_true_mh(db_plus, pop, MhConfig(5_000_000, 1_000_000, 1_000, seed=seed))
            assert abs(est.log10_lr - chain.log10_lr) <= 0.002

