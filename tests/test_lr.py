import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raretype.lr import (
    AssignmentVector,
    InfeasibleAssignmentError,
    LrReport,
    MhConfig,
    chi_init,
    diff_metrics,
    exact_true_lr,
    lr_empirical_bayes,
    lr_frequentist,
    lr_posterior_form,
    lr_true_mh,
)
from raretype.lr import _support_caps
from raretype.mle import phi_of
from raretype.partitions import IntegerPartition
from raretype.pitman import PdParams, PopulationVector


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


class TestPosteriorForm:
    def test_matches_plug_in_at_mle_point(self):
        params = PdParams(0.51, 216.0)
        n = 18925
        assert lr_posterior_form(phi_of(params, n), n) == pytest.approx(
            lr_empirical_bayes(n, params), rel=1e-12
        )

    def test_boundary_value(self):
        n = 60
        assert lr_posterior_form(n / (n + 1), n) == pytest.approx(n + 1, rel=1e-12)

    def test_doubling_phi_halves_lr(self):
        assert lr_posterior_form(0.2, 100) == pytest.approx(2 * lr_posterior_form(0.4, 100))

    def test_domain(self):
        with pytest.raises(ValueError):
            lr_posterior_form(0.0, 10)
        with pytest.raises(ValueError):
            lr_posterior_form(1.5, 10)


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


class TestChiInit:
    def test_uniform_all_singletons(self):
        pi = IntegerPartition((1,), (4,))
        pop = uniform_population(4, pop_size=40)
        chi = chi_init(pi, pop)
        assert chi.chi == (1, 1, 1, 1)

    def test_more_classes_than_types_is_infeasible(self):
        pi = IntegerPartition((1,), (5,))
        pop = uniform_population(4, pop_size=40)
        with pytest.raises(InfeasibleAssignmentError):
            chi_init(pi, pop)

    def test_dutch_population_supports_itself(self):
        from raretype.workbench import dutch_fixture, population_from_partition

        pi = dutch_fixture()
        pop = population_from_partition(pi)
        chi = chi_init(pi, pop)
        assert chi.singleton_mass() > 0

    def test_strict_rule_rejects_exact_counts(self):
        # under the strict census rule a type carried by exactly a_j
        # individuals cannot be observed a_j times, so a population built
        # from the partition itself becomes infeasible at the largest block
        from raretype.workbench import dutch_fixture, population_from_partition

        pi = dutch_fixture()
        pop = population_from_partition(pi)
        with pytest.raises(InfeasibleAssignmentError):
            chi_init(pi, pop, strict_support=True)

    def test_greedy_prefers_frequent_ranks(self):
        pi = IntegerPartition((1, 3), (1, 1))
        pop = PopulationVector(probs=(0.6, 0.3, 0.1), pop_size=100)
        chi = chi_init(pi, pop)
        # block of size 3 takes rank 1, singleton takes rank 2
        assert chi.chi == (2, 1, 0)


class TestAssignmentVector:
    def test_class_counts_enforced(self):
        pi = IntegerPartition((1, 2), (2, 1))
        pop = PopulationVector(probs=(0.4, 0.3, 0.2, 0.1), pop_size=1000)
        AssignmentVector(chi=(2, 1, 1, 0), partition=pi, population=pop)
        with pytest.raises(ValueError):
            AssignmentVector(chi=(2, 1, 0, 0), partition=pi, population=pop)
        with pytest.raises(ValueError):
            AssignmentVector(chi=(2, 1, 1), partition=pi, population=pop)

    def test_support_enforced(self):
        pi = IntegerPartition((1, 5), (1, 1))
        pop = PopulationVector(probs=(0.7, 0.2, 0.1), pop_size=10)
        # rank 3 carries 1 individual: cannot be seen 5 times
        with pytest.raises(InfeasibleAssignmentError):
            AssignmentVector(chi=(1, 0, 2), partition=pi, population=pop)

    def test_singleton_mass(self):
        pi = IntegerPartition((1, 2), (2, 1))
        pop = PopulationVector(probs=(0.4, 0.3, 0.2, 0.1), pop_size=1000)
        chi = AssignmentVector(chi=(2, 1, 1, 0), partition=pi, population=pop)
        assert chi.singleton_mass() == pytest.approx(0.5)


class TestMhConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MhConfig(iterations=100, burn_in=100)
        with pytest.raises(ValueError):
            MhConfig(thinning=0)
        assert MhConfig().n_retained == 80


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

    def test_requires_pop_size(self):
        pop = PopulationVector(probs=(0.5, 0.5))
        cfg = small_cfg(0, 1000)
        with pytest.raises(ValueError, match="pop_size"):
            lr_true_mh(IntegerPartition((1,), (1,)), pop, cfg)

    def test_zero_retained_is_config_error(self):
        pi = IntegerPartition((1,), (1,))
        pop = uniform_population(3)
        with pytest.raises(ValueError):
            lr_true_mh(pi, pop, MhConfig(iterations=10, burn_in=5, thinning=50, seed=0))

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


def brute_force_true_lr(pi, pop, strict_support=False):
    """s1 / E[singleton mass] by summing over every labelling of the ranks
    with classes 0..J, kept when it has the class counts r and every rank's
    census count supports its class."""
    caps = _support_caps(pop, strict_support)
    a_ext = (0,) + pi.a
    z = mass = 0.0
    for chi in itertools.product(range(len(a_ext)), repeat=pop.m):
        if any(chi.count(j) != r_j for j, r_j in enumerate(pi.r, start=1)):
            continue
        if any(caps[i] < a_ext[c] for i, c in enumerate(chi)):
            continue
        w = math.prod(p ** a_ext[c] for p, c in zip(pop.probs, chi))
        z += w
        mass += w * math.fsum(p for p, c in zip(pop.probs, chi) if c == 1)
    if z == 0.0:
        raise InfeasibleAssignmentError("no labelling meets the counts and caps")
    return pi.s1 * z / mass


def log_space_singletons_lr(probs, r):
    """Known-population LR of the all-singleton partition (1,)^r when every
    rank supports a singleton: the elementary-symmetric-polynomial
    recursion carried in logs."""
    log_z = np.full(r + 1, -np.inf)
    log_z[0] = 0.0
    log_mass = np.full(r + 1, -np.inf)
    for lp in np.log(probs):
        log_mass[1:] = np.logaddexp(
            log_mass[1:], lp + np.logaddexp(log_mass[:-1], lp + log_z[:-1])
        )
        log_z[1:] = np.logaddexp(log_z[1:], lp + log_z[:-1])
    return r * math.exp(log_z[r] - log_mass[r])


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
            with pytest.raises(InfeasibleAssignmentError):
                exact_true_lr(pi, pop, strict_support=strict)
            return
        assert exact_true_lr(pi, pop, strict_support=strict) == pytest.approx(expected, rel=1e-12)

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

    def test_uniform_population_with_many_assignments(self):
        # 5000 choose 400 is about 1e640 equally likely assignments, past
        # any float; the pass must still return the number of types
        pop = PopulationVector(probs=(1 / 5000,) * 5000, pop_size=10**6)
        assert exact_true_lr(IntegerPartition((1,), (400,)), pop) == pytest.approx(
            5000.0, rel=1e-12
        )

    def test_state_budget_refusal(self):
        from raretype.workbench import dutch_fixture, population_from_partition

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


class TestDiffMetrics:
    def test_identities(self):
        report = diff_metrics(
            LrReport(log10_lr_eb=2.59, log10_lr_true=2.53, log10_lr_freq=2.803)
        )
        assert report.diff1 == pytest.approx(0.06)
        assert report.diff2 == pytest.approx(-0.213)

    def test_equal_values_give_zero(self):
        report = diff_metrics(LrReport(log10_lr_eb=3.0, log10_lr_true=3.0, log10_lr_freq=1.0))
        assert report.diff1 == 0.0

    def test_missing_operand_flagged(self):
        report = diff_metrics(LrReport(log10_lr_eb=2.0))
        assert report.diff1 is None
        assert report.diff2 is None
        assert any("diff1" in note for note in report.notes)
        assert any("diff2" in note for note in report.notes)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
    def test_recompute_and_compare(self, eb, true, freq):
        report = diff_metrics(LrReport(log10_lr_eb=eb, log10_lr_true=true, log10_lr_freq=freq))
        assert report.diff1 == eb - true
        assert report.diff2 == eb - freq
