import itertools
import math
import time
from unittest import mock

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
from raretype import lr
from raretype.lr import (
    _BLOCK,
    _EXACT_STATE_BUDGET,
    _ONE_THREAD_MADDS,
    SADDLE_LOG10_BOUND,
    _check_assignment,
    _chunk_rows,
    _class_log_weights,
    _class_probs,
    _count_dual,
    _exact_states,
    _gram,
    _greedy_labels,
    _rank_groups,
    _row_product,
    _run_swap_chain,
    _support_caps,
    _tilt,
)
from raretype.partitions import IntegerPartition
from raretype.pitman import PdParams, PopulationVector, crp_sample
from raretype.rng import spawn_seeds
from raretype.workbench import (
    ExperimentSpec,
    _run_replicate,
    dutch_fixture,
    population_from_partition,
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


def greedy_start(pi, pop, strict_support=False):
    """The swap chain's arguments before its schedule: the greedy labels,
    the partition, the probabilities and the census caps."""
    caps = _support_caps(pop, strict_support)
    return _greedy_labels(pi, caps), pi, pop.as_array(), caps


class TestChiInit:
    """The chain's greedy start (``_greedy_labels``)."""

    def test_uniform_all_singletons(self):
        pi = IntegerPartition((1,), (4,))
        pop = uniform_population(4, pop_size=40)
        assert greedy_start(pi, pop)[0].tolist() == [1, 1, 1, 1]

    def test_more_classes_than_types_is_infeasible(self):
        pi = IntegerPartition((1,), (5,))
        pop = uniform_population(4, pop_size=40)
        with pytest.raises(InfeasibleAssignmentError):
            lr_true_mh(pi, pop)

    def test_dutch_population_supports_itself(self):
        from raretype.workbench import dutch_fixture, population_from_partition

        pi = dutch_fixture()
        pop = population_from_partition(pi)
        est = lr_true_mh(pi, pop, MhConfig(2000, 0, 100, seed=0))
        assert est.mean_singleton_mass > 0

    def test_strict_rule_rejects_exact_counts(self):
        # under the strict census rule a type carried by exactly a_j
        # individuals cannot be observed a_j times, so a population built
        # from the partition itself becomes infeasible at the largest block
        from raretype.workbench import dutch_fixture, population_from_partition

        pi = dutch_fixture()
        pop = population_from_partition(pi)
        with pytest.raises(InfeasibleAssignmentError):
            lr_true_mh(pi, pop, strict_support=True)

    def test_greedy_prefers_frequent_ranks(self):
        pi = IntegerPartition((1, 3), (1, 1))
        pop = PopulationVector(probs=(0.6, 0.3, 0.1), pop_size=100)
        # block of size 3 takes rank 1, singleton takes rank 2
        assert greedy_start(pi, pop)[0].tolist() == [2, 1, 0]


class TestAssignmentVector:
    """The chain's end-of-run check on its labels (``_check_assignment``)."""

    def test_class_counts_enforced(self):
        pi = IntegerPartition((1, 2), (2, 1))
        caps = _support_caps(PopulationVector(probs=(0.4, 0.3, 0.2, 0.1), pop_size=1000), False)
        _check_assignment(np.array([2, 1, 1, 0]), pi, caps)
        with pytest.raises(ValueError, match=r"class counts \(1, 1\) must equal r=\(2, 1\)"):
            _check_assignment(np.array([2, 1, 0, 0]), pi, caps)

    def test_support_enforced(self):
        pi = IntegerPartition((1, 5), (1, 1))
        caps = _support_caps(PopulationVector(probs=(0.7, 0.2, 0.1), pop_size=10), False)
        # rank 3 carries 1 individual: cannot be seen 5 times
        with pytest.raises(InfeasibleAssignmentError, match="rank 3 cannot carry block size 5"):
            _check_assignment(np.array([1, 0, 2]), pi, caps)


class TestMhConfig:
    def test_validation(self):
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
        # route refuses without it, and so does the CLI's chain
        pop = PopulationVector(probs=(0.5, 0.5))
        with pytest.raises(ValueError, match="^population needs pop_size"):
            route(IntegerPartition((1,), (1,)), pop)
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
        def chain(*args):
            raise AssertionError("the chain ran on a schedule that keeps one sample")

        monkeypatch.setattr("raretype.lr._run_swap_chain", chain)
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


def _loop_chi_init(pi, pop, strict_support=False):
    """Rank-by-rank greedy fill, the reference for _greedy_labels'
    vectorised fill."""
    caps = _support_caps(pop, strict_support)
    chi = [0] * pop.m
    cursor = 0
    for a_j, r_j, j in sorted(zip(pi.a, pi.r, range(1, pi.num_size_classes + 1)), reverse=True):
        placed = 0
        while placed < r_j:
            if cursor >= pop.m or caps[cursor] < a_j:
                raise InfeasibleAssignmentError(
                    f"class of block size {a_j} needs {r_j} ranks with supported "
                    f"count >= {a_j}; only {placed} available"
                )
            chi[cursor] = j
            cursor += 1
            placed += 1
    return tuple(chi)


def _loop_assignment_check(chi, pi, pop, strict_support=False):
    """Rank-by-rank validation, the reference for _check_assignment's
    vectorised checks."""
    counts = [0] * (pi.num_size_classes + 1)
    for c in chi:
        counts[c] += 1
    if tuple(counts[1:]) != pi.r:
        raise ValueError(f"class counts {tuple(counts[1:])} must equal r={pi.r}")
    caps = _support_caps(pop, strict_support)
    for i, c in enumerate(chi):
        if c > 0 and caps[i] < pi.a[c - 1]:
            raise InfeasibleAssignmentError(
                f"rank {i + 1} cannot carry block size {pi.a[c - 1]} "
                f"(supported count {caps[i]})"
            )


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
        expected = _outcome(_loop_chi_init, pi, pop, strict)
        got = _outcome(_greedy_labels, pi, _support_caps(pop, strict))
        assert (tuple(got.tolist()) if isinstance(got, np.ndarray) else got) == expected

    @settings(max_examples=300, deadline=None)
    @given(assignment_cases(), st.booleans())
    def test_assignment_checks_match_loop_reference(self, case, strict):
        pi, pop, chi = case
        expected = _outcome(_loop_assignment_check, chi, pi, pop, strict)
        got = _outcome(_check_assignment, np.array(chi), pi, _support_caps(pop, strict))
        assert got == expected


def stationary_acceptance(pi, pop, class_pair_weight):
    """Exact long-run acceptance rate of the swap chain, summed over every
    feasible assignment x under its law pi(x) and over every cross-class rank
    pair, each proposed with probability proportional to
    class_pair_weight(n_c, n_d) / (n_c n_d) for its class sizes."""
    caps = _support_caps(pop, False)
    a_ext = (0,) + pi.a
    sizes = (pop.m - pi.k,) + pi.r
    states = []
    for chi in set(itertools.permutations(sorted(_greedy_labels(pi, caps).tolist()))):
        if all(caps[i] >= a_ext[c] for i, c in enumerate(chi)):
            states.append((chi, math.prod(p ** a_ext[c] for p, c in zip(pop.probs, chi))))
    z = math.fsum(w for _, w in states)
    pairs = [(c, d) for c, d in itertools.combinations(range(len(sizes)), 2) if sizes[c] * sizes[d]]
    total = math.fsum(class_pair_weight(sizes[c], sizes[d]) for c, d in pairs)
    rate = 0.0
    for chi, w in states:
        for i, j in itertools.combinations(range(pop.m), 2):
            ci, cj = chi[i], chi[j]
            if ci == cj or caps[i] < a_ext[cj] or caps[j] < a_ext[ci]:
                continue
            q = class_pair_weight(sizes[ci], sizes[cj]) / (total * sizes[ci] * sizes[cj])
            ratio = (pop.probs[j] / pop.probs[i]) ** (a_ext[ci] - a_ext[cj])
            rate += w / z * q * min(1.0, ratio)
    return rate


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
    """Population and suspect-augmented database of each of spec's
    replicates, drawn as _run_replicate draws them."""
    pop = population_from_partition(spec.population)
    individuals = np.repeat(np.arange(1, pop.m + 1), spec.population.sizes_desc())
    for seed in spawn_seeds(spec.seed, spec.replicates):
        rng = np.random.default_rng(seed.spawn(2)[0])
        while True:
            drawn = rng.choice(individuals, size=spec.sample_size, replace=False)
            if drawn[-1] not in drawn[:-1]:
                break
        sizes = np.bincount(drawn[:-1])
        yield pop, IntegerPartition.from_block_sizes(sizes[sizes > 0]).add_singleton()


@pytest.mark.slow
def test_chain_agrees_with_exact_pass_over_dutch_replicates():
    # 24 validation replicates of a database of 100 from the Dutch population;
    # each fits the exact pass's state budget
    spec = ExperimentSpec(population=dutch_fixture(), replicates=24, seed=2024)
    pop = population_from_partition(spec.population)
    individuals = np.repeat(np.arange(1, pop.m + 1), spec.population.sizes_desc())
    errors = []
    replicates = zip(spawn_seeds(spec.seed, 24), dutch_replicates(spec))
    for i, (seed, (_, db_plus)) in enumerate(replicates):
        chain = _run_replicate(spec, pop, individuals, i, seed).log10_lr_true
        errors.append(chain - math.log10(exact_true_lr(db_plus, pop)))
    assert math.sqrt(np.mean(np.square(errors))) <= 0.03


def _members_swap_chain(chi, part, probs, caps, cfg):
    """The swap chain on one member list per class, tested for the retained
    step at every proposal: the reference for _run_swap_chain's flat slot
    list and retained-step segments, which must match it draw for draw."""
    log_probs = np.log(probs).tolist()
    caps = caps.tolist()
    a_ext = np.array((0,) + part.a)
    members = [np.flatnonzero(chi == c).tolist() for c in range(a_ext.size)]
    sizes = np.array([len(ranks) for ranks in members])
    c_of, d_of = np.nonzero(np.triu(np.outer(sizes, sizes), k=1))
    weights = sizes[c_of] * sizes[d_of]
    cum = np.cumsum(weights) / weights.sum()

    def singleton_mass():
        return float(probs[members[1]].sum())

    retained = range(cfg.burn_in + cfg.thinning, cfg.iterations + 1, cfg.thinning)
    if c_of.size == 0:
        return [(t, singleton_mass()) for t in retained], 0.0
    rng = np.random.default_rng(cfg.seed)
    trace = []
    accepted = 0
    for t0 in range(0, cfg.iterations, _BLOCK):
        block = min(_BLOCK, cfg.iterations - t0)
        pair = np.searchsorted(cum, rng.random(block), side="right")
        cs, ds = c_of[pair], d_of[pair]
        us = rng.integers(sizes[cs])
        vs = rng.integers(sizes[ds])
        draws = zip(
            range(t0 + 1, t0 + block + 1),
            cs.tolist(), ds.tolist(), a_ext[cs].tolist(), a_ext[ds].tolist(),
            us.tolist(), vs.tolist(), rng.random(block).tolist(),
        )
        for t, c, d, ac, ad, u, v, w in draws:
            i = members[c][u]
            j = members[d][v]
            if caps[i] >= ad and caps[j] >= ac:
                log_r = (ac - ad) * (log_probs[j] - log_probs[i])
                if log_r >= 0.0 or w < math.exp(log_r):
                    members[c][u] = j
                    members[d][v] = i
                    accepted += 1
            if t in retained:
                trace.append((t, singleton_mass()))
    return trace, accepted / cfg.iterations


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
        start = greedy_start(pi, pop, strict)
    except InfeasibleAssignmentError:
        start = greedy_start(IntegerPartition((1,), (1,)), pop)
    cfg = draw(st.sampled_from(SCHEDULES))
    return start, MhConfig(cfg.iterations, cfg.burn_in, cfg.thinning, seed=draw(st.integers(0, 999)))


class TestChainReference:
    @settings(max_examples=150, deadline=None)
    @given(chain_instances())
    def test_matches_members_chain(self, instance):
        start, cfg = instance
        trace, acceptance = _run_swap_chain(*start, cfg)
        expected_trace, expected_acceptance = _members_swap_chain(*start, cfg)
        assert tuple(trace) == tuple(expected_trace)
        assert acceptance == expected_acceptance

    def test_frozen_start_matches(self):
        start = greedy_start(IntegerPartition((1,), (5,)), uniform_population(5))
        cfg = MhConfig(16384, 0, 8192, seed=3)
        assert _run_swap_chain(*start, cfg) == _members_swap_chain(*start, cfg)


@pytest.mark.slow
def test_chain_matches_members_chain_at_scale():
    # the 24 Dutch-101 replicates and one census-like population of ~9k
    # ranks: a database of 18925 drawn from 100,000 people seated
    # under PD(0.51, 216)
    spec = ExperimentSpec(population=dutch_fixture(), replicates=24, seed=2024)
    starts = [greedy_start(db_plus, pop) for pop, db_plus in dutch_replicates(spec)]
    plan = crp_sample(100_000, PdParams(0.51, 216.0), seed=11)
    census = np.sort(plan.table_counts)[::-1]
    people = np.repeat(np.arange(census.size), census)
    drawn = np.random.default_rng(12).choice(people, size=18_925, replace=False)
    sizes = np.bincount(drawn)
    db_plus = IntegerPartition.from_block_sizes(sizes[sizes > 0]).add_singleton()
    pop = PopulationVector(probs=tuple((census / census.sum()).tolist()), pop_size=100_000)
    starts.append(greedy_start(db_plus, pop))
    assert starts[-1][0].size > 9_000
    for k, start in enumerate(starts):
        cfg = MhConfig(seed=k)
        assert _run_swap_chain(*start, cfg) == _members_swap_chain(*start, cfg)


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


def _uncollapsed_pass(probs, weights, fits, r):
    """Reference for lr._exact_pass: the forward pass over every count
    state, with no axis sliced away."""
    shape = tuple(r_j + 1 for r_j in r)
    z, mass = np.zeros(shape), np.zeros(shape)
    z[(0,) * len(shape)] = 1.0
    leads = [(slice(None),) * j for j in range(len(shape))]
    moves = [(lead + (slice(0, -1),), lead + (slice(1, None),)) for lead in leads]
    for i, p_i in enumerate(probs):
        w = weights[i]
        z_next, mass_next = w[0] * z, w[0] * mass
        for j, (src, dst) in enumerate(moves[: fits[i]]):
            z_next[dst] += w[j + 1] * z[src]
            mass_next[dst] += w[j + 1] * (mass[src] + p_i * z[src] if j == 0 else mass[src])
        z, mass = z_next, mass_next
    return float(z[tuple(r)] / mass[tuple(r)])


def uncollapsed_true_lr(pi, pop, strict_support=False):
    with mock.patch.object(lr, "_exact_pass", _uncollapsed_pass):
        return exact_true_lr(pi, pop, strict_support=strict_support)


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
        part, pop = _dual_instances()[which]
        log_w = _class_log_weights(part, np.log(pop.as_array()), _support_caps(pop, False))

        def dual(eta):
            return _count_dual(eta, log_w, part.r, np.ones(log_w.shape[0]))[:3]

        groups, eta0 = _rank_groups(part, pop, False)
        saddle = _tilt(groups, part.r, eta0).eta
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
    for got, want in (
        (_gram(a, b), a.T @ b),
        (_gram(a, b[:, 0]), a.T @ b[:, 0]),
        (_row_product(a, s), a @ s),
        (_row_product(a, s[0]), a @ s[0]),
    ):
        np.testing.assert_allclose(got, want, rtol=1e-13)
    # so a 90x90 product over 244 rows takes several chunks, each within
    # OpenBLAS's default single-thread threshold
    rows = _chunk_rows(90 * 90)
    assert rows < 244 and rows * 90 * 90 <= _ONE_THREAD_MADDS == 65536 * 4


@st.composite
def census_instances(draw):
    """A crp_sample census of 500-5000 people and a database of 30-200
    drawn from it plus a suspect, in the exact pass's budget."""
    size = draw(st.integers(500, 5000))
    params = PdParams(draw(st.floats(0.1, 0.9)), draw(st.floats(1.0, 300.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    counts = np.sort(crp_sample(size, params, seed=seed).table_counts)[::-1]
    pop = PopulationVector(probs=tuple((counts / size).tolist()), pop_size=size)
    people = np.random.default_rng(seed).permutation(np.repeat(np.arange(counts.size), counts))
    sizes = np.bincount(people[: draw(st.integers(30, 200))])
    part = IntegerPartition.from_block_sizes(np.append(sizes[sizes > 0], 1))
    assume(part.k <= pop.m and _exact_states(part) <= _EXACT_STATE_BUDGET)
    return part, pop


class TestSaddlePoint:
    @settings(max_examples=40, deadline=None)
    @given(census_instances(), st.booleans())
    def test_within_its_bound_of_the_exact_pass(self, instance, strict):
        part, pop = instance
        try:
            exact = math.log10(exact_true_lr(part, pop, strict_support=strict))
        except InfeasibleAssignmentError:
            with pytest.raises(InfeasibleAssignmentError):
                saddle_true_lr(part, pop, strict_support=strict)
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
        # counts summed over ranks, one row each, equal r
        spec = ExperimentSpec(population=dutch_fixture(), replicates=3, seed=77)
        for pop, db_plus in dutch_replicates(spec):
            groups, eta0 = _rank_groups(db_plus, pop, False)
            assert groups.mult.sum() == pop.m and groups.p.size < pop.m
            tilt = _tilt(groups, db_plus.r, eta0)
            log_w = _class_log_weights(db_plus, np.log(pop.as_array()), _support_caps(pop, False))
            expected = _class_probs(tilt.eta, log_w)[1].sum(axis=0)
            assert np.abs(expected / db_plus.r - 1.0).max() <= 1e-9

    def test_no_finite_tilt_gives_no_value(self):
        # every one of 300 ranks must carry one of the 300 blocks
        pop = PopulationVector(probs=(1 / 300,) * 300, pop_size=3000)
        est = saddle_true_lr(IntegerPartition((1, 2, 3), (100, 100, 100)), pop)
        assert not est.converged and not est.calibrated
        assert est.log10_lr is est.log10_lr_first_order is None

    def test_infeasible_population(self):
        pop = PopulationVector(probs=(0.5, 0.3, 0.2), pop_size=10)
        with pytest.raises(InfeasibleAssignmentError):
            saddle_true_lr(IntegerPartition((1, 8), (1, 1)), pop)

    @pytest.mark.slow
    def test_casework_scale_matches_long_chains(self):
        # a database of 18,925 from a census of 100,000: ~9k ranks, ~90
        # classes; 5e6-iteration chains agree with each other to ~0.001
        for seed in (1, 2, 3):
            counts = np.sort(crp_sample(100_000, PdParams(0.51, 216.0), seed=seed).table_counts)[::-1]
            pop = PopulationVector(probs=tuple((counts / 100_000).tolist()), pop_size=100_000)
            people = np.random.default_rng(seed).permutation(np.repeat(np.arange(counts.size), counts))
            sizes = np.bincount(people[:18_925])
            db_plus = IntegerPartition.from_block_sizes(np.append(sizes[sizes > 0], 1))
            est = saddle_true_lr(db_plus, pop)
            assert est.calibrated and est.max_rel_grad <= 1e-10 and est.newton_steps <= 40
            chain = lr_true_mh(db_plus, pop, MhConfig(5_000_000, 1_000_000, 1_000, seed=seed))
            assert abs(est.log10_lr - chain.log10_lr) <= 0.002

