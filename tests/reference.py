"""Slow, plainly correct references for the tests, and the seams through
which a test reaches a private kernel that no public input reaches.

Tests compare public functions with the references. A check with no
public route calls a seam (its docstring says "Seam"), the only place
under ``tests/`` that imports, calls or patches what it wraps; so a
kernel rewrite edits this file alone. ``test_namespace`` holds the
tests to this list of private names, each with why no public input
reaches it:
- ``lr._greedy_labels``, ``lr._check_assignment``: the chain's start
  and its end-of-run check, which no result reports (a correct chain
  never fails the check).
- ``lr._run_swap_chain``, ``lr._BLOCK``: a schedule that keeps one
  sample, which ``lr_true_mh`` rejects before the chain runs; the draw
  blocks the member-level chain shares.
- ``lr._rank_groups``, ``lr._tilt``, ``lr._class_probs``,
  ``lr._count_dual``: the routes' prelude, which every route runs
  first, whose census caps the chain reads and whose other facts (class
  reach, state count, tilt finiteness; ``census_record``) steer the
  routes without showing in any result; the tilt and the dual's
  Hessian, since the exact LR holds for any tilt.
- ``lr._gram``, ``lr._row_product``, ``lr._chunk_rows``,
  ``lr._ONE_THREAD_MADDS``: the OpenBLAS-sized product chunks, which
  show in no result.
- ``pitman._loglik_terms``, ``pitman._loglik_derivs``,
  ``pitman._loglik_value``, ``pitman._rising_terms``,
  ``pitman._block_value``, ``pitman._block_derivs``: the likelihood's
  terms, derivatives and grid form at any point; the public functions
  give its value at a point, at a fit or on a surface.
- ``mle._make_objective``, ``mle._best_start``, ``mle._fit_from``,
  ``mle._newton``: the search from any start, and its kernel passes
  (patched); ``fit_mle`` runs one search, from the best start.

Named by the test modules, no kernel among them:
- ``mle._to_z``, ``mle._START_ALPHAS``, ``mle._START_THETAS``,
  ``mle._NEWTON_MAX_ITER``, ``mle._PENALTY``, ``mle._expit``,
  ``mle._logit``, ``mle._saddle_free_step``, ``mle._phi_theta_hessian``,
  ``pitman._log_rising``, ``pitman._rising_sums``: the search's parts,
  and the special functions at any argument; a fit reports its end only.
- ``workbench._as_db_partition``, ``workbench._worker_count``,
  ``workbench._OUTPUT_COLUMNS``, ``cli._build_parser``,
  ``cli._mh_config``: a table's record count, the worker count, the row
  columns, and the chain schedule the options give, which no output
  reports before a chain runs.
"""
import csv
import itertools
import math
from typing import Iterator

import numpy as np
from scipy.special import gammaln

from raretype import lr, mle, pitman
from raretype.lr import InfeasibleAssignmentError
from raretype.partitions import IntegerPartition, SetPartition
from raretype.pitman import PopulationVector, SeatingPlan, crp_sample
from raretype.rng import spawn_seeds
from raretype.workbench import DuplicateColumnError, EmptyFileError, MissingColumnError
from raretype.workbench import ProfileParseError, RaggedRowError, population_from_partition

# Bell numbers B_0..B_12; B_12 = 4,213,597 motivates the enumeration cap.
_BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597)

DEFAULT_ENUMERATION_CAP = 12


def bell_number(n: int) -> int:
    """Number of partitions of an n-element set."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < len(_BELL):
        return _BELL[n]
    # Bell triangle: each row starts with the previous row's last entry
    row = [1]
    bells = [1]
    while len(bells) <= n:
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        bells.append(row[0])
    return bells[n]


def enumerate_partitions(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[SetPartition]:
    """Yield every partition of {1..n} exactly once (Bell(n) of them).

    Refuses n beyond ``cap``: Bell numbers grow superexponentially and the
    stream is meant for brute-force normalization checks at small n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds enumeration cap {cap} (Bell({n}) partitions)")

    def rec(labels: list[int], k: int) -> Iterator[SetPartition]:
        if len(labels) == n:
            yield SetPartition(tuple(labels))
            return
        # the next element joins one of the k blocks or opens block k+1
        for label in range(1, k + 2):
            labels.append(label)
            yield from rec(labels, max(k, label))
            labels.pop()

    yield from rec([1], 1)


def augment(p: SetPartition, mode: str) -> SetPartition:
    """Extend a database partition for the rare-type-match hypotheses.

    ``suspect_only`` appends the singleton block {n+1}; ``suspect_and_trace``
    appends the block {n+1, n+2}. The new block has the largest least
    element, so it takes the next label, k+1.
    """
    if mode == "suspect_only":
        return SetPartition(p.labels + (p.k + 1,))
    if mode == "suspect_and_trace":
        return SetPartition(p.labels + (p.k + 1, p.k + 1))
    raise ValueError(f"unknown augmentation mode {mode!r}")



def census_caps(pop, strict_support=False):
    """The census cap of each of ``pop``'s ranks, rank by rank: its rounded
    count round(N p), or under the strict rule the largest count strictly
    below N p, ceil(N p - 1e-9) - 1."""
    n = pop.pop_size
    if strict_support:
        return np.array([math.ceil(n * p - 1e-9) - 1 for p in pop.probs])
    return np.array([round(n * p) for p in pop.probs])


def loop_chi_init(pi, pop, strict_support=False):
    """Rank-by-rank greedy fill, the reference for the chain's vectorised
    start, after its refusal of a partition with no singleton (the
    suspect's type)."""
    if pi.s1 < 1:
        raise ValueError("rare-type partition needs at least one singleton block")
    caps = census_caps(pop, strict_support)
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


def loop_assignment_check(chi, pi, pop, strict_support=False):
    """Rank-by-rank validation, the reference for the chain's vectorised
    end-of-run checks."""
    counts = [0] * (pi.num_size_classes + 1)
    for c in chi:
        counts[c] += 1
    if tuple(counts[1:]) != pi.r:
        raise ValueError(f"class counts {tuple(counts[1:])} must equal r={pi.r}")
    caps = census_caps(pop, strict_support)
    for i, c in enumerate(chi):
        if c > 0 and caps[i] < pi.a[c - 1]:
            raise InfeasibleAssignmentError(
                f"rank {i + 1} cannot carry block size {pi.a[c - 1]} "
                f"(supported count {caps[i]})"
            )


def greedy_labels(pi, pop, strict_support=False):
    """Seam: the chain's greedy start, one class label per rank, once the
    feasibility check passes."""
    lr._rank_groups(pi, pop, strict_support)
    return lr._greedy_labels(pi, pop.m)


def check_labels(chi, pi, pop, strict_support=False):
    """Seam: the chain's end-of-run check on the labels ``chi``."""
    lr._check_assignment(np.asarray(chi), pi, census_caps(pop, strict_support))


def stationary_acceptance(pi, pop, class_pair_weight):
    """Exact long-run acceptance rate of the swap chain, summed over every
    feasible assignment x under its law pi(x) and over every cross-class rank
    pair, each proposed with probability proportional to
    class_pair_weight(n_c, n_d) / (n_c n_d) for its class sizes."""
    caps = census_caps(pop)
    a_ext = (0,) + pi.a
    sizes = (pop.m - pi.k,) + pi.r
    states = []
    for chi in set(itertools.permutations(sorted(loop_chi_init(pi, pop)))):
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


def members_swap_chain(part, pop, strict_support, cfg):
    """The swap chain on one member list per class from the greedy fill,
    tested for the retained step at every proposal: the reference for the
    chain's flat slot list and retained-step segments, which must match it
    draw for draw. Returns (trace of retained (step, singleton mass),
    acceptance rate)."""
    chi = np.array(loop_chi_init(part, pop, strict_support))
    probs = pop.as_array()
    log_probs = np.log(probs).tolist()
    caps = census_caps(pop, strict_support).tolist()
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
    for t0 in range(0, cfg.iterations, lr._BLOCK):
        block = min(lr._BLOCK, cfg.iterations - t0)
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


def swap_chain(part, pop, strict_support, cfg):
    """Seam: the swap chain from the greedy start on a schedule that
    ``lr_true_mh`` rejects for keeping one sample; (trace, acceptance)."""
    groups = lr._rank_groups(part, pop, strict_support)
    caps = np.repeat(groups.caps, groups.mult)
    return lr._run_swap_chain(lr._greedy_labels(part, pop.m), part, pop.as_array(), caps, cfg)


def forbid_chain(monkeypatch):
    """Seam: make the swap chain fail the test if it runs."""

    def chain(*args):
        raise AssertionError("the chain ran on a schedule that keeps one sample")

    monkeypatch.setattr(lr, "_run_swap_chain", chain)


def forbid_routes(monkeypatch):
    """Seam: make every known-population route fail the test if it starts
    (each starts with the prelude, ``lr._rank_groups``)."""

    def prelude(*args):
        raise AssertionError("a known-population route ran")

    monkeypatch.setattr(lr, "_rank_groups", prelude)


def crp_case(size, params, seed, n, db_seed=None):
    """A census of ``size`` people seated by ``crp_sample`` and the database
    of the first ``n`` of them in an order seeded by ``db_seed`` (default
    ``seed``): (database, population)."""
    counts = np.sort(crp_sample(size, params, seed=seed).table_counts)[::-1]
    pop = PopulationVector(probs=tuple((counts / size).tolist()), pop_size=size)
    order = np.random.default_rng(seed if db_seed is None else db_seed)
    people = order.permutation(np.repeat(np.arange(counts.size), counts))
    sizes = np.bincount(people[:n])
    return IntegerPartition.from_block_sizes(sizes[sizes > 0]), pop


def replicate_draws(spec):
    """Each of an experiment spec's replicates as the experiment draws it,
    here from a list of the census's individuals by rank: (population,
    database, suspect's rank, chain seed)."""
    pop = population_from_partition(spec.population)
    individuals = np.repeat(np.arange(1, pop.m + 1), spec.population.sizes_desc())
    for seed in spawn_seeds(spec.seed, spec.replicates):
        sample_seed, mh_seed = seed.spawn(2)
        rng = np.random.default_rng(sample_seed)
        while True:
            drawn = rng.choice(individuals, size=spec.sample_size, replace=False)
            if drawn[-1] not in drawn[:-1]:
                break
        sizes = np.bincount(drawn[:-1])
        yield pop, IntegerPartition.from_block_sizes(sizes[sizes > 0]), int(drawn[-1]), mh_seed


def brute_force_true_lr(pi, pop, strict_support=False):
    """s1 / E[singleton mass] by summing over every labelling of the ranks
    with classes 0..J, kept when it has the class counts r and every rank's
    census count supports its class."""
    caps = census_caps(pop, strict_support)
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


def rank_facts(part, pop, strict_support=False):
    """The census record's facts rank by rank from ``census_caps``: each
    rank's class reach (the number of a_j at or below its cap), the state
    count prod(r_j + 1), whether an assignment exists and whether a finite
    tilt does, by the suffix rule: classes j..J need r_j + ... + r_J ranks
    and the ranks with caps of at least a_j are there for them, at least
    as many for an assignment, more for a finite tilt."""
    caps = census_caps(pop, strict_support)
    reach = [sum(a_j <= cap for a_j in part.a) for cap in caps]
    need = [sum(part.r[j:]) for j in range(len(part.r))]
    room = [sum(cap >= a_j for cap in caps) for a_j in part.a]
    feasible = all(n <= m for n, m in zip(need, room))
    finite = all(n < m for n, m in zip(need, room))
    return reach, math.prod(r_j + 1 for r_j in part.r), feasible, finite


def census_record(part, pop, strict_support=False):
    """Seam: the prelude's census record facts, rank by rank: (each rank's
    class reach, the state count, whether the tilt can be finite)."""
    groups = lr._rank_groups(part, pop, strict_support)
    return np.repeat(groups.reach, groups.mult).tolist(), groups.states, groups.finite_tilt


def uncollapsed_true_lr(part, pop, strict_support=False):
    """The exact known-population LR by the forward pass over every count
    state, rank by rank, with no axis sliced away: each rank draws its
    class independently at the saddle-point tilt, class 0 included, and
    can carry the classes its census cap supports."""
    groups = lr._rank_groups(part, pop, strict_support)
    tilt = lr._tilt(groups)
    weights = np.repeat(np.column_stack([tilt.q0, tilt.q]), groups.mult, axis=0).tolist()
    fits = rank_facts(part, pop, strict_support)[0]
    r = part.r
    shape = tuple(r_j + 1 for r_j in r)
    z, mass = np.zeros(shape), np.zeros(shape)
    z[(0,) * len(shape)] = 1.0
    leads = [(slice(None),) * j for j in range(len(shape))]
    moves = [(lead + (slice(0, -1),), lead + (slice(1, None),)) for lead in leads]
    for i, p_i in enumerate(pop.probs):
        w = weights[i]
        z_next, mass_next = w[0] * z, w[0] * mass
        for j, (src, dst) in enumerate(moves[: fits[i]]):
            z_next[dst] += w[j + 1] * z[src]
            mass_next[dst] += w[j + 1] * (mass[src] + p_i * z[src] if j == 0 else mass[src])
        z, mass = z_next, mass_next
    return part.s1 * float(z[tuple(r)] / mass[tuple(r)])


def tilt(part, pop):
    """Seam: the rank groups' multiplicities, the tilt ``exact_true_lr``
    solves for, each class's expected count at it summed rank by rank, and
    the dual over one row per rank, eta -> (value, gradient, Hessian)."""
    groups = lr._rank_groups(part, pop, False)
    eta = lr._tilt(groups).eta
    eligible = census_caps(pop)[:, None] >= np.asarray(part.a)
    log_w = np.where(eligible, np.outer(np.log(pop.as_array()), part.a), -np.inf)

    def dual(eta):
        return lr._count_dual(eta, log_w, part.r, np.ones(log_w.shape[0]))[:3]

    return groups.mult, eta, lr._class_probs(eta, log_w)[1].sum(axis=0), dual


def saddle_products(a, b, s):
    """Seam: the saddle route's chunked products, each beside numpy's plain
    one; the rows per chunk of ``a @ s``, and a chunk's cap in multiply-adds."""
    pairs = [(lr._gram(a, b), a.T @ b), (lr._gram(a, b[:, 0]), a.T @ b[:, 0])]
    pairs += [(lr._row_product(a, s), a @ s), (lr._row_product(a, s[0]), a @ s[0])]
    return pairs, lr._chunk_rows(s.size), lr._ONE_THREAD_MADDS


def direct_loglik(pi, alpha, theta):
    """The partition log-likelihood with both long rising factorials summed
    term by term and the block sizes' as gammaln differences (-inf outside
    the open domain)."""
    if not (0.0 < alpha < 1.0 and theta > -alpha):
        return -math.inf
    val = float(np.log(theta + alpha * np.arange(1.0, pi.k)).sum())
    val -= float(np.log(theta + np.arange(1.0, pi.n)).sum())
    a, r = np.asarray(pi.a, dtype=float), np.asarray(pi.r, dtype=float)
    return val + float(r @ (gammaln(a - alpha) - gammaln(1.0 - alpha)))


def log_rising_reference(x, k):
    """sum_{i<k} log(x + i) summed exactly, and the sum of |log(x + i)|: for
    x >= 1 the two agree, below 1 mixed signs make the value itself a poor
    scale for its rounding error."""
    logs = [math.log(x + i) for i in range(k)]
    return math.fsum(logs), math.fsum(abs(v) for v in logs)


def loglik_derivs(part, alpha, theta):
    """Seam: the log-likelihood with its gradient and Hessian in
    (alpha, theta), as the search's kernel returns them."""
    return pitman._loglik_derivs(*pitman._loglik_terms(part), alpha, theta)


def block_term(part, alpha):
    """Seam: the block-size term at alpha by the grid kernel, and by the
    point kernel with its first two alpha-derivatives."""
    _, _, head, tail = pitman._loglik_terms(part)
    grid = float(pitman._block_value(head, tail, np.array([alpha]))[0])
    return grid, pitman._block_derivs(head, tail, alpha)


def grid_loglik(part, params):
    """Seam: the grid kernel's log-likelihood at one point, and the sum of
    the magnitudes of its rising and block-size terms."""
    n, k, head, tail = pitman._loglik_terms(part)
    rising = float(pitman._rising_terms(n, k, params.alpha, params.theta))
    block = float(pitman._block_value(head, tail, np.array([params.alpha]))[0])
    grid = float(pitman._loglik_value(n, k, head, tail, params.alpha, params.theta))
    return grid, abs(rising) + abs(block)


def terms_built():
    """Seam: how many times the likelihood's per-partition terms were built."""
    return pitman._loglik_terms.cache_info().misses


def drop_terms():
    """Seam: forget the kept terms."""
    pitman._loglik_terms.cache_clear()


def term_arrays(part):
    """Seam: the arrays among ``part``'s likelihood terms."""
    return [t for t in pitman._loglik_terms(part) if isinstance(t, np.ndarray)]


# the search's start grid, each point in search coordinates
START_POINTS = {(a0, t0): mle._to_z(a0, t0) for a0 in mle._START_ALPHAS for t0 in mle._START_THETAS}


def search_objective(part):
    """Seam: the search's objective over ``part``, z -> (f, gradient,
    Hessian) in z = (logit alpha, log(theta + 1))."""
    return mle._make_objective(pitman._loglik_terms(part))


def best_start(part):
    """Seam: the start the vectorised scan picks, in search coordinates."""
    return mle._best_start(pitman._loglik_terms(part))


def fits_from_each_start(part, warnings=()):
    """Seam: the fit a search from each start grid point reaches, by point."""
    terms = pitman._loglik_terms(part)
    return {start: mle._fit_from(terms, z0, warnings) for start, z0 in START_POINTS.items()}


def count_kernel_passes(part, monkeypatch):
    """Seam: ``fit_mle(part)``, the points its search evaluates and the
    kernel passes it runs: (fit, points, passes)."""
    kernel, newton = mle._loglik_derivs, mle._newton
    passes, points = [], []

    def counted_kernel(*args):
        passes.append(args[-2:])
        return kernel(*args)

    def counted_newton(objective, z0):
        def counted(z):
            points.append(tuple(np.asarray(z).tolist()))
            return objective(z)

        return newton(counted, z0)

    monkeypatch.setattr(mle, "_loglik_derivs", counted_kernel)
    monkeypatch.setattr(mle, "_newton", counted_newton)
    return mle.fit_mle(part), points, passes


def symmetry_reference(surface):
    """Pair-by-pair loop that ``symmetry_diagnostic`` vectorizes."""
    ci, cj = len(surface.phi) // 2, len(surface.theta) // 2
    l = surface.rel_loglik - surface.rel_loglik[ci, cj]
    score, worst, pairs = 0.0, None, 0
    for di in range(-ci, ci + 1):
        for dj in range(-cj, cj + 1):
            if (di, dj) == (0, 0):
                continue
            if not (surface.valid[ci + di, cj + dj] and surface.valid[ci - di, cj - dj]):
                continue
            ref = abs(l[ci + di, cj + dj])
            if ref < 1e-12:
                continue
            pairs += 1
            s = abs(l[ci + di, cj + dj] - l[ci - di, cj - dj]) / ref
            if s > score:
                score = s
                worst = (
                    float(surface.phi[ci + di] - surface.mode[0]),
                    float(surface.theta[cj + dj] - surface.mode[1]),
                )
    return score, worst, pairs



def loop_crp_sample(n, params, seed=None):
    """Reference: the seating scheme one customer at a time."""
    rng = np.random.default_rng(seed)
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


def reference_load(path, format="tsv", columns="all"):
    """The csv-reader loop ``load_profiles`` ran before it read plain
    texts in whole-text passes, after a scan that rejects the unit
    separator: (records, columns), or what it raised."""
    delimiter = "\t" if format == "tsv" else ","
    with open(path, newline="") as fh:
        # a field holding the join character would merge with its neighbour
        for lineno, line in enumerate(fh, start=1):
            if "\x1f" in line:
                raise ProfileParseError(f"{path}:{lineno}: unit separator U+001F in a field")
        fh.seek(0)
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFileError(f"{path}: no header row")
        for i, name in enumerate(header):
            if name in header[:i]:
                raise DuplicateColumnError(f"{path}: column {name!r} repeated in header {header}")
        if columns == "all":
            wanted = list(header)
        elif isinstance(columns, str):
            wanted = [columns]
        else:
            wanted = list(columns)
        if not wanted:
            raise MissingColumnError(f"{path}: no columns selected")
        indices = []
        for name in wanted:
            if name not in header:
                raise MissingColumnError(f"{path}: column {name!r} not in header {header}")
            indices.append(header.index(name))
        whole = indices == list(range(len(header)))
        join = "\x1f".join
        records = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise RaggedRowError(
                    f"{path}:{lineno}: expected {len(header)} fields, found {len(row)}"
                )
            records.append(join(row) if whole else join([row[i] for i in indices]))
    if not records:
        raise EmptyFileError(f"{path}: no data rows")
    return tuple(records), tuple(wanted)
