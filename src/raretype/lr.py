"""Likelihood-ratio engines for the rare type match.

Three routes to an evidential weight for a suspect/trace match absent
from the reference database of size n:

* ``lr_empirical_bayes`` - the plug-in (n + 1 + theta_hat)/(1 - alpha_hat).
* ``lr_frequentist`` - the benchmark 1/p_x when the matching type's
  population proportion is known.
* ``lr_true_mh`` / ``exact_true_lr`` - the ratio available when the whole
  ranked population vector is known: s1 divided by the posterior mean of
  the total frequency of singleton-class types, taken over the latent
  assignment of population ranks to observed size classes.

``exact_true_lr`` computes that posterior mean exactly by one forward
pass over the population ranks, the state being the vector of class
counts filled so far; past a fixed budget of such states it refuses and
points to ``lr_true_mh``, which explores the assignment space by a
swap-proposal Metropolis chain: propose a uniformly random pair of ranks
carrying different classes, reject outright if the swap would let a rank
be observed more often than its population count supports, otherwise
accept with probability min(1, R) where R is the likelihood ratio of the
proposed to the current assignment under p(a, r | chi, p) proportional
to prod_i p_i^{a_{chi_i}}.
Swapping two zero-class ranks is a no-op and is never proposed (zero-zero
pairs carry equal classes). Class counts are conserved by construction,
so the chain never leaves the constraint set it starts in. The pair is
drawn directly, with no rejection of same-class pairs: the class pair
(c, d), c < d, with weight n_c n_d from a table built once (class sizes
never change), then a uniform member of each class. The ranks sit in one
flat slot list, grouped by class, so numpy turns each draw into a slot
index and an accepted swap is two writes. Draws come in blocks, and each
block runs in segments that end at the retained steps, where the
singleton mass is read off the class-1 slots; per proposal, Python does
only the accept/reject decision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Optional, Union

import numpy as np

from .mle import _newton
from .partitions import IntegerPartition, SetPartition, as_integer_partition
from .pitman import PdParams, PopulationVector
from .rng import SeedLike, as_generator

__all__ = [
    "InfeasibleAssignmentError",
    "AssignmentVector",
    "MhConfig",
    "TrueLrEstimate",
    "LrReport",
    "lr_empirical_bayes",
    "lr_frequentist",
    "chi_init",
    "lr_true_mh",
    "exact_true_lr",
    "diff_metrics",
]

_LOG10 = math.log(10.0)


class InfeasibleAssignmentError(RuntimeError):
    """No assignment satisfies the class-count and support constraints."""


def lr_empirical_bayes(n: int, params: PdParams) -> float:
    """Plug-in likelihood ratio (n + 1 + theta)/(1 - alpha), database size n."""
    if n < 1:
        raise ValueError("database size must be >= 1")
    return (n + 1.0 + params.theta) / (1.0 - params.alpha)


def lr_frequentist(p: PopulationVector, matched_rank: int) -> float:
    """Benchmark 1/p_x for the matching type at 1-based population rank."""
    if not 1 <= matched_rank <= p.m:
        raise ValueError(f"matched_rank must lie in 1..{p.m}, got {matched_rank}")
    return 1.0 / p.probs[matched_rank - 1]


def _support_caps(p: PopulationVector, strict: bool) -> np.ndarray:
    """Largest class size each rank can carry under the census constraint.

    Default rule: the rounded population count round(N p_i) must be at
    least the observed count. The strict variant demands N p_i strictly
    above it, which forbids observing a type exactly as often as it
    occurs; it is kept for sensitivity analysis.
    """
    if p.pop_size is None:
        raise ValueError("population needs pop_size for assignment-space computations")
    scaled = p.pop_size * p.as_array()
    if strict:
        caps = np.ceil(scaled - 1e-9) - 1.0
    else:
        caps = np.rint(scaled)
    return caps.astype(np.int64)


@dataclass(frozen=True)
class AssignmentVector:
    """Map from population ranks to observed size classes.

    chi[i] = j > 0 puts rank i+1 (1-based) in the class observed a_j
    times; 0 marks an unobserved rank. Exactly r_j ranks carry class j,
    and an assigned rank's population count must support its class size.
    """

    chi: tuple[int, ...]
    partition: IntegerPartition
    population: PopulationVector
    strict_support: bool = False

    def __post_init__(self) -> None:
        part, pop = self.partition, self.population
        if len(self.chi) != pop.m:
            raise ValueError(f"chi must have one entry per population rank ({pop.m})")
        J = part.num_size_classes
        chi = np.asarray(self.chi, dtype=np.int64)
        outside = (chi < 0) | (chi > J)
        if outside.any():
            raise ValueError(f"class labels must lie in 0..{J}, got {chi[outside.argmax()]}")
        counts = tuple(np.bincount(chi, minlength=J + 1)[1:].tolist())
        if counts != part.r:
            raise ValueError(f"class counts {counts} must equal r={part.r}")
        caps = _support_caps(pop, self.strict_support)
        need = np.asarray((0,) + part.a)[chi]
        short = (chi > 0) & (caps < need)
        if short.any():
            i = int(short.argmax())
            raise InfeasibleAssignmentError(
                f"rank {i + 1} cannot carry block size {need[i]} "
                f"(supported count {caps[i]})"
            )

    def singleton_mass(self) -> float:
        """Total frequency of ranks assigned to the singleton class."""
        if self.partition.a[0] != 1:
            return 0.0
        return math.fsum(p for p, c in zip(self.population.probs, self.chi) if c == 1)


def chi_init(
    pi: Union[IntegerPartition, SetPartition],
    p: PopulationVector,
    strict_support: bool = False,
) -> AssignmentVector:
    """Greedy feasible start: largest classes grab the most frequent
    supportable ranks.

    Ranks are scanned in frequency order; because the support caps are
    nonincreasing in rank, eligibility for each class is a prefix, and
    filling classes in decreasing block size preserves feasibility
    whenever any feasible assignment exists.
    """
    part = as_integer_partition(pi)
    caps = _support_caps(p, strict_support)
    # the greedy fill: class labels in decreasing block size, rank by rank
    labels = np.repeat(np.arange(part.num_size_classes, 0, -1), part.r[::-1])
    need = np.asarray(part.a)[labels - 1]
    fits = caps[: labels.size] >= need[: p.m]
    if labels.size > p.m or not fits.all():
        first = int(fits.argmin()) if not fits.all() else p.m
        j = int(labels[first])
        a_j, r_j = part.a[j - 1], part.r[j - 1]
        placed = first - int(np.count_nonzero(labels > j))
        raise InfeasibleAssignmentError(
            f"class of block size {a_j} needs {r_j} ranks with supported "
            f"count >= {a_j}; only {placed} available"
        )
    chi = np.zeros(p.m, dtype=np.int64)
    chi[: labels.size] = labels
    return AssignmentVector(
        chi=tuple(chi.tolist()), partition=part, population=p, strict_support=strict_support
    )


@dataclass(frozen=True)
class MhConfig:
    """Chain schedule, counted in proposals (one swap proposal per
    iteration); defaults: 1e5 iterations, burn-in 2e4, thinning 1e3."""

    iterations: int = 100_000
    burn_in: int = 20_000
    thinning: int = 1_000
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must lie in [0, iterations)")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")

    @property
    def n_retained(self) -> int:
        return (self.iterations - self.burn_in) // self.thinning


@dataclass(frozen=True)
class TrueLrEstimate:
    """Monte-Carlo estimate of the known-population LR with its error bar."""

    lr: float
    stderr: float
    log10_lr: float
    log10_stderr: float
    mean_singleton_mass: float
    acceptance_rate: float
    n_retained: int
    trace: tuple[tuple[int, float], ...]

    def to_dict(self) -> dict:
        return {
            "lr": self.lr,
            "stderr": self.stderr,
            "log10_lr": self.log10_lr,
            "log10_stderr": self.log10_stderr,
            "mean_singleton_mass": self.mean_singleton_mass,
            "acceptance_rate": self.acceptance_rate,
            "n_retained": self.n_retained,
        }


# draws come from numpy in blocks of this many proposals; the loop over a
# block runs in segments that end at the retained steps
_BLOCK = 8192


def _run_swap_chain(start: AssignmentVector, cfg: MhConfig):
    """Drive the swap chain; returns (trace of retained (step, singleton
    mass), acceptance rate)."""
    part, pop = start.partition, start.population
    probs = pop.as_array()
    log_probs = np.log(probs).tolist()
    caps = _support_caps(pop, start.strict_support).tolist()
    a_ext = np.array((0,) + part.a)
    chi = np.asarray(start.chi)
    # one flat slot list: class 0's ranks, then class 1's, and so on, each
    # in rank order; class c owns slots offset[c] .. offset[c] + sizes[c] - 1
    # and an accepted swap rewrites two slots
    sizes = np.bincount(chi, minlength=a_ext.size)
    offset = np.cumsum(sizes) - sizes
    slots = np.argsort(chi, kind="stable").tolist()
    ones = slice(offset[1], offset[1] + sizes[1])
    # class sizes never change, so neither does the law of the class pair
    # (c, d), c < d, of a uniform cross-class rank pair: weight n_c n_d
    c_of, d_of = np.nonzero(np.triu(np.outer(sizes, sizes), k=1))
    weights = sizes[c_of] * sizes[d_of]
    cum = np.cumsum(weights) / weights.sum()

    def singleton_mass() -> float:
        return float(probs[slots[ones]].sum())

    retained = range(cfg.burn_in + cfg.thinning, cfg.iterations + 1, cfg.thinning)
    if c_of.size == 0:
        # no cross-class pair exists: the start is the whole constraint set
        return [(t, singleton_mass()) for t in retained], 0.0
    rng = as_generator(cfg.seed)

    def draw_block(block: int):
        pair = np.searchsorted(cum, rng.random(block), side="right")
        cs, ds = c_of[pair], d_of[pair]
        xs = offset[cs] + rng.integers(sizes[cs])
        ys = offset[ds] + rng.integers(sizes[ds])
        a_c, a_d = a_ext[cs], a_ext[ds]
        return zip(
            xs.tolist(), ys.tolist(), a_d.tolist(), (a_c - a_d).tolist(),
            rng.random(block).tolist(),
        )

    stops = sorted({*retained, *range(_BLOCK, cfg.iterations, _BLOCK), cfg.iterations})
    trace: list[tuple[int, float]] = []
    accepted = 0
    exp = math.exp
    t = 0
    for stop in stops:
        if t % _BLOCK == 0:
            draws = draw_block(min(_BLOCK, cfg.iterations - t))
        for x, y, ad, da, w in islice(draws, stop - t):
            i = slots[x]
            j = slots[y]
            # census support is enforced by rejecting the proposal outright.
            # The state is feasible and c < d, so j's cap covers a_d > a_c:
            # only i, moving up to class d, can lack support
            if caps[i] >= ad:
                log_r = da * (log_probs[j] - log_probs[i])
                if log_r >= 0.0 or w < exp(log_r):
                    slots[x] = j
                    slots[y] = i
                    accepted += 1
        if stop in retained:
            trace.append((stop, singleton_mass()))
        t = stop
    # swaps conserve class counts and rejected proposals never land, so the
    # final state must still satisfy every constraint; constructing the
    # AssignmentVector re-checks that
    chi[slots] = np.repeat(np.arange(a_ext.size), sizes)
    AssignmentVector(
        chi=tuple(chi.tolist()),
        partition=part,
        population=pop,
        strict_support=start.strict_support,
    )
    return trace, accepted / cfg.iterations


def _batch_means_stderr(values: np.ndarray, n_batches: int = 20) -> float:
    """Standard error of the mean by batch means (20 batches by default).

    Needs at least 2 values; batches of max(1, n // n_batches) values then
    number at least 2.
    """
    n = values.size
    b = max(1, n // n_batches)
    usable = (n // b) * b
    batches = values[:usable].reshape(-1, b).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(batches.size))


def _check_true_lr_inputs(part: IntegerPartition, p: PopulationVector) -> None:
    if part.s1 < 1:
        raise ValueError("rare-type partition needs at least one singleton block")
    if p.pop_size is None:
        raise ValueError("population needs pop_size for the assignment-space oracle")
    if p.pop_size < p.m:
        raise ValueError("pop_size below the number of listed types")


def lr_true_mh(
    pi_db_plus: Union[IntegerPartition, SetPartition],
    p: PopulationVector,
    cfg: MhConfig = MhConfig(),
    *,
    strict_support: bool = False,
) -> TrueLrEstimate:
    """Estimate the LR given the full population vector.

    ``pi_db_plus`` is the suspect-augmented partition (the suspect's type
    is one of its singletons). The chain targets p(chi | a, r, p); the
    estimate is s1 over the average total frequency of singleton-class
    ranks across retained states.
    """
    part = as_integer_partition(pi_db_plus)
    _check_true_lr_inputs(part, p)
    start = chi_init(part, p, strict_support=strict_support)
    trace, acceptance = _run_swap_chain(start, cfg)
    if len(trace) < 2:
        # one sample has no spread to put an error bar on
        raise ValueError(
            "fewer than 2 retained samples: lower burn_in/thinning or raise iterations "
            f"(schedule keeps {cfg.n_retained})"
        )
    masses = np.array([s for _, s in trace])
    mean_mass = float(masses.mean())
    se_mass = _batch_means_stderr(masses)
    lr = part.s1 / mean_mass
    se_lr = part.s1 * se_mass / mean_mass**2
    return TrueLrEstimate(
        lr=lr,
        stderr=se_lr,
        log10_lr=math.log10(lr),
        log10_stderr=se_lr / (lr * _LOG10),
        mean_singleton_mass=mean_mass,
        acceptance_rate=acceptance,
        n_retained=len(trace),
        trace=tuple(trace),
    )


# the exact pass holds two float arrays of prod(r_j + 1) entries; a 101-sample
# Dutch replicate needs 8k-50k of them
_EXACT_STATE_BUDGET = 200_000


def exact_true_lr(
    pi_db_plus: Union[IntegerPartition, SetPartition],
    p: PopulationVector,
    *,
    strict_support: bool = False,
) -> float:
    """Exact known-population LR by one forward pass over population ranks.

    Let each rank draw a class independently: class j with weight
    exp(eta_j) p_i^{a_j} if its census count supports a_j, class 0
    (unobserved) with weight 1. Conditioned on the class counts r, this
    law is the posterior, proportional to prod_i p_i^{a_chi(i)}, for any
    eta. The pass carries the law of the class counts filled so far (shape
    (r_j + 1)) and the singleton-mass moment on it, and returns
    s1 P(counts = r) / E[mass; counts = r]: the multi-class
    conditional-Poisson recursion (Chen, Dempster & Liu 1994, Biometrika
    81:457), at cost m * J * prod(r_j + 1). eta is the saddle point where
    the expected counts equal r, so every entry is a probability and
    P(counts = r) is not small: nothing overflows, and what underflows is
    negligible. Past the state budget it raises ValueError, pointing to
    ``lr_true_mh``, before allocating anything.
    """
    part = as_integer_partition(pi_db_plus)
    _check_true_lr_inputs(part, p)
    states = math.prod(r_j + 1 for r_j in part.r)
    if states > _EXACT_STATE_BUDGET:
        raise ValueError(
            f"the exact pass needs {states} states, over its budget of "
            f"{_EXACT_STATE_BUDGET}; estimate the LR with lr_true_mh instead"
        )
    # the greedy start decides feasibility exactly and seeds the saddle point
    chi = np.asarray(chi_init(part, p, strict_support=strict_support).chi)
    probs = p.as_array()
    log_p = np.log(probs)
    eligible = _support_caps(p, strict_support)[:, None] >= np.asarray(part.a)
    log_w = np.where(eligible, np.outer(log_p, part.a), -np.inf)

    def log_class_probs(eta: np.ndarray):
        logits = np.hstack([np.zeros((probs.size, 1)), log_w + eta])
        log_norm = np.logaddexp.reduce(logits, axis=1, keepdims=True)
        return logits - log_norm, log_norm

    def dual(eta: np.ndarray):
        # convex; its gradient is the expected class counts minus r, its
        # Hessian the class-count covariance, summed over ranks
        log_pi, log_norm = log_class_probs(eta)
        q = np.exp(log_pi[:, 1:])
        expected = q.sum(axis=0)
        return log_norm.sum() - eta @ part.r, expected - part.r, np.diag(expected) - q.T @ q

    eta0 = np.array([-a_j * log_p[chi == j].mean() for j, a_j in enumerate(part.a, start=1)])
    eta = _newton(dual, eta0)[0]
    pi = np.exp(log_class_probs(eta)[0]).tolist()
    fits = eligible.sum(axis=1).tolist()
    return part.s1 * _exact_pass(probs.tolist(), pi, fits, part.r)


def _exact_pass(probs: list, weights: list, fits: list, r: tuple) -> float:
    """P(counts = r) / E[mass; counts = r] under independent rank classes.

    Rank i takes class j with ``weights[i][j]`` (class 0 is unobserved) and
    can carry only the first ``fits[i]`` observed classes. ``fits`` never
    rises with rank, so once it drops below class j no later rank fills
    that class: only the slice c_j = r_j can still reach counts r, and the
    pass keeps just that slice of z and mass from there on.
    """
    shape = tuple(r_j + 1 for r_j in r)
    z, mass = np.zeros(shape), np.zeros(shape)
    z[(0,) * len(shape)] = 1.0
    # class j's move fills one more of its slots: count c_j becomes c_j + 1
    leads = [(slice(None),) * j for j in range(len(shape))]
    moves = [(lead + (slice(0, -1),), lead + (slice(1, None),)) for lead in leads]
    live = len(shape)
    for i, p_i in enumerate(probs):
        if fits[i] < live:
            full = (Ellipsis,) + tuple(r[fits[i] : live])
            z, mass, live = z[full], mass[full], fits[i]
        w = weights[i]
        z_next, mass_next = w[0] * z, w[0] * mass
        # caps fall with rank and a rises with j, so the classes that fit are a prefix
        for j, (src, dst) in enumerate(moves[: fits[i]]):
            z_next[dst] += w[j + 1] * z[src]
            # class 1 holds the singletons: such a rank adds p_i to the mass
            mass_next[dst] += w[j + 1] * (mass[src] + p_i * z[src] if j == 0 else mass[src])
        z, mass = z_next, mass_next
    full = tuple(r[:live])
    return float(z[full] / mass[full])


@dataclass(frozen=True)
class LrReport:
    """log10-scale LR bundle with the fitted hyperparameters behind the
    plug-in; diffs compare the plug-in against the known-population and
    frequentist references."""

    alpha_hat: Optional[float] = None
    theta_hat: Optional[float] = None
    log10_lr_eb: Optional[float] = None
    log10_lr_true: Optional[float] = None
    log10_lr_true_se: Optional[float] = None
    log10_lr_freq: Optional[float] = None
    diff1: Optional[float] = None
    diff2: Optional[float] = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "theta_hat": self.theta_hat,
            "log10_lr_eb": self.log10_lr_eb,
            "log10_lr_true": self.log10_lr_true,
            "log10_lr_true_se": self.log10_lr_true_se,
            "log10_lr_freq": self.log10_lr_freq,
            "diff1": self.diff1,
            "diff2": self.diff2,
            "notes": list(self.notes),
        }


def diff_metrics(report: LrReport) -> LrReport:
    """Fill diff1 = eb - true and diff2 = eb - freq where operands exist;
    missing operands leave the field empty and add a note."""
    notes = report.notes
    diff1 = report.diff1
    diff2 = report.diff2
    if report.log10_lr_eb is not None and report.log10_lr_true is not None:
        diff1 = report.log10_lr_eb - report.log10_lr_true
    else:
        notes += ("diff1 unavailable: needs both plug-in and known-population LRs",)
    if report.log10_lr_eb is not None and report.log10_lr_freq is not None:
        diff2 = report.log10_lr_eb - report.log10_lr_freq
    else:
        notes += ("diff2 unavailable: needs both plug-in and frequentist LRs",)
    return replace(report, diff1=diff1, diff2=diff2, notes=notes)
