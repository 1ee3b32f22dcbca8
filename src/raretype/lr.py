"""Likelihood-ratio engines for the rare type match.

Three routes to an evidential weight for a suspect/trace match absent
from the reference database of size n:

* ``lr_empirical_bayes`` - the plug-in (n + 1 + theta_hat)/(1 - alpha_hat).
* ``lr_frequentist`` - the benchmark 1/p_x when the matching type's
  population proportion is known.
* the known-population LR, available when the whole ranked population
  vector is known: s1 divided by the posterior mean of the total
  frequency of singleton-class types, taken over the latent assignment
  of population ranks to observed size classes.

The known-population LR itself has three routes:

* ``exact_true_lr`` computes the posterior mean exactly by one forward
  pass over the population ranks, the state being the vector of class
  counts filled so far, prod(r_j + 1) states in all; past a fixed budget
  of states it refuses.
* ``saddle_true_lr`` expands the same pass around its saddle point: the
  tilt that makes the expected class counts equal r, solved over groups
  of ranks with equal census counts, plus an Edgeworth correction to the
  conditional mean. Its error is a calibrated bound, not an SE.
* ``lr_true_mh`` explores the assignment space by a swap-proposal
  Metropolis chain and reports a batch-means SE.

``workbench.run_case`` routes by ``_route_true_lr`` on one census record:
a case the exact pass ``_exact_fits`` (states and predicted time) keeps
the chain and its SE; any other takes the saddle point, or the chain and
a note where the tilt cannot be finite (then unsolved), does not converge
or lies outside the bound's calibrated regime.

All three routes start from one prelude, ``_rank_groups``: the input
checks, the support rule on the census's runs of equal p, and one
feasibility rule. The chain reads its per-rank caps from it.

The chain's state is a label array chi over the population ranks: chi_i
= j > 0 puts rank i in the class observed a_j times, 0 leaves it
unobserved. It starts from the greedy fill (``_greedy_labels``), where the
largest classes take the most frequent ranks, and proposes a uniformly
random pair of ranks carrying different classes, rejects outright if the
swap would let a rank be observed more often than its population count
supports, and otherwise accepts with probability min(1, R), where R is
the likelihood ratio of the proposed to the current assignment under
p(a, r | chi, p) proportional to prod_i p_i^{a_{chi_i}}.
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
only the accept/reject decision. At the end of the run,
``_check_assignment`` re-checks the final labels against the class counts
and the census caps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import islice
from typing import NamedTuple, Optional

import numpy as np

from .partitions import IntegerPartition, _are_integers
from .pitman import PdParams, PopulationVector
from .rng import SeedLike

__all__ = [
    "InfeasibleAssignmentError",
    "MhConfig",
    "TrueLrEstimate",
    "LrReport",
    "lr_empirical_bayes",
    "lr_frequentist",
    "lr_true_mh",
    "exact_true_lr",
    "SaddleLrEstimate",
    "saddle_true_lr",
    "SADDLE_LOG10_BOUND",
]

_LOG10 = math.log(10.0)


class InfeasibleAssignmentError(RuntimeError):
    """No assignment satisfies the class-count and support constraints."""


def lr_empirical_bayes(n: int, params: PdParams) -> float:
    """Plug-in likelihood ratio (n + 1 + theta)/(1 - alpha), database size n."""
    if not _are_integers((n,)) or n < 1:
        raise ValueError(f"database size must be an integer >= 1, got {n}")
    return (n + 1.0 + params.theta) / (1.0 - params.alpha)


def lr_frequentist(p: PopulationVector, matched_rank: int) -> float:
    """Benchmark 1/p_x for the matching type at 1-based population rank."""
    if not _are_integers((matched_rank,)) or not 1 <= matched_rank <= p.m:
        raise ValueError(f"matched_rank must be an integer in 1..{p.m}, got {matched_rank}")
    return 1.0 / p.probs[matched_rank - 1]


def _check_assignment(chi: np.ndarray, part: IntegerPartition, caps: np.ndarray) -> None:
    """Raise unless the labels ``chi`` (0..J, one per rank) give class j to
    exactly r_j ranks and every labelled rank's census cap supports its
    class's block size."""
    counts = tuple(np.bincount(chi, minlength=part.num_size_classes + 1)[1:].tolist())
    if counts != part.r:
        raise ValueError(f"class counts {counts} must equal r={part.r}")
    need = np.asarray((0,) + part.a)[chi]
    short = (chi > 0) & (caps < need)
    if short.any():
        i = int(short.argmax())
        raise InfeasibleAssignmentError(
            f"rank {i + 1} cannot carry block size {need[i]} "
            f"(supported count {caps[i]})"
        )


def _greedy_labels(part: IntegerPartition, m: int) -> np.ndarray:
    """Class label of each of ``m`` ranks under the greedy fill: largest
    classes take the most frequent ranks, the rest are unobserved (0).
    Eligibility for each class is a prefix of the ranks, so the fill is
    feasible whenever any assignment is (the prelude, ``_rank_groups``, decides)."""
    labels = np.repeat(np.arange(part.num_size_classes, 0, -1), part.r[::-1])
    return np.pad(labels, (0, m - labels.size))


@dataclass(frozen=True)
class MhConfig:
    """Chain schedule, counted in proposals (one swap proposal per
    iteration); defaults: 1e5 iterations, burn-in 2e4, thinning 1e3."""

    iterations: int = 100_000
    burn_in: int = 20_000
    thinning: int = 1_000
    seed: SeedLike = None

    def __post_init__(self) -> None:
        for name in ("iterations", "burn_in", "thinning"):
            value = getattr(self, name)
            if not _are_integers((value,)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        # the fields in declaration order; the trace goes to its own file
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trace"}


# draws come from numpy in blocks of this many proposals; the loop over a
# block runs in segments that end at the retained steps
_BLOCK = 8192


def _run_swap_chain(
    chi: np.ndarray, part: IntegerPartition, probs: np.ndarray, caps: np.ndarray, cfg: MhConfig
):
    """Drive the swap chain from the feasible labels ``chi``, one per rank
    of probability ``probs`` and census cap ``caps``; returns (trace of
    retained (step, singleton mass), acceptance rate)."""
    log_probs = np.log(probs).tolist()
    cap_of = caps.tolist()
    a_ext = np.array((0,) + part.a)
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
        return float(probs[np.fromiter(slots[ones], dtype=np.intp, count=sizes[1])].sum())

    retained = range(cfg.burn_in + cfg.thinning, cfg.iterations + 1, cfg.thinning)
    if c_of.size == 0:
        # no cross-class pair exists: the start is the whole constraint set
        return [(t, singleton_mass()) for t in retained], 0.0
    rng = np.random.default_rng(cfg.seed)

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
            if cap_of[i] >= ad:
                log_r = da * (log_probs[j] - log_probs[i])
                if log_r >= 0.0 or w < exp(log_r):
                    slots[x] = j
                    slots[y] = i
                    accepted += 1
        if stop in retained:
            trace.append((stop, singleton_mass()))
        t = stop
    # swaps conserve class counts and rejected proposals never land, so the
    # final state must still satisfy every constraint; re-check it
    end = np.empty_like(chi)
    end[slots] = np.repeat(np.arange(a_ext.size), sizes)
    _check_assignment(end, part, caps)
    return trace, accepted / cfg.iterations


# the chain's SE is taken over this many batches of its retained samples
_BATCHES = 20


def _batch_means_stderr(values: np.ndarray) -> float:
    """Standard error of the mean by batch means over ``_BATCHES`` batches.

    Needs at least 2 values; batches of max(1, n // _BATCHES) values then
    number at least 2.
    """
    n = values.size
    b = max(1, n // _BATCHES)
    usable = (n // b) * b
    batches = values[:usable].reshape(-1, b).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(batches.size))


def lr_true_mh(
    part: IntegerPartition,
    p: PopulationVector,
    cfg: MhConfig = MhConfig(),
    *,
    strict_support: bool = False,
) -> TrueLrEstimate:
    """Estimate the LR given the full population vector.

    ``part`` is the suspect-augmented partition (the suspect's type is
    one of its singletons). ``_rank_groups`` checks the inputs, sets the
    census caps and raises InfeasibleAssignmentError when no assignment
    fits; else the chain targets p(chi | a, r, p) from the greedy fill
    (``_greedy_labels``). The estimate is s1
    over the average total frequency of singleton-class ranks across
    retained states, with a batch-means SE, or 0 when every retained mass
    is the same. The final state is re-checked against the class counts
    and census caps (``_check_assignment``).
    """
    groups, _ = _rank_groups(part, p, strict_support)
    if cfg.n_retained < 2:
        # one sample has no spread to put an error bar on
        raise ValueError(
            "fewer than 2 retained samples: lower burn_in/thinning or raise iterations "
            f"(schedule keeps {cfg.n_retained})"
        )
    caps = np.repeat(groups.caps, groups.mult)
    trace, acceptance = _run_swap_chain(_greedy_labels(part, p.m), part, p.as_array(), caps, cfg)
    masses = np.array([s for _, s in trace])
    if (masses == masses[0]).all():
        # a chain that never left its state: its mass, with no spread, where
        # the mean and the batch means would each round it differently
        mean_mass, se_mass = float(masses[0]), 0.0
    else:
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
_EXACT_RANK_COST = 1_300  # a rank's Python step in live-state updates, 6 us / 4.5 ns
_EXACT_WORK_BUDGET = 0.2 / 4.5e-9  # ~0.2 s of updates


def _exact_states(part: IntegerPartition) -> int:
    """States of the exact pass over ``part``'s class counts, prod(r_j + 1)."""
    return math.prod(r_j + 1 for r_j in part.r)


def _exact_fits(groups: _RankGroups, r) -> bool:
    """Whether the exact pass fits its state budget and, by its cost model
    (``_exact_pass``), its work budget; in floats, so nothing overflows."""
    live = np.cumprod(np.concatenate(([1.0], np.add(r, 1.0))))
    if live[-1] > _EXACT_STATE_BUDGET:
        return False
    fits = np.isfinite(groups.log_w).sum(axis=1)
    return float(groups.mult @ (_EXACT_RANK_COST + fits * live[fits])) <= _EXACT_WORK_BUDGET


def exact_true_lr(
    part: IntegerPartition,
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
    81:457), run over the saddle route's rank groups a rank at a time, at
    cost m * J * prod(r_j + 1). eta is the saddle point where the expected
    counts equal r (``_tilt``), so every entry is a probability and
    P(counts = r) is not small: nothing overflows, and what underflows is
    negligible. After the prelude's checks (``_rank_groups``), past the
    state budget it raises ValueError, pointing to ``saddle_true_lr`` and
    ``lr_true_mh``, before solving the tilt or allocating the pass.
    """
    groups, eta0 = _rank_groups(part, p, strict_support)
    if _exact_states(part) > _EXACT_STATE_BUDGET:
        raise ValueError(
            f"the exact pass needs {_exact_states(part)} states, over its budget of "
            f"{_EXACT_STATE_BUDGET}; estimate the LR with saddle_true_lr or lr_true_mh instead"
        )
    return part.s1 * _exact_pass(groups, _tilt(groups, part.r, eta0), part.r)


class _RankGroups(NamedTuple):
    """Population ranks grouped by census probability. Ranks with equal
    p_i have equal support caps, so every known-population law treats
    them alike; one row per group, weighted by its multiplicity, stands
    for all of them. Groups are the population's runs, in rank order."""

    p: np.ndarray  # (G,) the group's probability
    mult: np.ndarray  # (G,) its number of ranks
    caps: np.ndarray  # (G,) the largest class size a rank of the group can carry
    log_w: np.ndarray  # (G, J) log p^{a_j}, -inf where the group's cap cannot support a_j
    room: np.ndarray  # (J,) the number of ranks that can carry class j
    need: np.ndarray  # (J,) the number of ranks classes j..J fill, r_j + ... + r_J


def _rank_groups(part: IntegerPartition, p: PopulationVector, strict: bool):
    """The prelude of every known-population route: after the input checks
    (a singleton in ``part``, a pop_size of at least m in ``p``), the rank
    groups of ``p`` for ``part``'s classes and a start for the tilt, read
    off the population's G runs in O(G J) for J classes.

    Each group's cap follows the support rule: the rounded population
    count round(N p_i) must be at least the observed count. The strict
    variant demands N p_i strictly above it, which forbids observing a
    type exactly as often as it occurs; it is kept for sensitivity analysis.

    Every route decides feasibility here. The ranks that can carry class
    j are a prefix, room_j long, and the prefixes nest; so by Hall's
    theorem (Hall 1935, J. London Math. Soc. 10:26) an assignment exists
    iff need_j = r_j + ... + r_J <= room_j for every j. Else this raises
    InfeasibleAssignmentError for the largest j that fails, where the
    greedy fill runs out.

    The start prices the greedy fill, which maximises sum_i a_chi(i) log p_i
    over assignments: the tilt under which each rank at the boundary
    between two of its blocks is indifferent between their classes, and
    the rank after the last block between class 1 and no class, taking
    log p at a boundary as the mean over its two ranks. Each rank then
    leans to its greedy class, as at the saddle point. (A start at -a_j
    times the mean log p of class j's greedy ranks leaves each large-block
    class with r_j = 1 far out in the exponential tail of its count: at
    casework scale the solver then took 11-46 Newton steps, not 3-4.)
    """
    if part.s1 < 1:
        raise ValueError("rare-type partition needs at least one singleton block")
    if p.pop_size is None:
        raise ValueError("population needs pop_size for the assignment-space oracle")
    if p.pop_size < p.m:
        raise ValueError("pop_size below the number of listed types")
    starts, mult = p._runs
    probs = p.as_array()[starts]
    log_p = np.log(probs)
    scaled = p.pop_size * probs
    caps = (np.ceil(scaled - 1e-9) - 1.0 if strict else np.rint(scaled)).astype(np.int64)
    eligible = caps[:, None] >= np.asarray(part.a)
    log_w = np.where(eligible, np.outer(log_p, part.a), -np.inf)
    room = mult @ eligible
    # classes j..J fill the first need[j - 1] ranks
    need = np.cumsum(part.r[::-1])[::-1]
    short = np.flatnonzero(need > room)
    if short.size:
        j = short[-1]
        a_j, r_j = part.a[j], part.r[j]
        raise InfeasibleAssignmentError(
            f"class of block size {a_j} needs {r_j} ranks with supported "
            f"count >= {a_j}; only {room[j] - (need[j] - r_j)} available"
        )
    # the boundary between classes j and j - 1 follows rank need[j - 1]:
    # log p between it and the next rank, or its own past the last rank
    at = np.searchsorted(starts, np.minimum([need - 1, need], p.m - 1), side="right") - 1
    edge = 0.5 * (log_p[at[0]] + log_p[at[1]])
    eta0 = np.cumsum(-np.diff(np.asarray(part.a), prepend=0) * edge)
    return _RankGroups(probs, mult, caps, log_w, room, need), eta0


def _class_probs(eta: np.ndarray, log_w: np.ndarray):
    """Each row's class probabilities under the tilt eta: class 0's
    (shape (G,)), classes 1..J's (shape (G, J)), and the log normalisers.
    Each row is shifted by its largest logit (class 0's is 0), so no exp
    overflows."""
    logits = log_w + eta
    top = np.maximum(logits.max(axis=1), 0.0)
    e = np.exp(logits - top[:, None])
    e0 = np.exp(-top)
    norm = e0 + e.sum(axis=1)
    return e0 / norm, e / norm[:, None], top + np.log(norm)


# OpenBLAS runs a product on one thread only below a size threshold; above
# it, in some processes, every product waits 8-24 ms for a second thread
# (see the README's OpenBLAS note). The saddle route sums or stacks its
# products over row chunks of at most OpenBLAS's default threshold in
# multiply-adds, which sets no thread count.
_ONE_THREAD_MADDS = 65536 * 4


def _chunk_rows(per_row: int) -> int:
    """Rows per chunk of a product costing ``per_row`` multiply-adds a row."""
    return max(1, _ONE_THREAD_MADDS // per_row)


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.T @ b over the shared first axis, summed over row chunks."""
    rows = _chunk_rows(a[0].size * b[0].size)
    out = a[:rows].T @ b[:rows]
    for s in range(rows, len(a), rows):
        out += a[s : s + rows].T @ b[s : s + rows]
    return out


def _row_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-d ``a``, stacked over row chunks of ``a``."""
    rows = _chunk_rows(b.size)
    return np.concatenate([a[s : s + rows] @ b for s in range(0, len(a), rows)])


def _count_dual(eta: np.ndarray, log_w: np.ndarray, r, mult: np.ndarray):
    """The saddle-point dual sum_i mult_i log Z_i(eta) - eta . r with its
    gradient and Hessian: convex, its gradient the expected class counts
    minus r, its Hessian the class-count covariance, summed over rows of
    ``log_w`` weighted by ``mult``. The class probabilities behind them
    come fourth (class 0's) and fifth (classes 1..J's)."""
    q0, q, log_norm = _class_probs(eta, log_w)
    mq = mult[:, None] * q
    expected = mq.sum(axis=0)
    return mult @ log_norm - eta @ r, expected - r, np.diag(expected) - _gram(mq, q), q0, q


class _Tilt(NamedTuple):
    eta: np.ndarray
    steps: int  # Newton steps
    sweeps: int  # log-space scaling sweeps
    max_rel_grad: float  # max_j |E N_j - r_j| / r_j at eta
    converged: bool  # max_rel_grad met _TILT_TOL at a finite saddle point
    q0: np.ndarray  # (G,) class 0's probabilities at eta
    q: np.ndarray  # (G, J) class probabilities of classes 1..J at eta
    cov: np.ndarray  # (J, J) class-count covariance at eta


_TILT_TOL = 1e-10
_TILT_MAX_STEPS = 100
_TILT_START_SWEEPS = 3
# the largest move of one eta_j in a Newton step
_TILT_MAX_STEP = 20.0
_TILT_RIDGE = 1e-12


def _tilt(groups: _RankGroups, r, eta: np.ndarray) -> _Tilt:
    """The saddle point of ``_count_dual`` over rank groups, from ``eta``.

    Three log-space scaling sweeps, eta_j += log r_j - log sum_g m_g q_gj
    (Darroch & Ratcliff 1972, Ann. Math. Stat. 43:1470, taken in logs so
    that a class whose probabilities underflow still moves), then Newton
    steps on the Jacobi-scaled Hessian, each component clipped to +-20,
    with Armijo backtracking; where no step length gives a decrease, one
    sweep stands in for the step. It stops when every expected class
    count is within 1e-10 relative of r or after 100 Newton steps. A
    finite saddle point exists only if every suffix of classes j..J needs
    fewer ranks than can carry class j (the strict form of
    ``_rank_groups``' feasibility rule); otherwise eta runs off to infinity, the solver
    stops where the counts match to the tolerance, and the result is
    marked not converged. The exact pass can use that eta, being exact
    for any tilt; the saddle-point route cannot.
    """
    r = np.asarray(r, dtype=float)
    log_w, mult = groups.log_w, groups.mult

    def sweep(eta):
        # log q_gj + log m_g from the logits, so that no q underflows to 0 here
        log_e = log_w + eta + (np.log(mult) - _class_probs(eta, log_w)[2])[:, None]
        top = log_e.max(axis=0)
        return eta + np.log(r) - top - np.log(np.exp(log_e - top).sum(axis=0))

    def dual(eta):
        f, g, h, q0, q = _count_dual(eta, log_w, r, mult)
        return f, g, h, float(np.max(np.abs(g) / r)), q0, q

    sweeps = _TILT_START_SWEEPS
    for _ in range(sweeps):
        eta = sweep(eta)
    f, g, h, worst, q0, q = dual(eta)
    steps = 0
    while worst > _TILT_TOL and steps < _TILT_MAX_STEPS:
        steps += 1
        # a count whose variance has underflowed (a class that surely takes
        # its ranks) is fixed: the floor keeps its scaled row finite, the
        # ridge keeps the solve off a sum of such counts, and the clip keeps
        # their meaningless components from swamping the step
        d = 1.0 / np.sqrt(np.maximum(np.diag(h), _TILT_RIDGE * r))
        scaled = h * np.outer(d, d) + _TILT_RIDGE * np.eye(eta.size)
        step = np.clip(-d * np.linalg.solve(scaled, d * g), -_TILT_MAX_STEP, _TILT_MAX_STEP)
        slope = float(g @ step)
        noise = 1e-12 * (1.0 + abs(f))
        t = 1.0
        while True:
            trial = dual(eta + t * step)
            # near the solution f sits at its rounding noise; there a step
            # that holds f and shrinks the worst count error is taken
            if trial[0] <= f + 1e-4 * t * slope or (trial[0] <= f + noise and trial[3] < worst):
                eta = eta + t * step
                break
            t *= 0.5
            if t < 1e-10:
                sweeps += 1
                eta = sweep(eta)
                trial = dual(eta)
                break
        f, g, h, worst, q0, q = trial
    # a finite tilt needs room to spare: need_j < room_j (see _rank_groups)
    finite = bool((groups.need < groups.room).all())
    return _Tilt(eta, steps, sweeps, worst, finite and worst <= _TILT_TOL, q0, q, h)


# the saddle-point route's error bound in log10 and the regime it was
# calibrated in against the exact pass (see saddle_true_lr)
SADDLE_LOG10_BOUND = 0.005
_SADDLE_MIN_S1 = 10
_SADDLE_MAX_CORRECTION = 0.008
# class counts with less variance than this are left out of the conditioning
_SADDLE_MIN_VAR = 0.05
_SADDLE_RIDGE = 1e-9
_NO_FINITE_TILT = ("saddle point without a finite tilt (some classes j..J need every rank that "
                   "can carry class j); known-population LR from the chain")


@dataclass(frozen=True)
class SaddleLrEstimate:
    """Known-population LR by the saddle-point route, with its solver's
    diagnostics. The log10 values are None when the tilt did not converge
    (the second order also when its mass is not positive); ``calibrated``
    says whether the instance lies in the regime where SADDLE_LOG10_BOUND
    holds."""

    log10_lr: Optional[float]
    log10_lr_first_order: Optional[float]
    newton_steps: int
    sweeps: int
    max_rel_grad: float
    converged: bool
    calibrated: bool

    @property
    def note(self) -> str:
        """The route's note in a case report: the solver's work and the
        error bound where calibrated, else why the chain stands in."""
        if self.calibrated:
            return (
                f"known-population LR by the saddle point: {self.newton_steps} Newton steps, "
                f"{self.sweeps} sweeps, max|g/r| {self.max_rel_grad:.2g}; "
                f"error bound {SADDLE_LOG10_BOUND} log10"
            )
        if self.converged:
            why = (
                f"outside its calibrated regime (s1 < {_SADDLE_MIN_S1} "
                f"or correction > {_SADDLE_MAX_CORRECTION} log10)"
            )
        elif self.max_rel_grad <= _TILT_TOL:
            return _NO_FINITE_TILT
        else:
            why = f"without a converged tilt (max|g/r| {self.max_rel_grad:.2g})"
        return f"saddle point {why}; known-population LR from the chain"


def saddle_true_lr(
    part: IntegerPartition,
    p: PopulationVector,
    *,
    strict_support: bool = False,
) -> SaddleLrEstimate:
    """Known-population LR by a saddle-point expansion of the exact pass.

    Under the tilted independent law of ``exact_true_lr``, with the tilt
    at its saddle point (``_tilt``), rank i has class probabilities q_ij
    and the class counts N have mean r. The posterior mean of the
    singleton mass M = sum_i p_i [class of i is 1] is E[M | N = r]; to
    first order it is E M = sum_i p_i q_i1, and the second order adds an
    Edgeworth correction to that conditional mean (Barndorff-Nielsen &
    Cox 1979, JRSS B 41:279): with Sigma the class-count covariance,
    S = Sigma^-1, beta = S Cov(M, N) and eps = M - beta . N, it subtracts
    1/2 sum_jk S_jk kappa(eps, N_j, N_k), the third cumulants summed over
    ranks, in (G, J) and (J, J) arrays over the rank groups.

    The expansion needs enough singletons and a correction that stays a
    correction: ``calibrated`` holds when the tilt converged, s1 >= 10 and
    the second order moves the first by at most 0.008 log10. There, on
    in-budget instances (``crp_sample`` censuses of 500-5000 people, PD
    alpha 0.1-0.9 and theta 1-300, samples of 30-200, both support rules),
    the second-order log10 LR stayed within SADDLE_LOG10_BOUND of the exact
    pass: the worst error was 0.0038 over 1,359 such instances (of 1,480
    drawn) and 0.00075 over 40 Dutch-101 replicates, where the first order
    alone was off by up to 0.0101 and 0.0066. Raises
    InfeasibleAssignmentError when no assignment fits the census; a tilt
    with no finite saddle point or one that does not converge in its step
    cap gives no value.
    """
    return _saddle(part, *_rank_groups(part, p, strict_support))


def _saddle(part: IntegerPartition, groups: _RankGroups, eta0: np.ndarray) -> SaddleLrEstimate:
    """``saddle_true_lr`` past its prelude, on the record it built."""
    tilt = _tilt(groups, part.r, eta0)
    first = second = None
    if tilt.converged:
        mass_1, mass_2 = _saddle_masses(groups, tilt)
        first = math.log10(part.s1 / mass_1)
        if mass_2 > 0.0:
            second = math.log10(part.s1 / mass_2)
    calibrated = (
        second is not None
        and part.s1 >= _SADDLE_MIN_S1
        and abs(second - first) <= _SADDLE_MAX_CORRECTION
    )
    return SaddleLrEstimate(
        log10_lr=second,
        log10_lr_first_order=first,
        newton_steps=tilt.steps,
        sweeps=tilt.sweeps,
        max_rel_grad=tilt.max_rel_grad,
        converged=tilt.converged,
        calibrated=calibrated,
    )


def _route_true_lr(part: IntegerPartition, p: PopulationVector, strict: bool):
    """(The saddle point's log10 LR, or None for the chain, and the notes)."""
    groups, eta0 = _rank_groups(part, p, strict)
    if _exact_fits(groups, part.r):
        return None, ()
    if (groups.need == groups.room).any():
        return None, (_NO_FINITE_TILT,)
    est = _saddle(part, groups, eta0)
    return (est.log10_lr if est.calibrated else None), (est.note,)


def _saddle_masses(groups: _RankGroups, tilt: _Tilt) -> tuple[float, float]:
    """First- and second-order E[singleton mass | counts = r] at the
    saddle point (see ``saddle_true_lr``)."""
    q, sigma = tilt.q, tilt.cov
    m, p = groups.mult, groups.p
    mq = m[:, None] * q
    first = float(mq[:, 0] @ p)
    # a count with little variance (a class that one rank nearly surely
    # takes) equals r with probability near 1, and its lattice law is far
    # from Gaussian: it is left out of the conditioning. So, in effect, is
    # any combination of counts whose variance has underflowed (classes
    # that surely share out the same few ranks): against the ridge on the
    # Jacobi-scaled covariance, such a direction weighs nothing
    var = np.diag(sigma)
    d = np.where(var > _SADDLE_MIN_VAR, 1.0 / np.sqrt(np.maximum(var, _SADDLE_MIN_VAR)), 0.0)
    scaled = sigma * np.outer(d, d) + _SADDLE_RIDGE * np.eye(d.size)
    s = d[:, None] * np.linalg.inv(scaled) * d
    # Cov(M, N_k) = sum_i p_i (q_i1 [k = 1] - q_i1 q_ik)
    cov = -_gram(q, mq[:, 0] * p)
    cov[0] += first
    beta = s @ cov
    # a rank in class c adds u_c = p [c = 1] - beta_c to eps
    u = np.tile(-beta, (q.shape[0], 1))
    u[:, 0] += p
    qu = q * u
    qu_sum = qu.sum(axis=1)
    s_diag = np.diag(s)
    qs = _row_product(q, s)
    # sum_jk S_jk kappa(eps_i, X_ij, X_ik) for one rank of each group, X one-hot
    kappa = (
        _row_product(qu, s_diag)
        - qu_sum * _row_product(q, s_diag)
        - 2.0 * (qs * qu).sum(axis=1)
        + 2.0 * qu_sum * (qs * q).sum(axis=1)
    )
    return first, first - 0.5 * float(m @ kappa)


def _exact_pass(groups: _RankGroups, tilt: _Tilt, r: tuple) -> float:
    """P(counts = r) / E[mass; counts = r] under independent rank classes.

    A group's ``mult`` ranks take classes in turn by its row of ``tilt.q0``
    (class 0, unobserved) and ``tilt.q``, and can carry only the first f
    observed classes, f its finite ``log_w``. f never rises with rank, so
    once it drops below class j no later rank fills that class: only the
    slice c_j = r_j can still reach counts r, and the pass keeps just that
    slice of z and mass from there on. Cost, measured: ~6 us a rank, plus
    4.5 ns for each of its f updates of prod_{j <= f}(r_j + 1) live states.
    """
    shape = tuple(r_j + 1 for r_j in r)
    z, mass = np.zeros(shape), np.zeros(shape)
    z[(0,) * len(shape)] = 1.0
    # class j's move fills one more of its slots: count c_j becomes c_j + 1
    leads = [(slice(None),) * j for j in range(len(shape))]
    moves = [(lead + (slice(0, -1),), lead + (slice(1, None),)) for lead in leads]
    live = len(shape)
    weights = np.column_stack([tilt.q0, tilt.q]).tolist()
    fits = np.isfinite(groups.log_w).sum(axis=1).tolist()
    for p_g, m_g, w, f in zip(groups.p.tolist(), groups.mult.tolist(), weights, fits):
        if f < live:
            full = (Ellipsis,) + tuple(r[f:live])
            z, mass, live = z[full], mass[full], f
        for _ in range(m_g):
            z_next, mass_next = w[0] * z, w[0] * mass
            for j, (src, dst) in enumerate(moves[:f]):
                z_next[dst] += w[j + 1] * z[src]
                # class 1 holds the singletons: such a rank adds p to the mass
                mass_next[dst] += w[j + 1] * (mass[src] + p_g * z[src] if j == 0 else mass[src])
            z, mass = z_next, mass_next
    return float(z[r[:live]] / mass[r[:live]])


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
    log10_lr_true_route: Optional[str] = None  # "saddle" or "mcmc"
    log10_lr_freq: Optional[float] = None
    diff1: Optional[float] = None
    diff2: Optional[float] = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        # the fields in declaration order, the notes as a JSON list
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "notes": list(self.notes)}
