"""Two-parameter Poisson-Dirichlet machinery.

The model is parametrized by a discount ``alpha`` in (0, 1) and a
concentration ``theta`` > -alpha. The partition law of an i.i.d. sample
from a ranked frequency vector with this prior is

    P(partition) = [theta+alpha]_{k-1;alpha} / [theta+1]_{n-1;1}
                   * prod_i [1-alpha]_{n_i-1;1}

with rising factorials [x]_{a;b} = prod_{i<a} (x + i*b), and it only
depends on the block-size multiset. One likelihood kernel evaluates its
logarithm with the gradient and Hessian in (alpha, theta); ``eppf_log``
and the fit in ``mle`` both call it. The value is closed-form: each long
rising factorial is a log-gamma difference, taken from an asymptotic
expansion free of cancellation once its argument reaches 10, so a value
costs O(J) for J distinct block sizes, not O(n + k), and the surface in
``mle`` evaluates a whole grid at once. The derivatives stay direct
sums over the n + k factors, because the digamma and trigamma
differences that would close them cancel catastrophically once theta
dwarfs the counts. The same law arises from the
sequential seating scheme: customer n+1 opens a new table with
probability (theta + k*alpha)/(n + theta) and joins table i with
probability (n_i - alpha)/(n + theta). ``crp_sample`` runs it without a
loop over customers: each uniform fixes the least table count at which
its customer would open a table, a loop over those integers alone
counts the tables, and the seats follow in numpy, with customers who
copy an earlier joiner's table resolved by pointer doubling. Every
float it compares is the one-customer-at-a-time scheme's, so the plans
are that scheme's, bit for bit.

All probability computation is done in log space; exponentiation happens
only at interfaces (n near 2*10^4 underflows direct products).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence, Union

import numpy as np
from scipy.special import digamma, gammaln, zeta

from .partitions import (
    IntegerPartition,
    SetPartition,
    as_integer_partition,
    reduce_sample,
)
from .rng import SeedLike, as_generator

__all__ = [
    "PdParams",
    "PopulationVector",
    "SeatingPlan",
    "eppf_log",
    "crp_sample",
    "gem_stick_breaking",
    "powerlaw_reference",
    "ranked_frequencies",
]

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class PdParams:
    """Discount/concentration pair; construction enforces the domain."""

    alpha: float
    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.theta)):
            raise ValueError("parameters must be finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.theta > -self.alpha:
            raise ValueError(f"theta must exceed -alpha ({-self.alpha}), got {self.theta}")


@dataclass(frozen=True)
class PopulationVector:
    """Finite truncation of a ranked population frequency vector.

    ``probs`` is nonincreasing, strictly positive and sums to 1 within
    1e-12. ``pop_size`` is the number of individuals behind the
    frequencies; the assignment-space oracle requires it, synthetic
    stick-breaking draws leave it unset. ``tail_mass`` records the
    pre-normalization mass lost to truncation when known.
    """

    probs: tuple[float, ...]
    pop_size: Optional[int] = None
    tail_mass: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValueError("population must list at least one type")
        if any(p <= 0 for p in self.probs):
            raise ValueError("population frequencies must be positive")
        if any(self.probs[i] < self.probs[i + 1] for i in range(len(self.probs) - 1)):
            raise ValueError("population frequencies must be nonincreasing")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"population frequencies must sum to 1 (got {total!r})")
        if self.pop_size is not None and self.pop_size < 1:
            raise ValueError("pop_size must be a positive count")

    @property
    def m(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    def to_dict(self) -> dict:
        d: dict = {"probs": list(self.probs)}
        if self.pop_size is not None:
            d["pop_size"] = self.pop_size
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PopulationVector":
        return cls(probs=tuple(float(p) for p in d["probs"]), pop_size=d.get("pop_size"))


@dataclass(frozen=True)
class SeatingPlan:
    """Sequential seating outcome: assignments[i] is the (1-based) table of customer i+1."""

    assignments: tuple[int, ...]
    table_counts: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if not self.assignments or self.assignments[0] != 1:
            raise ValueError("the first customer sits at table 1")
        ys = np.fromiter(self.assignments, np.int64, count=len(self.assignments))
        # each customer sits at an open table or opens the next one
        if (ys < 1).any() or (ys[1:] > np.maximum.accumulate(ys)[:-1] + 1).any():
            raise ValueError("table indices must be created in order")
        if int(ys.max()) != self.k or not np.array_equal(np.bincount(ys)[1:], self.table_counts):
            raise ValueError("table counts inconsistent with assignments")

    @classmethod
    def from_assignments(cls, ys: Sequence[int]) -> "SeatingPlan":
        ys = tuple(int(y) for y in ys)
        k = max(ys) if ys else 0
        counts = Counter(ys)
        return cls(assignments=ys, table_counts=tuple(counts[i] for i in range(1, k + 1)), k=k)

    @property
    def n(self) -> int:
        return len(self.assignments)

    def to_set_partition(self) -> SetPartition:
        return reduce_sample(self.assignments)


def _loglik_terms(part: IntegerPartition):
    """Precompute the arrays the likelihood kernel needs."""
    a = np.asarray(part.a, dtype=float)
    r = np.asarray(part.r, dtype=float)
    big = a > 1
    return part.n, part.k, a[big], r[big]


def _stirling_tail(y):
    """log Gamma(y) - (y - 1/2) log y + y - log(2 pi) / 2 for y >= 10.

    The first six terms of the asymptotic series (Abramowitz & Stegun
    6.1.41); the first omitted one, 1 / (156 y^13), is below 1e-15 there.
    """
    w = 1.0 / y
    z = w * w
    inner = 1 / 1680 - z * (1 / 1188 - z * 691 / 360360)
    return w * (1 / 12 - z * (1 / 360 - z * (1 / 1260 - z * inner)))


def _log_rising(x, k):
    """log Gamma(x + k) - log Gamma(x) = sum_{i<k} log(x + i), elementwise.

    For x >= 10 the difference of two Stirling expansions, arranged as
    (x - 1/2) log1p(k/x) + k (log(x + k) - 1) plus the difference of the
    tails, has no cancellation: gammaln differences lose their digits when
    x dwarfs k (3e-12 relative at x = 1e9, k = 3750; 6e-5 at x = 1e12,
    k = 1). For x < 10 the gammaln difference is exact enough. Needs
    x > 0 and k >= 0.
    """
    x = np.asarray(x, dtype=float)
    small = np.minimum(x, 10.0)  # each branch sees only arguments it handles
    big = np.maximum(x, 10.0)
    y = big + k
    stirling = (big - 0.5) * np.log1p(k / big) + k * (np.log(y) - 1.0)
    stirling += _stirling_tail(y) - _stirling_tail(big)
    return np.where(x < 10.0, gammaln(small + k) - gammaln(small), stirling)


# elements per temporary in the block-size term of ``_loglik_value``
_BLOCK_CHUNK = 1 << 14


def _loglik_value(n, k, a_big, r_big, alpha, theta):
    """Partition log-likelihood at arrays of (alpha, theta) in the open domain.

    [theta+alpha]_{k-1;alpha} = alpha^(k-1) [theta/alpha + 1]_{k-1;1}, so
    both long rising factorials are ``_log_rising`` values. The block-size
    term sum_j r_j log [1-alpha]_{a_j-1;1} is accumulated over chunks of
    the J distinct sizes: one chunk for a single point, and no temporary
    of more than about ``_BLOCK_CHUNK`` elements for a fine grid.
    """
    alpha = np.asarray(alpha, dtype=float)
    val = (k - 1) * np.log(alpha) + _log_rising(theta / alpha + 1.0, k - 1)
    val -= _log_rising(theta + 1.0, n - 1)
    step = max(1, _BLOCK_CHUNK // max(alpha.size, 1))
    for s in range(0, a_big.size, step):
        val += gammaln(a_big[s : s + step] - alpha[..., None]) @ r_big[s : s + step]
    return val - r_big.sum() * gammaln(1.0 - alpha)


def _loglik_and_grad(n, k, a_big, r_big, alpha, theta):
    """Partition log-likelihood and its gradient in (alpha, theta).

    The value is ``_loglik_value``'s closed form. The gradient sums its
    n + k - 2 terms directly: the digamma differences that would close it
    cancel catastrophically once theta dwarfs the counts, and no
    asymptotic form of them is kept. Returns (-inf, 0, 0) outside the
    open domain.
    """
    if not (0.0 < alpha < 1.0 and theta > -alpha) or not math.isfinite(theta):
        return -math.inf, 0.0, 0.0
    val = float(_loglik_value(n, k, a_big, r_big, alpha, theta))
    g_alpha = 0.0
    g_theta = 0.0
    if k > 1:
        i = np.arange(1.0, k)
        inv = 1.0 / (theta + alpha * i)
        g_theta += float(inv.sum())
        g_alpha += float((i * inv).sum())
    g_theta -= float((1.0 / (theta + np.arange(1.0, n))).sum())
    if a_big.size:
        g_alpha += float(r_big @ (digamma(1.0 - alpha) - digamma(a_big - alpha)))
    return val, g_alpha, g_theta


def _loglik_hess(n, k, a_big, r_big, alpha, theta) -> np.ndarray:
    """Second derivatives of the partition log-likelihood in (alpha, theta).

    Sums of i^p / (theta + alpha i)^2 (p = 0, 1, 2) and 1 / (theta + i)^2,
    plus trigamma terms for the block-size products (the Hurwitz zeta
    zeta(2, x) is the trigamma function, at a fraction of polygamma's
    cost). Returns zeros outside the open domain, as ``_loglik_and_grad``
    returns a zero gradient.
    """
    if not (0.0 < alpha < 1.0 and theta > -alpha) or not math.isfinite(theta):
        return np.zeros((2, 2))
    h_aa = h_at = h_tt = 0.0
    if k > 1:
        i = np.arange(1.0, k)
        inv2 = 1.0 / (theta + alpha * i) ** 2
        h_tt -= float(inv2.sum())
        h_at -= float((i * inv2).sum())
        h_aa -= float((i * i * inv2).sum())
    h_tt += float((1.0 / (theta + np.arange(1.0, n)) ** 2).sum())
    if a_big.size:
        h_aa += float(r_big @ (zeta(2.0, a_big - alpha) - zeta(2.0, 1.0 - alpha)))
    return np.array([[h_aa, h_at], [h_at, h_tt]])


def eppf_log(pi: Union[IntegerPartition, SetPartition], params: PdParams) -> float:
    """Log probability of a partition under the sampling formula.

    Depends only on the block-size multiset, never on labels or block
    order: it is the likelihood kernel's value at ``params``.
    """
    terms = _loglik_terms(as_integer_partition(pi))
    return _loglik_and_grad(*terms, params.alpha, params.theta)[0]


def _opening_thresholds(
    u: np.ndarray, levels: np.ndarray, theta: float, alpha: float
) -> np.ndarray:
    """searchsorted(levels, u, side="right"): the least k with u < levels[k].

    ``levels[k]`` is theta + k*alpha, so the quotient (u - theta)/alpha
    guesses it; rounding in ``levels`` can put the guess off by several
    places (up to 10 at alpha = 1e-13, theta = 1e4), so every guess is
    checked against its bracket levels[e-1] <= u < levels[e] and only the
    ones that fail are searched. The quotient is clipped before the cast,
    so alpha near 0 cannot overflow it.
    """
    n = levels.size
    with np.errstate(over="ignore"):
        quotient = np.clip((u - theta) / alpha, -1.0, n - 1.0)
    e = np.floor(quotient).astype(np.int64) + 1
    padded = np.concatenate(([-np.inf], levels, [np.inf]))
    off = (u < padded[e]) | (u >= padded[e + 1])
    if off.any():
        e[off] = np.searchsorted(levels, u[off], side="right")
    return e


def crp_sample(n: int, params: PdParams, seed: SeedLike = None) -> SeatingPlan:
    """Run the seating scheme for ``n`` customers. Deterministic given seed.

    Customer t+1 (t = 1..n-1) draws u_t uniform on [0, t + theta). With k
    tables open, it opens a new one if u_t < theta + k*alpha. Otherwise
    v = u_t - (theta + k*alpha) seats it: a table's weight n_i - alpha
    splits into (n_i - 1) + (1 - alpha), so for v < t - k it copies the
    table of earlier joiner number int(v), and else it picks table
    int((v - (t - k))/(1 - alpha)) + 1.

    Only the table count is sequential. Since theta + k*alpha never falls
    as k grows, customer t+1 opens a table exactly when k >= e_t, the
    least k whose level exceeds u_t, and the integers e_t come from one
    vectorised threshold pass. A loop over them counts the tables; every
    seat then follows in numpy from the same floating-point expressions
    as the customer-by-customer scheme, and copiers resolve by pointer
    doubling (a copier points at an earlier customer). So the plan is the
    scheme's, bit for bit, and the uniforms are drawn up front: a shared
    Generator advances exactly as by ``rng.random(n - 1)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    alpha, theta = params.alpha, params.theta
    u = rng.random(n - 1) * (np.arange(1, n) + theta)  # u[t - 1] is customer t+1's
    levels = theta + np.arange(n) * alpha
    openers = [0]
    k = 1
    for i, e_i in enumerate(_opening_thresholds(u, levels, theta, alpha).tolist(), start=1):
        if k >= e_i:
            k += 1
            openers.append(i)
    opens = np.zeros(n, dtype=bool)
    opens[openers] = True
    # ys[t] counts the tables open once customer t+1 sits: an opener's table
    ys = np.cumsum(opens)
    t = np.flatnonzero(~opens)  # the joiners, in joining order
    k_t = ys[t - 1]
    v = u[t - 1] - levels[k_t]
    before = t - k_t  # joiners seated before customer t+1
    copies = v < before
    picks = ~copies
    # the scheme's min(int(w), k - 1) + 1, with the min taken first so no huge w is cast
    picked = np.minimum((v[picks] - before[picks]) / (1.0 - alpha), k_t[picks] - 1)
    ys[t[picks]] = picked.astype(np.int64) + 1
    # a copier points at the joiner it copies; follow the pointers to a seated one
    ptr = np.arange(n)
    ptr[t[copies]] = t[v[copies].astype(np.int64)]
    hops = ptr[ptr]
    while not np.array_equal(hops, ptr):
        ptr, hops = hops, hops[hops]
    ys = ys[ptr]
    return SeatingPlan(
        assignments=tuple(ys.tolist()), table_counts=tuple(np.bincount(ys)[1:].tolist()), k=k
    )


def gem_stick_breaking(params: PdParams, m: int, seed: SeedLike = None) -> PopulationVector:
    """Truncated stick-breaking draw, ranked and renormalized.

    Breaks V_i ~ Beta(1-alpha, theta + i*alpha), sets W_i = V_i *
    prod_{j<i} (1-V_j), sorts nonincreasing and renormalizes the truncated
    mass to one. The pre-normalization tail mass 1 - sum(W) is kept on the
    result as a truncation diagnostic.
    """
    if m < 1:
        raise ValueError("truncation length must be >= 1")
    rng = as_generator(seed)
    i = np.arange(1, m + 1, dtype=float)
    v = rng.beta(1.0 - params.alpha, params.theta + i * params.alpha)
    leftovers = np.concatenate(([1.0], np.cumprod(1.0 - v)[:-1]))
    w = np.sort(v * leftovers)[::-1]
    w = np.maximum(w, 1e-300)  # keep the positivity invariant in degenerate float cases
    total = w.sum()
    tail = max(0.0, 1.0 - total)
    probs = w / total
    return PopulationVector(probs=tuple(float(p) for p in probs), pop_size=None, tail_mass=tail)


def powerlaw_reference(alpha: float, ranks: Iterable[int]) -> list[tuple[int, float]]:
    """Reference curve i -> i^(-1/alpha): slope -1/alpha on log-log axes.

    Unnormalized, meant as a plot overlay against ranked frequencies.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    out = []
    for i in ranks:
        if i < 1:
            raise ValueError("ranks must be >= 1")
        out.append((int(i), float(i) ** (-1.0 / alpha)))
    return out


RankedInput = Union[SeatingPlan, SetPartition, IntegerPartition, Sequence[Hashable]]


def ranked_frequencies(x: RankedInput) -> np.ndarray:
    """Relative block frequencies, largest first; sums to 1."""
    if isinstance(x, SeatingPlan):
        sizes = x.table_counts
    elif isinstance(x, IntegerPartition):
        sizes = x.sizes_desc()
    else:
        # a label sequence reduces to its set partition, rejecting an empty one
        sizes = (x if isinstance(x, SetPartition) else reduce_sample(x)).block_sizes()
    sizes = np.asarray(sizes, dtype=float)
    return np.sort(sizes)[::-1] / sizes.sum()
