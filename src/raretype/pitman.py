"""Two-parameter Poisson-Dirichlet machinery.

The model is parametrized by a discount ``alpha`` in (0, 1) and a
concentration ``theta`` > -alpha. The partition law of an i.i.d. sample
from a ranked frequency vector with this prior is

    P(partition) = [theta+alpha]_{k-1;alpha} / [theta+1]_{n-1;1}
                   * prod_i [1-alpha]_{n_i-1;1}

with rising factorials [x]_{a;b} = prod_{i<a} (x + i*b), and it only
depends on the block-size multiset. Its logarithm has a closed form
in numpy alone: each long rising factorial is a log-gamma difference,
taken from a Stirling expansion free of cancellation once its argument
reaches 10 (the first factors below 10 are summed as logs), and the
block-size term is sum_i c_i log(i - alpha), c_i counting the blocks
larger than i, up to i = 64, with a Stirling log-gamma for each larger
size. The counts c take O(max a) to build, once per partition; a grid
point then costs O(64 + J) for the J distinct block sizes above 65,
not O(n + k), and a grid is a dense array of logs that numpy vectorises.
``eppf_log``, the start scan and the surface in ``mle`` evaluate it
alone, the surface over a whole grid at once. The Newton search in
``mle`` calls one kernel that returns the value with the gradient and
Hessian in (alpha, theta) from one pass. Its sums over the n - 1
customers are digamma and trigamma differences arranged so that nothing
cancels; those over the k tables and the block sizes' max a - 1 stay
direct sums. The same law arises
from the sequential seating scheme: customer n+1 opens a new table with
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
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .partitions import IntegerPartition, SetPartition, _are_integers
from .rng import SeedLike

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
    # the checked frequencies as a read-only float array, built once
    _probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValueError("population must list at least one type")
        probs = np.array(self.probs, dtype=float)
        # every comparison with NaN is False, so finiteness comes first
        if not np.isfinite(probs).all():
            raise ValueError("population frequencies must be finite")
        if not (probs > 0.0).all():
            raise ValueError("population frequencies must be positive")
        if (probs[:-1] < probs[1:]).any():
            raise ValueError("population frequencies must be nonincreasing")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"population frequencies must sum to 1 (got {total!r})")
        if self.pop_size is not None:
            if not _are_integers((self.pop_size,)):
                raise ValueError(f"pop_size must be an integer count, got {self.pop_size!r}")
            if self.pop_size < 1:
                raise ValueError("pop_size must be a positive count")
        probs.flags.writeable = False
        object.__setattr__(self, "_probs", probs)

    @property
    def m(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        """The frequencies as a float array, read-only and shared between calls."""
        return self._probs

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
    # the checked partition, built once; k and the table counts come from it
    _partition: SetPartition = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # each customer sits at an open table or opens the next one: the
        # assignments are a restricted growth string
        object.__setattr__(self, "_partition", SetPartition(self.assignments))

    @property
    def n(self) -> int:
        return len(self.assignments)

    @property
    def k(self) -> int:
        return self._partition.k

    @property
    def table_counts(self) -> tuple[int, ...]:
        return self._partition.block_sizes()

    def to_set_partition(self) -> SetPartition:
        """The plan's partition; the assignments are its label string, uncopied."""
        return self._partition


# on a grid, block sizes up to this + 1 enter the block-size term as logs
_DENSE_SIZES = 64


def _loglik_terms(part: IntegerPartition):
    """Precompute, once per partition, what the likelihood kernel needs:
    (n, k, c, (a_large, r_large)).

    c[i-1] counts the blocks larger than i, for i = 1 .. max a - 1, so the
    block-size term sum_j r_j log [1-alpha]_{a_j-1;1} is the dense sum
    sum_i c_i log(i - alpha). A grid evaluation splits it at
    D = min(64, max a - 1): the logs up to i = D, then, for the sizes
    a_large > D + 1 (so D = 64), r_large blocks of
    log Gamma(a - alpha) - log Gamma(D + 1 - alpha) each.
    """
    a = np.asarray(part.a, dtype=np.int64)
    r = np.asarray(part.r, dtype=float)
    # blocks by size - 1; c_i sums those at i and above
    c = np.cumsum(np.bincount(a - 1, weights=r)[::-1])[::-1][1:]
    large = a > _DENSE_SIZES + 1
    return part.n, part.k, c, (a[large].astype(float), r[large])


def _stirling_tail(y):
    """log Gamma(y) - (y - 1/2) log y + y - log(2 pi) / 2 for y >= 10.

    The first six terms of the asymptotic series (Abramowitz & Stegun
    6.1.41); the first omitted one, 1 / (156 y^13), is below 1e-15 there.
    """
    w = 1.0 / y
    z = w * w
    inner = 1 / 1680 - z * (1 / 1188 - z * 691 / 360360)
    return w * (1 / 12 - z * (1 / 360 - z * (1 / 1260 - z * inner)))


def _stirling_rising(x, k):
    """log Gamma(x + k) - log Gamma(x) for x >= 10, elementwise.

    The difference of two Stirling expansions, arranged as
    (x - 1/2) log1p(k/x) + k (log(x + k) - 1) plus the difference of the
    tails, has no cancellation: log-gamma differences lose their digits
    when x dwarfs k (3e-12 relative at x = 1e9, k = 3750; 6e-5 at
    x = 1e12, k = 1).
    """
    y = x + k
    out = (x - 0.5) * np.log1p(k / x) + k * (np.log(y) - 1.0)
    return out + (_stirling_tail(y) - _stirling_tail(x))


def _log_gamma_large(y):
    """log Gamma(y) - log(2 pi) / 2 for y >= 64, elementwise.

    Stirling's series to its 1/(1260 y^5) term; the first omitted one,
    1/(1680 y^7), is below 5e-16 there.
    """
    w = 1.0 / y
    z = w * w
    return (y - 0.5) * np.log(y) - y + w * (1 / 12 - z * (1 / 360 - z / 1260))


# the first factors of a rising factorial from below 10, summed as logs
_HEAD = np.arange(10.0)


def _log_rising(x, k):
    """log Gamma(x + k) - log Gamma(x) = sum_{i<k} log(x + i), elementwise.

    From x >= 10 it is ``_stirling_rising``. Below 10 the first min(k, 10)
    logs are summed and the Stirling difference continues from x + 10.
    Needs x > 0 and k >= 0.
    """
    x = np.asarray(x, dtype=float)[()]  # one point as a numpy scalar, whose arithmetic is cheaper
    small = x < 10.0
    if not np.count_nonzero(small):
        return _stirling_rising(x, k)
    shift = np.where(small, np.minimum(k, 10), 0)
    # log(1) = 0 stands in for the factors past the shift
    logs = np.log(np.where(_HEAD < shift[..., None], x[..., None] + _HEAD, 1.0))
    # where k - shift = 0 the difference is 0 from any start >= 10
    return logs.sum(axis=-1) + _stirling_rising(np.maximum(x + shift, 10.0), k - shift)


def _rising_terms(n, k, alpha, theta):
    """log [theta+alpha]_{k-1;alpha} - log [theta+1]_{n-1;1}, elementwise.

    [theta+alpha]_{k-1;alpha} = alpha^(k-1) [theta/alpha + 1]_{k-1;1}, so
    both are ``_log_rising`` values.
    """
    val = (k - 1) * np.log(alpha) + _log_rising(theta / alpha + 1.0, k - 1)
    return val - _log_rising(theta + 1.0, n - 1)


def _block_value(c, large, alpha):
    """The block-size term at a 1-d array of alpha, split as in
    ``_loglik_terms``: sum_{i<=D} c_i log(i - alpha), plus a difference of
    two ``_log_gamma_large`` values for each size above D + 1. Its
    rounding error, a few ulp of log Gamma(a - alpha), is small against
    that block's whole term, which includes the first D logs."""
    dense = c[:_DENSE_SIZES]
    logs = np.log(np.arange(1.0, dense.size + 1)[:, None] - alpha)
    logs[:1] = np.log1p(-alpha)  # rounding 1 - alpha would cost a small alpha its digits
    val = dense @ logs
    big, r_big = large
    if big.size:
        val += r_big @ _log_gamma_large(big[:, None] - alpha)
        val -= r_big.sum() * _log_gamma_large(_DENSE_SIZES + 1.0 - alpha)
    return val


# grid points per pass of ``_loglik_value``: its temporaries hold about
# 64 + J_large + 10 doubles a point (J_large distinct block sizes above 65,
# and the first factors ``_log_rising`` sums), 300 KB a chunk when
# J_large = 0. On a 41x41 surface 512-point chunks measured 0.6x the time
# of 2048-point ones
_GRID_CHUNK = 512


def _loglik_value(n, k, c, large, alpha, theta):
    """Partition log-likelihood at arrays of (alpha, theta) in the open domain.

    ``_rising_terms`` plus ``_block_value``, over chunks of ``_GRID_CHUNK``
    points, so no temporary grows with the grid.
    """
    alpha, theta = np.broadcast_arrays(np.asarray(alpha, dtype=float), theta)
    flat_alpha, flat_theta = alpha.ravel(), theta.ravel()
    out = np.empty(alpha.size)
    for s in range(0, alpha.size, _GRID_CHUNK):
        a, t = flat_alpha[s : s + _GRID_CHUNK], flat_theta[s : s + _GRID_CHUNK]
        out[s : s + _GRID_CHUNK] = _rising_terms(n, k, a, t) + _block_value(c, large, a)
    return out.reshape(alpha.shape)


def _block_dense(c, alpha):
    """The block-size term at one alpha as its dense sum over all max a - 1
    factors, with its first two alpha-derivatives, -sum c_i / (i - alpha)^q.
    All are pairwise sums, so their rounding stays near a few ulp."""
    steps = np.arange(1.0, c.size + 1) - alpha
    logs = np.log(steps)
    logs[:1] = math.log1p(-alpha)
    weighted = c / steps
    return float((c * logs).sum()), -float(weighted.sum()), -float((weighted / steps).sum())


# ``_rising_sums`` adds its first terms one by one until x + i reaches this
_SUMS_FROM = 16.0


def _psi_tails(z: float) -> tuple[float, float]:
    """T(z) = log z - 1/(2z) - psi(z) and U(z) = psi'(z) - 1/z - 1/(2z^2)
    for z >= 16, each to its B_12 term (A&S 6.3.18, 6.4.12)."""
    w = 1.0 / (z * z)
    t = 1 / 240 - w * (1 / 132 - w * 691 / 32760)
    t = w * (1 / 12 - w * (1 / 120 - w * (1 / 252 - w * t)))
    u = 1 / 30 - w * (5 / 66 - w * 691 / 2730)
    u = w / z * (1 / 6 - w * (1 / 30 - w * (1 / 42 - w * u)))
    return t, u


def _rising_sums(x: float, k: int) -> tuple[float, float]:
    """sum_{i<k} 1/(x + i) and sum_{i<k} 1/(x + i)^2 for x > 0, k >= 0:
    the first two x-derivatives of ``_log_rising(x, k)``, up to sign.

    The terms below x + i = 16 are added directly. From there on the sums
    are the differences psi(y) - psi(x) and psi'(x) - psi'(y), y = x + k,
    of the asymptotic series (``_psi_tails``), arranged as
    log1p(k/x) + k/(2xy) - (T(y) - T(x)) and
    k/(xy) + k(x + y)/(2x^2 y^2) + (U(x) - U(y)). T and U fall with z, so
    every part is positive and nothing cancels, whatever x and k; the
    series' first omitted terms are below 3e-16 of the sums from z = 16.
    Both stay within a few ulp of ``math.fsum`` over the terms.
    """
    head = []
    while len(head) < k and x + len(head) < _SUMS_FROM:
        head.append(x + len(head))
    head1 = math.fsum(1.0 / z for z in head)
    head2 = math.fsum(1.0 / (z * z) for z in head)
    i = len(head)
    if i == k:
        return head1, head2
    x, k = x + i, k - i
    y = x + k
    (t_x, u_x), (t_y, u_y) = _psi_tails(x), _psi_tails(y)
    xy = x * y
    sum1 = math.log1p(k / x) + k / (2.0 * xy) - (t_y - t_x)
    sum2 = k / xy + k * (x + y) / (2.0 * xy * xy) + (u_x - u_y)
    return head1 + sum1, head2 + sum2


def _loglik_derivs(n, k, c, large, alpha, theta):
    """Partition log-likelihood with its gradient and Hessian in (alpha, theta).

    At one point the block-size term is cheapest as ``_block_dense`` (the
    large-size split, ``large``, serves grids only); the rising factorials
    are ``_rising_terms``. The theta-derivatives of
    log [theta+1]_{n-1;1} are ``_rising_sums``. The k - 1 terms
    i^p / (theta + alpha i)^q and the block sizes' c_i / (i - alpha)^q are
    summed directly, each array built once: the digamma forms of the
    i-weighted sums cancel catastrophically once theta dwarfs the counts.
    Returns (-inf, zeros, zeros) outside the open domain.
    """
    if not (0.0 < alpha < 1.0 and theta > -alpha) or not math.isfinite(theta):
        return -math.inf, np.zeros(2), np.zeros((2, 2))
    block, g_alpha, h_aa = _block_dense(c, alpha)
    val = float(_rising_terms(n, k, alpha, theta)) + block
    g_theta = h_at = h_tt = 0.0
    if k > 1:
        i = np.arange(1.0, k)
        steps = theta + alpha * i
        inv = 1.0 / steps
        g_theta += float(inv.sum())
        g_alpha += float((i * inv).sum())
        inv2 = 1.0 / steps**2
        h_tt -= float(inv2.sum())
        h_at -= float((i * inv2).sum())
        h_aa -= float((i * i * inv2).sum())
    sum1, sum2 = _rising_sums(theta + 1.0, n - 1)
    g_theta -= sum1
    h_tt += sum2
    return val, np.array([g_alpha, g_theta]), np.array([[h_aa, h_at], [h_at, h_tt]])


def eppf_log(part: IntegerPartition, params: PdParams) -> float:
    """Log probability of a partition with these block sizes under the
    sampling formula: the closed-form log-likelihood at ``params``, whose
    domain ``PdParams`` enforces.
    """
    return float(_loglik_value(*_loglik_terms(part), params.alpha, params.theta))


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
    rng = np.random.default_rng(seed)
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
    return SeatingPlan(tuple(ys[ptr].tolist()))


def gem_stick_breaking(params: PdParams, m: int, seed: SeedLike = None) -> PopulationVector:
    """Truncated stick-breaking draw, ranked and renormalized.

    Breaks V_i ~ Beta(1-alpha, theta + i*alpha), sets W_i = V_i *
    prod_{j<i} (1-V_j), sorts nonincreasing and renormalizes the truncated
    mass to one. The pre-normalization tail mass 1 - sum(W) is kept on the
    result as a truncation diagnostic.
    """
    if m < 1:
        raise ValueError("truncation length must be >= 1")
    rng = np.random.default_rng(seed)
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


def ranked_frequencies(sizes: Sequence[int]) -> np.ndarray:
    """Relative frequencies of these block sizes, largest first; sums to 1."""
    sizes = np.asarray(sizes, dtype=float)
    return np.sort(sizes)[::-1] / sizes.sum()
