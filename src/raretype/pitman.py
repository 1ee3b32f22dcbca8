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
larger than i. Its first seven factors stay logs; from i = 8 on,
log(i - alpha) = log i - sum_m (alpha/i)^m / m, so the rest is a
polynomial in alpha whose 22 coefficients are built once per partition
in O(22 max a). The terms it drops are below 8^-22 of the first one's
for any alpha in (0, 1), and every term has one sign, so nothing
cancels. A grid point then costs 7 logs and a Horner pass, not
O(n + k). The start scan and the surface in ``mle`` evaluate the value
alone over a whole grid at once, ``eppf_log`` at one point. The
Newton search in ``mle`` calls one kernel that returns the value with
the gradient and Hessian in (alpha, theta) from one pass; the block
term's alpha-derivatives come from the same coefficients. Its sums over
the n - 1 customers are digamma and trigamma differences arranged so
that nothing cancels; those over the k tables stay direct sums. The
same law arises from the sequential seating scheme: customer n+1 opens
a new table with probability (theta + k*alpha)/(n + theta) and joins
table i with probability (n_i - alpha)/(n + theta). ``crp_sample`` runs
it with a loop over only the customers who can open a table: a bound
on the tables open before each customer, one vectorised pass, rules
the others out. The seats then follow in numpy, with customers who
copy an earlier joiner's table resolved by pointer doubling. Every
float it compares is the one-customer-at-a-time scheme's, so the plans
are that scheme's, bit for bit.

All probability computation is done in log space; exponentiation happens
only at interfaces (n near 2*10^4 underflows direct products).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .partitions import IntegerPartition, SetPartition, _are_integers, _integer_sizes
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
    # each run of equal frequencies' first rank (0-based) and length, for lr
    _runs: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

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
            object.__setattr__(self, "pop_size", int(self.pop_size))
        probs.flags.writeable = False
        object.__setattr__(self, "_probs", probs)
        starts = np.flatnonzero(np.r_[True, probs[1:] != probs[:-1]])
        object.__setattr__(self, "_runs", (starts, np.diff(np.r_[starts, probs.size])))

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


class SeatingPlan(SetPartition):
    """Sequential seating outcome: assignments[i] is the (1-based) table of
    customer i+1. Each customer sits at an open table or opens the next
    one, so the assignments are a restricted growth string and the plan
    is the set partition of its customers by table."""

    def __init__(self, assignments: Sequence[int] | np.ndarray) -> None:
        super().__init__(assignments)

    @property
    def assignments(self) -> tuple[int, ...]:
        return self.labels

    @property
    def table_counts(self) -> tuple[int, ...]:
        return self.block_sizes()

    def to_set_partition(self) -> SetPartition:
        """The plan's partition: the plan itself."""
        return self

    def __repr__(self) -> str:
        return f"SeatingPlan(assignments={self.labels!r})"


# the block-size term keeps its first factors, i = 1 .. 7, as logs; from
# i = 8 on each log(i - alpha) is log i less a power series in alpha/i,
# cut after this many terms
_LOG_FACTORS = 7
_SERIES_TERMS = 22


@functools.lru_cache(maxsize=1)
def _loglik_terms(part: IntegerPartition):
    """Precompute, once per partition, what the likelihood kernel needs:
    (n, k, head, tail). The last partition's terms are kept, so a fit and
    the surface around it build them once; ``head`` and ``tail`` are
    read-only.

    With c_i the number of blocks larger than i, the block-size term
    sum_j r_j log [1-alpha]_{a_j-1;1} is B(alpha) = sum_i c_i log(i - alpha),
    i = 1 .. max a - 1. ``head`` holds c_1 .. c_7 (0 past max a - 1). From
    i = 8 on, log(i - alpha) = log i - sum_m (alpha/i)^m / m, so the rest of
    B is C0 - sum_{m<=22} alpha^m S_m / m with C0 = sum_{i>=8} c_i log i and
    S_m = sum_{i>=8} c_i i^-m; ``tail`` is (C0, S_1, .., S_22), each a
    pairwise sum. Every term of the series has one sign, so nothing
    cancels, and what the cut leaves out is below S_1 8^-22 (1.4e-20 S_1)
    for any alpha in (0, 1).
    """
    a = np.asarray(part.a, dtype=np.int64)
    # blocks by size - 1; c_i sums those at i and above
    c = np.cumsum(np.bincount(a - 1, weights=part.r)[::-1])[::-1][1:]
    head = np.zeros(_LOG_FACTORS)
    head[: c.size] = c[:_LOG_FACTORS]
    rest = c[_LOG_FACTORS:]
    i = np.arange(_LOG_FACTORS + 1.0, c.size + 1)
    inv = 1.0 / i
    tail = np.empty(_SERIES_TERMS + 1)
    tail[0] = (rest * np.log(i)).sum()
    for m in range(1, _SERIES_TERMS + 1):
        rest = rest * inv
        tail[m] = rest.sum()
    head.flags.writeable = tail.flags.writeable = False
    return part.n, part.k, head, tail


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


def _block_value(head, tail, alpha):
    """The block-size term at a 1-d array of alpha (see ``_loglik_terms``):
    the seven head logs, then the tail's series by Horner's rule."""
    logs = np.log(np.arange(1.0, _LOG_FACTORS + 1)[:, None] - alpha)
    logs[0] = np.log1p(-alpha)  # rounding 1 - alpha would cost a small alpha its digits
    series = np.zeros_like(alpha)
    for m in range(_SERIES_TERMS, 0, -1):
        series += tail[m] / m
        series *= alpha
    return head @ logs + (tail[0] - series)


# grid points per pass of ``_loglik_value``: its temporaries hold about
# 7 + 10 doubles a point (the head logs and the first factors
# ``_log_rising`` sums), 280 KB a chunk, so a 41x41 surface is one pass
_GRID_CHUNK = 2048


def _loglik_value(n, k, head, tail, alpha, theta):
    """Partition log-likelihood at arrays of (alpha, theta) in the open domain.

    ``_rising_terms`` plus ``_block_value``, over chunks of ``_GRID_CHUNK``
    points, so no temporary grows with the grid.
    """
    alpha, theta = np.broadcast_arrays(np.asarray(alpha, dtype=float), theta)
    flat_alpha, flat_theta = alpha.ravel(), theta.ravel()
    out = np.empty(alpha.size)
    for s in range(0, alpha.size, _GRID_CHUNK):
        a, t = flat_alpha[s : s + _GRID_CHUNK], flat_theta[s : s + _GRID_CHUNK]
        out[s : s + _GRID_CHUNK] = _rising_terms(n, k, a, t) + _block_value(head, tail, a)
    return out.reshape(alpha.shape)


def _block_derivs(head, tail, alpha: float) -> tuple[float, float, float]:
    """The block-size term at one alpha with its first two alpha-derivatives,
    -sum_i c_i / (i - alpha)^q, from the same head counts and series: the
    series' derivatives are -sum_m alpha^(m-1) S_m and
    -sum_m (m-1) alpha^(m-2) S_m, taken by Horner's rule with the value.
    Within each part every term has one sign."""
    value = grad = hess = 0.0
    for i, c_i in enumerate(head.tolist(), start=1):
        step = i - alpha
        value += c_i * (math.log1p(-alpha) if i == 1 else math.log(step))
        grad -= c_i / step
        hess -= c_i / (step * step)
    tail = tail.tolist()
    series = d1 = d2 = 0.0
    for m in range(_SERIES_TERMS, 0, -1):
        d2 = d2 * alpha + d1
        d1 = d1 * alpha + tail[m]
        series = (series + tail[m] / m) * alpha
    return value + (tail[0] - series), grad - d1, hess - d2


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


def _loglik_derivs(n, k, head, tail, alpha, theta):
    """Partition log-likelihood with its gradient and Hessian in (alpha, theta).

    The block-size term and its alpha-derivatives are ``_block_derivs``;
    the rising factorials are ``_rising_terms``. The theta-derivatives of
    log [theta+1]_{n-1;1} are ``_rising_sums``. The k - 1 terms
    i^p / (theta + alpha i)^q are summed directly, each array built once:
    the digamma forms of these i-weighted sums cancel catastrophically
    once theta dwarfs the counts.
    Returns (-inf, zeros, zeros) outside the open domain.
    """
    if not (0.0 < alpha < 1.0 and theta > -alpha) or not math.isfinite(theta):
        return -math.inf, np.zeros(2), np.zeros((2, 2))
    block, g_alpha, h_aa = _block_derivs(head, tail, alpha)
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
    domain ``PdParams`` enforces. One point takes the scalar path of the
    Newton kernel, not the grid's.
    """
    n, k, head, tail = _loglik_terms(part)
    alpha, theta = params.alpha, params.theta
    return float(_rising_terms(n, k, alpha, theta)) + _block_derivs(head, tail, alpha)[0]


def crp_sample(n: int, params: PdParams, seed: SeedLike = None) -> SeatingPlan:
    """Run the seating scheme for ``n`` customers. Deterministic given seed.

    Customer t+1 (t = 1..n-1) draws u_t uniform on [0, t + theta). With k
    tables open, it opens a new one if u_t < theta + k*alpha. Otherwise
    v = u_t - (theta + k*alpha) seats it: a table's weight n_i - alpha
    splits into (n_i - 1) + (1 - alpha), so for v < t - k it copies the
    table of earlier joiner number int(v), and else it picks table
    int((v - (t - k))/(1 - alpha)) + 1.

    Only the table count is sequential, and theta + k*alpha never falls
    as k grows. Customer t+1 finds at most t tables open, so it can open
    one only if u_t < theta + t*alpha; at most one more table than the
    earlier customers who pass that test is open, and only the customers
    whose u_t lies below that bound's level can open one. A loop over
    those candidates alone makes the scheme's own comparison and counts
    the tables. Every seat then follows in numpy from the same
    floating-point expressions as the customer-by-customer scheme, and
    copiers resolve among the joiners by pointer doubling (a copier
    points at an earlier joiner). So the plan is the scheme's, bit for
    bit, and the uniforms are drawn up front: a shared Generator advances
    exactly as by ``rng.random(n - 1)``.
    """
    if not _are_integers((n,)) or n < 1:
        raise ValueError(f"n must be an integer count >= 1, got {n!r}")
    rng = np.random.default_rng(seed)
    alpha, theta = params.alpha, params.theta
    u = rng.random(n - 1) * (np.arange(1, n) + theta)  # u[t - 1] is customer t+1's
    levels = theta + np.arange(n + 1) * alpha  # levels[k] = theta + k*alpha, k = 0..n
    # customer t+1 finds at most t tables open, so it can open one only if u_t < levels[t]
    maybe = u < levels[1:n]
    # tables open before customer t+1: at most 1 + the earlier maybes
    bound = np.cumsum(maybe) - maybe + 1
    candidates = np.flatnonzero(u < levels[bound]) + 1
    # the levels the loop can reach, as the floats it compares
    reach = levels[: candidates.size + 2].tolist()
    opens = bytearray(n)
    opens[0] = 1
    k, level = 1, reach[1]
    for t, u_t in zip(candidates.tolist(), u[candidates - 1].tolist()):
        if u_t < level:
            opens[t] = 1
            k += 1
            level = reach[k]
    opens = np.frombuffer(opens, dtype=bool)
    # ys[t] counts the tables open once customer t+1 sits: an opener's table
    ys = np.cumsum(opens)
    t = np.flatnonzero(~opens)  # the joiners, in joining order
    k_t = ys[t - 1]
    v = u[t - 1] - (theta + k_t * alpha)  # levels[k_t], the same floats
    before = np.arange(t.size)  # joiners seated before each: t - k_t
    # the scheme's min(int(w), k - 1) + 1, with the min taken first so no
    # huge w is cast; a copier's w is negative, clipped to 0 and never read
    tables = np.clip((v - before) / (1.0 - alpha), 0, k_t - 1).astype(np.int64) + 1
    # a copier (v < before) points at joiner int(v), a picker at itself;
    # follow the pointers to one who picked
    ptr = np.minimum(v, before).astype(np.int64)
    hops = ptr[ptr]
    while not np.array_equal(hops, ptr):
        ptr, hops = hops, hops[hops]
    ys[t] = tables[ptr]
    return SeatingPlan(ys)


def gem_stick_breaking(params: PdParams, m: int, seed: SeedLike = None) -> PopulationVector:
    """Truncated stick-breaking draw, ranked and renormalized.

    Breaks V_i ~ Beta(1-alpha, theta + i*alpha), sets W_i = V_i *
    prod_{j<i} (1-V_j), sorts nonincreasing and renormalizes the truncated
    mass to one. The pre-normalization tail mass 1 - sum(W) is kept on the
    result as a truncation diagnostic.
    """
    if not _are_integers((m,)) or m < 1:
        raise ValueError(f"truncation length must be an integer >= 1, got {m!r}")
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
        if not _are_integers((i,)) or i < 1:
            raise ValueError(f"ranks must be integers >= 1, got {i}")
        out.append((int(i), float(i) ** (-1.0 / alpha)))
    return out


def ranked_frequencies(sizes: Sequence[int]) -> np.ndarray:
    """Relative frequencies of these block sizes, largest first; sums to 1."""
    sizes = _integer_sizes(sizes).astype(float)
    return np.sort(sizes)[::-1] / sizes.sum()
