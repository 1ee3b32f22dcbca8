"""Two-parameter Poisson-Dirichlet machinery.

The model is parametrized by a discount ``alpha`` in (0, 1) and a
concentration ``theta`` > -alpha. The partition law of an i.i.d. sample
from a ranked frequency vector with this prior is

    P(partition) = [theta+alpha]_{k-1;alpha} / [theta+1]_{n-1;1}
                   * prod_i [1-alpha]_{n_i-1;1}

with rising factorials [x]_{a;b} = prod_{i<a} (x + i*b), and it only
depends on the block-size multiset. The same law arises from the
sequential seating scheme: customer n+1 opens a new table with
probability (theta + k*alpha)/(n + theta) and joins table i with
probability (n_i - alpha)/(n + theta).

All probability computation is done in log space; exponentiation happens
only at interfaces (n near 2*10^4 underflows direct products).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence, Union

import numpy as np
from scipy.special import gammaln

from .partitions import (
    IntegerPartition,
    LabeledSample,
    SetPartition,
    as_integer_partition,
    reduce_sample,
)
from .rng import SeedLike, as_generator

__all__ = [
    "PdParams",
    "PopulationVector",
    "SeatingPlan",
    "log_rising_factorial",
    "eppf_log",
    "crp_predictive",
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
        ys = np.asarray(self.assignments)
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


def log_rising_factorial(x: float, a: int, b: float) -> float:
    """log of prod_{i=0}^{a-1} (x + i*b); exactly 0 when a == 0.

    Every factor must be positive; a nonpositive factor raises ValueError,
    which is how invalid (alpha, theta) pairs surface for a given
    partition.
    """
    if a < 0:
        raise ValueError("a must be a nonnegative count")
    if a == 0:
        return 0.0
    lowest = x if b >= 0 else x + (a - 1) * b
    if not lowest > 0:
        raise ValueError(f"nonpositive factor in rising factorial: x={x}, a={a}, b={b}")
    if b == 0:
        return a * math.log(x)
    # the gammaln form loses absolute precision when x/b dwarfs a, so short
    # products are summed directly (pairwise summation, C speed)
    if b > 0 and a > 4096:
        z = x / b
        return a * math.log(b) + float(gammaln(z + a) - gammaln(z))
    return float(np.log(x + b * np.arange(a)).sum())


def eppf_log(pi: Union[IntegerPartition, SetPartition], params: PdParams) -> float:
    """Log probability of a partition under the sampling formula.

    Depends only on the block-size multiset, never on labels or block
    order.
    """
    part = as_integer_partition(pi)
    n, k = part.n, part.k
    out = log_rising_factorial(params.theta + params.alpha, k - 1, params.alpha)
    out -= log_rising_factorial(params.theta + 1.0, n - 1, 1.0)
    for aj, rj in zip(part.a, part.r):
        if aj > 1:
            out += rj * log_rising_factorial(1.0 - params.alpha, aj - 1, 1.0)
    return out


def crp_predictive(table_counts: Sequence[int], params: PdParams) -> np.ndarray:
    """Next-customer distribution over tables 1..k plus a new table at k+1."""
    counts = np.asarray(table_counts, dtype=float)
    if counts.size == 0:
        return np.array([1.0])
    if (counts < 1).any():
        raise ValueError("table counts must be >= 1")
    n = counts.sum()
    k = counts.size
    out = np.empty(k + 1)
    out[:k] = (counts - params.alpha) / (n + params.theta)
    out[k] = (params.theta + k * params.alpha) / (n + params.theta)
    return out


def crp_sample(n: int, params: PdParams, seed: SeedLike = None) -> SeatingPlan:
    """Run the seating scheme for ``n`` customers. Deterministic given seed.

    Each seat costs O(1): a table's weight n_i - alpha splits into
    (n_i - 1) + (1 - alpha), so a joining customer copies the table of a
    uniformly chosen earlier joiner (total weight t - k) or picks a table
    uniformly (total weight k(1 - alpha)). Customers 2..n consume one
    uniform each, drawn up front, so a shared Generator advances exactly
    as by ``rng.random(n - 1)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    alpha, theta = params.alpha, params.theta
    ys = [1]
    counts = [1]
    joined: list[int] = []  # the table of every customer who joined one
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
    return SeatingPlan(assignments=tuple(ys), table_counts=tuple(counts), k=k)


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


RankedInput = Union[SeatingPlan, LabeledSample, SetPartition, IntegerPartition, Sequence[Hashable]]


def ranked_frequencies(x: RankedInput) -> np.ndarray:
    """Relative block frequencies, largest first; sums to 1."""
    if isinstance(x, SeatingPlan):
        sizes = np.asarray(x.table_counts, dtype=float)
    elif isinstance(x, SetPartition):
        sizes = np.asarray(x.block_sizes(), dtype=float)
    elif isinstance(x, IntegerPartition):
        sizes = np.asarray(x.sizes_desc(), dtype=float)
    else:
        labels = x.labels if isinstance(x, LabeledSample) else tuple(x)
        if not labels:
            raise ValueError("sample must be nonempty")
        sizes = np.asarray(sorted(Counter(labels).values()), dtype=float)
    return np.sort(sizes)[::-1] / sizes.sum()
