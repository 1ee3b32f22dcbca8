"""Exact known-population LR by a forward pass over population ranks.

The known-population posterior weights an assignment chi of ranks to
observed size classes by prod_i p_i^{a_chi(i)}, with exactly r_j ranks in
class j and a rank eligible for class j only if its census count supports
a_j. Z (the sum of weights) and the singleton-mass moment then follow
from one pass over the ranks, the state being the vector of class counts
filled so far. This is the multi-class form of the recursion for
conditional Poisson sampling (Chen, Dempster & Liu 1994, Biometrika
81:457). Cost is m * J * prod(r_j + 1); there is no enumeration.

The benchmark keeps this oracle apart from the package so that a change
to the package's own exact route cannot change the reference it is
checked against.
"""
from __future__ import annotations

import math

import numpy as np

# a Dutch-101 replicate has 8k-50k states; the pass is ~m*J*S flops
STATE_BUDGET = 200_000


def state_count(r) -> int:
    return math.prod(int(x) + 1 for x in r)


def support_caps(probs: np.ndarray, pop_size: int) -> np.ndarray:
    """Largest class size each rank can carry: the rounded census count."""
    return np.rint(pop_size * probs).astype(np.int64)


def exact_lr(a, r, probs, pop_size, budget: int = STATE_BUDGET):
    """Known-population LR s1 / E[singleton mass], or None past ``budget``.

    ``a`` (increasing block sizes) and ``r`` (their counts) describe the
    suspect-augmented partition; ``probs`` is the ranked population
    vector behind ``pop_size`` individuals.
    """
    a = [int(x) for x in a]
    r = [int(x) for x in r]
    if a[0] != 1:
        raise ValueError("rare-type partition needs a singleton class")
    if state_count(r) > budget:
        return None
    probs = np.asarray(probs, dtype=float)
    caps = support_caps(probs, pop_size)
    log_p = np.log(probs)
    # scaling class j's weight by a constant rescales every assignment by
    # the same factor; dividing by p_1^{a_j} keeps weights <= 1 and the
    # products far from overflow
    log_ref = log_p[0]
    shape = tuple(x + 1 for x in r)
    z = np.zeros(shape)
    mass = np.zeros(shape)
    z[(0,) * len(r)] = 1.0
    moves = []
    for j in range(len(r)):
        lead = (slice(None),) * j
        moves.append((lead + (slice(0, -1),), lead + (slice(1, None),)))
    for i in range(probs.size):
        z_new = z.copy()
        mass_new = mass.copy()
        for j, (src, dst) in enumerate(moves):
            if caps[i] < a[j]:
                break  # a is increasing, so no larger class fits either
            w = math.exp(a[j] * (log_p[i] - log_ref))
            z_new[dst] += w * z[src]
            if j == 0:
                mass_new[dst] += w * (mass[src] + probs[i] * z[src])
            else:
                mass_new[dst] += w * mass[src]
        z, mass = z_new, mass_new
    full = tuple(r)
    total = z[full]
    if not (total > 0.0 and math.isfinite(total)):
        return None
    return r[0] / (mass[full] / total)


def random_small_instance(rng: np.random.Generator):
    """A feasible small instance: a census of 5-9 types and a partition of
    a subsample of it, the subsample holding at least one singleton."""
    m = int(rng.integers(5, 10))
    counts = np.sort(rng.integers(1, 7, size=m))[::-1]
    n_pop = int(counts.sum())
    individuals = np.repeat(np.arange(m), counts)
    while True:
        size = int(rng.integers(3, min(9, n_pop) + 1))
        drawn = rng.choice(individuals, size=size, replace=False)
        blocks = np.bincount(drawn)
        blocks = blocks[blocks > 0]
        if (blocks == 1).any():
            break
    a, r = np.unique(blocks, return_counts=True)
    return tuple(int(x) for x in a), tuple(int(x) for x in r), counts / n_pop, n_pop


def self_check(rt, rng: np.random.Generator, instances: int = 40) -> float:
    """Worst relative disagreement with the package's enumerating
    ``exact_true_lr`` over ``instances`` random small cases."""
    worst = 0.0
    for _ in range(instances):
        a, r, probs, n_pop = random_small_instance(rng)
        ours = exact_lr(a, r, probs, n_pop)
        theirs = rt.exact_true_lr(
            rt.IntegerPartition(a=a, r=r),
            rt.PopulationVector(probs=tuple(float(p) for p in probs), pop_size=n_pop),
        )
        worst = max(worst, abs(ours - theirs) / abs(theirs))
    return worst
