"""Seed handling.

Every stochastic operation in the package draws from numpy's default
generator family (PCG64 via ``numpy.random.default_rng``) and takes an
explicit seed, so runs are reproducible bit for bit. Seeds may be ints,
``SeedSequence`` objects, or an already-built ``Generator`` (passed
through unchanged, which lets tight loops reuse one stream).
"""
from __future__ import annotations

from typing import Sequence, Union

import numpy as np

SeedLike = Union[None, int, Sequence[int], np.random.SeedSequence, np.random.Generator]


def spawn_seeds(seed: SeedLike, n: int) -> list[np.random.SeedSequence]:
    """Split ``seed`` into ``n`` independent child seeds.

    Uses ``SeedSequence.spawn``, so the i-th child depends only on the
    master seed and i, never on scheduling order.
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError("cannot spawn from a live Generator; pass an int or SeedSequence")
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return base.spawn(n)
