"""Label-free partition representations of categorical samples.

A sample of categorical observations is reduced to the partition of its
index set induced by "same value"; that partition is the only structure
the rest of the package ever consults. Set partitions keep the index
detail, integer partitions keep only the multiset of block sizes in the
compact (a, r) form: distinct sizes ``a`` (increasing) with repetition
counts ``r``.

All values are immutable after construction and safe to share between
concurrent tasks. Enumeration streams are single-consumer generators.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterator, Sequence, Union

import numpy as np

__all__ = [
    "SetPartition",
    "IntegerPartition",
    "reduce_sample",
    "augment",
    "to_integer_partition",
    "as_integer_partition",
    "enumerate_partitions",
    "bell_number",
    "DEFAULT_ENUMERATION_CAP",
]

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


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..n} into disjoint nonempty blocks.

    Stored canonically: each block sorted ascending, blocks ordered by
    their least element. The canonical form round-trips through
    serialization unchanged.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        sizes = np.fromiter(map(len, self.blocks), dtype=np.int64, count=len(self.blocks))
        if (sizes == 0).any():
            raise ValueError("blocks must be nonempty")
        flat = np.fromiter(chain.from_iterable(self.blocks), dtype=np.int64, count=int(sizes.sum()))
        heads = np.cumsum(sizes) - sizes
        rises = np.diff(flat) > 0
        rises[heads[1:] - 1] = True  # a block boundary need not rise
        if not rises.all():
            raise ValueError("blocks must be sorted ascending; use from_blocks")
        least = flat[heads]
        if least.size and (least[0] <= 0 or (np.diff(least) <= 0).any()):
            raise ValueError("blocks must be ordered by least element; use from_blocks")
        # sorted blocks ordered by a positive least element hold only
        # indices >= 1; n of them cover 1..n when none exceeds n or repeats
        in_range = flat.size == self.n and flat.max(initial=0) <= self.n
        if not (in_range and np.bincount(flat, minlength=self.n + 1)[1:].all()):
            seen: set[int] = set()
            for idx in flat.tolist():
                if idx in seen:
                    raise ValueError(f"index {idx} appears in two blocks")
                seen.add(idx)
            raise ValueError(f"blocks must cover 1..{self.n} exactly")

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]]) -> "SetPartition":
        """Canonicalize arbitrary block order into a SetPartition."""
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0))
        n = sum(len(b) for b in canon)
        return cls(n=n, blocks=canon)

    @property
    def k(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def to_dict(self) -> dict:
        return {"n": self.n, "blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_dict(cls, d: dict) -> "SetPartition":
        p = cls.from_blocks(d["blocks"])
        if p.n != d["n"]:
            raise ValueError(f"declared n={d['n']} but blocks cover {p.n} elements")
        return p


@dataclass(frozen=True)
class IntegerPartition:
    """Multiset of block sizes: values ``a`` strictly increasing, counts ``r``."""

    a: tuple[int, ...]
    r: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.a) != len(self.r) or not self.a:
            raise ValueError("a and r must be nonempty and of equal length")
        if any(x < 1 for x in self.a) or any(x < 1 for x in self.r):
            raise ValueError("entries of a and r must be >= 1")
        if any(self.a[i] >= self.a[i + 1] for i in range(len(self.a) - 1)):
            raise ValueError("a must be strictly increasing")

    @property
    def n(self) -> int:
        """Total number of elements."""
        return sum(x * c for x, c in zip(self.a, self.r))

    @property
    def k(self) -> int:
        """Total number of blocks."""
        return sum(self.r)

    @property
    def s1(self) -> int:
        """Number of singleton blocks."""
        return self.r[0] if self.a[0] == 1 else 0

    @property
    def num_size_classes(self) -> int:
        return len(self.a)

    @classmethod
    def from_block_sizes(cls, sizes: Sequence[int]) -> "IntegerPartition":
        counts: dict[int, int] = {}
        for s in sizes:
            counts[int(s)] = counts.get(int(s), 0) + 1
        a = tuple(sorted(counts))
        return cls(a=a, r=tuple(counts[x] for x in a))

    def sizes_desc(self) -> tuple[int, ...]:
        """Block sizes as a nonincreasing sequence."""
        out: list[int] = []
        for x, c in zip(self.a, self.r):
            out.extend([x] * c)
        return tuple(reversed(out))

    def add_singleton(self) -> "IntegerPartition":
        """Multiset with one extra block of size 1 (suspect-only augmentation)."""
        counts = dict(zip(self.a, self.r))
        counts[1] = counts.get(1, 0) + 1
        a = tuple(sorted(counts))
        return IntegerPartition(a=a, r=tuple(counts[x] for x in a))

    def to_dict(self) -> dict:
        return {"a": list(self.a), "r": list(self.r)}

    @classmethod
    def from_dict(cls, d: dict) -> "IntegerPartition":
        return cls(a=tuple(int(x) for x in d["a"]), r=tuple(int(x) for x in d["r"]))


def reduce_sample(sample: Sequence[Hashable]) -> SetPartition:
    """Partition indices 1..n by equality of the observed labels.

    Any bijective relabeling of the sample yields the identical partition;
    nothing but label equality is consulted.
    """
    labels = tuple(sample)
    if not labels:
        raise ValueError("sample must contain at least one observation")
    groups: dict[Hashable, list[int]] = {}
    for idx, label in enumerate(labels, start=1):
        groups.setdefault(label, []).append(idx)
    # dicts keep first-occurrence order and indices arrive ascending, so the
    # blocks are already canonical; construction still checks that
    return SetPartition(n=len(labels), blocks=tuple(map(tuple, groups.values())))


def augment(p: SetPartition, mode: str) -> SetPartition:
    """Extend a database partition for the rare-type-match hypotheses.

    ``suspect_only`` appends the singleton block {n+1}; ``suspect_and_trace``
    appends the block {n+1, n+2}. The new block has the largest least
    element, so canonical order is preserved.
    """
    if mode == "suspect_only":
        return SetPartition(n=p.n + 1, blocks=p.blocks + ((p.n + 1,),))
    if mode == "suspect_and_trace":
        return SetPartition(n=p.n + 2, blocks=p.blocks + ((p.n + 1, p.n + 2),))
    raise ValueError(f"unknown augmentation mode {mode!r}")


def to_integer_partition(p: SetPartition) -> IntegerPartition:
    """Forget the index detail, keeping the block-size multiset."""
    return IntegerPartition.from_block_sizes(p.block_sizes())


def as_integer_partition(p: Union[SetPartition, IntegerPartition]) -> IntegerPartition:
    """The block-size multiset of ``p``; integer partitions pass through."""
    return p if isinstance(p, IntegerPartition) else to_integer_partition(p)


def enumerate_partitions(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[SetPartition]:
    """Yield every partition of {1..n} exactly once (Bell(n) of them).

    Refuses n beyond ``cap``: Bell numbers grow superexponentially and the
    stream is meant for brute-force normalization checks at small n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds enumeration cap {cap} (Bell({n}) partitions)")

    def rec(i: int, blocks: list[list[int]]) -> Iterator[SetPartition]:
        if i > n:
            yield SetPartition(n=n, blocks=tuple(tuple(b) for b in blocks))
            return
        # element i joins an existing block or opens a new one; blocks stay
        # canonical because i exceeds every index placed so far
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [])
