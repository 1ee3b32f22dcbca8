"""Label-free partition representations of categorical samples.

A sample of categorical observations is reduced to the partition of its
index set induced by "same value"; that partition is the only structure
the rest of the package ever consults. A set partition is stored as its
restricted growth string (Knuth, TAOCP 4A, 7.2.1.5), the canonical form
a seating plan's assignments already take; its blocks are derived on
demand and its block sizes come from one ``bincount``. Integer
partitions keep only the multiset of block sizes in the compact (a, r)
form: distinct sizes ``a`` (increasing) with repetition counts ``r``.

All values are immutable after construction and safe to share between
concurrent tasks. Enumeration streams are single-consumer generators.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


def _rgs_sizes(labels: Sequence[int]) -> np.ndarray:
    """Block sizes of a restricted growth string, checked to be one."""
    ys = np.fromiter(labels, np.int64, count=len(labels))
    grows = (ys[1:] <= np.maximum.accumulate(ys)[:-1] + 1).all()
    if not (ys.size and ys[0] == 1 and ys.min() >= 1 and grows):
        raise ValueError("labels must be created in order: 1 first, each <= 1 + all before it")
    return np.bincount(ys)[1:]


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..n} into disjoint nonempty blocks.

    Stored as its restricted growth string: ``labels[i]`` is the block of
    element i+1, blocks numbered in order of their least element. The
    string is checked on construction; ``from_blocks`` builds it from
    blocks in any order. ``n``, ``k`` and ``blocks`` are derived from it.
    """

    labels: tuple[int, ...]
    # the check yields the block sizes; kept so k and the sizes cost O(k)
    _sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_sizes", _rgs_sizes(self.labels))

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]]) -> "SetPartition":
        """The partition with these blocks, given in any order."""
        blocks = [tuple(b) for b in blocks]
        if not all(blocks):
            raise ValueError("blocks must be nonempty")
        n = sum(map(len, blocks))
        labels = [0] * n
        for label, block in enumerate(sorted(blocks, key=min), start=1):
            for idx in block:
                if not 1 <= idx <= n:
                    raise ValueError(f"blocks must cover 1..{n} exactly")
                if labels[idx - 1]:
                    raise ValueError(f"index {idx} appears in two blocks")
                labels[idx - 1] = label
        return cls(tuple(labels))

    @property
    def n(self) -> int:
        """Number of elements."""
        return len(self.labels)

    @property
    def k(self) -> int:
        """Number of blocks."""
        return self._sizes.size

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as ascending index tuples, ordered by least element."""
        groups: list[list[int]] = [[] for _ in range(self.k)]
        for idx, label in enumerate(self.labels, start=1):
            groups[label - 1].append(idx)
        return tuple(map(tuple, groups))

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(self._sizes.tolist())

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
        if not all(isinstance(x, (int, np.integer)) for x in (*self.a, *self.r)):
            raise ValueError("entries of a and r must be integers")
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
        """The multiset of these sizes, from any int sequence or array."""
        a, r = np.unique(np.asarray(sizes), return_counts=True)
        return cls(a=tuple(a.tolist()), r=tuple(r.tolist()))

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
        return cls(a=tuple(d["a"]), r=tuple(d["r"]))


def reduce_sample(sample: Sequence[Hashable]) -> SetPartition:
    """Partition indices 1..n by equality of the observed labels.

    Each distinct value takes the next block label at its first
    occurrence, which writes the partition's restricted growth string.
    Any bijective relabeling of the sample yields the identical partition;
    nothing but label equality is consulted.
    """
    sample = tuple(sample)
    ids = dict.fromkeys(sample)  # distinct values in first-occurrence order
    for label, value in enumerate(ids, start=1):
        ids[value] = label
    return SetPartition(tuple(map(ids.__getitem__, sample)))


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


def to_integer_partition(p: SetPartition) -> IntegerPartition:
    """Forget the index detail, keeping the block-size multiset."""
    return IntegerPartition.from_block_sizes(p._sizes)


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
