"""Label-free partition representations of categorical samples.

A sample of categorical observations is reduced to the partition of its
index set induced by "same value"; that partition is the only structure
the rest of the package ever consults. A set partition is stored once,
as its restricted growth string (Knuth, TAOCP 4A, 7.2.1.5) in a read-only
int64 array; a seating plan, whose assignments take that form, is one.
Its tuple of labels is built on first read, its blocks on demand, and
its block sizes come from one ``bincount``. Set partitions
live at the label boundary only: the likelihood, the fit and every LR
depend on the block sizes alone and take an integer partition, which
keeps the multiset of block sizes in the compact (a, r) form: distinct
sizes ``a`` (increasing) with repetition counts ``r``.

All values are immutable after construction and safe to share between
concurrent tasks.
"""
from __future__ import annotations

import functools
import numbers
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Hashable, Sequence

import numpy as np

__all__ = [
    "SetPartition",
    "IntegerPartition",
    "reduce_sample",
    "to_integer_partition",
]


def _are_integers(values) -> bool:
    """Whether every value is an integer count: numpy integers register as
    Integral, while bool, which subclasses int, does not count. Checked
    once per distinct type, as an Integral check costs ~1 us a value."""
    return all(issubclass(t, numbers.Integral) and t is not bool for t in set(map(type, values)))


def _integer_sizes(sizes: Sequence[int]) -> np.ndarray:
    """Block sizes as an array, rejecting bool and non-integer sizes: an
    array by its dtype, any other sequence by its entries' types."""
    ok = sizes.dtype.kind in "iu" if isinstance(sizes, np.ndarray) else _are_integers(sizes)
    if not ok:
        raise ValueError("block sizes must be integers, not bool or fractional")
    return np.asarray(sizes)


def _rgs_sizes(ys: np.ndarray) -> np.ndarray:
    """Block sizes of a restricted growth string, checked to be one."""
    grows = (ys[1:] <= np.maximum.accumulate(ys)[:-1] + 1).all()
    if not (ys.size and ys[0] == 1 and ys.min() >= 1 and grows):
        raise ValueError("labels must be created in order: 1 first, each <= 1 + all before it")
    return np.bincount(ys)[1:]


class SetPartition:
    """Partition of {1..n} into disjoint nonempty blocks.

    Stored as its restricted growth string: ``labels[i]`` is the block of
    element i+1, blocks numbered in order of their least element. The
    string is checked on construction; ``from_blocks`` builds it from
    blocks in any order. It may come as a 1-d integer array or as any
    integer sequence, and is kept once, as a read-only int64 array (a
    copy of the caller's). ``labels``, the tuple of its Python ints, is
    built on its first read; ``n``, ``k`` and ``blocks`` are derived.
    Values are frozen, and equal labels give equal, hashable partitions.
    """

    def __init__(self, labels: Sequence[int] | np.ndarray) -> None:
        if isinstance(labels, np.ndarray):
            # bool is not an integer dtype here: its kind is "b"
            if labels.ndim != 1 or labels.dtype.kind not in "iu":
                raise ValueError("a label array must be 1-d with an integer dtype")
            ys = labels.astype(np.int64)
        else:
            labels = tuple(labels)
            if not _are_integers(labels):
                raise ValueError("labels must be integers")
            ys = np.fromiter(labels, np.int64, count=len(labels))
            self.__dict__["labels"] = labels
        # the check yields the block sizes; kept so k and the sizes cost O(k)
        self.__dict__["_sizes"] = _rgs_sizes(ys)
        ys.flags.writeable = False
        self.__dict__["_ys"] = ys

    @functools.cached_property
    def labels(self) -> tuple[int, ...]:
        return tuple(self._ys.tolist())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self._ys, other._ys)

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"SetPartition(labels={self.labels!r})"

    def __reduce__(self):
        return self.__class__, (self._ys,)

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
        return self._ys.size

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
    # the total numbers of elements and of blocks, summed once
    n: int = field(init=False, repr=False, compare=False)
    k: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.a) != len(self.r) or not self.a:
            raise ValueError("a and r must be nonempty and of equal length")
        if not _are_integers((*self.a, *self.r)):
            raise ValueError("entries of a and r must be integers")
        if any(x < 1 for x in self.a) or any(x < 1 for x in self.r):
            raise ValueError("entries of a and r must be >= 1")
        if any(self.a[i] >= self.a[i + 1] for i in range(len(self.a) - 1)):
            raise ValueError("a must be strictly increasing")
        object.__setattr__(self, "n", sum(x * c for x, c in zip(self.a, self.r)))
        object.__setattr__(self, "k", sum(self.r))

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
        a, r = np.unique(_integer_sizes(sizes), return_counts=True)
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


def to_integer_partition(p: SetPartition) -> IntegerPartition:
    """Forget the index detail, keeping the block-size multiset."""
    return IntegerPartition.from_block_sizes(p._sizes)
