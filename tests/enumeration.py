"""Brute-force enumeration of set partitions, for the tests' exact
normalisation and likelihood checks at small n, and the rare-type
augmentation of a set partition."""
from typing import Iterator

from raretype.partitions import SetPartition

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
