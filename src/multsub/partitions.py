"""Integer partition algebra: conjugation, the subpartition order, enumeration
and exact counting.

Partitions are stored as nonincreasing tuples of positive integers with no
trailing zeros; the empty tuple is the unique partition of 0.  All operations
are pure functions on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

DEFAULT_ENUMERATION_CAP = 64


class EnumerationCapError(ValueError):
    """Subpartition enumeration refused because the partition is too large."""


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"partition parts must be >= 1, got {p!r}")
            if i > 0 and parts[i - 1] < p:
                raise ValueError(f"partition parts must be nonincreasing: {parts}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        """The integer being partitioned."""
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        """Transpose of the Ferrers diagram: result[j] = #{i : parts[i] >= j}."""
        return Partition(conjugate_parts(self.parts))


def conjugate_parts(parts: Sequence[int]) -> tuple[int, ...]:
    """Transpose of the Ferrers diagram of positive integers given in any
    order: result[j - 1] = #{i : parts[i] >= j}, nonincreasing."""
    sizes = [0] * max(parts, default=0)
    for p in parts:
        sizes[p - 1] += 1
    return tuple(accumulate(reversed(sizes)))[::-1]


def is_subpartition(beta: Partition, alpha: Partition) -> bool:
    """True iff beta[j] <= alpha[j] for all j, missing parts reading as 0."""
    if len(beta) > len(alpha):
        return False
    return all(b <= a for b, a in zip(beta.parts, alpha.parts))


def _iter_subpartition_parts(parts: tuple[int, ...], bound: int) -> Iterator[tuple[int, ...]]:
    """All nonincreasing tuples b with b[0] <= bound and b[i] <= parts[i],
    in lexicographic order.  No size cap: enumerate_subpartitions, its one
    caller, applies it."""
    yield ()
    if not parts:
        return
    for first in range(1, min(bound, parts[0]) + 1):
        for rest in _iter_subpartition_parts(parts[1:], first):
            yield (first,) + rest


def enumerate_subpartitions(alpha: Partition, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Partition]:
    """All subpartitions of alpha, each once, in lexicographic order.

    Refuses when sum(alpha) exceeds cap, since the output grows roughly like
    exp(c*sqrt(sum)); counting via count_subpartitions has no such cap.
    """
    if alpha.size > cap:
        raise EnumerationCapError(
            f"sum(alpha) = {alpha.size} exceeds enumeration cap {cap}"
        )
    top = alpha.parts[0] if alpha.parts else 0
    return [Partition(t) for t in _iter_subpartition_parts(alpha.parts, top)]


def count_subpartitions(alpha: Partition) -> int:
    """Number of subpartitions of alpha, by dynamic programming (no enumeration)."""
    parts = alpha.parts
    memo: dict[tuple[int, int], int] = {}

    def tail(i: int, bound: int) -> int:
        # subpartitions of parts[i:] whose first part is <= bound
        if i == len(parts):
            return 1
        top = min(bound, parts[i])
        key = (i, top)
        got = memo.get(key)
        if got is None:
            got = 1 + sum(tail(i + 1, b) for b in range(1, top + 1))
            memo[key] = got
        return got

    return tail(0, parts[0] if parts else 0)


def partitions_of(m: int) -> Iterator[Partition]:
    """All partitions of m (largest-first lexicographic order)."""
    if m < 0:
        raise ValueError("m must be nonnegative")

    def rec(remaining: int, bound: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(bound, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    for t in rec(m, m):
        yield Partition(t)
