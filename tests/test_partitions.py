from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multsub.partitions import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    Partition,
    count_subpartitions,
    enumerate_subpartitions,
    is_subpartition,
    partitions_of,
)

partitions = st.lists(st.integers(1, 9), max_size=7).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


def ferrers_transpose(parts):
    """Independent conjugation oracle: transpose the cell set of the diagram."""
    cells = {(i, j) for i, row in enumerate(parts) for j in range(row)}
    flipped = Counter(j for (_, j) in cells)
    return tuple(flipped[j] for j in sorted(flipped))


def test_conjugate_examples():
    assert Partition((1, 1, 1)).conjugate() == Partition((3,))
    assert Partition((2, 1)).conjugate() == Partition((2, 1))
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    assert Partition().conjugate() == Partition()


def test_conjugate_matches_ferrers_oracle():
    for m in range(0, 13):
        for alpha in partitions_of(m):
            assert alpha.conjugate().parts == ferrers_transpose(alpha.parts)


def test_conjugate_is_involution_up_to_20():
    for m in range(0, 21):
        for alpha in partitions_of(m):
            assert alpha.conjugate().conjugate() == alpha


def test_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition().size == 0


def test_subpartition_examples():
    assert is_subpartition(Partition(), Partition((2, 1)))
    assert is_subpartition(Partition((2, 1)), Partition((2, 1)))
    assert not is_subpartition(Partition((1, 1, 1)), Partition((3,)))


def test_subpartition_order_isomorphism_under_conjugation():
    pool = [alpha for m in range(0, 13) for alpha in partitions_of(m)]
    for alpha in pool:
        ac = alpha.conjugate()
        for beta in pool:
            assert is_subpartition(beta, alpha) == is_subpartition(
                beta.conjugate(), ac
            )


def test_enumerate_examples():
    assert enumerate_subpartitions(Partition((1, 1))) == [
        Partition(),
        Partition((1,)),
        Partition((1, 1)),
    ]
    assert enumerate_subpartitions(Partition((2, 1))) == [
        Partition(),
        Partition((1,)),
        Partition((1, 1)),
        Partition((2,)),
        Partition((2, 1)),
    ]
    assert enumerate_subpartitions(Partition()) == [Partition()]


def test_enumerate_is_lexicographic_and_distinct():
    for m in range(0, 11):
        for alpha in partitions_of(m):
            subs = enumerate_subpartitions(alpha)
            keys = [s.parts for s in subs]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            assert all(is_subpartition(s, alpha) for s in subs)


def test_enumeration_cap():
    big = Partition((DEFAULT_ENUMERATION_CAP + 1,))
    with pytest.raises(EnumerationCapError):
        enumerate_subpartitions(big)
    assert len(enumerate_subpartitions(big, cap=DEFAULT_ENUMERATION_CAP + 1)) > 0


def test_count_examples():
    assert count_subpartitions(Partition((1, 1))) == 3
    assert count_subpartitions(Partition((2, 1))) == 5
    assert count_subpartitions(Partition()) == 1


def test_count_matches_enumeration_up_to_15():
    for m in range(0, 16):
        for alpha in partitions_of(m):
            assert count_subpartitions(alpha) == len(enumerate_subpartitions(alpha))


def test_count_single_row():
    for m in range(0, 40):
        alpha = Partition((m,)) if m else Partition()
        assert count_subpartitions(alpha) == m + 1


@given(partitions)
def test_conjugate_involution_property(alpha):
    assert alpha.conjugate().conjugate() == alpha
    assert alpha.conjugate().size == alpha.size


@given(partitions)
def test_trivial_subpartitions_property(alpha):
    assert is_subpartition(Partition(), alpha)
    assert is_subpartition(alpha, alpha)
    assert count_subpartitions(alpha) >= 1
