import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpart.core import Partition, is_m_partition, is_weak_m_partition, num_parts
from mpart.enumeration import (
    count_by_enumeration,
    iter_m_partitions,
    oracle_is_weak,
    subset_sums,
)

part_lists = st.lists(st.integers(1, 48), min_size=1, max_size=10).map(sorted)


def P(*parts):
    return Partition(tuple(parts))


# ---------------------------------------------------------------- subset sums


def test_subset_sums_examples():
    full = subset_sums(P(1, 2, 4))
    assert all(x in full for x in range(8))
    assert full.is_complete()

    gap = subset_sums(P(1, 2, 4, 8, 19, 19))
    assert 16 not in gap
    assert 15 in gap and 19 in gap
    assert not gap.is_complete()

    assert subset_sums(P(1, 1, 3, 3)).is_complete()


def test_subset_sums_membership_endpoints():
    s = subset_sums(P(2, 5))
    assert 0 in s and s.total in s
    assert -1 not in s and s.total + 1 not in s
    assert [x for x in range(s.total + 1) if x in s] == [0, 2, 5, 7]


def test_oracle_examples():
    assert oracle_is_weak(P(1, 2, 4, 8, 16, 22))
    assert not oracle_is_weak(P(1, 2, 5))
    assert oracle_is_weak(P(1, 2, 3, 7, 13, 27))


@given(part_lists)
def test_complement_closure_always(parts):
    # s attainable iff total - s attainable: take the other parts
    assert subset_sums(Partition(tuple(parts))).is_complement_closed()


@given(part_lists)
def test_oracle_agrees_with_inequality_predicate(parts):
    p = Partition(tuple(parts))
    assert oracle_is_weak(p) == is_weak_m_partition(p)


# ---------------------------------------------------------------- enumeration


def test_enumerate_golden_small():
    assert [p.parts for p in iter_m_partitions(8)] == [
        (1, 1, 2, 4),
        (1, 1, 3, 3),
        (1, 2, 2, 3),
    ]
    assert [p.parts for p in iter_m_partitions(12)] == [(1, 2, 3, 6), (1, 2, 4, 5)]
    assert [p.parts for p in iter_m_partitions(1)] == [(1,)]


def test_enumerate_is_lexicographically_sorted():
    for m in (16, 33, 100):
        seq = [p.parts for p in iter_m_partitions(m)]
        assert seq == sorted(seq), m
        assert len(set(seq)) == len(seq), m


def test_enumerate_yields_only_m_partitions():
    for m in range(1, 129):
        for p in iter_m_partitions(m):
            assert p.total == m
            assert len(p) == num_parts(m)
            assert is_m_partition(p)


def test_enumerate_deterministic():
    a = [p.parts for p in iter_m_partitions(100)]
    b = [p.parts for p in iter_m_partitions(100)]
    assert a == b


def test_interleaved_cursors_are_independent():
    left = iter_m_partitions(60)
    right = iter_m_partitions(60)
    collected = [(next(left), next(right)) for _ in range(count_by_enumeration(60))]
    assert all(x == y for x, y in collected)
    assert next(left, None) is None and next(right, None) is None


def test_count_examples():
    assert count_by_enumeration(16) == 12
    assert count_by_enumeration(64) == 908
    assert count_by_enumeration(7) == 1


def test_count_matches_stream():
    for m in range(1, 201):
        assert count_by_enumeration(m) == sum(1 for _ in iter_m_partitions(m)), m


def test_zero_rejected():
    with pytest.raises(ValueError):
        iter_m_partitions(0)  # at the call, before any iteration
    with pytest.raises(ValueError):
        count_by_enumeration(0)


def test_completeness_against_generate_and_test():
    # unoptimized ground truth: every nondecreasing composition of m into
    # num_parts(m) parts, filtered by the subset-sum oracle
    def naive(m):
        k = num_parts(m)
        out = []

        def rec(prefix, s, last):
            slots = k - len(prefix)
            if slots == 1:
                v = m - s
                if v >= last:
                    out.append(tuple(prefix) + (v,))
                return
            v = last
            while s + v * slots <= m:
                prefix.append(v)
                rec(prefix, s + v, v)
                prefix.pop()
                v += 1

        rec([], 0, 1)
        return [c for c in out if oracle_is_weak(Partition(c))]

    for m in range(1, 65):
        expected = naive(m)
        assert [p.parts for p in iter_m_partitions(m)] == expected, m
        assert count_by_enumeration(m) == len(expected), m


def test_weak_predicate_matches_oracle_on_near_misses():
    # enumerated partitions plus single-part bumps around them
    rng = random.Random(4021)
    pool = [p for m in range(2, 97) for p in iter_m_partitions(m)]
    for p in rng.sample(pool, 400):
        for q in _mutations(p, rng):
            assert is_weak_m_partition(q) == oracle_is_weak(q), q


def _mutations(p, rng):
    for _ in range(3):
        parts = list(p.parts)
        i = rng.randrange(len(parts))
        parts[i] += rng.randint(1, 5)
        yield Partition(tuple(sorted(parts)))


def test_stream_can_be_truncated_cheaply():
    first_three = list(itertools.islice(iter_m_partitions(512), 3))
    assert len(first_three) == 3
    assert all(is_m_partition(p) for p in first_three)
