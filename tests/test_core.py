import copy
import pickle
import random
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mpart.core
import mpart.counting
from mpart.core import (
    DomainError,
    ExtensionRange,
    PartBounds,
    Partition,
    extension_range_m1,
    extension_range_m12,
    generate_alg1,
    generate_alg2,
    generate_alg3,
    in_upper_half,
    is_m_partition,
    is_weak_m_partition,
    largest_part_bounds,
    num_parts,
)
from mpart.enumeration import (
    SumReachability,
    iter_m_partitions,
    oracle_is_weak,
    subset_sums,
)

part_lists = st.lists(st.integers(1, 64), min_size=1, max_size=12).map(sorted)


def P(*parts):
    return Partition(tuple(parts))


# ---------------------------------------------------------------- num_parts


def test_num_parts_examples():
    assert num_parts(1) == 1
    assert num_parts(53) == 6
    assert num_parts(16) == 5


def test_num_parts_rejects_zero():
    with pytest.raises(ValueError):
        num_parts(0)


@given(st.integers(1, 10**30))
def test_num_parts_is_exact_at_any_size(m):
    k = num_parts(m)
    assert (1 << (k - 1)) <= m < (1 << k)


def test_num_parts_exact_at_powers_of_two():
    # the classic float-log failure mode
    for e in (10, 30, 52, 53, 60, 100):
        assert num_parts(2**e) == e + 1
        assert num_parts(2**e - 1) == e


# ---------------------------------------------------------------- Partition


def test_partition_normalizes_and_caches_total():
    p = Partition([1, 2, 4])
    assert p.parts == (1, 2, 4)
    assert p.total == 7
    assert len(p) - 1 == 2  # index of the largest part
    assert p.largest == 4
    assert len(p) == 3
    assert str(p) == "1+2+4"
    assert tuple(accumulate(p.parts)) == (1, 3, 7)


@pytest.mark.parametrize("bad", [(), (0,), (-3, 1), (1, 3, 2)])
def test_partition_rejects_invalid(bad):
    with pytest.raises(ValueError):
        Partition(tuple(bad))


def test_partition_rejection_messages():
    for bad, message in [
        ((), "a partition needs at least one part"),
        ((0, 1), "parts must be positive integers, got 0"),
        ((1, 2, -1), "parts must be positive integers, got -1"),
        ((1, 3, 2), "parts must be nondecreasing, got 2 after 3"),
    ]:
        with pytest.raises(ValueError) as info:
            Partition(bad)
        assert str(info.value) == message


def test_partition_equality_ignores_cached_total():
    assert P(1, 1, 2) == Partition((1, 1, 2))
    assert P(1, 2) != P(1, 1)
    assert hash(P(1, 1, 2)) == hash(Partition([1, 1, 2])) == hash(((1, 1, 2),))
    assert P(1, 2) != (1, 2) and P(1, 2) != ExtensionRange(1, 2)
    assert len({P(1, 2), P(1, 2), P(1, 1)}) == 2


RECORDS = [P(1, 2, 4), PartBounds(5, 8), ExtensionRange(3, 5), subset_sums(P(2, 5))]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_survive_copy_and_pickle(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
        assert hash(twin) == hash(record) and repr(twin) == repr(record)


def test_record_repr_and_field_equality():
    assert repr(P(1, 2, 4)) == "Partition(parts=(1, 2, 4), total=7)"
    assert repr(PartBounds(5, 8)) == "PartBounds(lower=5, upper=8)"
    assert repr(ExtensionRange(3, 5)) == "ExtensionRange(lo=3, hi=5)"
    assert repr(subset_sums(P(2, 5))) == "SumReachability(total=7, bits=165)"
    for cls in (PartBounds, ExtensionRange, SumReachability):
        assert cls(3, 5) == cls(3, 5) and hash(cls(3, 5)) == hash(cls(3, 5))
        assert cls(3, 5) != cls(3, 6) and cls(3, 5) != cls(4, 5)
        for args in [(), (3,), (3, 5, 7)]:  # one positional argument per field
            with pytest.raises(TypeError):
                cls(*args)
    assert PartBounds(3, 5) != ExtensionRange(3, 5)  # same fields, other class


# ---------------------------------------------------------------- predicates


def test_is_weak_examples():
    assert is_weak_m_partition(P(1, 2, 4))
    assert not is_weak_m_partition(P(1, 2, 4, 8, 19, 19))
    assert not is_weak_m_partition(P(2, 3))


def test_is_m_examples():
    assert is_m_partition(P(1, 2, 4, 8, 16, 22))
    assert is_m_partition(P(1, 1, 2, 4))
    assert not is_m_partition(P(1, 1, 1, 5))
    # the failing example really does miss a sum
    assert subset_sums(P(1, 1, 1, 5)).bits >> 4 & 1 == 0


def test_weak_but_not_minimal():
    # covers 0..4 but uses one part more than necessary
    p = P(1, 1, 1, 1)
    assert is_weak_m_partition(p)
    assert not is_m_partition(p)


@given(part_lists)
def test_two_formulations_agree(parts):
    # The sum-bound formulation: weak coverage and 2**n <= total for
    # n = len - 1.  A weak partition's total is at most 2**len - 1, so the
    # bound pins the same part count as num_parts.
    p = Partition(tuple(parts))
    by_sum_bound = is_weak_m_partition(p) and p.total >= 1 << (len(p.parts) - 1)
    assert is_m_partition(p) == by_sum_bound


# ---------------------------------------------------------------- generators


def test_alg1_examples():
    assert generate_alg1(53).parts == (1, 2, 4, 8, 16, 22)
    assert generate_alg1(7).parts == (1, 2, 4)
    # the remainder (2 here) lands in the middle after sorting
    assert generate_alg1(33).parts == (1, 2, 2, 4, 8, 16)
    assert generate_alg1(1).parts == (1,)


def test_alg2_examples():
    assert generate_alg2(53).parts == (1, 2, 3, 7, 13, 27)
    assert generate_alg2(1).parts == (1,)
    assert generate_alg2(16).parts == (1, 1, 2, 4, 8)


def test_alg3_examples():
    assert generate_alg3(8).parts == (1, 2, 2, 3)
    assert generate_alg3(9).parts == (1, 2, 3, 3)
    assert generate_alg3(4).parts == (1, 1, 2)


def test_alg3_domain_errors():
    with pytest.raises(DomainError):
        generate_alg3(53)  # 53 > 2**5 + 2**4 - 2 = 46
    for m in (1, 2, 3):
        with pytest.raises(DomainError):
            generate_alg3(m)
    with pytest.raises(DomainError):
        generate_alg3(47)


def test_alg3_refuses_exactly_the_upper_half_window():
    # generate_alg3 refuses by core's in_upper_half, the one definition that
    # counting re-exports; every m the split admits gives an M-partition of m
    assert mpart.counting.in_upper_half is mpart.core.in_upper_half
    for m in range(1, 4097):
        n = m.bit_length() - 1
        hi = 2**n + 2**(n - 1) - 2
        if m < 4:
            with pytest.raises(DomainError):
                generate_alg3(m)
        elif not in_upper_half(m):
            p = generate_alg3(m)
            assert m <= hi and p.total == m and is_m_partition(p), m
        else:
            with pytest.raises(DomainError) as e:
                generate_alg3(m)
            assert m > hi
            assert str(e.value) == f"m={m} outside the admissible window [{2**n}, {hi}]"


def test_generators_reject_zero():
    for gen in (generate_alg1, generate_alg2, generate_alg3):
        with pytest.raises(ValueError):
            gen(0)


def test_generators_always_valid_small_sweep():
    for m in range(1, 513):
        assert is_m_partition(generate_alg1(m)), m
        assert is_m_partition(generate_alg2(m)), m
        n = m.bit_length() - 1
        if n >= 2 and m <= (1 << n) + (1 << (n - 1)) - 2:
            assert is_m_partition(generate_alg3(m)), m


@given(st.integers(1, 10**9))
def test_generators_valid_at_large_m(m):
    assert is_m_partition(generate_alg1(m))
    assert is_m_partition(generate_alg2(m))


# ---------------------------------------------------------------- bounds


def test_largest_part_bounds_examples():
    b16 = largest_part_bounds(16)
    assert (b16.lower, b16.upper) == (5, 8)
    b25 = largest_part_bounds(25)
    assert (b25.lower, b25.upper) == (10, 13)
    b3 = largest_part_bounds(3)
    assert (b3.lower, b3.upper) == (2, 2)


def test_largest_part_bounds_answer_m_1_and_reject_m_below_1():
    assert largest_part_bounds(1) == PartBounds(1, 1)  # Mp(1) = {[1]}
    with pytest.raises(ValueError, match="m must be a positive integer, got 0"):
        largest_part_bounds(0)
    with pytest.raises(ValueError, match="m must be a positive integer, got -3"):
        largest_part_bounds(-3)


def test_bounds_ordered_everywhere():
    for m in range(1, 4097):
        bd = largest_part_bounds(m)
        assert bd.lower <= bd.upper, m


def test_bounds_are_the_extremes_of_the_enumerated_largest_parts():
    seen = 0
    for m in range(1, 129):
        largest = [p.largest for p in iter_m_partitions(m)]
        seen += len(largest)
        assert largest_part_bounds(m) == PartBounds(min(largest), max(largest)), m
    assert seen == 36789


def test_only_two_lower_bounds_matter():
    # The general family ceil((m - 2^(n-i+1) + 1) / i) is dominated by the
    # i = 1 and i = 2 members; the full family lives only in this test.
    def family_bound(m, i):
        n = m.bit_length() - 1
        return -(-(m - (1 << (n - i + 1)) + 1) // i)

    for m in range(2, 4097):
        n = m.bit_length() - 1
        best_two = max(family_bound(m, i) for i in (1, 2))
        best_all = max(family_bound(m, i) for i in range(1, n + 1))
        assert best_two == best_all, m
        assert best_two == largest_part_bounds(m).lower, m


# ---------------------------------------------------------------- extension ranges


def test_extension_range_m1_examples():
    r = extension_range_m1(16)
    assert (r.lo, r.hi) == (8, 11)
    r = extension_range_m1(25)
    assert (r.lo, r.hi) == (12, 15)
    r = extension_range_m1(2)
    assert (r.lo, r.hi) == (1, 1)
    with pytest.raises(DomainError):
        extension_range_m1(1)


def test_extension_range_m12_examples():
    r = extension_range_m12(11, 16)
    assert (r.lo, r.hi) == (5, 5) and not r.is_empty
    assert extension_range_m12(8, 16).is_empty
    r = extension_range_m12(23, 32)
    assert (r.lo, r.hi) == (11, 13)
    with pytest.raises(DomainError):
        extension_range_m12(7, 16)  # below the m1 range
    with pytest.raises(DomainError):
        extension_range_m12(12, 16)  # above it


def test_extension_range_container_behavior():
    r = ExtensionRange(3, 5)
    assert list(r) == [3, 4, 5]
    assert len(r) == 3
    assert 4 in r and 6 not in r
    empty = ExtensionRange(5, 2)
    assert empty.is_empty
    assert list(empty) == []
    assert len(empty) == 0


def test_truncation_sums_of_actual_partitions_fill_the_range():
    # drop the largest part of every M-partition: the sums seen are exactly
    # the advertised interval
    for m in (16, 25, 40, 100):
        r = extension_range_m1(m)
        seen = {p.total - p.largest for p in iter_m_partitions(m)}
        assert seen == set(range(r.lo, r.hi + 1)), m


# ---------------------------------------------------------------- can_extend


def can_extend(p, r):
    """The extension lemma: appending r to the M-partition p gives an
    M-partition of total + r exactly when

        largest <= r,   r <= total + 1,   total + r >= 2**len(p).
    """
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    if not is_m_partition(p):
        raise DomainError("can_extend needs an M-partition")
    m = p.total
    return p.largest <= r <= m + 1 and m + r >= 1 << len(p)


def test_can_extend_examples():
    assert can_extend(P(1, 2, 4, 5), 13)
    assert not can_extend(P(1, 1, 3, 6), 5)
    assert not can_extend(P(1), 3)


def test_can_extend_errors():
    with pytest.raises(DomainError):
        can_extend(P(1, 1, 1, 5), 6)  # not an M-partition
    with pytest.raises(ValueError):
        can_extend(P(1, 2), 0)


def test_can_extend_agrees_with_direct_check_exhaustively():
    for m in range(1, 65):
        for p in iter_m_partitions(m):
            for r in range(p.largest, p.total + 2):
                want = is_m_partition(Partition(p.parts + (r,)))
                assert can_extend(p, r) == want, (p, r)


@given(st.integers(2, 4096), st.data())
def test_can_extend_agrees_with_direct_check_sampled(m, data):
    p = generate_alg2(m)
    r = data.draw(st.integers(p.largest, p.total + 1))
    assert can_extend(p, r) == is_m_partition(Partition(p.parts + (r,)))


# ---------------------------------------------------------------- structure


def test_prefix_closure_small():
    for m in range(1, 65):
        for p in iter_m_partitions(m):
            for j in range(len(p)):
                assert is_m_partition(Partition(p.parts[: j + 1])), (p, j)


def test_weak_predicate_matches_oracle_on_random_lists():
    rng = random.Random(96321)
    for _ in range(2000):
        parts = sorted(rng.randint(1, 64) for _ in range(rng.randint(1, 12)))
        p = Partition(tuple(parts))
        assert is_weak_m_partition(p) == oracle_is_weak(p), parts


def test_predicates_are_pure_under_threads():
    pool = [p for m in range(1, 50) for p in iter_m_partitions(m)]
    serial = [is_m_partition(p) for p in pool]
    with ThreadPoolExecutor(max_workers=8) as ex:
        threaded = list(ex.map(is_m_partition, pool))
    assert threaded == serial
