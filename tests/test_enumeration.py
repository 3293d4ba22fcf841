import itertools
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpart import enumeration
from mpart.core import Partition, is_m_partition, is_weak_m_partition, num_parts
from mpart.counting import build_table
from mpart.enumeration import (
    _last_two,
    _leaves,
    count_by_enumeration,
    iter_m_partitions,
    oracle_is_weak,
    subset_sums,
)

part_lists = st.lists(st.integers(1, 48), min_size=1, max_size=10).map(sorted)


def P(*parts):
    return Partition(tuple(parts))


# ---------------------------------------------------------------- subset sums


def _attains(reach, x):
    # bit x of the mask: sum x is attainable
    return reach.bits >> x & 1 == 1


def test_subset_sums_examples():
    full = subset_sums(P(1, 2, 4))
    assert all(_attains(full, x) for x in range(8))
    assert full.is_complete()

    gap = subset_sums(P(1, 2, 4, 8, 19, 19))
    assert not _attains(gap, 16)
    assert _attains(gap, 15) and _attains(gap, 19)
    assert not gap.is_complete()

    assert subset_sums(P(1, 1, 3, 3)).is_complete()


def test_subset_sums_membership_endpoints():
    s = subset_sums(P(2, 5))
    assert _attains(s, 0) and _attains(s, s.total)
    assert not _attains(s, s.total + 1)
    assert [x for x in range(s.total + 1) if _attains(s, x)] == [0, 2, 5, 7]


def test_oracle_examples():
    assert oracle_is_weak(P(1, 2, 4, 8, 16, 22))
    assert not oracle_is_weak(P(1, 2, 5))
    assert oracle_is_weak(P(1, 2, 3, 7, 13, 27))


def _part_lists(total, top):
    # every nondecreasing part list of total with parts at most top
    if total == 0:
        yield ()
        return
    for last in range(min(total, top), 0, -1):
        for rest in _part_lists(total - last, last):
            yield rest + (last,)


def test_oracle_bitmask_and_predicate_agree_with_combination_sums():
    # a third route: coverage from the sums of every sub-multiset, listed by
    # itertools.combinations, with no bitmask and no prefix sums
    covering = 0
    for total in range(1, 15):
        for parts in _part_lists(total, total):
            sums = {sum(c) for r in range(len(parts) + 1) for c in itertools.combinations(parts, r)}
            covers = sums == set(range(total + 1))
            p = Partition(parts)
            assert oracle_is_weak(p) == covers, parts
            assert subset_sums(p).is_complete() == covers, parts
            assert is_weak_m_partition(p) == covers, parts
            covering += covers
    # all 507 lists of total <= 14, both sides of the property
    assert covering == 265


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


def test_cursor_partitions_keep_the_record_contract():
    # all but each leaf's two ends skip the checked constructor; every one
    # must still be the record that constructor builds
    for m in range(1, 257):
        ps = list(iter_m_partitions(m))
        assert all(type(p) is Partition for p in ps), m
        # pickle rebuilds each record as Partition(p.parts), so the round
        # trip is also the checked constructor's copy of each
        checked = pickle.loads(pickle.dumps(ps))
        assert all(type(q) is Partition for q in checked), m
        assert ps == checked, m
        assert list(map(hash, ps)) == list(map(hash, checked)), m
        assert all(p.total == q.total == sum(p.parts) == m for p, q in zip(ps, checked)), m
        for p in ps:
            for name in ("parts", "total"):
                try:
                    setattr(p, name, None)
                except AttributeError:
                    continue
                pytest.fail(f"assigned {name} of {p!r}")


# (prefix, lo, hi) of one leaf of Mp(40): 1+2+3+6 leaves rest = 28 for the
# last two parts, so their valid range is 6..14
_BAD_LEAVES = {
    "lo below the prefix's last part": ((1, 2, 3, 6), 5, 8),
    "hi past rest - hi": ((1, 2, 3, 6), 10, 15),
}


@pytest.mark.parametrize("leaf", _BAD_LEAVES.values(), ids=_BAD_LEAVES)
def test_a_corrupt_leaf_raises_before_any_of_its_partitions(monkeypatch, leaf):
    m = 40
    n = m.bit_length() - 1
    good = next(_leaves(m, n - 1))
    good = (list(good[0]), *good[1:])
    prefix, lo, hi = leaf
    bad = (list(prefix), lo, hi, m - sum(prefix))

    def leaves(m_, stop):
        assert (m_, stop) == (m, n - 1)
        yield good
        yield bad

    monkeypatch.setattr(enumeration, "_leaves", leaves)
    seen = []
    with pytest.raises(ValueError):
        for p in iter_m_partitions(m):
            seen.append(p.parts)
    rest = good[3]
    pre = tuple(good[0])
    assert seen == [pre + (v, rest - v) for v in range(good[1], good[2] + 1)]


def test_count_examples():
    assert count_by_enumeration(16) == 12
    assert count_by_enumeration(64) == 908
    assert count_by_enumeration(7) == 1


def test_count_matches_stream():
    for m in range(1, 201):
        assert count_by_enumeration(m) == sum(1 for _ in iter_m_partitions(m)), m


def test_last_two_closed_form_equals_the_walk_one_position_deeper():
    # the counter's nodes sit at the third-largest part; the cursor's walk
    # one position deeper must reach, below each node, every v of its
    # interval (no interval of the second-largest part is empty), with the
    # interval that _last_two assumes, and the closed form must equal the
    # sum of those interval lengths
    for m in range(1, 301):
        if m < 4:
            assert count_by_enumeration(m) == 1 == len(list(iter_m_partitions(m)))
            continue
        n = m.bit_length() - 1
        below = {}
        for buf, lo, hi, _ in _leaves(m, n - 1):
            below.setdefault(tuple(buf[: n - 2]), []).append((buf[n - 2], lo, hi))
        for buf, lo, hi, rest in _leaves(m, n - 2):
            node = tuple(buf[: n - 2])
            seen = below.pop(node)
            assert [v for v, _, _ in seen] == list(range(lo, hi + 1)), (m, node)
            s = m - rest
            for v, lo2, hi2 in seen:
                assert lo2 == max(v, m // 2 - s - v), (m, node, v)
                assert hi2 == min(1 + s + v, (m - s - v) // 2), (m, node, v)
            direct = sum(hi2 - lo2 + 1 for _, lo2, hi2 in seen)
            assert _last_two(m, s, lo, hi) == direct, (m, node)
        assert not below, m


def test_last_two_at_its_breakpoints():
    # _last_two splits lo..hi at p and q; the sub-intervals of the counter's
    # intervals that start or end on either side of each breakpoint must
    # count as many points (v, u) as a direct search finds: v the
    # third-largest part, u the second-largest and m - s - v - u the largest
    ties = set()
    for m in range(4, 256):
        n = m.bit_length() - 1
        for _, lo, hi, rest in _leaves(m, n - 2):
            s = m - rest
            p = (m - 3 * s - 2) // 3
            q = -(-(m // 2 - s) // 2)
            for name, t in (("p", p), ("p + 1", p + 1), ("q - 1", q - 1), ("q", q)):
                for side, a, b in (("lo", t, hi), ("hi", lo, t)):
                    if not lo <= a <= b <= hi:
                        continue
                    direct = sum(
                        1
                        for v in range(a, b + 1)
                        for u in range(v, 2 + s + v)
                        if u <= m - s - v - u <= 1 + s + v + u
                    )
                    assert _last_two(m, s, a, b) == direct, (m, s, a, b)
                    ties.add(f"{side} == {name}")
    assert ties == {f"{side} == {t}" for side in ("lo", "hi") for t in ("p", "p + 1", "q - 1", "q")}


def test_count_at_the_enumerate_budget_edge():
    # 98547380 is the largest a_m <= 10**8 below 4096 (a_3470 = a_3471),
    # so count --method enumerate still counts it
    assert count_by_enumeration(3470) == build_table(3470)[3470] == 98547380


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
