from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpart.core import DomainError, extension_range_m1, extension_range_m12
from mpart.counting import (
    BinarySeries,
    CountTable,
    a,
    a_even_pairing_check,
    a_simple,
    a_upper_half_via_b,
    b,
    build_table,
    defect,
    gf_coefficients,
    in_upper_half,
)
from mpart.enumeration import count_by_enumeration


@lru_cache(maxsize=None)
def recurrence_oracle(m):
    """a_m straight from the two-level truncation recurrence, summed over
    the ranges of ``extension_range_m1``/``extension_range_m12`` and memoised;
    shares no code with the dense sweep of ``build_table``."""
    if m == 1:
        return 1
    return sum(
        recurrence_oracle(m1)
        - sum(recurrence_oracle(m12) for m12 in extension_range_m12(m1, m))
        for m1 in extension_range_m1(m)
    )


# ---------------------------------------------------------------- recurrence


def test_a_examples():
    assert a(16) == 12
    assert a(32) == 84
    assert a(25) == 6
    assert a(1) == 1


def test_a_16_decomposes_as_documented():
    table = CountTable()
    pieces = []
    for m1 in extension_range_m1(16):
        inner = sum(a(m12, table) for m12 in extension_range_m12(m1, 16))
        pieces.append(a(m1, table) - inner)
    assert pieces == [3, 4, 3, 4 - 2]
    assert sum(pieces) == a(16, table) == 12


def test_a_rejects_zero():
    with pytest.raises(ValueError):
        a(0)


def test_a_memoizes_into_the_given_table():
    table = CountTable()
    a(40, table)
    assert 40 in table
    assert table[40] == 60
    assert table.memo[20] == 11
    assert a(20, table) == 11
    assert table.dense_limit == len(table.memo) == 40


def test_a_answers_upper_half_past_the_table_by_the_closed_form(table14):
    for m in range(2, 1025):
        if in_upper_half(m):
            assert a(m, CountTable()) == table14[m], m
    table = CountTable()
    assert a(2**40 - 1, table) == a(2**40 - 2, table) == 1
    assert a(2**40 - 9, table) == 10  # b_4
    assert table.dense_limit == 1
    assert a_even_pairing_check(2**40 - 2)
    assert defect(2**40 - 2) == 0


def test_memo_view_is_read_only():
    table = CountTable()
    a(10, table)
    with pytest.raises(TypeError):
        table.memo[10] = 99


def test_all_counts_positive(table14):
    assert all(v >= 1 for v in table14.memo.values())


# ---------------------------------------------------------------- dense table


def test_build_table_matches_known_counts(counts64):
    table = build_table(64)
    assert [table[m] for m in range(1, 65)] == counts64[1:]


def test_build_table_m1():
    table = build_table(1)
    assert table[1] == 1
    assert table.dense_limit == 1


def test_build_table_extension_never_rewrites(table14):
    table = build_table(100)
    before = dict(table.memo)
    build_table(300, table)
    assert table.dense_limit == 300
    assert all(table[m] == v for m, v in before.items())
    # a table that already covers M comes back as it is
    before = dict(table.memo)
    assert build_table(300, table) is table and build_table(7, table) is table
    assert dict(table.memo) == before
    # one entry at a time, across m = 16 where the subtraction branch first
    # runs and every binade edge up to 512: each entry reads only earlier ones
    table = build_table(1)
    for k in range(2, 601):
        assert build_table(k, table) is table and table.dense_limit == k
    assert list(table.values()) == [table14[m] for m in range(1, 601)]


def test_dense_and_sparse_evaluators_agree(table14):
    for m in (*range(1, (1 << 10) + 1), 2000, 4097):
        assert recurrence_oracle(m) == table14[m], m


def test_range_sum_paths_agree(table14):
    assert table14.range_sum(8, 11) == sum(table14[i] for i in range(8, 12))
    assert table14.range_sum(5, 4) == 0
    small = build_table(10)
    assert small.range_sum(1, 5) == 6
    for lo, hi in ((0, 5), (-3, 2), (4, 11)):
        with pytest.raises(KeyError):
            small.range_sum(lo, hi)
    for m in (0, -1, 11, "x", 2.5, None):
        assert m not in small
        assert small.get(m) is None
        with pytest.raises(KeyError):
            small[m]


# ---------------------------------------------------------------- upper half


def test_in_upper_half_edges():
    assert [m for m in range(1, 24) if in_upper_half(m)] == [
        2, 3, 5, 6, 7, 11, 12, 13, 14, 15, 23,
    ]


def test_a_simple_examples():
    assert a_simple(25) == 6
    assert a_simple(14) == 1
    assert a_simple(63) == 1
    table = CountTable()
    assert a_simple(25, table) == 6
    assert table.dense_limit == 15


def test_a_simple_rejects_lower_half():
    for m in (1, 4, 16, 22, 64):
        with pytest.raises(DomainError):
            a_simple(m)
    for m in (0, -3):  # a nonpositive m is bad input, not out of domain
        with pytest.raises(ValueError, match="positive") as exc:
            a_simple(m)
        assert not isinstance(exc.value, DomainError)


def test_a_simple_agrees_with_recurrence_everywhere(table14):
    for m in range(2, (1 << 14) + 1):
        if in_upper_half(m):
            assert a_simple(m, table14) == table14[m], m


# ---------------------------------------------------------------- b series


def test_b_examples():
    assert b(0) == 1
    assert b(3) == 6
    assert b(6) == 20


def test_b_rejects_negative():
    with pytest.raises(ValueError):
        b(-1)


def test_b_summation_identity(bser):
    # b_j equals the running sum of b_(i//2) for i <= j
    total = 0
    for j in range(4097):
        total += bser.value(j >> 1)
        assert total == bser.value(j), j


def test_b_counts_binary_partitions():
    # independent route: partitions of 2j into powers of two, by brute force
    @lru_cache(maxsize=None)
    def bp(n, biggest):
        if n == 0:
            return 1
        while biggest > n:
            biggest >>= 1
        if biggest == 1:
            return 1
        return bp(n - biggest, biggest) + bp(n, biggest >> 1)

    for j in range(49):
        assert b(j) == bp(2 * j, 1 << (2 * j).bit_length()), j


def test_binary_series_prefix_is_a_copy(bser):
    pre = bser.prefix(10)
    assert pre == [1, 2, 4, 6, 10, 14, 20, 26, 36, 46, 60]
    pre[0] = 999
    assert bser.value(0) == 1


# ---------------------------------------------------------------- gf route


def test_gf_examples():
    assert gf_coefficients(0) == [1]
    assert gf_coefficients(4) == [1, 2, 4, 6, 10]
    assert gf_coefficients(6)[6] == 20
    with pytest.raises(ValueError):
        gf_coefficients(-1)


def test_gf_factor_order_is_immaterial():
    # same truncated product with the strided factors applied in any order
    def product_in_order(N, steps):
        c = [0] * (N + 1)
        c[0] = 1
        for step in steps:
            for i in range(step, N + 1):
                c[i] += c[i - step]
        for i in range(1, N + 1):
            c[i] += c[i - 1]
        return c

    N = 200
    steps = [1 << j for j in range(N.bit_length())]
    expect = gf_coefficients(N)
    assert product_in_order(N, steps[::-1]) == expect
    assert product_in_order(N, [4, 1, 64, 2, 128, 8, 32, 16]) == expect


def test_series_coefficients_method_matches_cache(bser):
    assert gf_coefficients(100) == bser.prefix(100)


# ---------------------------------------------------------------- closed form


def test_a_upper_half_via_b_examples(bser):
    assert a_upper_half_via_b(25, bser) == 6
    assert a_upper_half_via_b(30, bser) == 1
    assert a_upper_half_via_b(48, bser) == 26


def test_a_upper_half_via_b_rejects_lower_half():
    for m in (1, 4, 16, 64):
        with pytest.raises(DomainError):
            a_upper_half_via_b(m)
    for m in (0, -3):  # a nonpositive m is bad input, not out of domain
        with pytest.raises(ValueError, match="positive") as exc:
            a_upper_half_via_b(m)
        assert not isinstance(exc.value, DomainError)


@settings(max_examples=60)
@given(st.integers(2, 1 << 14))
def test_upper_half_routes_agree(table14, bser, m):
    if in_upper_half(m):
        want = table14[m]
        assert a_upper_half_via_b(m, bser) == want
        assert a_simple(m, table14) == want


# ---------------------------------------------------------------- defect


def test_defect_examples(table14, bser):
    assert defect(25, table14, bser) == 0
    assert defect(16, table14, bser) == 26 - 12  # b_7 - a_16
    assert defect(63, table14, bser) == 0
    assert defect(1, table14, bser) == 0


def test_defect_zero_exactly_on_upper_half(table14, bser):
    for m in range(2, 1025):
        d = defect(m, table14, bser)
        assert d >= 0, m
        assert (d == 0) == in_upper_half(m), m


# ---------------------------------------------------------------- pairing


def test_even_pairing_examples(table14):
    assert a_even_pairing_check(24, table14)
    assert a_even_pairing_check(56, table14)
    assert a_even_pairing_check(60, table14)


def test_even_pairing_domain_errors(table14):
    with pytest.raises(DomainError):
        a_even_pairing_check(25, table14)  # odd
    with pytest.raises(DomainError):
        a_even_pairing_check(16, table14)  # below the window (starts at 24)
    with pytest.raises(DomainError):
        a_even_pairing_check(4, table14)


# ---------------------------------------------------------------- cross-route


def test_recurrence_matches_enumeration_spot_checks(table14):
    for m in (1, 2, 3, 16, 100, 170, 255, 256, 300):
        assert table14[m] == count_by_enumeration(m), m
