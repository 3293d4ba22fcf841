import random
import tracemalloc
from functools import lru_cache
from hashlib import sha256
from itertools import accumulate
from math import comb
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpart import cli, counting
from mpart.core import DomainError, extension_range_m1, extension_range_m12
from mpart.counting import (
    _T_ROWS,
    _TABLE_HEAD,
    BinarySeries,
    CountTable,
    _b_by_halving,
    _halve,
    _lower_half,
    _repeat,
    _t_head,
    a,
    a_even_pairing_check,
    a_simple,
    a_upper_half_via_b,
    build_table,
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


def upper_half_sum(m, prefix):
    """a_m on the upper half by the paper's identity, the sum of a_i over
    floor(m/2) <= i <= 2^n - 1, from running sums prefix[t] = a_1 + ... + a_t
    that the test builds itself; reads neither the table's S nor range_sum."""
    top = (1 << (m.bit_length() - 1)) - 1
    return prefix[top] - prefix[(m >> 1) - 1]


@pytest.fixture(scope="module")
def prefix14(table14):
    return list(accumulate((table14[m] for m in range(1, (1 << 14) + 1)), initial=0))


def stride_two_sweep(M):
    """(A, S) of a_1..a_M by the dense sweep that ``build_table`` used to
    run: each subtraction term read afresh from a third array Q, the
    stride-two prefix of S (Q[t] = S[t] + S[t-2] + ..., so
    S[0] + ... + S[t] = Q[t] + Q[t-1]), with no term carried between m."""
    A, S, Q = [0, 1], [0, 1], [0, 1]
    for m in range(2, M + 1):
        n = m.bit_length() - 1
        lo = m >> 1
        hi = min((m + (1 << (n - 1)) - 1) >> 1, (1 << n) - 1)
        val = S[hi] - S[lo - 1]
        m1s = (2 * m + 3) // 3
        if m1s <= hi:
            # S[2*m1 - m - 1] over m1s..hi, then S[m1//2 - 1]: each t in
            # t0..t1 twice, less t0 if m1s is odd and t1 if hi is even
            i0, i1 = 2 * m1s - m - 1, 2 * hi - m - 1
            val -= Q[i1] - Q[i0 - 2]
            t0, t1 = m1s >> 1, hi >> 1
            val += 2 * (Q[t1 - 1] + Q[t1 - 2] - Q[t0 - 2] - Q[t0 - 3])
            val -= S[t0 - 1] if m1s & 1 else 0
            val -= 0 if hi & 1 else S[t1 - 1]
        A.append(val)
        S.append(S[-1] + val)
        Q.append(S[-1] + Q[-2])
    return A, S


def b_prefix_sum(x):
    """b_0 + ... + b_x for x >= 0 by halving, one full pass per call; the
    oracle for the one-pass b_j as b_prefix_sum(j) - b_prefix_sum(j - 1).

    Write T(P, x) for the sum of P(i) * b_i over 0 <= i <= x, P a
    polynomial.  As b_i is the sum of b_(k//2) over k <= i, grouping the k
    by k//2 gives T(P, x) = T(P', x//2) with

        P'(t) = R(2t) + R(2t+1) = 2F(x) - F(2t-1) - F(2t),

    where R(k) = P(k) + ... + P(x) and F(y) = P(0) + ... + P(y), F(-1) = 0;
    the base case is T(P, 0) = P(0).  This is T(1, x).  P is held as its
    forward differences at 0, so F(x) is one Newton sum, and P' is read off
    the values of F at -1..2d+2.
    """
    lead = [1]
    while x:
        d = len(lead) - 1
        # F(x) = sum over r of lead[r] * C(x+1, r+1)
        F, c = 0, 1
        for r, v in enumerate(lead):
            c = c * (x + 1 - r) // (r + 1)
            F += v * c
        # P at 0..2d+2 by summing the difference rows back up from the
        # constant d-th one, then Fs[y + 1] = F(y) for -1 <= y <= 2d+2
        vals = [lead[-1]] * (d + 3)
        for v in reversed(lead[:-1]):
            vals = list(accumulate(vals, initial=v))
        Fs = list(accumulate(vals, initial=0))
        row = [2 * F - Fs[2 * t] - Fs[2 * t + 1] for t in range(d + 2)]
        lead = []
        while row:
            lead.append(row[0])
            row = list(map(sub, row[1:], row))
        x >>= 1
    return lead[0]


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


def test_a_fills_a_given_table_only_up_to_hi(monkeypatch):
    # the entry of 40 reads a_i up to hi = 27: a fills the table that far,
    # never with a_40 itself, and reads what it holds without building
    table = CountTable()
    assert a(40, table) == 60
    assert extension_range_m1(40).hi == 27
    assert table.dense_limit == len(table.memo) == 27
    assert 40 not in table
    assert table.memo[20] == 11
    assert a(40, table) == 60 and table.dense_limit == 27

    def no_build(*args):
        raise AssertionError("build_table called on a covering table")

    monkeypatch.setattr(counting, "build_table", no_build)
    assert a(20, table) == 11


def test_a_answers_upper_half_past_the_table_by_the_closed_form(table14):
    for m in range(2, 1025):
        if in_upper_half(m):
            assert a(m, CountTable()) == table14[m], m
    table = CountTable()
    assert a(2**40 - 1, table) == a(2**40 - 2, table) == 1
    assert a(2**40 - 9, table) == 10  # b_4
    assert a_even_pairing_check(2**64 + 2**63 + 6, table)  # b_(2^62 - 4) twice
    assert table.dense_limit == 1
    assert a_even_pairing_check(2**40 - 2)
    assert defect(2**40 - 2) == 0


def test_a_without_a_table_tabulates_only_what_its_entry_reads(monkeypatch):
    # every lower half below 2^12, and the edges of the lower halves of
    # 2^12..2^16: the first two m of each and its last two.  With no table
    # or a fresh one, a builds one table, to hi; a table already past hi but
    # short of m gains nothing
    edges = [
        m
        for n in range(12, 17)
        for m in ((1 << n), (1 << n) + 1, (3 << (n - 1)) - 3, (3 << (n - 1)) - 2)
    ]
    lower = [m for m in range(1, 1 << 12) if not in_upper_half(m)] + edges
    assert all(not in_upper_half(m) for m in edges) and in_upper_half(edges[-1] + 1)
    ref = build_table(edges[-1])
    sizes = []
    monkeypatch.setattr(
        counting, "build_table", lambda M, table=None: sizes.append(M) or build_table(M, table)
    )
    past = CountTable()
    for m in lower:
        for args in ((m,), (m, CountTable())):
            sizes.clear()
            assert a(*args) == ref[m], args
            if m > 1:  # one table, of 2/3 to 3/4 of m
                (hi,) = sizes
                assert hi == extension_range_m1(m).hi, (args, hi)
                assert 2 * m <= 3 * hi + 3 and 4 * hi <= 3 * m, (m, hi)
        if m > 1:
            build_table(m - 1, past)
        limit = past.dense_limit
        assert a(m, past) == ref[m] and past.dense_limit == limit == max(m - 1, 1), m


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


def test_build_table_equals_the_stride_two_sweep():
    A, S = stride_two_sweep(1 << 12)
    table = build_table(1 << 12)
    assert table._A == A and table._S == S
    # from every cut below 600 the carried subtraction terms start afresh
    for c in range(1, 600):
        table = build_table(600, build_table(c))
        assert table._A == A[:601] and table._S == S[:601], c


def test_table_head_is_the_sweep_of_a_1_to_31(counts64):
    # every table starts from this head, built at import by build_table's loop
    A, S = stride_two_sweep(31)
    assert _TABLE_HEAD._A == A and _TABLE_HEAD._S == S
    assert _TABLE_HEAD._A[1:] == counts64[1:32]
    assert _TABLE_HEAD.dense_limit == counting._HEAD - 1 == 31


def test_no_table_changes_or_shares_a_list_of_the_head():
    # Every table copies what it lacks of the head, from a cut below, inside
    # or past it, and a lower-half a fills one up to hi.  The head's lists
    # keep their values and lengths throughout, and no table holds one of
    # them: a table that did would grow it, or be grown by the next copy.
    head = (_TABLE_HEAD._A, _TABLE_HEAD._S)
    A, S = map(list, head)

    def check(table, key):
        assert _TABLE_HEAD._A == A and _TABLE_HEAD._S == S, key
        assert not any(x is y for x in (table._A, table._S) for y in head), key

    check(CountTable(), None)
    for c in range(1, 41):
        table = build_table(c)
        check(table, c)
        check(build_table(600, table), c)
    for m in range(2, 300):
        if not in_upper_half(m):
            table = CountTable()
            a(m, table)
            check(table, m)


def test_build_table_extends_from_binade_and_half_edges():
    # Cuts at 2^n - 2 .. 2^n + 2, where a lower half starts, and at
    # 3*2^(n-1) - 4 .. 3*2^(n-1), where its subtraction terms run out, each
    # extended by 300 entries.  A table given the sweep's A and S up to the
    # cut stands in for build_table(cut): they are all an extension reads.
    cuts = [
        c
        for n in range(4, 19)
        for start in ((1 << n) - 2, (3 << (n - 1)) - 4)
        for c in range(start, start + 5)
    ]
    A, S = stride_two_sweep(1 << 19)  # past 2^(n+1) for n = 18
    # whole, so the middle of every lower half up to 2^18 is compared too
    table = build_table(1 << 19)
    assert table._A == A and table._S == S
    for c in cuts:
        table = CountTable()
        table._A, table._S = A[: c + 1], S[: c + 1]
        build_table(c + 300, table)
        assert table._A == A[: c + 301] and table._S == S[: c + 301], c
    # The upper half is filled as one block of pairs (2t, 2t+1).  Cuts at
    # 3*2^(n-1) - 2 .. 3*2^(n-1) + 2 start it at either parity, and the
    # extensions end at 2^(n+1) - 3 .. 2^(n+1), one entry at a time, on
    # either parity inside the block or just past it.
    for n in range(4, 19):
        for c in range((3 << (n - 1)) - 2, (3 << (n - 1)) + 3):
            table = CountTable()
            table._A, table._S = A[: c + 1], S[: c + 1]
            for M in range((2 << n) - 3, (2 << n) + 1):
                build_table(M, table)
                assert table._A == A[: M + 1] and table._S == S[: M + 1], (c, M)


def subtraction_term(S, m, h):
    """T(m) of a lower-half m summed afresh, one m1 at a time, with
    hi = (m + h) >> 1, h = 2^(n-1) - 1."""
    hi = (m + h) >> 1
    return sum(S[2 * m1 - m - 1] - S[m1 // 2 - 1] for m1 in range((2 * m + 3) // 3, hi + 1))


def test_lower_half_needs_no_clamp_and_carries_every_term():
    # The facts build_table's lower half rests on, brute-forced over every
    # lower-half m of the binades 2^4..2^16: hi = (m + 2^(n-1) - 1) >> 1 is at
    # most 2^n - 2, so extension_range_m1's clamp to 2^n - 1 never binds; a
    # subtraction term at m implies one at m - 2 whenever m - 2 is in the same
    # half, so past a run's first two m every term is carried; the m with no
    # term are exactly the half's last m and last - 1, last - 2 and last - 4,
    # and none below 16 has one; and the carried step is the one step
    # S[ceil(m/3) - 2] - S[(m + h)//4 - 1], h = 2^(n-1) - 1.
    _, S = stride_two_sweep(1 << 16)

    for m in range(2, 16):
        assert in_upper_half(m) or not extension_range_m12(extension_range_m1(m).hi, m), m
    for n in range(4, 17):
        first, last = 1 << n, (3 << (n - 1)) - 2
        h = (1 << (n - 1)) - 1
        has_term = {}
        for m in range(first, last + 1):
            hi = (m + h) >> 1
            assert hi <= (1 << n) - 2 and extension_range_m1(m).hi == hi, m
            m1s = (2 * m + 3) // 3
            has_term[m] = m1s <= hi
            assert has_term[m] == bool(extension_range_m12(hi, m)), m
            if has_term[m] and m - 2 >= first:
                assert has_term[m - 2], m
                # j is m1s of m - 2: moving the run up by one m1 reads
                # S[j//2 - 1] and S[hi//2 - 1], the one step's indices, and
                # where m1s moves by two the term left behind reads one index
                # of S twice, so it is 0
                j = (2 * m - 1) // 3
                assert (j >> 1) - 1 == -(-m // 3) - 2 and (hi >> 1) - 1 == (m + h) // 4 - 1, m
                assert j + 2 != m1s or ((j + 1) >> 1) - 1 == 2 * m1s - m - 3, m
        assert has_term[first] and not has_term[last], n
        assert {m for m, t in has_term.items() if not t} == {last - 4, last - 2, last - 1, last}, n
        # T(m) = T(m - 2) + the step at every m of the half, the last four
        # too, where it takes T to 0: at the edges of every half, and at
        # every m up to 2^10
        edges = [*range(first + 2, first + 40), *range(last - 40, last + 1)]
        for m in range(first + 2, last + 1) if n <= 10 else edges:
            step = S[-(-m // 3) - 2] - S[(m + h) // 4 - 1]
            assert subtraction_term(S, m, h) == subtraction_term(S, m - 2, h) + step, m


def test_lower_half_outer_sum_cancels_half_the_step():
    # The identity _lower_half's running sum rests on, brute-forced over the
    # lower halves of 2^4..2^16: hi = (m + h) >> 1 lies in the upper half of
    # binade n - 1, so A[hi] = S[h] - S[hi//2 - 1], whose index is the one
    # the step of T subtracts; E(m) = S[hi] - T(m) then steps by
    # S[h] - S[ceil(m/3) - 2] alone, and a_m = E(m) - S[m//2 - 1].  At every
    # m up to 2^10, and at the edges of each half after that.
    A, S = stride_two_sweep(3 << 15)  # a_m to the last m of 2^16's half

    def E(m, h):
        return S[(m + h) >> 1] - subtraction_term(S, m, h)

    for n in range(4, 17):
        first, last = 1 << n, (3 << (n - 1)) - 2
        h = (1 << (n - 1)) - 1
        edges = [*range(first, first + 40), *range(last - 40, last + 1)]
        for m in range(first, last + 1) if n <= 10 else edges:
            hi = (m + h) >> 1
            assert hi.bit_length() - 1 == n - 1 and in_upper_half(hi), m
            assert A[hi] == S[h] - S[(hi >> 1) - 1] and (hi >> 1) - 1 == (m + h) // 4 - 1, m
            assert E(m, h) - S[(m >> 1) - 1] == A[m], m
            if m - 2 >= first:
                assert E(m, h) - E(m - 2, h) == S[h] - S[-(-m // 3) - 2], m


class _Bounded(list):
    """A list that raises on any index or slice bound outside it, where a
    plain list would wrap a negative one or clip a slice, and on iteration,
    which would read it past any bound."""

    def __iter__(self):
        raise TypeError("read S by index or slice only")

    def __getitem__(self, i):
        if isinstance(i, slice):
            inside = all(b is None or 0 <= b <= len(self) for b in (i.start, i.stop))
        else:
            inside = 0 <= i < len(self)
        if not inside:
            raise IndexError(i)
        return super().__getitem__(i)


def test_lower_half_reads_only_S_below_its_binade():
    # build_table appends each lower half in one step, so no entry of it may
    # read S at 2^n or past it.  Starts at the first, second, middle and last
    # two m of each half, and at last - 4 and last - 2, where an even run
    # starts with no term; ends at start, start + 3 and the half's last m.
    table = build_table(1 << 15)
    ranges = 0
    for n in range(2, 15):
        first, last = 1 << n, (3 << (n - 1)) - 2
        below = _Bounded(table._S[: 1 << n])
        starts = {first, first + 1, (first + last) // 2, last - 4, last - 2, last - 1, last}
        for start in starts & {*range(first, last + 1)}:
            for end in {start, min(start + 3, last), last}:
                got = _lower_half(below, start, end)
                assert got == table._A[start : end + 1], (n, start, end)
                ranges += 1
    assert ranges == 192


def test_lower_half_matches_the_table_on_every_range():
    # Every (start, end) in the lower halves of 2^2..2^8: each parity of the
    # start, and each residue of it mod 3 and mod 4, where the repeated
    # slices of the step could slip by one.
    table = build_table(1 << 9)
    ranges = 0
    for n in range(2, 9):
        first, last = 1 << n, (3 << (n - 1)) - 2
        below = _Bounded(table._S[: 1 << n])
        for start in range(first, last + 1):
            for end in range(start, last + 1):
                assert _lower_half(below, start, end) == table._A[start : end + 1], (start, end)
                ranges += 1
    assert ranges == sum(L * (L + 1) // 2 for L in (2 ** (n - 1) - 1 for n in range(2, 9)))


def test_repeat_gives_each_item_r_times_in_a_row():
    xs = [10**30 + i for i in range(7)]
    for r in (2, 3):
        out = _repeat(xs, r)
        naive = [x for x in xs for _ in range(r)]
        assert out == naive, r
        assert all(y is x for y, x in zip(out, naive)), r
    assert _repeat([], 2) == [] and _repeat([], 3) == []


def test_upper_half_pairs_share_one_int():
    # a_2t = a_(2t+1) on an upper half is one stored int, whether the table
    # is built at once or extended from a cut at either parity inside an
    # upper half; only the pair a cut splits, (c, c + 1) for an even c, is
    # two objects
    M = 1 << 13
    ref = build_table(M)
    cuts = [
        c
        for n in (4, 7, 10, 12)
        for c in (*range((3 << (n - 1)) - 1, (3 << (n - 1)) + 3), (2 << n) - 3, (2 << n) - 2)
    ]
    for c in (None, *cuts):
        table = build_table(M, None if c is None else build_table(c))
        assert table._A == ref._A, c
        A = table._A
        for t in range(1, M // 2):
            if in_upper_half(2 * t) and 2 * t != c:
                assert A[2 * t] is A[2 * t + 1], (c, 2 * t)


def test_build_table_holds_two_ints_an_entry():
    # A and S only: traced bytes per entry of build_table(2**15), 84 B
    # measured on CPython 3.11.7, with about 20% headroom; the three arrays
    # of the stride-two sweep took 136 B
    M = 1 << 15
    tracemalloc.start()
    try:
        table = build_table(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dense_limit == M
    assert peak / M <= 101, peak / M


def test_a_is_at_least_a_of_half_m(table14):
    # appending ceil(m/2) extends every M-partition of m//2; the cli refuses a
    # far --method enumerate on this bound
    assert all(table14[m] >= table14[m // 2] for m in range(2, (1 << 14) + 1))


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


def test_table_keys_are_exactly_the_ints_1_to_dense_limit():
    small = build_table(10)
    present = ((1, 1), (10, 3), (True, 1))  # True == 1 reads a_1, as a dict would
    # 0 is the padding, -1 and -10 would wrap round to a_10 and a_1, and 1.0
    # is absent, unlike in a dict
    absent = (0, 11, -1, -10, 2**64, -(2**64), False, 1.0, 2.5, "1", None, (1,))
    for key, value in present:
        assert key in small and small.get(key) == small[key] == value, key
    for key in absent:
        assert key not in small and small.get(key) is None, key
        with pytest.raises(KeyError):
            small[key]


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
    assert table.dense_limit == 25


def test_a_simple_rejects_lower_half():
    for m in (1, 4, 16, 22, 64):
        with pytest.raises(DomainError):
            a_simple(m)
    for m in (0, -3):  # a nonpositive m is bad input, not out of domain
        with pytest.raises(ValueError, match="positive") as exc:
            a_simple(m)
        assert not isinstance(exc.value, DomainError)


def test_a_simple_agrees_with_recurrence_everywhere(table14, prefix14):
    for m in range(2, (1 << 14) + 1):
        if in_upper_half(m):
            assert a_simple(m, table14) == table14[m], m
            assert upper_half_sum(m, prefix14) == table14[m], m


def test_a_simple_reads_the_dense_table(table14, monkeypatch):
    def closed_form(*args):
        raise AssertionError("a_simple answered by the closed form")

    monkeypatch.setattr(counting, "a_upper_half_via_b", closed_form)
    monkeypatch.setattr(counting, "_b_by_halving", closed_form)
    for m in (2, 25, 1535, 2047, 3500, 12287, (1 << 14) - 1):
        assert a_simple(m, table14) is table14[m], m
    # m = 3500 lies in 2^11's upper half, which starts at 3071: cuts below
    # and at 2^n - 1 = 2047, in the lower half, and in the upper half below m
    for cut in (1, 100, 2046, 2047, 2500, 3070, 3071, 3499):
        table = build_table(cut)
        assert a_simple(3500, table) == table14[3500], cut
        assert table.dense_limit == 3500, cut


def test_a_simple_reads_a_covering_table_without_building(table14, monkeypatch):
    def build(*args):
        raise AssertionError("a_simple entered build_table")

    monkeypatch.setattr(counting, "build_table", build)
    for m in (2, 3, 25, 1535, 3071, 12287, (1 << 14) - 1):
        assert a_simple(m, table14) is table14[m], m


# ---------------------------------------------------------------- b series


def test_b_examples():
    assert BinarySeries().value(0) == 1
    assert BinarySeries().value(3) == 6
    assert BinarySeries().value(6) == 20


def test_b_rejects_negative():
    with pytest.raises(ValueError):
        BinarySeries().value(-1)


def test_b_summation_identity(bser):
    # b_j equals the running sum of b_(i//2) for i <= j
    total = 0
    for j in range(4097):
        total += bser.value(j >> 1)
        assert total == bser.value(j), j
    # far past any cache, where value() halves: the defining recurrence
    for j in (2**62 + 3, 2**100 + 6):
        assert bser.value(j) - bser.value(j - 1) == bser.value(j >> 1), j


def test_b_by_halving_matches_the_series():
    ref = BinarySeries().prefix(8192)
    # the two-pass oracle, on every x < 2^12
    assert [b_prefix_sum(x) for x in range(1 << 12)] == list(accumulate(ref[: 1 << 12]))
    # value() on a fresh series halves every j past the cache without
    # filling it; only prefix fills the cache, and value() then reads it
    series = BinarySeries()
    for j in (1, 4095, 4096, 4097, 8192):
        assert series.value(j) == ref[j] and len(series._b) == 1, j
    series.prefix(10)
    assert len(series._b) == 11  # prefix always fills the cache
    assert [series.value(j) for j in range(11)] == ref[:11]


def test_one_halving_pass_matches_the_product():
    assert [_b_by_halving(j) for j in range(1 << 12)] == gf_coefficients((1 << 12) - 1)


def test_one_halving_level_keeps_the_weighted_sum():
    # T(P, x) = T(P', x//2) for P' = _halve(P, x), T(P, x) the sum of
    # P(i) * b_i over 0 <= i <= x, summed term by term with P(i) the sum of
    # lead[r] * C(i, r): seeded leads of 1-24 large entries of both signs,
    # at x = 4 + len, a seeded x up to 4096, and x = 4096 for the longest.
    b = BinarySeries().prefix(4096)

    def T(lead, x):
        return sum(b[i] * sum(v * comb(i, r) for r, v in enumerate(lead[: i + 1])) for i in range(x + 1))

    rng = random.Random(3737)
    for length in range(1, 25):
        lead = [rng.randint(-(2**200), 2**200) for _ in range(length)]
        for x in {4 + length, rng.randint(4, 4096), *([4096] if length == 24 else [])}:
            assert T(lead, x) == T(_halve(lead, x), x // 2), (length, x)


def test_head_rows_and_dot_product_match_the_term_by_term_sums():
    # row x + 1 of _T_ROWS holds sum b_i * C(i, r) over i <= x, for x = -1..31;
    # _t_head on seeded leads of 1-40 entries of both signs (about 200 bits)
    # is T(P, x) summed term by term, also where the lead is longer than the row
    b = BinarySeries().prefix(31)
    assert len(_T_ROWS) == 33
    for x in range(-1, 32):
        want = [sum(b[i] * comb(i, r) for i in range(x + 1)) for r in range(x + 1)]
        assert _T_ROWS[x + 1] == want, x
    rng = random.Random(3939)
    for length in range(1, 41):
        lead = [rng.randint(-(2**200), 2**200) for _ in range(length)]
        for x in range(-1, 32):
            want = sum(b[i] * sum(v * comb(i, r) for r, v in enumerate(lead)) for i in range(x + 1))
            assert _t_head(lead, x) == want, (length, x)


def test_b_by_halving_matches_the_two_pass_difference():
    # powers of two run both tracks to the end; 2^e - 1 and 2^e + 1 only the first level
    for e in (14, 20, 40, 64, 101):
        for j in (2**e - 1, 2**e, 2**e + 1):
            assert BinarySeries().value(j) == b_prefix_sum(j) - b_prefix_sum(j - 1), j


def test_count_prints_b_of_a_power_of_two(capsys):
    # 3*2^63 - 1 starts its upper half: k = 2^63, so a_m = b_(2^62), the
    # index on which halving runs two tracks longest
    m = 3 * 2**63 - 1
    assert cli.main(["count", str(m)]) == 0
    want = b_prefix_sum(2**62) - b_prefix_sum(2**62 - 1)
    assert capsys.readouterr().out == f"m: {m}\na_m: {want}\nmethod: genfun\n"
    # 2^64 + 2^63 + 5: the sha256 of the bytes that two halving passes printed
    assert cli.main(["count", str(2**64 + 2**63 + 5)]) == 0
    digest = sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "aa78568ac02abd787953ec923634e0ff87727a868b827faba23df4a934b28c4b"


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
        assert BinarySeries().value(j) == bp(2 * j, 1 << (2 * j).bit_length()), j


def _v2(x):
    return (x & -x).bit_length() - 1


def test_b_meets_churchhouses_congruence():
    """Churchhouse's congruence for the binary partition function b(n),
    conjectured by Churchhouse (Proc. Cambridge Philos. Soc. 66, 1969) and
    proved by Rødseth (ibid. 68, 1970) and Gupta (ibid. 70, 1971): for odd
    n and k >= 1, b(2^(k+2) n) - b(2^k n) is divisible by 2^(floor(3k/2) + 2).
    With b_j = b(2j), the difference is b_(2^(k+1) n) - b_(2^(k-1) n).  On
    j <= 2^14 the least valuation over odd n is that power exactly, for
    k = 1..7.  It checks far b_j by number theory, not by the halving that
    computes them."""
    b = BinarySeries().prefix(1 << 14)
    for k in range(1, 8):
        least = min(
            _v2(b[n << (k + 1)] - b[n << (k - 1)])
            for n in range(1, ((1 << 14) >> (k + 1)) + 1, 2)
        )
        assert least == 3 * k // 2 + 2, k
    # 120-bit odd n, so b_j past 2^120 through value(), which halves there
    rng = random.Random(1969)
    for k in (3, 6, 9, 12):
        n = rng.getrandbits(120) | 1 << 119 | 1
        d = BinarySeries().value(n << (k + 1)) - BinarySeries().value(n << (k - 1))
        assert d and _v2(d) >= 3 * k // 2 + 2, (k, n)


def test_binary_series_grows_in_blocks_as_the_recurrence():
    # one series grown by uneven prefix calls, from odd and even lengths,
    # across the 4096-term blocks; each call must leave exactly the
    # one-term recurrence in the cache
    ref = [1]
    for i in range(1, 12290):
        ref.append(ref[-1] + ref[i >> 1])
    series = BinarySeries()
    for n in (1, 2, 3, 4095, 4096, 4097, 8193, 8194, 12289):
        assert series.prefix(n - 1) == ref[:n], n
        assert series._b == ref[:n], n
    assert BinarySeries().prefix(12289) == ref


def test_series_peak_memory_stays_near_the_result():
    # no whole-length temporary: the traced peak of each call stays within
    # 1.25x of what its result holds once the call returns (measured
    # 1.02-1.04x for the product and 1.17x for prefix, whose cache and copy
    # are both alive at the end)
    for call in (lambda: gf_coefficients(2**17), lambda: BinarySeries().prefix(2**17)):
        tracemalloc.start()
        try:
            result = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) == 2**17 + 1
        assert peak <= 1.25 * held, (peak, held)


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


def product_in_order(N, steps):
    """The truncated product with its strided factors applied in the given
    order, each over the whole prefix, then (1-x)^-1."""
    c = [0] * (N + 1)
    c[0] = 1
    for step in steps:
        for i in range(step, N + 1):
            c[i] += c[i - step]
    for i in range(1, N + 1):
        c[i] += c[i - 1]
    return c


def test_gf_factor_order_is_immaterial():
    # same truncated product with the strided factors applied in any order
    # past one 4096-term block; ascending over the full range is the
    # reference, gf_coefficients goes down and touches only multiples
    N = 4100
    steps = [1 << j for j in range(N.bit_length())]
    expect = product_in_order(N, steps)
    assert gf_coefficients(N) == expect
    assert product_in_order(N, steps[::-1]) == expect
    assert product_in_order(N, [4, 1, 64, 2, 4096, 128, 8, 1024, 32, 16, 512, 2048, 256]) == expect


def test_gf_matches_the_series_at_block_ends():
    # stride s sums along 2s a block of 4096 terms at a time, a span of
    # 4096 * 2s: N on either side of the first block end, for s = 1..8
    ref = BinarySeries().prefix(10**5 + 3)
    for s in (1, 2, 4, 8):
        for N in (2 * 4096 * s - 1, 2 * 4096 * s, 2 * 4096 * s + 1):
            assert gf_coefficients(N) == ref[: N + 1], N
    assert gf_coefficients(10**5 + 3) == ref
    N = 2 * 4096 + 1
    steps = [1 << j for j in range(N.bit_length())]
    assert gf_coefficients(N) == product_in_order(N, steps)


def test_gf_sums_only_the_multiples_a_stride_changes(monkeypatch):
    # about N items through accumulate over all strides and N for the final
    # (1-x)^-1, plus one per stride for rounding; summing along every
    # multiple of s would take 3N
    refs = {N: BinarySeries().prefix(N) for N in (4100, 10**5)}
    consumed = 0

    def counted(items, *args, **kwargs):
        def each():
            nonlocal consumed
            for x in items:
                consumed += 1
                yield x

        return accumulate(each(), *args, **kwargs)

    monkeypatch.setattr(counting, "accumulate", counted)
    for N, ref in refs.items():
        consumed = 0
        assert gf_coefficients(N) == ref, N
        assert consumed <= 2 * (N + 1) + 2 * N.bit_length(), (N, consumed)


def test_series_coefficients_method_matches_cache(bser):
    assert gf_coefficients(100) == bser.prefix(100)
    # value(j) past the cache takes the halving route
    rng = random.Random(6)
    js = [rng.randrange(4096, 10**6 + 1) for _ in range(24)]
    coeff = gf_coefficients(max(js))
    for j in js:
        assert BinarySeries().value(j) == coeff[j], j


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
def test_upper_half_routes_agree(table14, prefix14, bser, m):
    if in_upper_half(m):
        want = table14[m]
        assert a_upper_half_via_b(m, bser) == want
        assert a_simple(m, table14) == want
        assert upper_half_sum(m, prefix14) == want


# ---------------------------------------------------------------- defect


def defect(m, table=None, series=None):
    """How far the series overshoots the count: b_floor(k/2) - a_m, with
    k = 2^(n+1) - 1 - m.  Zero on every upper-half window and at m = 1;
    positive on the lower halves, where no generating function is known."""
    k = (2 << (m.bit_length() - 1)) - 1 - m
    return (series if series is not None else BinarySeries()).value(k // 2) - a(m, table)


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


def test_even_pairing_window_is_the_upper_half(table14):
    for m in range(2, 1 << 12, 2):
        if in_upper_half(m):
            assert a_even_pairing_check(m, table14) is True, m
        else:
            with pytest.raises(DomainError, match="upper-half window"):
                a_even_pairing_check(m, table14)


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
