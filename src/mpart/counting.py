"""Counting a_m = |Mp(m)|: one engine for the truncation recurrence, a
dense bottom-up table that :func:`a` and :func:`a_simple` extend and read,
and the binary-partition series that gives a closed form on the upper half
of every binade (which :func:`a` uses there when the table stops short).
A far term b_j of that series costs one halving pass of O(log^3 j)
big-int steps, so an upper-half count needs neither a table nor a series
prefix, at any size.  A lower-half count with no table to extend
tabulates only as far as its own entry reads.

Writing n = floor(log2 m), each binade [2^n, 2^(n+1)) splits at
2^n + 2^(n-1) - 1: on the upper-half window the count collapses to a plain
sum over one-step truncations (and from there to the series b_j), while the
lower half needs the full recurrence with its subtraction term.  The dense
table follows the split: it fills each upper half as one block of prefix-sum
differences, a pair (2t, 2t+1) sharing one value, and each lower half entry
by entry.

Counts are exact Python ints; b_j grows like exp(c * log^2 j) and would
eventually wrap any fixed-width type.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from itertools import accumulate, chain, islice, repeat
from math import comb
from operator import add, lshift, sub

from .core import DomainError, _require_positive, extension_range_m1


def in_upper_half(m: int) -> bool:
    """Whether m lies in its binade's upper-half window
    2^n + 2^(n-1) - 1 <= m <= 2^(n+1) - 1 (defined for n >= 1, so m >= 2)."""
    if m < 2:
        return False
    n = m.bit_length() - 1
    return m >= (3 << (n - 1)) - 1


def _require_upper_half(m: int) -> None:
    if not in_upper_half(m):
        _require_positive(m)
        raise DomainError(
            f"m={m} is not in an upper-half window 2^n + 2^(n-1) - 1 <= m <= 2^(n+1) - 1"
        )


def _series_index(m: int) -> int:
    # floor(k/2) for k = 2^(n+1) - 1 - m, n = floor(log2 m)
    return ((2 << (m.bit_length() - 1)) - 1 - m) >> 1


class CountTable(Mapping[int, int]):
    """Write-once dense table of a_1..a_M, read as a Mapping m -> a_m.

    a_1 = 1 is the base case; :func:`build_table` fills every later entry
    bottom-up and :func:`a` extends it as far as a lower-half m needs.  Keys
    are exactly the ints 1..dense_limit; any other key is a KeyError.  A finished table may
    be read from any number of threads; filling or extending it is a
    single-writer affair.
    """

    def __init__(self) -> None:
        # Dense arrays, valid on indices 0..dense_limit:
        #   A[t] = a_t (A[0] = 0 is padding, never a key)
        #   S[t] = a_1 + ... + a_t
        # Nothing else is kept: build_table carries its subtraction term from
        # m - 2 to m and sums it afresh from S where it has none to carry.
        # A repeats S[t] - S[t-1] so that table[m], a(m) and a_simple(m) read
        # a stored int; those reads set count_table's latency percentiles.
        # On an upper half a_2t = a_(2t+1), and the pair holds one int object.
        self._A = [0, 1]
        self._S = [0, 1]

    @property
    def memo(self) -> Mapping[int, int]:
        """Read-only view of every stored (m, a_m) pair: the table itself."""
        return self

    @property
    def dense_limit(self) -> int:
        """Largest M such that all of a_1..a_M are tabulated."""
        return len(self._A) - 1

    def __getitem__(self, m: int) -> int:
        A = self._A
        try:
            if 0 < m < len(A):
                return A[m]
        except TypeError:  # a non-int key is absent, as in a dict
            pass
        raise KeyError(m)

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, len(self._A)))

    def __len__(self) -> int:
        return len(self._A) - 1

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of a_i over lo <= i <= hi in O(1); 0 when lo > hi, else a
        KeyError unless 1 <= lo and hi <= dense_limit."""
        if lo > hi:
            return 0
        S = self._S
        if lo < 1 or hi >= len(S):
            raise KeyError((lo, hi))
        return S[hi] - S[lo - 1]


def a(m: int, table: CountTable | None = None) -> int:
    """a_m = |Mp(m)| via the two-level truncation recurrence.

    Every M-partition of m extends one of the one-step truncation sums m1 in
    ``extension_range_m1(m)``; the extensions that fail are in bijection
    with the M-partitions of the two-step sums m12 in
    ``extension_range_m12(m1, m)``:

        a_m = sum over m1 of ( a_m1 - sum over m12 of a_m12 )

    with the empty inner range contributing 0 and a_1 = 1 as the axiom.
    Read from ``table`` when it covers m.  Otherwise an upper-half m is
    answered by the closed form :func:`a_upper_half_via_b` in O(log^3 k)
    big-int steps, k = 2^(n+1) - 1 - m < m/2, leaving the table as it is.
    A lower-half m extends a given ``table`` densely up to m with
    :func:`build_table`, two stored ints an entry, and reads it.  With no
    table, it tabulates only up to hi = floor((m + 2^(n-1) - 1)/2), the
    last index its entry reads, which is 2/3 to 3/4 of m, and sums that one
    entry from there.
    """
    _require_positive(m)
    if table is not None and m <= table.dense_limit:
        return table._A[m]
    if in_upper_half(m):
        return a_upper_half_via_b(m)
    if table is not None:
        return build_table(m, table)._A[m]
    if m == 1:
        return 1
    r = extension_range_m1(m)
    S = build_table(r.hi)._S
    m1s = (2 * m + 3) // 3
    return S[r.hi] - S[r.lo - 1] - (_fresh_term(S, m, m1s, r.hi) if m1s <= r.hi else 0)


def build_table(M: int, table: CountTable | None = None) -> CountTable:
    """Tabulate a_1..a_M bottom-up in amortized O(1) big-int ops per entry,
    one half-binade at a time.

    On an upper half, 2^n + 2^(n-1) - 1 <= m < 2^(n+1), no truncation
    fails, so a_m = S[2^n - 1] - S[m//2 - 1] and the pair (2t, 2t+1) shares
    one value.  The whole half is one block: a slice of S subtracted from
    S[2^n - 1], each difference stored twice as one int, and the prefix
    sums of the block appended to S.

    On a lower half the outer sum is one prefix-sum difference, less the
    subtraction term T(m), the sum of S[2*m1 - m - 1] - S[m1//2 - 1] over
    the run m1s..hi of m1 with 3*m1 >= 2m + 1.  T(m) is carried from m - 2
    to m: with m1 -> m1 + 1 the first terms of T(m - 2) are those of T(m),
    and the window gains one term at the top and drops one or two at the
    bottom.  The terms of m - 2 and m - 1 are held while a run lasts; its
    first two m sum theirs afresh (about m/12 terms), so an extension needs
    no state beyond A and S.  Extending a populated table, from any cut,
    computes only the new entries and never rewrites an old one.
    """
    _require_positive(M, "M")
    if table is None:
        table = CountTable()
    A, S = table._A, table._S
    start = len(A)
    while start <= M:
        n = start.bit_length() - 1
        upper = (3 << (n - 1)) - 1  # first m of the binade's upper half
        if start >= upper:
            end = min(M, (2 << n) - 1)
            top = S[(1 << n) - 1]
            half = [top - s for s in S[(start >> 1) - 1 : end >> 1]]
            pairs = chain.from_iterable(zip(half, half))
            vals = list(islice(pairs, start & 1, (start & 1) + end - start + 1))
            A += vals
            S += islice(accumulate(vals, initial=S[-1]), 1, None)
            start = end + 1
            continue
        end = min(M, upper - 1)
        h = (1 << (n - 1)) - 1  # hi <= 2^n - 2 on a lower half
        t2 = t1 = 0  # T(m - 2) and T(m - 1)
        for m in range(start, end + 1):
            lo = m >> 1
            hi = (m + h) >> 1
            val = S[hi] - S[lo - 1]
            m1s = (2 * m + 3) // 3  # first m1 with a nonempty inner range
            t = 0
            if m1s <= hi:
                # Taken from m = 16 on, where m1s >= (2m + 1)/3 >= 11: no index
                # below is negative (Python would wrap it silently).
                if m - 2 >= start:
                    # hi grew by one and m1s by one or two from j, so hi - m1s
                    # never grows in a half and m - 2 had a term too
                    j = (2 * m - 1) // 3
                    t = t2 + S[(j >> 1) - 1] - S[(hi >> 1) - 1]
                    if j + 2 == m1s:
                        t += S[((j + 1) >> 1) - 1] - S[2 * m1s - m - 3]
                else:
                    t = _fresh_term(S, m, m1s, hi)
                val -= t
            t2, t1 = t1, t
            A.append(val)
            S.append(S[-1] + val)
        start = end + 1
    return table


def _fresh_term(S: list[int], m: int, m1s: int, hi: int) -> int:
    """The subtraction term of m, summed afresh from S over m1 = m1s..hi:
    S[2*m1 - m - 1] for each m1, less S[m1//2 - 1] for the even m1, then
    for the odd."""
    return (
        sum(S[2 * m1s - m - 1 : 2 * hi - m : 2])
        - sum(S[((m1s + 1) >> 1) - 1 : hi >> 1])
        - sum(S[(m1s >> 1) - 1 : (hi - 1) >> 1])
    )


def a_simple(m: int, table: CountTable | None = None) -> int:
    """Upper-half shortcut: a_m = sum of a_i over floor(m/2) <= i <= 2^n - 1.

    Valid exactly on the window 2^n + 2^(n-1) - 1 <= m < 2^(n+1), where
    every truncation extends and nothing is overcounted; elsewhere a
    :class:`DomainError`.  Reads entry m of the table, which :func:`build_table`
    extends to m if needed, never the closed form.  Equals :func:`a` there.
    """
    _require_upper_half(m)
    return build_table(m, table)._A[m]


# One halving pass computes b_j faster than a fresh series appends its
# terms from about j = 2^10 for an odd j, but only from about 2^12 for a
# power of two, on which halving runs two tracks to the end.  value()
# appends at most this many terms and halves past them, where even a j
# with many trailing zeros halves faster than it appends (j = 4608, 5120,
# 6144: 0.6 to 0.75 of the time) and an odd j in less than half the time.
# Medians of 31 calls on a fresh series, in ms (CPython 3.11.7, 2 vCPUs):
#
#     j                  2^9    2^10   2^11   2^12   2^13   2^14
#     append             0.039  0.069  0.130  0.239  0.462  1.015
#     halving, j = 2^e   0.114  0.136  0.163  0.213  0.242  0.287
#     halving, 2^e + 1   0.046  0.060  0.074  0.089  0.106  0.155
_MAX_APPEND = 4096


def _halve(lead: list[int], x: int) -> list[int]:
    """One halving level, T(P, x) = T(P', x//2), with P and P' held as their
    forward differences at 0; deg P' = deg P + 1.

    T(P, x) is the sum of P(i) * b_i over 0 <= i <= x.  As b_i is the sum
    of b_(k//2) over k <= i, grouping the k by k//2 gives

        P'(t) = R(2t) + R(2t+1) = 2F(x) - H(2t),   H(y) = F(y-1) + F(y),

    where R(k) = P(k) + ... + P(x) and F(y) = P(0) + ... + P(y), F(-1) = 0.
    F(x) is one Newton sum.  At 0, H has the differences h_0 = lead[0] and
    h_k = 2 lead[k-1] + lead[k], and H(2t), whose step-2 difference is
    Delta (2 + Delta), has the k-th difference ((2 + Delta)^k h)_k: the
    first entry after k passes of h_n -> 2 h_n + h_(n+1) over h_1, h_2, ...
    That is about d^2 big-int operations at degree d.
    """
    # F(x) = sum over r of lead[r] * C(x+1, r+1)
    F, c = 0, 1
    for r, v in enumerate(lead):
        c = c * (x + 1 - r) // (r + 1)
        F += v * c
    out = [2 * F - lead[0]]
    h = list(map(add, map(lshift, lead, repeat(1)), [*lead[1:], 0]))
    while h:
        h = list(map(add, map(lshift, h, repeat(1)), [*h[1:], 0]))
        out.append(-h.pop(0))
    return out


# b_0..b_3: a halving pass stops at x < 4 and sums T(P, x) term by term
_B_HEAD = (1, 2, 4, 6)


def _t_head(lead: list[int], x: int) -> int:
    """T(P, x) for -1 <= x < 4, with P(i) the sum of lead[r] * C(i, r)."""
    return sum(
        b_i * sum(v * comb(i, r) for r, v in enumerate(lead[: i + 1]))
        for i, b_i in enumerate(_B_HEAD[: x + 1])
    )


def _b_by_halving(j: int) -> int:
    """b_j = T(1, j) - T(1, j-1) for j >= 0 in one halving pass, O(log^3 j)
    big-int steps.

    The two sums halve side by side as (P, x) and (Q, x-1) while x is even.
    At the first odd x both ends halve to x//2, so from there on the one
    difference P' - Q' halves alone; P and Q have the same top difference,
    so it is at least one degree lower.  A power of two runs both tracks
    to the end, and an odd j only its first level.
    """
    p, q, x = [1], [1], j
    while x >= 4 and not x & 1:
        p, q = _halve(p, x), _halve(q, x - 1)
        x >>= 1
    if x < 4:
        return _t_head(p, x) - _t_head(q, x - 1)
    p = list(map(sub, _halve(p, x), _halve(q, x - 1)))
    while not p[-1]:
        p.pop()
    x >>= 1
    while x >= 4:
        p = _halve(p, x)
        x >>= 1
    return _t_head(p, x)


class BinarySeries:
    """Values of the doubling recurrence b_0 = 1, b_j = b_(j-1) + b_(j//2),
    over a cache of b_0, b_1, ... that grows only by appending.  Each step
    b_(j//2) of a new term lies in the cached first half, so the cache at
    most doubles per block, each block one running sum over those steps.

    b_j counts the partitions of 2j into powers of two and equals the x^j
    coefficient of (1-x)^-1 * prod_{j>=0} (1-x^(2^j))^-1; the test suite
    holds the two routes together (see :func:`gf_coefficients`).
    """

    def __init__(self) -> None:
        self._b = [1]

    def value(self, j: int) -> int:
        """b_j.  Read from the cache when it holds j; appended to it when at
        most ``_MAX_APPEND`` terms are missing; otherwise computed in one
        halving pass of O(log^3 j) big-int steps, which answers without
        filling the cache."""
        if j - len(self._b) >= _MAX_APPEND:
            return _b_by_halving(j)
        return self._extend(j)[j]

    def prefix(self, j: int) -> list[int]:
        """b_0..b_j as a fresh list; always fills the cache up to j."""
        return self._extend(j)[: j + 1]

    def _extend(self, j: int) -> list[int]:
        if j < 0:
            raise ValueError(f"series index must be nonnegative, got {j}")
        seq = self._b
        L = len(seq)
        while L <= j:
            # Terms L..hi-1 in one block: b_i - b_(i-1) = b_(i//2) is cached
            # for all of them when hi <= 2L, and each cached b_t is the step
            # at i = 2t and 2t+1 (only 2t+1 when L = 2t+1).
            hi = min(2 * L, j + 1)
            half = seq[L >> 1 : (hi + 1) >> 1]
            steps = islice(chain.from_iterable(zip(half, half)), L & 1, None)
            seq.extend(islice(accumulate(steps, initial=seq[-1]), 1, hi - L + 1))
            L = hi
        return seq


# The running sums of gf_coefficients go a block of this many terms at a
# time, so only one block's old and new values are alive together.
_BLOCK = 4096


def _running_sum(c: list[int], step: int) -> None:
    """c[::step] = accumulate(c[::step]) in place, one block at a time."""
    span = _BLOCK * step
    for i in range(0, len(c), span):
        if i:
            c[i] += c[i - step]
        c[i : i + span : step] = accumulate(c[i : i + span : step])


def gf_coefficients(N: int) -> list[int]:
    """Coefficients x^0..x^N of (1-x)^-1 * prod_{j>=0} (1-x^(2^j))^-1.

    Each factor (1 - x^(2^j))^-1 is a running sum along the stride 2^j of
    the truncated prefix, ``c[::s] = accumulate(c[::s])`` taken a block at a
    time so that the peak stays near the result; factors with 2^j > N are
    identities there and are skipped.  The factors go from the largest
    stride s = 2^floor(log2 N) down to 1: before stride s, the product so
    far has terms only at multiples of 2s, so the sum need visit only the
    multiples of s.  That is about 2N big-int additions in all, where
    ascending strides over the whole prefix take N * (floor(log2 N) + 1).
    The final (1-x)^-1 is one more running sum, of stride 1.  Factor order
    is immaterial (and tested as such).
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    c = [0] * (N + 1)
    c[0] = 1
    step = (1 << N.bit_length()) >> 1
    while step:
        _running_sum(c, step)
        step >>= 1
    _running_sum(c, 1)
    return c


def a_upper_half_via_b(m: int, series: BinarySeries | None = None) -> int:
    """Closed form on the upper half: a_m = b_floor(k/2), k = 2^(n+1) - 1 - m.

    Domain is the same window as :func:`a_simple`; always equals :func:`a`
    there.  b_floor(k/2) is computed by halving only when more than
    ``_MAX_APPEND`` terms are missing from the series cache.
    """
    _require_upper_half(m)
    return (series if series is not None else BinarySeries()).value(_series_index(m))


def a_even_pairing_check(m: int, table: CountTable | None = None) -> bool:
    """Whether a_m == a_(m+1); contractually always true for even m in an
    upper half (both upper-half sums start at the same floor).  Odd m, or
    even m outside :func:`in_upper_half`, is a :class:`DomainError`."""
    _require_positive(m)
    if m % 2:
        raise DomainError(f"pairing check needs even m, got {m}")
    _require_upper_half(m)
    return a(m, table) == a(m + 1, table)
