"""Counting a_m = |Mp(m)|: one engine for the truncation recurrence, a
dense bottom-up table that :func:`a` and :func:`a_simple` extend and read,
and the binary-partition series that gives a closed form on the upper half
of every binade (which :func:`a` uses there when the table stops short).
A far term b_j of that series costs one halving pass of O(log^3 j)
big-int steps, so an upper-half count needs neither a table nor a series
prefix, at any size.  A lower-half count tabulates only as far as its own
entry reads, and every table starts from a head of a_1..a_31 built once
at import, so the seven blocks below 2^5 run once a process, not a table.

Writing n = floor(log2 m), each binade [2^n, 2^(n+1)) splits at
2^n + 2^(n-1) - 1: on the upper-half window the count collapses to a plain
sum over one-step truncations (and from there to the series b_j), while the
lower half needs the full recurrence with its subtraction term.  The dense
table follows the split, one block of values per half-binade: each upper
half a block of prefix-sum differences, a pair (2t, 2t+1) sharing one value,
and each lower half a running sum for each parity of m, stepped from m - 2
to m by one difference of S: the outer sum's step cancels half of the
subtraction term's, as :func:`_lower_half` gives.

Counts are exact Python ints; b_j grows like exp(c * log^2 j) and would
eventually wrap any fixed-width type.
"""

from collections.abc import Iterator, Mapping
from itertools import accumulate, islice, repeat
from operator import add, lshift, mul, sub

from .core import DomainError, _require_positive, extension_range_m1, in_upper_half


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
    bottom-up and :func:`a` extends it as far as a lower-half m reads.  Keys
    are exactly the ints 1..dense_limit; any other key is a KeyError.  A finished table may
    be read from any number of threads; filling or extending it is a
    single-writer affair.  The head that every table copies its first entries
    from is shared by all of them and only read, so this holds for it too.
    """

    def __init__(self) -> None:
        # Dense arrays, valid on indices 0..dense_limit:
        #   A[t] = a_t (A[0] = 0 is padding, never a key)
        #   S[t] = a_1 + ... + a_t
        # Nothing else is kept: a lower half sums each parity's first term
        # afresh from S, then steps m - 2 to m by one difference of S.
        # A repeats S[t] - S[t-1] so that table[m], a(m) and a_simple(m) read
        # a stored int; in count_table the table[m] pages set p90, a_simple p50.
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
        try:  # m > 0 keeps 0 off the padding and negatives off wraparound
            if m > 0:
                return self._A[m]
        except (IndexError, TypeError):  # past the end, or not an int
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
    big-int steps, k = 2^(n+1) - 1 - m < m/2.  A lower-half m > 1 fills
    ``table``, or a fresh one, with :func:`build_table` only up to
    hi = floor((m + 2^(n-1) - 1)/2), the last index its entry reads, which
    is 2/3 to 3/4 of m, and computes that one entry from there as
    :func:`build_table` would, without storing it: ``a`` never fills a
    table past what an entry reads.
    """
    _require_positive(m)
    if table is not None and m <= table.dense_limit:
        return table._A[m]
    if in_upper_half(m):
        return a_upper_half_via_b(m)
    if m == 1:
        return 1
    S = build_table(extension_range_m1(m).hi, table)._S
    return _lower_half(S, m, m)[0]


def build_table(M: int, table: CountTable | None = None) -> CountTable:
    """Tabulate a_1..a_M bottom-up in amortized O(1) big-int ops per entry,
    one half-binade at a time.

    Every entry of binade n reads S only below 2^n, so each half-binade
    is one block of values, appended to A and its prefix sums to S.  On an
    upper half, 2^n + 2^(n-1) - 1 <= m < 2^(n+1), no truncation fails, so
    a_m = S[2^n - 1] - S[m//2 - 1] and the pair (2t, 2t+1) shares one
    value: a slice of S subtracted from S[2^n - 1], each difference stored
    twice as one int.  A lower half is :func:`_lower_half`: for each parity
    of m, one running sum of the one step it gives.
    Extending a populated table, from any cut, computes only the new entries
    and never rewrites an old one.  Before its first block it copies what it
    lacks of a_1..a_31 and their sums from a head built once at import.
    """
    _require_positive(M, "M")
    if table is None:
        table = CountTable()
    A, S = table._A, table._S
    A += _TABLE_HEAD._A[len(A) : M + 1]  # the slices stop at the head's end, _HEAD
    S += _TABLE_HEAD._S[len(S) : M + 1]
    start = len(A)
    while start <= M:
        n = start.bit_length() - 1
        upper = (3 << (n - 1)) - 1  # first m of the binade's upper half
        if start >= upper:
            end = min(M, (2 << n) - 1)
            half = list(map(sub, repeat(S[(1 << n) - 1]), S[(start >> 1) - 1 : end >> 1]))
            vals = _repeat(half, 2)  # m = 2*(start//2)..2*(end//2) + 1
            del vals[: start & 1], vals[end - start + 1 :]
        else:
            end = min(M, upper - 1)
            vals = _lower_half(S, start, end)
        A += vals
        S += islice(accumulate(vals, initial=S[-1]), 1, None)
        start = end + 1
    return table


def _repeat(xs: list[int], r: int) -> list[int]:
    """Each item of xs r times in a row, by r slice stores of xs: a list
    that holds the same int objects, with no tuple or iterator per item."""
    out = [0] * (r * len(xs))
    for i in range(r):
        out[i::r] = xs
    return out


def _lower_half(S: list[int], start: int, end: int) -> list[int]:
    """a_start..a_end, start <= end, on the lower half of binade n =
    floor(log2 start), 2^n <= m < 2^n + 2^(n-1) - 1, read from S[:2^n] alone,
    one block for each parity of m.

    The outer sum S[hi] - S[m//2 - 1], hi = (m + h)//2 with h = 2^(n-1) - 1,
    is less the subtraction term T(m), the sum of S[2*m1 - m - 1] -
    S[m1//2 - 1] over the run m1s..hi of m1 with 3*m1 >= 2m + 1.  From m - 2
    to m that run moves up by one m1, and what changes sums to one step:

        T(m) = T(m - 2) + S[ceil(m/3) - 2] - S[(m + h)//4 - 1],

    which holds at every m of the half.  As hi lies in the upper half of
    binade n - 1, S[hi] - S[hi - 1] = a_hi = S[h] - S[hi//2 - 1], whose
    index is the step's second one, (m + h)//4 - 1.  So the two cancel in
    E(m) = S[hi] - T(m) = a_m + S[m//2 - 1]:

        E(m) = E(m - 2) + S[h] - S[ceil(m/3) - 2].

    Each parity sums its first T afresh from S (about m/12 terms), and the
    rest is one running sum over D[u] = S[h] - S[u], each u the step of
    three consecutive m, less a slice of S.  An m with no term (every m
    below 16; from 2^4 on, the half's last m = 3*2^(n-1) - 2 and last - 1,
    last - 2 and last - 4) needs no case of its own: there m1s > hi, so the
    fresh sum's slices are empty, and the step takes T down to 0.
    """
    n = start.bit_length() - 1
    h = (1 << (n - 1)) - 1  # hi <= 2^n - 2 on a lower half
    # S[h] - S[ceil(m/3) - 2] for m = start + 2..end, shared by both parities
    D = list(map(sub, repeat(S[h]), S[(start + 4) // 3 - 2 : (end + 2) // 3 - 1]))
    steps3 = _repeat(D, 3)  # each parity's steps are every other item of it
    vals = [0] * (end - start + 1)
    for m in range(start, min(start + 1, end) + 1):
        hi, lo = (m + h) >> 1, (m >> 1) - 1
        k = (end - m) // 2 + 1  # m, m + 2, ..., end
        m1s = (2 * m + 3) // 3  # first m1 with a nonempty inner range
        # S[2*m1 - m - 1] for each m1, less S[m1//2 - 1] for the even m1, then the odd
        t = (
            sum(S[2 * m1s - m - 1 : 2 * hi - m : 2])
            - sum(S[((m1s + 1) >> 1) - 1 : hi >> 1])
            - sum(S[(m1s >> 1) - 1 : (hi - 1) >> 1])
        )
        steps = steps3[(start + 4) % 3 + m - start :: 2]
        vals[m - start :: 2] = map(sub, accumulate(steps, initial=S[hi] - t), S[lo : lo + k])
    return vals


def a_simple(m: int, table: CountTable | None = None) -> int:
    """Upper-half shortcut: a_m = sum of a_i over floor(m/2) <= i <= 2^n - 1.

    Valid exactly on the window 2^n + 2^(n-1) - 1 <= m < 2^(n+1), where
    every truncation extends and nothing is overcounted; elsewhere a
    :class:`DomainError`.  Reads entry m of the table, which :func:`build_table`
    extends to m if needed, never the closed form.  Equals :func:`a` there.
    """
    _require_upper_half(m)
    if table is None or m >= len(table._A):
        table = build_table(m, table)
    return table._A[m]


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
    The passes run in place on one list, each one entry shorter than the
    last, and pass k leaves its entry at index k - 1: about d^2 big-int
    operations at degree d, and no list built per pass.
    """
    # F(x) = sum over r of lead[r] * C(x+1, r+1)
    F, c = 0, 1
    for r, v in enumerate(lead):
        c = c * (x + 1 - r) // (r + 1)
        F += v * c
    out = [2 * F - lead[0]]
    h = list(map(add, map(lshift, lead, repeat(1)), [*lead[1:], 0]))
    n = len(h)
    for i in range(n):
        for k in range(i, n - 1):
            h[k] = (h[k] << 1) + h[k + 1]
        h[-1] <<= 1
        out.append(-h[i])
    return out


# Two heads end at _HEAD: halving stops at x < _HEAD, where T(P, x) is one dot
# product with a row of _T_ROWS, and build_table copies a_1..a_(_HEAD - 1) from _TABLE_HEAD.
_HEAD = 32


def _head_rows() -> list[list[int]]:
    """Row x + 1 holds the sums of b_i * C(i, r) over 0 <= i <= x for r <= x,
    -1 <= x < _HEAD: b_i by the doubling recurrence, C(i, r) by Pascal's rule."""
    rows, b, c = [[]], [1], [1]
    for i in range(_HEAD):
        rows.append(list(map(add, [*rows[-1], 0], [b[i] * v for v in c])))
        b.append(b[-1] + b[(i + 1) >> 1])
        c = list(map(add, [*c, 0], [0, *c]))
    return rows


_T_ROWS = _head_rows()
_TABLE_HEAD = CountTable()
build_table(_HEAD - 1, _TABLE_HEAD)  # by the one loop: its copy from itself is empty


def _t_head(lead: list[int], x: int) -> int:
    """T(P, x) for -1 <= x < _HEAD; map drops each lead[r] past the row, as C(i, r > i) = 0."""
    return sum(map(mul, lead, _T_ROWS[x + 1]))


def _b_by_halving(j: int) -> int:
    """b_j = T(1, j) - T(1, j-1) for j >= 0 in one halving pass, O(log^3 j)
    big-int steps.

    The two sums halve side by side as (P, x) and (Q, x-1) while x is even.
    At the first odd x both ends halve to x//2, so from there on the one
    difference P' - Q' halves alone; P and Q have the same top difference,
    so it is at least one degree lower.  A power of two runs both tracks
    to the end, and an odd j only its first level.  Stopping at x < 32 takes
    0.68-0.93 of the time that stopping at x < 4 took, for j of 19 to 200 bits.
    """
    p, q, x = [1], [1], j
    while x >= _HEAD and not x & 1:
        p, q = _halve(p, x), _halve(q, x - 1)
        x >>= 1
    if x < _HEAD:
        return _t_head(p, x) - _t_head(q, x - 1)
    p = list(map(sub, _halve(p, x), _halve(q, x - 1)))
    while not p[-1]:
        p.pop()
    x >>= 1
    while x >= _HEAD:
        p = _halve(p, x)
        x >>= 1
    return _t_head(p, x)


class BinarySeries:
    """Values of the doubling recurrence b_0 = 1, b_j = b_(j-1) + b_(j//2).
    :meth:`prefix` appends to a cache of b_0, b_1, ...: each step b_(j//2)
    of a new term lies in the cached first half, so the cache at most
    doubles per block, each block one running sum over those steps.
    :meth:`value` reads the cache, or halves a term past it.

    b_j counts the partitions of 2j into powers of two and equals the x^j
    coefficient of (1-x)^-1 * prod_{j>=0} (1-x^(2^j))^-1; the test suite
    holds the two routes together (see :func:`gf_coefficients`).
    """

    def __init__(self) -> None:
        self._b = [1]

    def value(self, j: int) -> int:
        """b_j.  Read from the cache when it holds j; otherwise computed in
        one halving pass of O(log^3 j) big-int steps, which answers without
        filling the cache."""
        if j >= len(self._b):
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
            steps = _repeat(seq[L >> 1 : (hi + 1) >> 1], 2)
            del steps[: L & 1]
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

    Each factor (1 - x^(2^j))^-1 is a running sum along the stride s = 2^j,
    ``c[::s] = accumulate(c[::s])`` taken a block at a time so that the
    peak stays near the result; factors with 2^j > N are identities there
    and are skipped.  The factors go from the largest stride 2^floor(log2 N)
    down to 1: before stride s, the product so far has terms only at
    multiples of 2s, so the sum runs along those, and each odd multiple of s
    takes the sum before it, as the same int.  That is about N big-int
    additions, where ascending strides over the whole prefix take
    N * (floor(log2 N) + 1), and the final (1-x)^-1 another N: about 2N in
    all.  Factor order is immaterial (and tested as such).
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    c = [0] * (N + 1)
    c[0] = 1
    step = (1 << N.bit_length()) >> 1
    while step:
        _running_sum(c, 2 * step)
        c[step :: 2 * step] = c[: N + 1 - step : 2 * step]
        step >>= 1
    _running_sum(c, 1)
    return c


def a_upper_half_via_b(m: int, series: BinarySeries | None = None) -> int:
    """Closed form on the upper half: a_m = b_floor(k/2), k = 2^(n+1) - 1 - m.

    Domain is the same window as :func:`a_simple`; always equals :func:`a`
    there.  b_floor(k/2) is computed by halving unless the series cache
    holds it.
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
