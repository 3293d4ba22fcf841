"""Counting a_m = |Mp(m)|: one engine for the truncation recurrence, a
dense bottom-up table that :func:`a` and :func:`a_simple` extend and read,
and the binary-partition series that gives a closed form on the upper half
of every binade (which :func:`a` uses there when the table stops short).

Writing n = floor(log2 m), each binade [2^n, 2^(n+1)) splits at
2^n + 2^(n-1) - 1: on the upper-half window the count collapses to a plain
sum over one-step truncations (and from there to the series b_j), while the
lower half needs the full recurrence with its subtraction term.

Counts are exact Python ints; b_j grows like exp(c * log^2 j) and would
eventually wrap any fixed-width type.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from .core import DomainError, _require_positive


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
        #   Q[t] = S[t] + S[t-2] + ...  (so S[0] + ... + S[t] = Q[t] + Q[t-1])
        # A repeats S[t] - S[t-1] so that table[m] and a(m) read a stored int;
        # such reads set the latency percentiles of the count_table benchmark.
        self._A = [0, 1]
        self._S = [0, 1]
        self._Q = [0, 1]

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
    answered by the closed form :func:`a_upper_half_via_b` in O(k) series
    steps, k = 2^(n+1) - 1 - m < m/2, leaving the table as it is; a
    lower-half m extends ``table`` densely up to m with :func:`build_table`
    and reads it.
    """
    _require_positive(m)
    if table is None:
        table = CountTable()
    if m > table.dense_limit:
        if in_upper_half(m):
            return a_upper_half_via_b(m)
        build_table(m, table)
    return table._A[m]


def build_table(M: int, table: CountTable | None = None) -> CountTable:
    """Tabulate a_1..a_M bottom-up in amortized O(1) big-int ops per entry.

    The outer sum of the recurrence is one prefix-sum difference.  The
    subtraction terms exist only for m1 with 3*m1 >= 2m + 1; over that run
    their upper index 2*m1 - m - 1 advances by two per step (covered by the
    stride-two prefix Q) and their lower index floor(m1/2) repeats each
    value twice (covered by the prefix of S, which is Q[x] + Q[x-1]).
    Extending an already populated table computes only the new entries and
    never rewrites an old one.
    """
    _require_positive(M, "M")
    if table is None:
        table = CountTable()
    A, S, Q = table._A, table._S, table._Q
    for m in range(table.dense_limit + 1, M + 1):
        n = m.bit_length() - 1
        lo = m >> 1
        hi = min((m + (1 << (n - 1)) - 1) >> 1, (1 << n) - 1)
        val = S[hi] - S[lo - 1]
        m1s = max(lo, (2 * m + 3) // 3)  # first m1 with a nonempty inner range
        if m1s <= hi:
            # Taken from m = 16 on, where m1s >= (2m + 1)/3 >= 11, so t0 and
            # i0 are >= 5: no index is negative (Python would wrap it silently).
            # The sum of S[m1//2 - 1] over m1s..hi holds each t in t0..t1
            # twice, less t0 if m1s is odd and t1 if hi is even.
            i0, i1 = 2 * m1s - m - 1, 2 * hi - m - 1
            val -= Q[i1] - Q[i0 - 2]
            t0, t1 = m1s >> 1, hi >> 1
            val += 2 * (Q[t1 - 1] + Q[t1 - 2] - Q[t0 - 2] - Q[t0 - 3])
            val -= S[t0 - 1] if m1s & 1 else 0
            val -= 0 if hi & 1 else S[t1 - 1]
        A.append(val)
        S.append(S[-1] + val)
        Q.append(S[-1] + Q[-2])
    return table


def a_simple(m: int, table: CountTable | None = None) -> int:
    """Upper-half shortcut: a_m = sum of a_i over floor(m/2) <= i <= 2^n - 1.

    Valid exactly on the window 2^n + 2^(n-1) - 1 <= m < 2^(n+1), where
    every truncation extends and nothing is overcounted; elsewhere a
    :class:`DomainError`.  One :meth:`CountTable.range_sum` after extending
    the table to 2^n - 1 if needed.  Always equals :func:`a` on its domain.
    """
    _require_upper_half(m)
    if table is None:
        table = CountTable()
    n = m.bit_length() - 1
    hi = (1 << n) - 1
    if hi > table.dense_limit:
        build_table(hi, table)
    return table.range_sum(m >> 1, hi)


class BinarySeries:
    """Cached values of the doubling recurrence b_0 = 1, b_j = b_(j-1) + b_(j//2).

    b_j counts the partitions of 2j into powers of two and equals the x^j
    coefficient of (1-x)^-1 * prod_{j>=0} (1-x^(2^j))^-1; the test suite
    holds the two routes together (see :func:`gf_coefficients`).
    """

    def __init__(self) -> None:
        self._b = [1]

    def value(self, j: int) -> int:
        if j < 0:
            raise ValueError(f"series index must be nonnegative, got {j}")
        seq = self._b
        while len(seq) <= j:
            seq.append(seq[-1] + seq[len(seq) >> 1])
        return seq[j]

    def prefix(self, j: int) -> list[int]:
        """b_0..b_j as a fresh list."""
        self.value(j)
        return self._b[: j + 1]


def b(j: int, series: BinarySeries | None = None) -> int:
    """b_j of the doubling recurrence, extending the given cache as needed."""
    return (series if series is not None else BinarySeries()).value(j)


def gf_coefficients(N: int) -> list[int]:
    """Coefficients x^0..x^N of (1-x)^-1 * prod_{j>=0} (1-x^(2^j))^-1.

    Each factor (1 - x^(2^j))^-1 is one in-place strided accumulation on the
    truncated prefix; factors with 2^j > N are identities there and are
    skipped.  The final (1-x)^-1 is a plain prefix sum.  Factor order is
    immaterial (and tested as such).
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    c = [0] * (N + 1)
    c[0] = 1
    step = 1
    while step <= N:
        for i in range(step, N + 1):
            c[i] += c[i - step]
        step <<= 1
    for i in range(1, N + 1):
        c[i] += c[i - 1]
    return c


def a_upper_half_via_b(m: int, series: BinarySeries | None = None) -> int:
    """Closed form on the upper half: a_m = b_floor(k/2), k = 2^(n+1) - 1 - m.

    Domain is the same window as :func:`a_simple`; always equals :func:`a`
    there.
    """
    _require_upper_half(m)
    return b(_series_index(m), series)


def defect(
    m: int,
    table: CountTable | None = None,
    series: BinarySeries | None = None,
) -> int:
    """How far the series overshoots the true count:

        defect(m) = b_floor(k/2) - a_m,   k = 2^(n+1) - 1 - m.

    Zero on every upper-half window; positive on the lower halves, where no
    generating function is known.  defect(1) = b_0 - a_1 = 0.
    """
    _require_positive(m)
    return b(_series_index(m), series) - a(m, table)


def a_even_pairing_check(m: int, table: CountTable | None = None) -> bool:
    """Whether a_m == a_(m+1); contractually always true for even m with
    2^n + 2^(n-1) <= m < 2^(n+1) (both upper-half sums start at the same
    floor).  Odd or out-of-window m is a :class:`DomainError`."""
    _require_positive(m)
    if m % 2:
        raise DomainError(f"pairing check needs even m, got {m}")
    n = m.bit_length() - 1
    if not (3 << (n - 1)) <= m < (2 << n):
        raise DomainError(
            f"m={m} outside the pairing window 2^n + 2^(n-1) <= m < 2^(n+1)"
        )
    return a(m, table) == a(m + 1, table)
