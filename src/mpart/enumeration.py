"""Exhaustive enumeration of Mp(m) plus the subset-sum ground-truth oracle.

The enumerator fixes the part count to num_parts(m) and walks positions left
to right.  At each position the admissible values form one interval: at
least the previous part, at most one plus the prefix sum, and clamped so the
remaining positions can still land exactly on m (remaining parts at maximal
growth must cover the residue, at minimal repetition must not overshoot).
That feasibility clamp is not an optimization nicety -- without it the
search degrades by orders of magnitude by m around 2**10.

Partitions stream out in ascending lexicographic order, which the golden
tests rely on.

The oracle side is deliberately naive: a dense reachability bitmask over
0..total built with one shifted OR per part.  It knows nothing about the
inequality characterization it is used to validate.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import Partition, _Record, _require_positive


class SumReachability(_Record):
    """Attainable sub-multiset sums of a part list, as a dense bitmask.

    Bit s of ``bits`` is set iff sum s is attainable; the universe is
    0..total.  0 and total are always members, and the set is closed under
    the complement s -> total - s (take the other parts).
    """

    __slots__ = ("total", "bits")

    def __init__(self, total: int, bits: int) -> None:
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "bits", bits)

    def __contains__(self, s: int) -> bool:
        return 0 <= s <= self.total and (self.bits >> s) & 1 == 1

    @property
    def reachable(self) -> frozenset[int]:
        return frozenset(s for s in range(self.total + 1) if (self.bits >> s) & 1)

    def is_complete(self) -> bool:
        """True iff every sum 0..total is attainable."""
        return self.bits == (1 << (self.total + 1)) - 1

    def is_complement_closed(self) -> bool:
        width = self.total + 1
        rev = int(format(self.bits, f"0{width}b")[::-1], 2)
        return rev == self.bits


def _sum_bits(parts: tuple[int, ...]) -> int:
    # the bitmask doubles as the DP table: after processing a part q, bit s
    # is set iff s is attainable from the parts seen so far (shift-OR adds q
    # to every attainable sum)
    bits = 1
    for q in parts:
        bits |= bits << q
    return bits


def subset_sums(p: Partition) -> SumReachability:
    """Exact subset-sum reachability of p's parts by dense DP."""
    return SumReachability(p.total, _sum_bits(p.parts))


def oracle_is_weak(p: Partition) -> bool:
    """Ground truth for the coverage property: all of 0..total attainable.

    Independent of the prefix-sum characterization in :mod:`mpart.core`;
    this is the oracle the fast predicate is validated against.
    """
    return _sum_bits(p.parts) == (1 << (p.total + 1)) - 1


def iter_m_partitions(m: int) -> Iterator[Partition]:
    """Yield every M-partition of m exactly once, lexicographically ascending.

    A single-consumer cursor; distinct cursors (same m or not) are fully
    independent.  Two runs produce identical sequences.  Raises
    ``ValueError`` for m < 1 at the call, not at the first ``next``.
    """
    _require_positive(m)
    return _walk(m)


def _walk(m: int) -> Iterator[Partition]:
    # One frame, no recursion: buf holds the parts chosen so far, his[i]
    # the top of position i's interval and sums[i] the sum before it.  The
    # search stops at position n - 1: each value v there fixes the last
    # part m - s - v, which the clamps at n - 1 already keep in range (as
    # count_by_enumeration counts).
    n = m.bit_length() - 1
    if n == 0:
        yield Partition((1,))
        return
    # position i has t = n - i parts after it: besides last <= v <= 1 + s,
    # its clamps are ceil((m + 1) / 2^t) - 1 - s <= v <= (m - s) // (t + 1)
    floors = [-(-(m + 1) >> (n - i)) - 1 for i in range(n)]
    spans = [n - i + 1 for i in range(n)]
    buf = [0] * (n + 1)
    his = [0] * n
    sums = [0] * n
    i, s, last = 0, 0, 1
    while True:
        lo = max(last, floors[i] - s)
        hi = min(1 + s, (m - s) // spans[i])
        if i == n - 1:
            rest = m - s
            for v in range(lo, hi + 1):
                buf[i] = v
                buf[n] = rest - v
                yield Partition(buf)
        elif lo <= hi:
            buf[i], his[i], sums[i] = lo, hi, s
            i, s, last = i + 1, s + lo, lo
            continue
        # back up to the deepest position that can still grow, and grow it
        i -= 1
        while i >= 0 and buf[i] == his[i]:
            i -= 1
        if i < 0:
            return
        last = buf[i] + 1
        buf[i] = last
        s = sums[i] + last
        i += 1


def enumerate_m_partitions(m: int) -> list[Partition]:
    """Mp(m) collected into a list (same order as :func:`iter_m_partitions`)."""
    return list(iter_m_partitions(m))


def count_by_enumeration(m: int) -> int:
    """|Mp(m)| by direct search, no recurrence involved.

    Uses the same interval clamps as the cursor, but never materializes
    partitions, and collapses the two final positions to arithmetic: once
    the first n-1 parts are fixed, the valid (second-largest, largest)
    completions form a single interval, counted in O(1).  Tests pin its
    agreement with the cursor.
    """
    _require_positive(m)
    n = m.bit_length() - 1
    if n == 0:
        return 1

    def walk(i: int, s: int, last: int) -> int:
        t = n - i
        lo = max(last, -(-(m + 1) // (1 << t)) - s - 1)
        hi = min(1 + s, (m - s) // (t + 1))
        if lo > hi:
            return 0
        if i == n - 1:
            return hi - lo + 1
        total = 0
        for v in range(lo, hi + 1):
            total += walk(i + 1, s + v, v)
        return total

    return walk(0, 0, 1)
