"""Exhaustive enumeration of Mp(m) plus the subset-sum ground-truth oracle.

One search finds Mp(m).  It fixes the part count to num_parts(m) and walks
positions left to right.  At each position the admissible values form one
interval: at least the previous part, at most one plus the prefix sum, and
clamped so the remaining positions can still land exactly on m (remaining
parts at maximal growth must cover the residue, at minimal repetition must
not overshoot).  That feasibility clamp is not an optimization nicety --
without it the search degrades by orders of magnitude by m around 2**10.

The search stops at the second-largest part, whose interval also fixes the
largest.  The cursor expands each such interval into partitions, which
stream out in ascending lexicographic order (the golden tests rely on it);
the counter only adds up the interval lengths.

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

    def __contains__(self, s: int) -> bool:
        return 0 <= s <= self.total and (self.bits >> s) & 1 == 1

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
    # slots n - 1 and n take v and rest - v (buf[-2] would store slower)
    if m == 1:
        yield Partition((1,))
        return
    n = m.bit_length() - 1
    for buf, lo, hi, rest in _leaves(m):
        for v in range(lo, hi + 1):
            buf[n - 1] = v
            buf[n] = rest - v
            yield Partition(buf)


def count_by_enumeration(m: int) -> int:
    """|Mp(m)| by direct search, no recurrence involved.

    Sums the sizes of the leaf intervals of the search the cursor expands,
    so no partition is ever materialized.
    """
    _require_positive(m)
    if m == 1:
        return 1
    return sum(hi - lo + 1 for _, lo, hi, _ in _leaves(m))


def _leaves(m: int) -> Iterator[tuple[list[int], int, int, int]]:
    # The one search over Mp(m), m >= 2, in one frame: buf holds the parts
    # chosen so far, his[i] the top of position i's interval and sums[i]
    # the sum s before it.  It stops at position n - 1, the second-largest
    # part, and yields buf, that position's nonempty interval lo..hi and
    # rest = m - s: each v there fixes the last part rest - v, which the
    # clamps keep in range.  Consumers may fill buf[n - 1] and buf[n] only.
    n = m.bit_length() - 1
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
        if lo <= hi:
            if i < n - 1:
                buf[i], his[i], sums[i] = lo, hi, s
                i, s, last = i + 1, s + lo, lo
                continue
            yield buf, lo, hi, m - s
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
