"""Exhaustive enumeration of Mp(m) plus the subset-sum ground-truth oracle.

One search finds Mp(m).  It fixes the part count to num_parts(m) and walks
positions left to right.  At each position the admissible values form one
interval: at least the previous part, at most one plus the prefix sum, and
clamped so the remaining positions can still land exactly on m (remaining
parts at maximal growth must cover the residue, at minimal repetition must
not overshoot).  That feasibility clamp is not an optimization nicety --
without it the search degrades by orders of magnitude by m around 2**10.

The cursor stops the search at the second-largest part, whose interval also
fixes the largest, and expands each such interval, a leaf, into partitions,
which stream out in ascending lexicographic order (the golden tests rely on
it).  A leaf's partitions share every part but the last two, so the checked
Partition constructor builds only its two ends, which prove the rest valid,
and does so before the leaf yields anything.
The counter stops one position earlier, at the third-largest part: below
each of its intervals the last two parts are the lattice points of a
polygon, which it counts in closed form without visiting them.

The oracle side is deliberately naive: a dense reachability bitmask over
0..total built with one shifted OR per part.  Every attainable sum lies in
0..total, so the parts cover exactly when the mask has more than total bits
set; the oracle counts them.  It knows nothing about the inequality
characterization it is used to validate.
"""

from collections.abc import Iterator

from .core import Partition, _Record, _require_positive, _set_parts, _set_total


class SumReachability(_Record):
    """Attainable sub-multiset sums of a part list, as a dense bitmask.

    Bit s of ``bits`` is set iff sum s is attainable; the universe is
    0..total.  0 and total are always members, and the set is closed under
    the complement s -> total - s (take the other parts).
    """

    __slots__ = ("total", "bits")

    def is_complete(self) -> bool:
        """True iff every sum 0..total is attainable."""
        # every attainable sum lies in 0..total, so all total + 1 bits are set
        return self.bits.bit_count() > self.total

    def is_complement_closed(self) -> bool:
        width = self.total + 1
        rev = int(format(self.bits, f"0{width}b")[::-1], 2)
        return rev == self.bits


def subset_sums(p: Partition) -> SumReachability:
    """Exact subset-sum reachability of p's parts by dense DP."""
    # the bitmask doubles as the DP table: after processing a part q, bit s
    # is set iff s is attainable from the parts seen so far (shift-OR adds q
    # to every attainable sum)
    bits = 1
    for q in p.parts:
        bits |= bits << q
    return SumReachability(p.total, bits)


def oracle_is_weak(p: Partition) -> bool:
    """Ground truth for the coverage property: all of 0..total attainable.

    Independent of the prefix-sum characterization in :mod:`mpart.core`;
    this is the oracle the fast predicate is validated against.
    """
    # subset_sums' DP in this frame, and SumReachability.is_complete's test
    bits = 1
    for q in p.parts:
        bits |= bits << q
    return bits.bit_count() > p.total


def iter_m_partitions(m: int) -> Iterator[Partition]:
    """Yield every M-partition of m exactly once, lexicographically ascending.

    A single-consumer cursor; distinct cursors (same m or not) are fully
    independent.  Two runs produce identical sequences.  Raises
    ``ValueError`` for m < 1 at the call, not at the first ``next``.
    """
    _require_positive(m)
    return _walk(m)


def _walk(m: int) -> Iterator[Partition]:
    # A leaf is pre + (v, rest - v) for v in lo..hi.  Its two ends, checked
    # before it yields anything, prove pre positive and nondecreasing,
    # pre[-1] <= lo and hi <= rest - hi, so every v between gives a valid
    # partition, whose total is the ends' by construction.
    if m == 1:
        yield Partition((1,))
        return
    n = m.bit_length() - 1
    new = Partition.__new__
    for buf, lo, hi, rest in _leaves(m, n - 1):
        pre = tuple(buf)
        last = Partition(pre + (hi, rest - hi))
        if lo < hi:
            yield Partition(pre + (lo, rest - lo))
            total = last.total
            for v in range(lo + 1, hi):
                p = new(Partition)
                _set_parts(p, pre + (v, rest - v))
                _set_total(p, total)
                yield p
        yield last


def count_by_enumeration(m: int) -> int:
    """|Mp(m)| by direct search, no recurrence involved.

    Walks the cursor's search down to the third-largest part and counts the
    last two parts below each of its intervals in closed form, so no
    partition, nor any interval of the second-largest part, is visited.
    """
    _require_positive(m)
    if m < 4:
        return 1
    stop = m.bit_length() - 3
    return sum(_last_two(m, m - rest, lo, hi) for _, lo, hi, rest in _leaves(m, stop))


def _last_two(m: int, s: int, lo: int, hi: int) -> int:
    # The partitions below an interval lo..hi of the third-largest part,
    # where s is the sum of the parts before it.  For each value v there,
    # the second-largest part ranges over
    # max(v, m//2 - s - v) .. min(1 + s + v, (m - s - v) // 2) and fixes
    # the largest.  That interval is never empty, by the clamps on v at its
    # own position: v <= (m - s) // 3 and s + v >= ceil((m + 1) / 4) - 1.
    # The interval lengths are summed by pieces: the top is 1 + s + v up to
    # v = p and (m - s - v) // 2 after it; the bottom is m//2 - s - v
    # before v = q and v from it on.
    p = (m - 3 * s - 2) // 3
    q = -(-(m // 2 - s) // 2)
    # b = min(hi, p), a = max(lo, p + 1), then the same about q - 1 and q;
    # conditional expressions, as the min and max calls cost more here
    total = hi - lo + 1
    if lo <= (b := hi if hi <= p else p):
        total += (b - lo + 1) * (2 + 2 * s + lo + b) // 2
    if (a := lo if lo > p else p + 1) <= hi:
        # the sum of k // 2 over k = m - s - hi .. m - s - a
        total += _half_sums(m - s - a) - _half_sums(m - s - hi - 1)
    if lo <= (b := hi if hi < q else q - 1):
        total -= (b - lo + 1) * (2 * (m // 2 - s) - lo - b) // 2
    if (a := lo if lo >= q else q) <= hi:
        total -= (hi - a + 1) * (a + hi) // 2
    return total


def _half_sums(x: int) -> int:
    # sum of k // 2 over 0 <= k <= x, for x >= -1
    return (x // 2) * ((x + 1) // 2)


def _leaves(m: int, stop: int) -> Iterator[tuple[list[int], int, int, int]]:
    # The one search over Mp(m), m >= 2, in one frame: buf holds the parts
    # chosen so far, his[i] the top of position i's interval and sums[i]
    # the sum s before it.  It stops at position stop, 0 <= stop < n, and
    # yields buf, that position's nonempty interval lo..hi and rest = m - s.
    # At stop = n - 1, the second-largest part, each v there fixes the last
    # part rest - v, which the clamps keep in range.  buf holds stop parts,
    # and consumers only read it.
    n = m.bit_length() - 1
    # position i has t = n - i parts after it: besides last <= v <= 1 + s,
    # its clamps are ceil((m + 1) / 2^t) - 1 - s <= v <= (m - s) // (t + 1)
    floors = [-(-(m + 1) >> (n - i)) - 1 for i in range(n)]
    spans = [n - i + 1 for i in range(n)]
    buf = [0] * stop
    his = [0] * n
    sums = [0] * n
    i, s, last = 0, 0, 1
    while True:
        # lo = max(last, floors[i] - s), hi = min(1 + s, (m - s) // spans[i]),
        # clamped by comparison: the builtins cost more per node
        lo = floors[i] - s
        if lo < last:
            lo = last
        hi = (m - s) // spans[i]
        if hi > 1 + s:
            hi = 1 + s
        if lo <= hi:
            if i < stop:
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
