"""Partition type, verification predicates, and witness generators.

An M-partition of m is a partition with the fewest possible parts such that
every integer between 0 and m is the sum of some sub-multiset of the parts.
The minimal count is exactly the bit length of m, and membership reduces to
a run of prefix-sum inequalities, so every predicate here is a single linear
pass.  All arithmetic is exact Python integers; floating point never enters
(a float log2 is off by one at powers of two, which would silently corrupt
every caller).
"""

from collections.abc import Iterable, Iterator


class DomainError(ValueError):
    """Well-formed argument outside an operation's stated domain."""


def _require_positive(m: int, name: str = "m") -> None:
    if m < 1:
        raise ValueError(f"{name} must be a positive integer, got {m}")


def num_parts(m: int) -> int:
    """Number of parts of every M-partition of m: floor(log2 m) + 1.

    Computed as the bit length of m, never via floating point.
    """
    _require_positive(m)
    return m.bit_length()


class _Record:
    """Base of the immutable slotted records.

    A record's fields are its ``__slots__``, set once in ``__init__``: this
    one takes one positional argument per field, in ``__slots__`` order.
    Equality, hashing, copy and pickle all go through ``_args()``, the
    constructor's arguments, so pickle rebuilds a record by calling its class.
    """

    __slots__ = ()

    def __init__(self, *args) -> None:
        if len(args) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, args):
            object.__setattr__(self, name, value)

    def _args(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._args() == other._args()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._args())

    def __reduce__(self):
        return self.__class__, self._args()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class Partition(_Record):
    """Nondecreasing positive parts together with their cached sum.

    >>> Partition((1, 2, 4)).total
    7

    Raises ``ValueError`` for empty, non-positive, or out-of-order parts.
    Compares and hashes by ``parts``.
    """

    __slots__ = ("parts", "total")
    parts: tuple[int, ...]
    total: int

    def __init__(self, parts: Iterable[int]) -> None:
        parts = tuple(parts)
        if not parts:
            raise ValueError("a partition needs at least one part")
        # prev starts at 1 and never falls, so p < prev also catches p < 1
        prev = 1
        for p in parts:
            if p < prev:
                if p < 1:
                    raise ValueError(f"parts must be positive integers, got {p}")
                raise ValueError(f"parts must be nondecreasing, got {p} after {prev}")
            prev = p
        _set_parts(self, parts)
        _set_total(self, sum(parts))

    def _args(self) -> tuple:
        return (self.parts,)

    def __len__(self) -> int:
        return len(self.parts)

    @property
    def largest(self) -> int:
        return self.parts[-1]

    def __str__(self) -> str:
        return "+".join(map(str, self.parts))


# The slots' own setters, which skip the refusing __setattr__.  The cursor
# checks each leaf of Mp(m) at its two ends and fills the partitions between
# them with these setters alone, on a bare Partition.__new__; with
# object.__setattr__ the walk took a quarter longer per partition (Python
# 3.11.7, m = 128..511).
_set_parts = Partition.parts.__set__
_set_total = Partition.total.__set__


def is_weak_m_partition(p: Partition) -> bool:
    """True iff every integer 0..p.total is a sub-multiset sum of the parts.

    One pass over prefix sums: each part may exceed the sum of its
    predecessors by at most one (so the first part must be 1).
    """
    s = 0
    for part in p.parts:
        if part > s + 1:
            return False
        s += part
    return True


def is_m_partition(p: Partition) -> bool:
    """Weak coverage plus the minimal part count num_parts(p.total)."""
    # a Partition's total is at least 1, so its bit length is num_parts(total)
    return len(p.parts) == p.total.bit_length() and is_weak_m_partition(p)


def generate_alg1(m: int) -> Partition:
    """Witness M-partition: the powers 1, 2, ..., 2^(n-1) plus the remainder
    m - (2^n - 1), sorted into place (the remainder can land anywhere)."""
    _require_positive(m)
    n = m.bit_length() - 1
    parts = [1 << i for i in range(n)]
    parts.append(m - ((1 << n) - 1))
    parts.sort()
    return Partition(parts)


def generate_alg2(m: int) -> Partition:
    """Witness M-partition by repeated halving: the largest part is
    ceil(m/2) and the rest recursively partition floor(m/2)."""
    _require_positive(m)
    rem = m
    rev = []
    while rem:
        rev.append((rem + 1) >> 1)
        rem >>= 1
    return Partition(reversed(rev))


def generate_alg3(m: int) -> Partition:
    """Witness for the lower portion of a binade: powers 1..2^(n-2), then an
    almost-even split of the remainder m - (2^(n-1) - 1).

    Only valid for 2^n <= m <= 2^n + 2^(n-1) - 2 with n >= 2.  Outside that
    window the split leaves a gap just above the power prefix (some sums
    become unreachable), so a :class:`DomainError` is raised instead of a
    broken witness.
    """
    _require_positive(m)
    n = m.bit_length() - 1
    if n < 2:
        raise DomainError(f"the split construction needs m >= 4, got {m}")
    if in_upper_half(m):
        raise DomainError(f"m={m} outside the admissible window [{1 << n}, {(3 << (n - 1)) - 2}]")
    res = m - ((1 << (n - 1)) - 1)
    parts = [1 << i for i in range(n - 1)]
    parts.extend((res >> 1, (res + 1) >> 1))
    return Partition(parts)


class PartBounds(_Record):
    """Sharp bounds on the largest part over all M-partitions of one m."""

    __slots__ = ("lower", "upper")


def largest_part_bounds(m: int) -> PartBounds:
    """Largest-part interval for M-partitions of m (m >= 1):

        max(m - 2^n + 1, ceil((m - 2^(n-1) + 1) / 2))  <=  largest  <=  ceil(m/2)

    All three bounds are attained (by the three generators).  For m >= 2
    the largest part is m - m1 for m1 in :func:`extension_range_m1`, so the
    interval is that range's complement; Mp(1) = {[1]} gives 1..1.
    """
    if m == 1:
        return PartBounds(1, 1)
    r = extension_range_m1(m)
    return PartBounds(m - r.hi, m - r.lo)


class ExtensionRange(_Record):
    """Closed integer interval; emptiness (lo > hi) is an ordinary value."""

    __slots__ = ("lo", "hi")

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1))

    def __len__(self) -> int:
        return self.hi - self.lo + 1 if self.hi >= self.lo else 0

    def __contains__(self, x: int) -> bool:
        return self.lo <= x <= self.hi


def in_upper_half(m: int) -> bool:
    """Whether m lies in its binade's upper-half window
    2^n + 2^(n-1) - 1 <= m <= 2^(n+1) - 1 (defined for n >= 1, so m >= 2)."""
    if m < 2:
        return False
    n = m.bit_length() - 1
    return m >= (3 << (n - 1)) - 1


def extension_range_m1(m: int) -> ExtensionRange:
    """Admissible sums after dropping the largest part of an M-partition of m:

        floor(m/2) .. min(floor((m + 2^(n-1) - 1)/2), 2^n - 1)

    Never empty for m >= 2.
    """
    _require_positive(m)
    if m < 2:
        raise DomainError("truncation range needs m >= 2")
    n = m.bit_length() - 1
    return ExtensionRange(m >> 1, min((m + (1 << (n - 1)) - 1) >> 1, (1 << n) - 1))


def extension_range_m12(m1: int, m: int) -> ExtensionRange:
    """Two-step truncation sums counted by the subtraction term of the
    recurrence: floor(m1/2) .. 2*m1 - m - 1.

    Empty for most m1 (exactly when every extension to m1 also extends
    to m); emptiness is reported as a value, never as an error.
    """
    if m1 not in extension_range_m1(m):
        raise DomainError(f"m1={m1} is not a one-step truncation sum of m={m}")
    return ExtensionRange(m1 >> 1, 2 * m1 - m - 1)
