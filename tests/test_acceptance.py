"""Acceptance gate: one test per shipping criterion, in order, each printing
a PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them inline).

Criterion 8 (the lower-half defect-transfer identity) is asserted exactly as
stated and is EXPECTED TO FAIL: the identity itself is numerically false on
part of its domain, with first counterexample m = 9.  Every quantity feeding
it is cross-validated by independent routes inside this same suite, so the
discrepancy is in the claimed identity, not in this implementation.  The
companion test ``test_defect_transfer_characterization`` freezes the exact
domain on which the identity does and does not hold; the project decision
log carries the full analysis.  All other criteria pass.
"""

import itertools
import random
import time

from mpart.cli import _golden_table64, _table_csv
from mpart.core import (
    Partition,
    extension_range_m1,
    extension_range_m12,
    generate_alg1,
    generate_alg2,
    generate_alg3,
    is_m_partition,
    is_weak_m_partition,
    largest_part_bounds,
    num_parts,
)
from mpart.counting import (
    BinarySeries,
    CountTable,
    a,
    a_even_pairing_check,
    a_upper_half_via_b,
    build_table,
    gf_coefficients,
    in_upper_half,
)
from mpart.enumeration import (
    count_by_enumeration,
    iter_m_partitions,
    oracle_is_weak,
    subset_sums,
)


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")


def test_c01_table_64_reproduction(counts64):
    t0 = time.perf_counter()
    table = build_table(64)
    csv = _table_csv(64, table)
    elapsed = time.perf_counter() - t0
    ok = (
        [table[m] for m in range(1, 65)] == counts64[1:]
        and csv == _golden_table64()
        and table[16] == 12
        and table[32] == 84
        and table[48] == 26
        and elapsed < 1.0
    )
    _report("c01 table-64 reproduction (<1s)", ok)
    assert ok, f"elapsed={elapsed:.3f}s"


def test_c02_recurrence_equals_enumeration_to_512():
    t0 = time.perf_counter()
    table = build_table(512)
    bad = [m for m in range(1, 513) if table[m] != count_by_enumeration(m)]
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _report("c02 recurrence == enumeration on [1,512] (<60s)", ok)
    assert ok, f"mismatches={bad[:5]} elapsed={elapsed:.1f}s"


GOLDEN_SMALL = {
    7: [(1, 2, 4)],
    8: [(1, 1, 2, 4), (1, 1, 3, 3), (1, 2, 2, 3)],
    9: [(1, 1, 2, 5), (1, 1, 3, 4), (1, 2, 2, 4), (1, 2, 3, 3)],
    10: [(1, 1, 3, 5), (1, 2, 2, 5), (1, 2, 3, 4)],
    11: [(1, 1, 3, 6), (1, 2, 2, 6), (1, 2, 3, 5), (1, 2, 4, 4)],
    12: [(1, 2, 3, 6), (1, 2, 4, 5)],
    13: [(1, 2, 3, 7), (1, 2, 4, 6)],
    14: [(1, 2, 4, 7)],
    15: [(1, 2, 4, 8)],
}


def test_c03_golden_enumerations_7_to_15():
    got = {m: [p.parts for p in iter_m_partitions(m)] for m in GOLDEN_SMALL}
    ok = got == GOLDEN_SMALL
    _report("c03 golden enumerations m=7..15", ok)
    assert ok, got


def test_c04_decomposition_examples():
    table = CountTable()

    r16 = extension_range_m1(16)
    inner16 = {m1: extension_range_m12(m1, 16) for m1 in r16}
    pieces16 = [
        a(m1, table) - sum(a(m12, table) for m12 in inner16[m1]) for m1 in r16
    ]

    r25 = extension_range_m1(25)
    inner25 = {m1: extension_range_m12(m1, 25) for m1 in r25}

    ok = (
        (r16.lo, r16.hi) == (8, 11)
        and inner16[8].is_empty
        and inner16[9].is_empty
        and inner16[10].is_empty
        and (inner16[11].lo, inner16[11].hi) == (5, 5)
        and pieces16 == [3, 4, 3, 4 - 2]
        and sum(pieces16) == 12 == a(16, table)
        and (r25.lo, r25.hi) == (12, 15)
        and all(inner25[m1].is_empty for m1 in r25)
        and [a(m1, table) for m1 in r25] == [2, 2, 1, 1]
        and a(25, table) == 6
    )
    _report("c04 decomposition checks a_16 and a_25", ok)
    assert ok


def test_c05_series_bridge_4096(bser):
    t0 = time.perf_counter()
    coeffs = gf_coefficients(4096)
    values = bser.prefix(4096)
    elapsed = time.perf_counter() - t0
    ok = coeffs == values and elapsed < 5.0
    _report("c05 series bridge j<=4096 (<5s)", ok)
    assert ok, f"elapsed={elapsed:.2f}s"


def test_c06_upper_half_closed_form_to_2_14(table14, bser):
    bad = [
        m
        for m in range(2, (1 << 14) + 1)
        if in_upper_half(m) and a_upper_half_via_b(m, bser) != table14[m]
    ]
    ok = not bad
    _report("c06 upper-half closed form m<=2^14", ok)
    assert ok, bad[:5]


def test_c07_even_pairing_to_2_14(table14):
    # build_table stores an upper-half pair (2t, 2t+1) as one int, so the
    # table catches only a misaligned pair; below 2^10 the enumeration
    # counter, which shares no code with the table, checks each pair too
    bad = []
    for m in range(2, 1 << 14, 2):
        n = m.bit_length() - 1
        if (3 << (n - 1)) <= m < (2 << n):
            if not a_even_pairing_check(m, table14):
                bad.append(m)
            elif m < 1 << 10 and count_by_enumeration(m) != count_by_enumeration(m + 1):
                bad.append(m)
    ok = not bad
    _report("c07 even/odd pairing m<=2^14", ok)
    assert ok, bad[:5]


def _lower_half_domain(limit):
    for m in range(8, limit + 1):
        n = m.bit_length() - 1
        if n >= 3 and (1 << n) <= m <= (1 << n) + (1 << (n - 1)) - 2:
            yield m, n


def _defect_transfer_sides(m, n, table, series):
    # lhs: b_{k//2} - a_m with k = 2^(n+1) - 1 - m
    # rhs: b_{k'//2} - a_{m'} with m' = m - 2^(n-1) - 2^(n-2), k' = 2^n - 1 - m'
    k = (2 << n) - 1 - m
    mp = m - (1 << (n - 1)) - (1 << (n - 2))
    kp = (1 << n) - 1 - mp
    lhs = series.value(k >> 1) - table[m]
    rhs = series.value(kp >> 1) - table[mp]
    return lhs, rhs


def test_c08_defect_transfer_lower_half_as_stated(table14, bser):
    """EXPECTED TO FAIL -- the asserted identity is false, see module docstring.

    For every lower-half m <= 2**12 with n >= 3 this asserts

        b_{k//2} - a_m  ==  b_{k'//2} - a_{m'}

    with m' = m - 2^(n-1) - 2^(n-2), k = 2^(n+1) - 1 - m, k' = 2^n - 1 - m'.
    First counterexample: m = 9, where b_3 - a_9 = 6 - 4 = 2 but
    b_2 - a_3 = 4 - 1 = 3.  The a-values are confirmed by exhaustive
    enumeration (criterion 2) and the b-values by the truncated-product
    route (criterion 5), so the identity itself is wrong, not the data.
    """
    violations = []
    for m, n in _lower_half_domain(1 << 12):
        lhs, rhs = _defect_transfer_sides(m, n, table14, bser)
        if lhs != rhs:
            violations.append((m, lhs, rhs))
    ok = not violations
    _report("c08 defect transfer on all lower-half m<=2^12 (known-false identity)", ok)
    assert ok, (
        f"{len(violations)} violations on 2036 lower-half values; first five "
        f"(m, lhs, rhs): {violations[:5]} -- see test_defect_transfer_characterization"
    )


# Exact violation set of the criterion-8 identity for lower-half m <= 2**12,
# n >= 3, frozen from two independently cross-checked computations of a_m and
# b_j.  The identity holds on the rest of the domain: for n <= 6 that is
# exactly the m whose m' stays in the next binade down (m >= 5 * 2^(n-2)),
# and from n = 7 on, an additional band above 5 * 2^(n-2) fails too.
EXPECTED_VIOLATIONS = {
    3: [9],
    4: list(range(16, 20)),
    5: list(range(32, 40)),
    6: list(range(64, 80)),
    7: list(range(128, 164)),
    8: list(range(256, 332)),
    9: list(range(512, 668)),
    10: list(range(1024, 1340)),
    11: list(range(2048, 2684)),
    12: [4096],
}


def test_defect_transfer_characterization(table14, bser):
    got: dict[int, list[int]] = {}
    for m, n in _lower_half_domain(1 << 12):
        lhs, rhs = _defect_transfer_sides(m, n, table14, bser)
        if lhs != rhs:
            got.setdefault(n, []).append(m)
    ok = got == EXPECTED_VIOLATIONS
    _report("c08b defect-transfer characterization (exact true/false domain)", ok)
    assert ok, {n: v[:6] for n, v in got.items()}


def test_c09_property_suites(table14):
    failures = []

    # generators always produce M-partitions on their domains
    for m in range(1, 2049):
        if not is_m_partition(generate_alg1(m)):
            failures.append(("alg1", m))
        if not is_m_partition(generate_alg2(m)):
            failures.append(("alg2", m))
        n = m.bit_length() - 1
        lower_half = n >= 2 and m <= (1 << n) + (1 << (n - 1)) - 2
        if lower_half and not is_m_partition(generate_alg3(m)):
            failures.append(("alg3", m))

        # three-way sharpness: the upper bound is hit by the halving
        # generator; whichever term is the binding lower bound is hit by
        # the remainder generator (upper half) or the split generator
        # (lower half) -- between them every m >= 2 is covered
        if m >= 2:
            bd = largest_part_bounds(m)
            if generate_alg2(m).largest != bd.upper:
                failures.append(("upper-sharp", m))
            if in_upper_half(m):
                if bd.lower != m - (1 << n) + 1:
                    failures.append(("binding-term", m))
                if generate_alg1(m).largest != bd.lower:
                    failures.append(("lower-sharp-1", m))
            elif lower_half and generate_alg3(m).largest != bd.lower:
                failures.append(("lower-sharp-3", m))

    # enumerated structure: part count, bounds, prefix closure, oracle match.
    # Weakness of prefixes is inherited (the inequalities only look left), so
    # prefix closure reduces to every prefix sum reaching its power floor.
    def check_stream(m, stream):
        bd = largest_part_bounds(m)
        expected_len = num_parts(m)
        for p in stream:
            if len(p) != expected_len:
                failures.append(("length", m, p.parts))
            if not bd.lower <= p.largest <= bd.upper:
                failures.append(("bounds", m, p.parts))
            s = 0
            for j, q in enumerate(p.parts):
                s += q
                if s < (1 << j):
                    failures.append(("prefix", m, p.parts, j))
            if not oracle_is_weak(p):
                failures.append(("oracle", m, p.parts))

    for m in range(1, 257):
        check_stream(m, iter_m_partitions(m))
    # larger m: Mp gets huge (22.5M at m=512), so sample a prefix of each stream
    for m in (300, 409, 500, 511, 512):
        check_stream(m, itertools.islice(iter_m_partitions(m), 20_000))

    # 10,000 pseudo-random nondecreasing part lists under a fixed seed:
    # inequality predicate vs subset-sum oracle, plus complement closure
    rng = random.Random(20250810)
    for _ in range(10_000):
        parts = sorted(rng.randint(1, 64) for _ in range(rng.randint(1, 12)))
        p = Partition(tuple(parts))
        reach = subset_sums(p)
        if is_weak_m_partition(p) != reach.is_complete():
            failures.append(("random-oracle", parts))
        if not reach.is_complement_closed():
            failures.append(("complement", parts))

    ok = not failures
    _report("c09 property suites (generators, prefixes, bounds, oracle x10k)", ok)
    assert ok, failures[:5]


def test_c10_build_table_2_16_under_30s():
    t0 = time.perf_counter()
    table = build_table(1 << 16)
    elapsed = time.perf_counter() - t0
    ok = table.dense_limit == 1 << 16 and table[64] == 908 and elapsed < 30.0
    _report("c10 build_table(2^16) (<30s)", ok)
    assert ok, f"elapsed={elapsed:.2f}s"
