"""Command-line surface: mpart <verify|gen|enum|count|table|series|selftest>.

stdout carries data, stderr carries diagnostics, and the exit status is 0
exactly when the command semantically succeeded.  Output is deterministic
byte-for-byte for fixed inputs.

Two output modes: a human mode that prints partitions as "+"-joined
nondecreasing parts, and ``--format json`` for machine consumption.  JSON
integers larger than 2**53 - 1 are emitted as decimal strings so consumers
that read numbers into doubles never lose digits; counts in human mode are
always full decimal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice
from operator import eq

from .core import (
    DomainError,
    Partition,
    extension_range_m1,
    generate_alg1,
    generate_alg2,
    generate_alg3,
    is_m_partition,
    is_weak_m_partition,
    largest_part_bounds,
    num_parts,
)
from .counting import (
    BinarySeries,
    CountTable,
    _series_index,
    a,
    a_upper_half_via_b,
    build_table,
    gf_coefficients,
    in_upper_half,
)
from .enumeration import count_by_enumeration, iter_m_partitions

_JSON_INT_MAX = (1 << 53) - 1


def _jint(v: int):
    # ints above the double-exact window travel as decimal strings
    return v if v <= _JSON_INT_MAX else str(v)


def _emit_json(payload: dict) -> None:
    # the bytes of json.dumps(payload) + "\n", one value at a time; an
    # iterator of lists stands for the one list they make up and goes out a
    # list at a time, brackets cut off, never held whole
    out = sys.stdout
    sep = "{"
    for key, value in payload.items():
        out.write(f"{sep}{json.dumps(key)}: ")
        sep = ", "
        if isinstance(value, Iterator):
            out.write("[")
            inner = ""
            for items in value:
                out.write(inner + json.dumps(items)[1:-1])
                inner = ", "
            out.write("]")
        else:
            out.write(json.dumps(value))
    out.write("}\n")


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _blocks(items: Iterable) -> Iterator[list]:
    # output goes out in blocks of 4096, as one write per row is half again as slow
    items = iter(items)
    while block := list(islice(items, 4096)):
        yield block


def _table_rows(M: int, table: CountTable) -> Iterator[str]:
    # pinned format: header "m,a_m", no padding, newline-terminated last row
    yield "m,a_m\n"
    for ms in _blocks(range(1, M + 1)):
        yield "".join(f"{m},{table[m]}\n" for m in ms)


def _table_csv(M: int, table: CountTable) -> str:
    return "".join(_table_rows(M, table))


def _golden_table64() -> str:
    path = os.path.join(os.path.dirname(__file__), "data", "golden_counts_64.csv")
    with open(path, encoding="utf-8") as f:
        return f.read()


def cmd_verify(args) -> int:
    p = Partition(tuple(args.parts))  # ValueError here names the violation
    m = p.total
    weak = is_weak_m_partition(p)
    full = is_m_partition(p)
    n = num_parts(m) - 1
    bounds = largest_part_bounds(m)
    blo, bhi = bounds.lower, bounds.upper
    if args.format == "json":
        _emit_json(
            {
                "kind": "verify",
                "m": _jint(m),
                "n": n,
                "parts": [_jint(q) for q in p.parts],
                "weak": weak,
                "m_partition": full,
                "bounds": [_jint(blo), _jint(bhi)],
            }
        )
    else:
        print(f"parts: {p}")
        print(f"m: {m}")
        print(f"n: {n}")
        print(f"weak: {_bool(weak)}")
        print(f"m_partition: {_bool(full)}")
        print(f"largest_part_bounds: {blo}..{bhi}")
    return 0


_GENERATORS = {1: generate_alg1, 2: generate_alg2, 3: generate_alg3}


def cmd_gen(args) -> int:
    p = _GENERATORS[args.alg](args.m)
    ok = is_m_partition(p)
    if args.format == "json":
        _emit_json(
            {
                "kind": "gen",
                "m": _jint(args.m),
                "alg": args.alg,
                "parts": [_jint(q) for q in p.parts],
                "m_partition": ok,
            }
        )
    else:
        print(f"{args.m} = {p}")
        print(f"m_partition: {_bool(ok)}")
    return 0


def cmd_enum(args) -> int:
    _require_countable(args.m)
    # the full count comes from the counting engine, before the first byte;
    # the walk stops after --limit items (islice caps its bound at
    # sys.maxsize) and goes out a block at a time, as it is walked
    count = a(args.m)
    limit = None if args.limit is None else min(args.limit, sys.maxsize)
    walk = islice(iter_m_partitions(args.m), limit)
    if args.format == "json":
        parts = _blocks([_jint(q) for q in p.parts] for p in walk)
        _emit_json({"kind": "enum", "m": _jint(args.m), "parts": parts, "count": _jint(count)})
    else:
        sys.stdout.writelines(map("".join, _blocks(f"{p}\n" for p in walk)))
        print(f"count: {count}")
    return 0


# count, enum and table build a table of at most 2^23 entries, about 1 GB at
# 118 B an entry: count 12582910, the largest lower half admitted, took 6.6
# and 6.8 s and table 8388608 13.6 and 14.1 s, each at 966 MB (whole process,
# Python 3.11.7, 2 vCPUs).  series holds b_0..b_J twice, about 138 B
# a term (whole process, 269 MB at J = 2*10^6, 339 MB at 2.5*10^6 and 407 MB
# at 3*10^6).  Its JSON, the slower form, took 8.5 s at 2.5*10^6 and 12.1 s
# at 3*10^6 (3.6 and 4.6 s in text), so the cap keeps it near the 10 s of
# the slowest count.
_MAX_TABLE = 2**23
_MAX_SERIES = 25 * 10**5
# An upper-half m is b_j, j = _series_index(m), and halving b_j takes time
# growing as the bit length of j to the fifth; a j the series cache reaches
# by appending never halves, however large m is.  Of 218-bit j, 3*2^216
# took 8.6 to 9.5 s, 7*2^215 9.2 s, 2^217 7.7 s and 2^218 - 1 4.2 s
# (in-process, Python 3.11.7, 2 vCPUs).
_MAX_HALVED_BITS = 218


def _require_countable(m: int) -> None:
    # a with no table tabulates a lower-half m up to hi < m, and answers an
    # upper-half m by b_j, halving a j past the series cache
    if in_upper_half(m):
        if (bits := _series_index(m).bit_length()) > _MAX_HALVED_BITS:
            raise DomainError(
                f"an upper-half m is b_j with j of {bits} bits, whose halving time grows "
                f"as bits^5; count and enum halve j of at most {_MAX_HALVED_BITS} bits"
            )
    elif m > _MAX_TABLE and (hi := extension_range_m1(m).hi) > _MAX_TABLE:
        raise DomainError(
            f"a lower-half m needs a table of {hi} entries, about {hi * 118 // 10**6} MB; "
            f"count and enum build at most {_MAX_TABLE}"
        )


_COUNTERS = {"recurrence": a, "enumerate": count_by_enumeration, "genfun": a_upper_half_via_b}

# The most partitions --method enumerate counts: a_3470 = 98547380 takes
# about 0.22 s, some 450M partitions a second, as the counter visits no
# leaf (Python 3.11, a 2 vCPU host).
_MAX_ENUMERATED = 10**8


def _require_enumerable(m: int) -> None:
    if in_upper_half(m):
        # a_m = b_j, and b_j increases with j: every j from the first b_J
        # past the budget on is refused with b_J, never with a far b_j
        bs, j, J = BinarySeries(), _series_index(m), 0
        while bs.value(J) <= _MAX_ENUMERATED:
            J += 1
        if j < J:
            return
        bound, a_m = (f"a_m = b_{j} >= b_{J}" if j > J else "a_m"), bs.value(J)
    else:
        # a_m >= a_(m >> s), as appending ceil(m/2) extends Mp(m//2) into Mp(m);
        # past 2^12 that bound, at least a_3070 = 2320518947, refuses alone
        s = max(m.bit_length() - 12, 0)
        if (a_m := a(m >> s)) <= _MAX_ENUMERATED and not s:
            return
        bound = f"a_m >= a_{m >> s}" if s else "a_m"
    raise DomainError(
        f"--method enumerate walks at most {_MAX_ENUMERATED} partitions, "
        f"and {bound} = {a_m}; use --method recurrence"
    )


def cmd_count(args) -> int:
    m = args.m
    method = args.method
    if method == "auto":
        method = "genfun" if in_upper_half(m) else "recurrence"
    # "recurrence" resolves through a, which answers an upper half past the
    # table by the closed form; the printed label stays the method asked
    # for.  genfun is a DomainError outside the upper-half window.
    if method == "enumerate":
        _require_enumerable(m)
    elif method == "recurrence" or in_upper_half(m):
        _require_countable(m)
    value = _COUNTERS[method](m)
    if args.format == "json":
        _emit_json({"kind": "count", "m": _jint(m), "count": _jint(value), "method": method})
    else:
        print(f"m: {m}")
        print(f"a_m: {value}")
        print(f"method: {method}")
    return 0


def cmd_table(args) -> int:
    if args.M > _MAX_TABLE:
        raise DomainError(
            f"table needs {args.M} entries, about {args.M * 118 // 10**6} MB; "
            f"table builds at most {_MAX_TABLE}"
        )
    table = build_table(args.M)
    if args.format == "json":
        rows = _blocks([m, _jint(table[m])] for m in range(1, args.M + 1))
        _emit_json({"kind": "table", "rows": rows})
    else:
        sys.stdout.writelines(_table_rows(args.M, table))
    return 0


def cmd_series(args) -> int:
    if args.J > _MAX_SERIES:
        raise DomainError(
            f"series needs b_0..b_{args.J} twice, about {(args.J + 1) * 138 // 10**6} MB; "
            f"series takes J at most {_MAX_SERIES}"
        )
    bs = BinarySeries().prefix(args.J)
    cs = gf_coefficients(args.J)
    if args.format == "json":
        rows = _blocks([j, _jint(b), _jint(c)] for j, (b, c) in enumerate(zip(bs, cs)))
        _emit_json({"kind": "series", "rows": rows, "matches": _blocks(map(eq, bs, cs))})
    else:
        lines = (f"{j},{b},{c},{_bool(b == c)}\n" for j, (b, c) in enumerate(zip(bs, cs)))
        print("j,b_j,coeff,match")
        sys.stdout.writelines(map("".join, _blocks(lines)))
    return 0


def cmd_selftest(args) -> int:
    table = build_table(256)
    groups = {
        "golden_table": _table_csv(64, table) == _golden_table64(),
        "recurrence_vs_enumeration": all(
            table[m] == count_by_enumeration(m) for m in range(1, 257)
        ),
        "series_bridge": gf_coefficients(512) == BinarySeries().prefix(512),
    }
    for name, ok in groups.items():
        print(f"{name}: {'pass' if ok else 'fail'}")
    return 0 if all(groups.values()) else 1


def _int_at_least(value: str, low: int, what: str) -> int:
    # argparse would word a ValueError by this type function's name; past
    # Python's int-parsing digit limit the length, not the value, is at fault
    try:
        if (n := int(value)) >= low:
            return n
    except ValueError:
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit and (digits := sum(map(str.isdecimal, value))) > limit:
            msg = f"has {digits} digits, more than Python's int-parsing limit of {limit}"
            raise argparse.ArgumentTypeError(msg) from None
    raise argparse.ArgumentTypeError(f"must be {what}, got {value}")


def _positive(value: str) -> int:
    return _int_at_least(value, 1, "a positive integer")


def _nonnegative(value: str) -> int:
    return _int_at_least(value, 0, "nonnegative")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpart",
        description=(
            "Work with M-partitions: minimal partitions of m whose "
            "sub-multiset sums cover every integer up to m."
        ),
    )
    sub = parser.add_subparsers(metavar="<command>", required=True)

    def command(name, func, summary, formats=("json",), default=None):
        # --format offers only the formats the command writes
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if formats:
            p.add_argument("--format", choices=formats, default=default)
        return p

    p = command("verify", cmd_verify, "check a part list for coverage and minimality")
    p.add_argument("parts", nargs="+", type=int, help="nondecreasing positive parts")

    p = command("gen", cmd_gen, "generate a witness M-partition of m")
    p.add_argument("m", type=_positive)
    p.add_argument("--alg", type=int, choices=(1, 2, 3), default=1)

    p = command("enum", cmd_enum, "list Mp(m) in lexicographic order")
    p.add_argument("m", type=_positive)
    p.add_argument("--limit", type=_nonnegative, help="print at most N partitions")

    p = command("count", cmd_count, "compute a_m = |Mp(m)|")
    p.add_argument("m", type=_positive)
    p.add_argument(
        "--method",
        choices=("recurrence", "enumerate", "genfun", "auto"),
        default="auto",
    )

    p = command("table", cmd_table, "emit rows (m, a_m) for 1 <= m <= M", ("csv", "json"), "csv")
    p.add_argument("M", type=_positive)

    p = command("series", cmd_series, "emit b_0..b_J next to the series coefficients")
    p.add_argument("J", type=_nonnegative)

    command("selftest", cmd_selftest, "run the embedded invariant suite", ())

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # parse_args kept the 4300-digit int-to-str limit; counts print past it
    digits = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def run() -> None:
    sys.exit(main())
