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

import argparse
import os
import sys
from bisect import bisect_right
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
    in_upper_half,
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
)
from .enumeration import count_by_enumeration, iter_m_partitions

_JSON_INT_MAX = (1 << 53) - 1


def _jint(v: int) -> str:
    # the JSON text of an int; past the double-exact window, a decimal string
    return str(v) if v <= _JSON_INT_MAX else f'"{v}"'


def _jlist(values: Iterable[int]) -> str:
    return f"[{', '.join(map(_jint, values))}]"


def _emit_json(kind: str, **fields) -> None:
    # one JSON object and a newline, the bytes json.dumps writes: each field
    # is JSON text, or an iterator of its items' JSON text, which goes out
    # as a list a block at a time, never held whole
    out = sys.stdout
    out.write(f'{{"kind": "{kind}"')
    for key, value in fields.items():
        out.write(f', "{key}": ')
        if isinstance(value, Iterator):
            out.write("[")
            out.writelines(_blocks(value, ", "))
            out.write("]")
        else:
            out.write(value)
    out.write("}\n")


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _blocks(items: Iterable[str], sep: str = "") -> Iterator[str]:
    # output goes out in blocks of 4096 items, each joined by sep, as one
    # write per item is half again as slow; sep also leads every block
    # after the first
    items, lead = iter(items), ""
    while block := list(islice(items, 4096)):
        yield lead + sep.join(block)
        lead = sep


def _table_rows(M: int, table: CountTable) -> Iterator[str]:
    # pinned format: header "m,a_m", no padding, newline-terminated last row;
    # rows go out 4096 a block, each read from one slice of the table's list,
    # as a() reads it: the Mapping would cost a call a row
    A = table._A
    yield "m,a_m\n"
    for lo in range(1, M + 1, 4096):
        hi = min(lo + 4096, M + 1)
        yield "".join([f"{m},{v}\n" for m, v in zip(range(lo, hi), A[lo:hi])])


def _table_csv(M: int, table: CountTable) -> str:
    return "".join(_table_rows(M, table))


def _golden_table64() -> str:
    path = os.path.join(os.path.dirname(__file__), "data", "golden_counts_64.csv")
    with open(path, encoding="utf-8") as f:
        return f.read()


def cmd_verify(args) -> int:
    p = Partition(args.parts)  # ValueError here names the violation
    m = p.total
    weak = is_weak_m_partition(p)
    full = is_m_partition(p)
    n = num_parts(m) - 1
    bounds = largest_part_bounds(m)
    blo, bhi = bounds.lower, bounds.upper
    if args.format == "json":
        _emit_json(
            "verify",
            m=_jint(m),
            n=_jint(n),
            parts=_jlist(p.parts),
            weak=_bool(weak),
            m_partition=_bool(full),
            bounds=_jlist((blo, bhi)),
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
        parts = _jlist(p.parts)
        _emit_json("gen", m=_jint(args.m), alg=_jint(args.alg), parts=parts, m_partition=_bool(ok))
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
        parts = (_jlist(p.parts) for p in walk)
        _emit_json("enum", m=_jint(args.m), parts=parts, count=_jint(count))
    else:
        sys.stdout.writelines(_blocks(f"{p}\n" for p in walk))
        print(f"count: {count}")
    return 0


# count, enum and table build a table of at most 2^23 entries, about 1 GB at
# 118 B an entry: count 12582910, the largest lower half admitted, took 2.0 to
# 2.8 s (median 2.1) and table 8388608 4.6 to 5.3 s (median 4.9), each at
# 965 MB (whole process, six runs each, Python 3.11.7, 2 vCPUs).  As JSON,
# the slowest form admitted, table 8388608 took 6.4 to 8.8 s (median 7.0)
# where the CSV took 5.7 to 7.0 s (median 6.1), at 965 MB (alternating
# whole-process runs, five and six, stdout discarded).  series holds
# b_0..b_J twice, about 138 B a term (whole process, 269 MB at J = 2*10^6,
# 339 to 358 MB at 2.5*10^6 and 407 MB at 3*10^6).  At the cap its JSON,
# the slower form, took 3.4 to 5.2 s (median 3.9) and its text 3.7 to 3.8 s
# (alternating whole-process runs, five and six), so the cap keeps it well
# inside the 10 s of the slowest count.
_MAX_TABLE = 2**23
_MAX_SERIES = 25 * 10**5
# An upper-half m is b_j, j = _series_index(m), and halving b_j takes time
# growing as the bit length of j to the fifth; j = 0 is cached and j < 4 is
# summed directly, however large m is.  Of 218-bit j, 3*2^216
# took 6.2 to 9.9 s (median 7.5, 9 runs), 7*2^215 6.9 to 8.1 s, 2^217 6.7
# to 7.0 s and 2^218 - 1 3.0 to 3.2 s (in-process, Python 3.11.7).
_MAX_HALVED_BITS = 218


def _require_countable(m: int) -> None:
    # a tabulates a lower-half m up to hi < m, and answers an upper-half m
    # by b_j, halving a j past the series cache
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
# about 70 ms, some 1.4G partitions a second, as the counter visits no
# leaf (Python 3.11, a 2 vCPU host).
_MAX_ENUMERATED = 10**8


def _require_enumerable(m: int) -> None:
    limit = f"walks at most {_MAX_ENUMERATED} partitions"
    if in_upper_half(m):
        # a_m = b_j, increasing in j: every j from the first b_J past the
        # budget on is refused with b_J, read from a prefix, never a far b_j
        bs, j, n = BinarySeries(), _series_index(m), 1
        while (b := bs.prefix(n))[-1] <= _MAX_ENUMERATED:
            n *= 2
        if j < (J := bisect_right(b, _MAX_ENUMERATED)):
            return
        bound, a_m = (f"a_m = b_{j} >= b_{J}" if j > J else "a_m"), b[J]
    else:
        # a_m >= a_(m >> s), as appending ceil(m/2) extends Mp(m//2) into Mp(m);
        # past 2^12 that bound, at least a_3070 = 2320518947, refuses alone
        s = max(m.bit_length() - 12, 0)
        if (a_m := a(m >> s)) <= _MAX_ENUMERATED and not s:
            return
        bound = "a_m"
        if s:  # refused at any budget, even one that a_(m >> s) meets
            limit, bound = "walks no lower half m >= 2^12", f"a_m >= a_{m >> s}"
    raise DomainError(f"--method enumerate {limit}, and {bound} = {a_m}; use --method recurrence")


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
        _emit_json("count", m=_jint(m), count=_jint(value), method=f'"{method}"')
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
        values = map(_jint, islice(table._A, 1, None))
        _emit_json("table", rows=(f"[{m}, {v}]" for m, v in zip(range(1, args.M + 1), values)))
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
        rows = (f"[{j}, {b}, {c}]" for j, (b, c) in enumerate(zip(map(_jint, bs), map(_jint, cs))))
        _emit_json("series", rows=rows, matches=map(_bool, map(eq, bs, cs)))
    else:
        lines = (f"{j},{b},{c},{_bool(b == c)}\n" for j, (b, c) in enumerate(zip(bs, cs)))
        print("j,b_j,coeff,match")
        sys.stdout.writelines(_blocks(lines))
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
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (say, `mpart table 200000 | head -1`).  As
        # in the "Note on SIGPIPE" of Python's signal docs, devnull takes
        # over stdout's fd, so that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)
