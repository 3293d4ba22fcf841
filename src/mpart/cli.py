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
import sys
from collections.abc import Iterator, Sequence
from itertools import islice

from .core import (
    DomainError,
    Partition,
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
    print(json.dumps(payload, separators=(", ", ": ")))


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _blocks(first: int, last: int) -> Iterator[range]:
    # rows go out in blocks, as one write per row is half again as slow
    for lo in range(first, last + 1, 4096):
        yield range(lo, min(lo + 4096, last + 1))


def _json_items(blocks: Iterator[list]) -> Iterator[str]:
    # the items of one json.dumps list, written a block at a time: each
    # block is encoded as a list with its brackets cut off
    sep = ""
    for items in blocks:
        yield sep + json.dumps(items, separators=(", ", ": "))[1:-1]
        sep = ", "


def _table_rows(M: int, table: CountTable) -> Iterator[str]:
    # pinned format: header "m,a_m", no padding, newline-terminated last row
    yield "m,a_m\n"
    for ms in _blocks(1, M):
        yield "".join(f"{m},{table[m]}\n" for m in ms)


def _table_json(M: int, table: CountTable) -> Iterator[str]:
    # the bytes of _emit_json({"kind": "table", "rows": [[m, a_m], ...]})
    yield '{"kind": "table", "rows": ['
    yield from _json_items([[m, _jint(table[m])] for m in ms] for ms in _blocks(1, M))
    yield "]}\n"


def _table_csv(M: int, table: CountTable) -> str:
    return "".join(_table_rows(M, table))


def _golden_table64() -> str:
    from importlib import resources  # only selftest reads it; a costly import

    return (
        resources.files("mpart")
        .joinpath("data")
        .joinpath("golden_counts_64.csv")
        .read_text(encoding="utf-8")
    )


def cmd_verify(args) -> int:
    p = Partition(tuple(args.parts))  # ValueError here names the violation
    m = p.total
    weak = is_weak_m_partition(p)
    full = is_m_partition(p)
    n = num_parts(m) - 1
    if m >= 2:
        bounds = largest_part_bounds(m)
        blo, bhi = bounds.lower, bounds.upper
    else:
        blo = bhi = 1  # Mp(1) = {[1]}
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


def _batches(items: Iterator, size: int = 4096) -> Iterator[list]:
    while batch := list(islice(items, size)):
        yield batch


def cmd_enum(args) -> int:
    _require_table_fits(args.m)
    # the full count comes from the counting engine, before the first byte;
    # the walk stops after --limit items (islice caps its bound at
    # sys.maxsize) and goes out a block at a time, as it is walked
    count = a(args.m)
    limit = None if args.limit is None else min(args.limit, sys.maxsize)
    batches = _batches(islice(iter_m_partitions(args.m), limit))
    out = sys.stdout
    if args.format == "json":
        # the bytes of _emit_json({"kind": "enum", "m": m,
        #     "parts": [[part, ...], ...], "count": count})
        out.write(f'{{"kind": "enum", "m": {json.dumps(_jint(args.m))}, "parts": [')
        out.writelines(_json_items([[_jint(q) for q in p.parts] for p in ps] for ps in batches))
        out.write(f'], "count": {json.dumps(_jint(count))}}}\n')
    else:
        out.writelines("".join(f"{p}\n" for p in ps) for ps in batches)
        out.write(f"count: {count}\n")
    return 0


# Lower-half count and enum build no larger table: about 1 GB at 125 B an entry.
_MAX_TABLE = 2**23


def _require_table_fits(m: int) -> None:
    if m > _MAX_TABLE and not in_upper_half(m):
        raise DomainError(
            f"a lower-half m needs a table of {m} entries, about {m * 125 // 10**6} MB; "
            f"count and enum build at most {_MAX_TABLE}"
        )


_COUNTERS = {"recurrence": a, "enumerate": count_by_enumeration, "genfun": a_upper_half_via_b}

# The most partitions --method enumerate counts: a_3470 = 98547380 takes
# about 0.22 s, some 450M partitions a second, as the counter visits no
# leaf (Python 3.11, a 2 vCPU host).
_MAX_ENUMERATED = 10**8


def cmd_count(args) -> int:
    m = args.m
    method = args.method
    if method == "auto":
        method = "genfun" if in_upper_half(m) else "recurrence"
    # "recurrence" resolves through a, which answers an upper half past the
    # table by the closed form; the printed label stays the method asked
    # for.  genfun is a DomainError outside the upper-half window.
    if method == "enumerate":
        # a_m >= a_(m >> s), as appending ceil(m/2) extends Mp(m//2) into Mp(m)
        s = 0 if in_upper_half(m) else max(m.bit_length() - 12, 0)
        if (a_m := a(m >> s)) <= _MAX_ENUMERATED and s:
            s, a_m = 0, a(m)  # the bound below 2^12 does not settle it
        if a_m > _MAX_ENUMERATED:
            bound = f"a_m >= a_{m >> s}" if s else "a_m"
            raise DomainError(
                f"--method enumerate walks at most {_MAX_ENUMERATED} partitions, "
                f"and {bound} = {a_m}; use --method recurrence"
            )
    if method == "recurrence":
        _require_table_fits(m)
    value = _COUNTERS[method](m)
    if args.format == "json":
        _emit_json({"kind": "count", "m": _jint(m), "count": _jint(value), "method": method})
    else:
        print(f"m: {m}")
        print(f"a_m: {value}")
        print(f"method: {method}")
    return 0


def cmd_table(args) -> int:
    table = build_table(args.M)
    emit = _table_json if args.format == "json" else _table_rows
    sys.stdout.writelines(emit(args.M, table))
    return 0


def _series_rows(J: int, bs: list[int], cs: list[int]) -> Iterator[str]:
    yield "j,b_j,coeff,match\n"
    for js in _blocks(0, J):
        yield "".join(f"{j},{bs[j]},{cs[j]},{_bool(bs[j] == cs[j])}\n" for j in js)


def _series_json(J: int, bs: list[int], cs: list[int]) -> Iterator[str]:
    # the bytes of _emit_json({"kind": "series",
    #     "rows": [[j, b_j, coeff], ...], "matches": [b_j == coeff, ...]})
    rows = ([[j, _jint(bs[j]), _jint(cs[j])] for j in js] for js in _blocks(0, J))
    yield '{"kind": "series", "rows": ['
    yield from _json_items(rows)
    yield '], "matches": ['
    yield from _json_items([bs[j] == cs[j] for j in js] for js in _blocks(0, J))
    yield "]}\n"


def cmd_series(args) -> int:
    bs = BinarySeries().prefix(args.J)
    cs = gf_coefficients(args.J)
    emit = _series_json if args.format == "json" else _series_rows
    sys.stdout.writelines(emit(args.J, bs, cs))
    return 0


def _selftest_groups() -> dict[str, bool]:
    table = build_table(256)
    groups = {}
    groups["golden_table"] = _table_csv(64, table) == _golden_table64()
    groups["recurrence_vs_enumeration"] = all(
        table[m] == count_by_enumeration(m) for m in range(1, 257)
    )
    groups["series_bridge"] = gf_coefficients(512) == BinarySeries().prefix(512)
    return groups


def cmd_selftest(args) -> int:
    groups = _selftest_groups()
    for name, ok in groups.items():
        print(f"{name}: {'pass' if ok else 'fail'}")
    return 0 if all(groups.values()) else 1


def _int_at_least(value: str, low: int, what: str) -> int:
    # argparse would word a ValueError by this type function's name
    try:
        if (n := int(value)) >= low:
            return n
    except ValueError:
        pass
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
    sub = parser.add_subparsers(dest="command", metavar="<command>")

    def add_format(p, default=None):
        p.add_argument("--format", choices=("csv", "json"), default=default)

    p = sub.add_parser("verify", help="check a part list for coverage and minimality")
    p.add_argument("parts", nargs="+", type=int, help="nondecreasing positive parts")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a witness M-partition of m")
    p.add_argument("m", type=_positive)
    p.add_argument("--alg", type=int, choices=(1, 2, 3), default=1)
    add_format(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("enum", help="list Mp(m) in lexicographic order")
    p.add_argument("m", type=_positive)
    p.add_argument("--limit", type=_nonnegative, default=None, help="print at most N partitions")
    add_format(p)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("count", help="compute a_m = |Mp(m)|")
    p.add_argument("m", type=_positive)
    p.add_argument(
        "--method",
        choices=("recurrence", "enumerate", "genfun", "auto"),
        default="auto",
    )
    add_format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="emit rows (m, a_m) for 1 <= m <= M")
    p.add_argument("M", type=_positive)
    add_format(p, default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("series", help="emit b_0..b_J next to the series coefficients")
    p.add_argument("J", type=_nonnegative)
    add_format(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("selftest", help="run the embedded invariant suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("mpart: error: a command is required", file=sys.stderr)
        return 2
    if getattr(args, "format", None) == "csv" and args.command != "table":
        print("error: --format csv is only supported by the table command", file=sys.stderr)
        return 2
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
