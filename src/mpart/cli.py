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
from importlib import resources
from itertools import islice
from typing import Iterator, Sequence

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


def _table_rows(M: int, table: CountTable) -> Iterator[str]:
    # pinned format: header "m,a_m", no padding, newline-terminated last row;
    # rows go out in blocks, as one write per row is half again as slow
    yield "m,a_m\n"
    for lo in range(1, M + 1, 4096):
        yield "".join(f"{m},{table[m]}\n" for m in range(lo, min(lo + 4096, M + 1)))


def _table_csv(M: int, table: CountTable) -> str:
    return "".join(_table_rows(M, table))


def _golden_table64() -> str:
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


def cmd_enum(args) -> int:
    # the walk stops after --limit items (islice caps its bound at
    # sys.maxsize); the full count comes from the counting engine
    limit = None if args.limit is None else min(args.limit, sys.maxsize)
    shown = list(islice(iter_m_partitions(args.m), limit))
    count = a(args.m)
    if args.format == "json":
        _emit_json(
            {
                "kind": "enum",
                "m": _jint(args.m),
                "parts": [[_jint(q) for q in p.parts] for p in shown],
                "count": _jint(count),
            }
        )
    else:
        for p in shown:
            print(p)
        print(f"count: {count}")
    return 0


_COUNTERS = {"recurrence": a, "enumerate": count_by_enumeration, "genfun": a_upper_half_via_b}


def cmd_count(args) -> int:
    m = args.m
    method = args.method
    if method == "auto":
        method = "genfun" if in_upper_half(m) else "recurrence"
    # "recurrence" resolves through a, which answers an upper half past the
    # table by the closed form; the printed label stays the method asked
    # for.  genfun is a DomainError outside the upper-half window.
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
    if args.format == "json":
        _emit_json(
            {
                "kind": "table",
                "rows": [[m, _jint(table[m])] for m in range(1, args.M + 1)],
            }
        )
    else:
        sys.stdout.writelines(_table_rows(args.M, table))
    return 0


def cmd_series(args) -> int:
    series = BinarySeries()
    bs = series.prefix(args.J)
    cs = gf_coefficients(args.J)
    matches = [x == y for x, y in zip(bs, cs)]
    if args.format == "json":
        _emit_json(
            {
                "kind": "series",
                "rows": [[j, _jint(bs[j]), _jint(cs[j])] for j in range(args.J + 1)],
                "matches": matches,
            }
        )
    else:
        print("j,b_j,coeff,match")
        for j in range(args.J + 1):
            print(f"{j},{bs[j]},{cs[j]},{_bool(matches[j])}")
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


def _positive(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _nonnegative(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


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
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
