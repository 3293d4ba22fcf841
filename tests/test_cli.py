import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpart import cli, counting
from mpart.counting import BinarySeries, build_table, gf_coefficients
from mpart.enumeration import count_by_enumeration, iter_m_partitions


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def refused_by_parser(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


# ---------------------------------------------------------------- verify


def test_verify_human(capsys):
    rc, out, err = run_cli(capsys, "verify", "1", "2", "4", "8", "16", "22")
    assert rc == 0 and err == ""
    assert out == (
        "parts: 1+2+4+8+16+22\n"
        "m: 53\n"
        "n: 5\n"
        "weak: true\n"
        "m_partition: true\n"
        "largest_part_bounds: 22..27\n"
    )


def test_verify_weak_failure_reported(capsys):
    rc, out, _ = run_cli(capsys, "verify", "1", "2", "4", "8", "19", "19")
    assert rc == 0
    assert "weak: false" in out
    assert "m_partition: false" in out


def test_verify_json(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--format", "json", "1", "1", "2", "4")
    assert rc == 0
    payload = json.loads(out)
    assert payload == {
        "kind": "verify",
        "m": 8,
        "n": 3,
        "parts": [1, 1, 2, 4],
        "weak": True,
        "m_partition": True,
        "bounds": [3, 4],
    }


def test_verify_single_part_one(capsys):
    rc, out, _ = run_cli(capsys, "verify", "1")
    assert rc == 0
    assert "largest_part_bounds: 1..1" in out


def test_verify_rejects_unsorted(capsys):
    rc, out, err = run_cli(capsys, "verify", "3", "1")
    assert rc == 2 and out == ""
    assert "nondecreasing" in err


def test_verify_rejects_nonpositive(capsys):
    rc, _, err = run_cli(capsys, "verify", "0", "1")
    assert rc == 2
    assert "positive" in err


def test_verify_requires_parts(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 2


def test_verify_rejects_csv_format(capsys):
    rc, out, err = refused_by_parser(capsys, "verify", "--format", "csv", "1", "2")
    assert rc == 2 and out == ""
    assert "invalid choice: 'csv'" in err


# ---------------------------------------------------------------- gen


def test_gen_three_algorithms(capsys):
    rc, out, _ = run_cli(capsys, "gen", "53", "--alg", "1")
    assert rc == 0 and out.startswith("53 = 1+2+4+8+16+22\n")
    rc, out, _ = run_cli(capsys, "gen", "53", "--alg", "2")
    assert rc == 0 and out.startswith("53 = 1+2+3+7+13+27\n")
    assert "m_partition: true" in out


def test_gen_alg3_out_of_window(capsys):
    rc, out, err = run_cli(capsys, "gen", "53", "--alg", "3")
    assert rc == 1 and out == ""
    assert "[32, 46]" in err  # the admissible window is spelled out


def test_gen_json(capsys):
    rc, out, _ = run_cli(capsys, "gen", "9", "--alg", "3", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "kind": "gen",
        "m": 9,
        "alg": 3,
        "parts": [1, 2, 3, 3],
        "m_partition": True,
    }


# ---------------------------------------------------------------- enum


def test_enum_human(capsys):
    rc, out, _ = run_cli(capsys, "enum", "9")
    assert rc == 0
    assert out == "1+1+2+5\n1+1+3+4\n1+2+2+4\n1+2+3+3\ncount: 4\n"


def test_enum_single(capsys):
    rc, out, _ = run_cli(capsys, "enum", "15")
    assert rc == 0
    assert out == "1+2+4+8\ncount: 1\n"


def test_enum_limit_still_reports_full_count(capsys):
    rc, out, _ = run_cli(capsys, "enum", "16", "--limit", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines == ["1+1+2+4+8", "1+1+2+5+7", "count: 12"]


def test_enum_limit_zero(capsys):
    rc, out, _ = run_cli(capsys, "enum", "16", "--limit", "0")
    assert rc == 0
    assert out == "count: 12\n"


def test_enum_json(capsys):
    rc, out, _ = run_cli(capsys, "enum", "12", "--format", "json")
    assert json.loads(out) == {
        "kind": "enum",
        "m": 12,
        "parts": [[1, 2, 3, 6], [1, 2, 4, 5]],
        "count": 2,
    }


def test_enum_rejects_zero(capsys):
    for argv, msg in (
        (["enum", "0"], "argument m: must be a positive integer, got 0"),
        # not an int either: worded as the range, not by the type function's name
        (["enum", "1e3"], "argument m: must be a positive integer, got 1e3"),
        (["enum", "3", "--limit", "x"], "argument --limit: must be nonnegative, got x"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"mpart enum: error: {msg}\n")


def test_enum_limit_above_sys_maxsize_lists_everything(capsys):
    rc, out, err = run_cli(capsys, "enum", "16", "--limit", "99999999999999999999")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 13 and lines[-1] == "count: 12"


def test_enum_count_matches_the_partitions_printed(capsys):
    for m in range(1, 129):
        rc, out, _ = run_cli(capsys, "enum", str(m))
        assert rc == 0
        *parts, last = out.splitlines()
        assert last == f"count: {len(parts)}", m


def test_enum_limit_stops_the_walk_at_large_m(capsys):
    rc, out, _ = run_cli(capsys, "enum", "1024", "--limit", "1")
    assert rc == 0
    assert out.splitlines() == ["1+1+2+4+8+16+32+64+128+256+512", "count: 1873269202"]
    assert build_table(1024)[1024] == 1873269202


def test_enum_json_streams_the_bytes_of_one_dump(capsys):
    # the 9618 partitions of 150 span three output blocks; past 2**53 - 1,
    # m and the parts travel as decimal strings
    def jint(v):
        return v if v < 2**53 else str(v)

    for m, limit in ((150, None), (2**64 + 2**63 + 5, 3)):
        argv = ["enum", str(m), "--format", "json"]
        argv += [] if limit is None else ["--limit", str(limit)]
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        shown = list(itertools.islice(iter_m_partitions(m), limit))
        payload = {
            "kind": "enum",
            "m": jint(m),
            "parts": [[jint(q) for q in p.parts] for p in shown],
            "count": jint(cli.a(m)),
        }
        assert out == json.dumps(payload, separators=(", ", ": ")) + "\n"
    assert len(shown) == 3 and len(json.loads(out)["parts"]) == 3


def test_enum_prints_as_it_walks(monkeypatch):
    # all 229789 partitions of 300 pass through a discarding stdout; a
    # list of them would hold 46 MB (measured), the stream 1.8 MB
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            rc = cli.main(["enum", "300"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert count_by_enumeration(300) == 229789
    assert peak < 5 * 2**20, peak


# ---------------------------------------------------------------- count


def test_count_auto_lower_half_uses_recurrence(capsys):
    rc, out, _ = run_cli(capsys, "count", "64")
    assert rc == 0
    assert out == "m: 64\na_m: 908\nmethod: recurrence\n"


def test_count_auto_upper_half_uses_genfun(capsys):
    rc, out, _ = run_cli(capsys, "count", "25")
    assert rc == 0
    assert "a_m: 6" in out and "method: genfun" in out


def test_count_genfun_explicit(capsys):
    rc, out, _ = run_cli(capsys, "count", "25", "--method", "genfun")
    assert rc == 0 and "a_m: 6" in out


def test_count_genfun_rejected_on_lower_half(capsys):
    rc, out, err = run_cli(capsys, "count", "16", "--method", "genfun")
    assert rc == 1 and out == ""
    assert "upper-half" in err


def test_count_methods_agree(capsys):
    for method in ("recurrence", "enumerate", "auto"):
        rc, out, _ = run_cli(capsys, "count", "100", "--method", method)
        assert rc == 0
        assert "a_m: 114" in out  # a_100 = b_13 = 114


def test_count_enumerate_refuses_past_its_bound(monkeypatch, capsys):
    def no_walk(m):
        raise AssertionError("the walk started")

    monkeypatch.setitem(cli._COUNTERS, "enumerate", no_walk)
    rc, out, err = run_cli(capsys, "count", str(2**64 + 2**63 + 5), "--method", "enumerate")
    assert rc == 1 and out == ""
    # a_m = b_(2^62 - 3), bounded by the first b_j past the budget
    bs = BinarySeries()
    assert bs.value(312) <= cli._MAX_ENUMERATED < bs.value(313) == 100469666
    assert f"and a_m = b_{2**62 - 3} >= b_313 = 100469666;" in err
    assert "--method recurrence" in err

    # the bound is inclusive: a_100 = 114
    monkeypatch.setitem(cli._COUNTERS, "enumerate", count_by_enumeration)
    monkeypatch.setattr(cli, "_MAX_ENUMERATED", 113)
    assert run_cli(capsys, "count", "100", "--method", "enumerate")[0] == 1
    monkeypatch.setattr(cli, "_MAX_ENUMERATED", 114)
    rc, out, _ = run_cli(capsys, "count", "100", "--method", "enumerate")
    assert rc == 0 and "a_m: 114" in out


def test_count_enumerate_refuses_a_far_upper_half_without_halving(monkeypatch, capsys):
    def no_halving(j):
        raise AssertionError(f"halving b_{j}")

    monkeypatch.setattr(counting, "_b_by_halving", no_halving)
    m = 2**200 + 2**199 + 5
    rc, out, err = run_cli(capsys, "count", str(m), "--method", "enumerate")
    assert rc == 1 and out == ""
    assert f"and a_m = b_{2**198 - 3} >= b_313 = 100469666;" in err


def test_count_enumerate_at_its_budget_edge(capsys):
    # a_3470 = 98547380 is the largest a_m <= 10**8 below 4096
    assert cli._MAX_ENUMERATED == 10**8
    rc, out, err = run_cli(capsys, "count", "3470", "--method", "enumerate")
    assert rc == 0 and err == ""
    assert out == "m: 3470\na_m: 98547380\nmethod: enumerate\n"


def _allow_small_tables_only(monkeypatch):
    # a refusal that builds the table it refuses fails fast, not out of memory
    real = counting.build_table

    def small_only(M, table=None):
        if M > 4096:
            raise AssertionError(f"a table of {M} entries")
        return real(M, table)

    monkeypatch.setattr(counting, "build_table", small_only)


def test_count_enumerate_refuses_a_far_lower_half_on_a_small_table(monkeypatch, capsys):
    def no_walk(m):
        raise AssertionError("the walk started")

    monkeypatch.setitem(cli._COUNTERS, "enumerate", no_walk)
    real = counting.build_table
    a_2048, a_4097 = real(2048)[2048], real(4097)[4097]

    # a bound within the budget falls back to the exact a_m
    budget = cli._MAX_ENUMERATED
    monkeypatch.setattr(cli, "_MAX_ENUMERATED", a_2048)
    rc, out, err = run_cli(capsys, "count", "4097", "--method", "enumerate")
    assert rc == 1 and out == ""
    assert f"and a_m = {a_4097};" in err
    monkeypatch.setattr(cli, "_MAX_ENUMERATED", budget)

    # 2^64 + 5 >> 53 = 2048: a_m >= a_2048, from a table of 2048 entries
    _allow_small_tables_only(monkeypatch)
    rc, out, err = run_cli(capsys, "count", str(2**64 + 5), "--method", "enumerate")
    assert rc == 1 and out == ""
    assert f"and a_m >= a_2048 = {a_2048};" in err
    assert "--method recurrence" in err


def test_count_and_enum_refuse_a_lower_half_table_past_the_cap(monkeypatch, capsys):
    # 130 is a lower half (its binade's upper half starts at 191) and a
    # tabulates it up to hi = 96; the cap is inclusive, and upper halves and
    # --method enumerate build no table
    monkeypatch.setattr(cli, "_MAX_TABLE", 95)
    refusal = (
        "error: a lower-half m needs a table of 96 entries, about 0 MB; "
        "count and enum build at most 95\n"
    )
    for argv in (["count", "130"], ["count", "130", "--method", "recurrence"], ["enum", "130"]):
        assert run_cli(capsys, *argv, "--format", "json") == (1, "", refusal), argv
    for m, method in (("130", "enumerate"), ("200", "recurrence")):
        assert run_cli(capsys, "count", m, "--method", method)[0] == 0, m
    monkeypatch.setattr(cli, "_MAX_TABLE", 96)
    assert run_cli(capsys, "count", "130")[:2] == (0, "m: 130\na_m: 15459\nmethod: recurrence\n")
    assert run_cli(capsys, "enum", "130", "--limit", "0")[:2] == (0, "count: 15459\n")

    # 2^64 + 5 at the real cap, refused before any table is built
    monkeypatch.setattr(cli, "_MAX_TABLE", 2**23)
    _allow_small_tables_only(monkeypatch)
    hi = 2**63 + 2**62 + 2
    for argv in (["count", str(2**64 + 5)], ["enum", str(2**64 + 5), "--limit", "1"]):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1 and out == "", argv
        assert f"a table of {hi} entries, about {hi * 118 // 10**6} MB;" in err

    # 2^23 + 5 passes the cap, but a tabulates it only up to hi = 6291458;
    # a stub stands in for the table
    monkeypatch.setattr(cli, "a", lambda m: 7)
    monkeypatch.setitem(cli._COUNTERS, "recurrence", cli.a)
    assert run_cli(capsys, "count", "8388613") == (0, "m: 8388613\na_m: 7\nmethod: recurrence\n", "")
    assert run_cli(capsys, "enum", "8388613", "--limit", "0") == (0, "count: 7\n", "")


def test_count_and_enum_refuse_an_upper_half_past_the_halving_cap(monkeypatch, capsys):
    # with the cap at 100 bits, an upper half whose j has 101 bits is refused
    # before any halving; --method enumerate keeps its own bound, and genfun
    # on a lower half its window message
    monkeypatch.setattr(cli, "_MAX_HALVED_BITS", 100)
    real = counting._b_by_halving

    def no_halving(j):
        raise AssertionError(f"halving b_{j}")

    monkeypatch.setattr(counting, "_b_by_halving", no_halving)
    far = str(2**103 + 2**102 + 5)  # j = 2^101 - 3
    refusal = (
        "error: an upper-half m is b_j with j of 101 bits, whose halving time grows "
        "as bits^5; count and enum halve j of at most 100 bits\n"
    )
    methods = ([], *(["--method", m] for m in ("recurrence", "genfun", "auto")))
    for argv in (*(["count", far, *m] for m in methods), ["enum", far, "--limit", "0"]):
        assert run_cli(capsys, *argv, "--format", "json") == (1, "", refusal), argv
    rc, out, err = run_cli(capsys, "count", far, "--method", "enumerate")
    assert rc == 1 and out == "" and ">= b_313 = 100469666;" in err
    rc, out, err = run_cli(capsys, "count", str(2**100 + 5), "--method", "genfun")
    assert rc == 1 and out == "" and "is not in an upper-half window" in err

    monkeypatch.setattr(counting, "_b_by_halving", real)
    at_cap = 2**102 + 2**101 + 5  # j = 2^100 - 3
    count = BinarySeries().value((2**103 - 1 - at_cap) // 2)
    text = f"m: {at_cap}\na_m: {count}\nmethod: genfun\n"
    assert run_cli(capsys, "count", str(at_cap)) == (0, text, "")
    assert run_cli(capsys, "enum", str(at_cap), "--limit", "0") == (0, f"count: {count}\n", "")


def test_count_and_enum_answer_a_far_m_near_its_binade_top_without_halving(monkeypatch, capsys):
    # the gate reads the bits of j, not of m: at the real cap, 2^300 - 1 has
    # j = 0 and 2^301 - 8001 has j = 4000, both answered from the series
    # cache with no halving pass
    def no_halving(j):
        raise AssertionError(f"halving b_{j}")

    monkeypatch.setattr(counting, "_b_by_halving", no_halving)
    top = str(2**300 - 1)
    assert run_cli(capsys, "count", top) == (0, f"m: {top}\na_m: 1\nmethod: genfun\n", "")
    powers = "+".join(str(1 << i) for i in range(300))
    assert run_cli(capsys, "enum", top) == (0, f"{powers}\ncount: 1\n", "")
    m = 2**301 - 8001
    b = gf_coefficients(4000)[-1]
    for method in ("recurrence", "genfun"):
        text = f"m: {m}\na_m: {b}\nmethod: {method}\n"
        assert run_cli(capsys, "count", str(m), "--method", method) == (0, text, "")
    assert run_cli(capsys, "enum", str(m), "--limit", "0") == (0, f"count: {b}\n", "")


def test_counts_print_past_the_int_to_str_digit_limit(monkeypatch, capsys):
    digits = "1" + "0" * 5000  # 10**5000, longer than the 4300-digit default
    big = 10**5000
    monkeypatch.setitem(cli._COUNTERS, "genfun", lambda m: big)
    monkeypatch.setattr(cli, "a", lambda m: big)
    text = f"m: 100\na_m: {digits}\nmethod: genfun\n"
    assert run_cli(capsys, "count", "100", "--method", "genfun") == (0, text, "")
    rc, out, _ = run_cli(capsys, "count", "100", "--method", "genfun", "--format", "json")
    assert rc == 0 and json.loads(out)["count"] == digits
    rc, out, _ = run_cli(capsys, "enum", "40", "--limit", "1")
    assert rc == 0 and out == f"1+1+3+5+10+20\ncount: {digits}\n"
    if not hasattr(sys, "get_int_max_str_digits"):
        return  # an interpreter with no limit
    limit = sys.get_int_max_str_digits()
    # main restores the limit, and still reads the arguments under it
    with pytest.raises(SystemExit) as info:
        cli.main(["count", "1" * 4301])
    assert info.value.code == 2 and capsys.readouterr().out == ""
    run_cli(capsys, "count", "100", "--method", "genfun")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_an_argument_past_the_digit_limit_is_refused_by_its_length(capsys):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the digit limit is off")
    big = "1" + "0" * limit
    why = f"has {limit + 1} digits, more than Python's int-parsing limit of {limit}"
    for argv, name in (
        (["count", big], "m"),
        (["gen", big], "m"),
        (["enum", "3", "--limit", big], "--limit"),
    ):
        code, out, err = refused_by_parser(capsys, *argv)
        assert code == 2 and out == "", argv[0]
        assert err.endswith(f"error: argument {name}: {why}\n")
        assert big not in err
    # verify reads its parts with int, in argparse's own wording
    code, out, err = refused_by_parser(capsys, "verify", big)
    assert code == 2 and out == "" and "argument parts: invalid int value" in err


def test_count_json(capsys):
    rc, out, _ = run_cli(capsys, "count", "64", "--format", "json")
    assert json.loads(out) == {"kind": "count", "m": 64, "count": 908, "method": "recurrence"}


# ---------------------------------------------------------------- table


def test_table_64_matches_packaged_golden_bytes(capsys):
    rc, out, _ = run_cli(capsys, "table", "64")
    assert rc == 0
    assert out == cli._golden_table64()
    assert out.startswith("m,a_m\n1,1\n")
    assert out.endswith("\n64,908\n")


def test_table_one_row(capsys):
    rc, out, _ = run_cli(capsys, "table", "1")
    assert rc == 0
    assert out == "m,a_m\n1,1\n"


def test_table_json_rows_match_enumeration(capsys):
    rc, out, _ = run_cli(capsys, "table", "512", "--format", "json")
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 512
    table = build_table(512)
    assert all(av == table[m] for m, av in rows)
    for m in (12, 100, 256, 511):
        assert rows[m - 1] == [m, count_by_enumeration(m)]


def test_table_json_streams_the_bytes_of_one_dump(capsys):
    # 8200 rows span three output blocks, and a_m passes 2**53 - 1 at m = 8192
    rc, out, _ = run_cli(capsys, "table", "8200", "--format", "json")
    assert rc == 0
    table = build_table(8200)
    rows = [[m, table[m] if table[m] < 2**53 else str(table[m])] for m in range(1, 8201)]
    assert isinstance(rows[8190][1], int) and isinstance(rows[8191][1], str)
    payload = {"kind": "table", "rows": rows}
    assert out == json.dumps(payload, separators=(", ", ": ")) + "\n"


# ---------------------------------------------------------------- series


def test_series_human(capsys):
    rc, out, _ = run_cli(capsys, "series", "6")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "j,b_j,coeff,match"
    assert lines[1] == "0,1,1,true"
    assert lines[-1] == "6,20,20,true"


def test_series_zero(capsys):
    rc, out, _ = run_cli(capsys, "series", "0")
    assert out == "j,b_j,coeff,match\n0,1,1,true\n"


def test_series_json_all_match(capsys):
    rc, out, _ = run_cli(capsys, "series", "100", "--format", "json")
    payload = json.loads(out)
    assert payload["kind"] == "series"
    assert payload["matches"] == [True] * 101


def test_series_json_big_values_are_decimal_strings(capsys):
    rc, out, _ = run_cli(capsys, "series", "4096", "--format", "json")
    payload = json.loads(out)
    series = BinarySeries()
    first_big = next(j for j in range(4097) if series.value(j) > (1 << 53) - 1)
    row = payload["rows"][first_big]
    assert isinstance(row[1], str) and int(row[1]) == series.value(first_big)
    assert isinstance(payload["rows"][0][1], int)
    # round-trip: re-serializing the parsed payload is lossless
    assert json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize("J", [0, 4095, 4096, 8200])
def test_series_streams_the_bytes_of_one_dump(capsys, monkeypatch, J):
    # rows go out in blocks of 4096; one coefficient made wrong on purpose
    # shows that each row keeps its own match, across the block edge
    bs = BinarySeries().prefix(J)
    cs = gf_coefficients(J)
    if J >= 4096:
        cs[4096] += 1
    monkeypatch.setattr(cli, "gf_coefficients", lambda n: list(cs))

    def jint(v):
        return v if v < 2**53 else str(v)

    rc, out, _ = run_cli(capsys, "series", str(J))
    assert rc == 0
    lines = ["j,b_j,coeff,match"]
    lines += [f"{j},{bs[j]},{cs[j]},{str(bs[j] == cs[j]).lower()}" for j in range(J + 1)]
    assert out == "\n".join(lines) + "\n"
    rc, out, _ = run_cli(capsys, "series", str(J), "--format", "json")
    assert rc == 0
    payload = {
        "kind": "series",
        "rows": [[j, jint(bs[j]), jint(cs[j])] for j in range(J + 1)],
        "matches": [x == y for x, y in zip(bs, cs)],
    }
    assert out == json.dumps(payload, separators=(", ", ": ")) + "\n"
    assert (False in payload["matches"]) == (J >= 4096)


def test_table_and_series_refuse_past_their_caps_before_building(monkeypatch, capsys):
    real = {name: getattr(cli, name) for name in ("build_table", "BinarySeries", "gf_coefficients")}

    def built(*args):
        raise AssertionError("built before the refusal")

    for name in real:
        monkeypatch.setattr(cli, name, built)
    assert (cli._MAX_TABLE, cli._MAX_SERIES) == (2**23, 25 * 10**5)
    for table_cap, series_cap, argv, refusal in (
        (
            2**23, 25 * 10**5, ("table", "8388609"),
            "table needs 8388609 entries, about 989 MB; table builds at most 8388608",
        ),
        (
            2**23, 25 * 10**5, ("series", "2500001"),
            "series needs b_0..b_2500001 twice, about 345 MB; series takes J at most 2500000",
        ),
        (64, 6, ("table", "65"), "table needs 65 entries, about 0 MB; table builds at most 64"),
        (64, 6, ("series", "7"), "series needs b_0..b_7 twice, about 0 MB; series takes J at most 6"),
    ):
        monkeypatch.setattr(cli, "_MAX_TABLE", table_cap)
        monkeypatch.setattr(cli, "_MAX_SERIES", series_cap)
        for fmt in ((), ("--format", "json")):
            assert run_cli(capsys, *argv, *fmt) == (1, "", f"error: {refusal}\n"), argv

    for name, value in real.items():
        monkeypatch.setattr(cli, name, value)
    assert run_cli(capsys, "table", "64") == (0, cli._golden_table64(), "")
    rc, out, err = run_cli(capsys, "series", "6", "--format", "json")
    assert rc == 0 and err == "" and json.loads(out)["rows"][-1] == [6, 20, 20]


# ---------------------------------------------------------------- selftest


def test_selftest_passes(capsys):
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 0
    assert out == (
        "golden_table: pass\nrecurrence_vs_enumeration: pass\nseries_bridge: pass\n"
    )


def test_selftest_detects_corrupted_golden(monkeypatch, capsys):
    good = cli._golden_table64()
    monkeypatch.setattr(cli, "_golden_table64", lambda: good.replace("16,12", "16,13"))
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 1
    assert "golden_table: fail" in out
    assert "recurrence_vs_enumeration: pass" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "9", "--format", "csv"),
        ("enum", "9", "--format", "csv"),
        ("count", "9", "--format", "csv"),
        ("series", "3", "--format", "csv"),
    ],
)
def test_csv_format_refused_outside_table(capsys, argv):
    rc, out, err = refused_by_parser(capsys, *argv)
    assert rc == 2 and out == ""
    assert "invalid choice: 'csv'" in err


def test_no_arguments_prints_usage_and_fails(capsys):
    rc, out, err = refused_by_parser(capsys)
    assert rc == 2 and out == ""
    assert "usage:" in err


def test_format_offers_only_the_formats_each_command_writes():
    parser = cli.build_parser()
    (commands,) = (act for act in parser._actions if isinstance(act, argparse._SubParsersAction))
    choices = {
        name: next((act.choices for act in p._actions if "--format" in act.option_strings), None)
        for name, p in commands.choices.items()
    }
    json_only = dict.fromkeys(("verify", "gen", "enum", "count", "series"), ("json",))
    assert choices == {**json_only, "table": ("csv", "json"), "selftest": None}
    # table writes CSV with no flag, the others their human output
    assert parser.parse_args(["table", "3"]).format == "csv"
    assert parser.parse_args(["series", "3"]).format is None


# ---------------------------------------------------------------- cross-cutting


def test_printed_partitions_round_trip_through_verify(capsys):
    rc, out, _ = run_cli(capsys, "gen", "200", "--alg", "2")
    partition_text = out.splitlines()[0].split(" = ")[1]
    rc, out, _ = run_cli(capsys, "verify", *partition_text.split("+"))
    assert rc == 0 and "m_partition: true" in out

    rc, out, _ = run_cli(capsys, "enum", "11")
    for line in out.splitlines():
        if line.startswith("count:"):
            continue
        rc2, out2, _ = run_cli(capsys, "verify", *line.split("+"))
        assert rc2 == 0 and "m_partition: true" in out2


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "count", "300", "--format", "json")
    second = run_cli(capsys, "count", "300", "--format", "json")
    assert first == second


_COUNT_KEYS = ["kind", "m", "count", "method"]
_ENUM_KEYS = ["kind", "m", "parts", "count"]


@pytest.mark.parametrize(
    "argv, keys",
    [
        (
            ["verify", "1", "2", "4", "8", "16", "22"],
            ["kind", "m", "n", "parts", "weak", "m_partition", "bounds"],
        ),
        *((["gen", "9", "--alg", alg], ["kind", "m", "alg", "parts", "m_partition"]) for alg in "123"),
        *((["count", "100", "--method", m], _COUNT_KEYS) for m in ("recurrence", "enumerate", "genfun", "auto")),
        (["count", str(2**64 + 2**63 + 5)], _COUNT_KEYS),
        (["enum", "12"], _ENUM_KEYS),
        (["enum", "40", "--limit", "0"], _ENUM_KEYS),
        (["table", "1"], ["kind", "rows"]),
        (["series", "0"], ["kind", "rows", "matches"]),
    ],
)
def test_json_output_is_the_bytes_of_one_dump(capsys, argv, keys):
    rc, out, err = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert out == json.dumps(payload, separators=(", ", ": ")) + "\n"
    assert list(payload) == keys
    if argv[0] == "count" and int(argv[1]) > 2**53:
        assert payload["count"] == str(cli.a(int(argv[1]))) and payload["method"] == "genfun"
    if "--limit" in argv:
        assert payload["parts"] == [] and payload["count"] == count_by_enumeration(40)


def test_cli_import_skips_heavy_modules():
    # -S: modules that site's startup hooks import would hide these
    src = str(Path(cli.__file__).parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import mpart.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'importlib.resources'} "
        "& set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_modules_import_only_the_modules_they_use():
    # -S as above; the package itself imports none of its modules
    src = str(Path(cli.__file__).parents[1])
    show = "print(sorted(m for m in sys.modules if m.startswith('mpart.')))"
    code = (
        f"import sys; sys.path.insert(0, sys.argv[1]); import mpart.core; {show}; "
        f"import mpart.counting; {show}"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['mpart.core']\n['mpart.core', 'mpart.counting']\n"


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mpart", "table", "8"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout == "m,a_m\n1,1\n2,1\n3,1\n4,1\n5,2\n6,1\n7,1\n8,3\n"

    proc = subprocess.run(
        [sys.executable, "-m", "mpart"], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 2


# ---------------------------------------------------------------- argument fuzz

# Every shape here is cheap: m never exceeds 64 except for three values.
# count draws the upper halves 2**64 - 1 and 2**64 + 2**63 + 5 (about
# 1.8e498 partitions, which --method enumerate refuses to walk) and the
# lower half 2**64 + 5, which every method refuses: enumerate on a bound
# from a table below 2**12, the others past _MAX_TABLE.  enum draws 2**64 + 5
# too, refused past _MAX_TABLE; an upper-half m stays out of enum, whose
# walk without --limit would not end.
_M_VALUES = st.sampled_from(["-1", "0", "x", "1.5"]) | st.integers(1, 64).map(str)
_LIMITS = st.sampled_from([(), ("--limit", "0"), ("--limit", "3"), ("--limit", str(2**64))])
_FORMATS = st.sampled_from([(), ("--format", "json"), ("--format", "csv")])
_METHODS = st.sampled_from(
    [(), *(("--method", m) for m in ("recurrence", "enumerate", "genfun", "auto"))]
)


def _argv(*pieces):
    # each piece draws one argument (a str) or several (a tuple)
    return st.tuples(*pieces).map(
        lambda t: tuple(arg for p in t for arg in ((p,) if isinstance(p, str) else p))
    )


_ARGV = st.one_of(
    _argv(st.just("verify"), st.lists(_M_VALUES, max_size=4).map(tuple)),
    _argv(st.just("gen"), _M_VALUES, st.sampled_from([(), ("--alg", "2"), ("--alg", "3")])),
    _argv(st.just("enum"), _M_VALUES | st.just(str(2**64 + 5)), _LIMITS),
    _argv(
        st.just("count"),
        _M_VALUES | st.sampled_from([str(2**64 - 1), str(2**64 + 2**63 + 5), str(2**64 + 5)]),
        _METHODS,
    ),
    _argv(st.sampled_from(["table", "series"]), _M_VALUES),
)


@settings(max_examples=200, deadline=5000)
@given(_ARGV, _FORMATS)
def test_argument_shapes_exit_cleanly(argv, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([*argv, *fmt])
        except SystemExit as exc:  # argparse refusing the shape
            rc = exc.code
        except Exception:
            pytest.fail(f"{argv} {fmt} raised:\n{traceback.format_exc()}")
    assert rc in (0, 1, 2), (argv, fmt, rc)
    assert "Traceback" not in err.getvalue()
    if rc != 0:
        assert out.getvalue() == "" and err.getvalue() != ""
