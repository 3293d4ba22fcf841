"""The four workloads.  Each is a closed loop with one caller that runs
seeded rounds of operations; see README.md for why each one exists.

A workload object is driven by run.py in three steps:

- ``setup(seed)``: import ``mpart``, generate the seeded inputs and warm up.
- ``round(run, r)``: execute round r's operations through ``run.op``; it may
  check answers between operations, outside the timed region.
- ``check(run)``: check the answers that were kept, against an independent
  route, after the peak RSS was read.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
import re
import subprocess
import sys
from statistics import median
from time import perf_counter_ns

from harness import peak_rss_mb


def load_mpart():
    """Import mpart afresh (dropping earlier imports), so that every setup
    pays the import; returns the four modules."""
    for name in [n for n in sys.modules if n == "mpart" or n.startswith("mpart.")]:
        del sys.modules[name]
    return [importlib.import_module(f"mpart.{m}") for m in ("core", "enumeration", "counting", "cli")]


GOLDEN = (5**0.5 - 1) / 2


def spread(lo: int, hi: int, start: float, count: int) -> list[int]:
    """count values in [lo, hi] at the positions start + j * GOLDEN (mod 1).
    Every prefix of this sequence covers the range about evenly, so a run
    draws alike inputs whatever its seed and however many rounds it ends."""
    width = hi - lo + 1
    return [lo + int((start + j * GOLDEN) % 1.0 * width) for j in range(count)]


def lower_half(n: int) -> tuple[int, int]:
    """Lower half of binade n: 2^n .. 2^n + 2^(n-1) - 2."""
    return 1 << n, (1 << n) + (1 << (n - 1)) - 2


def upper_half(n: int) -> tuple[int, int]:
    """Upper half of binade n: 2^n + 2^(n-1) - 1 .. 2^(n+1) - 1."""
    return (1 << n) + (1 << (n - 1)) - 1, (2 << n) - 1


def series_index(m: int) -> int:
    """j with a_m = b_j on an upper half: floor(k/2), k = 2^(n+1) - 1 - m."""
    return ((2 << (m.bit_length() - 1)) - 1 - m) >> 1


class CountPoints:
    """Single-m count queries, each with a fresh cache, as a CLI call pays.

    Each round holds 16 lower-half queries over the binades 2^6..2^11,
    answered by the sparse recurrence ``a``, and 16 upper-half queries, one
    per binade 2^6..2^21, answered by ``a_upper_half_via_b``; in seeded
    order.
    """

    # Lower-half queries per round by binade.  Binades 2^7 and 2^11 each
    # hold 6 of the 32 queries, so latency_p50_ms and latency_p90_ms each
    # fall inside one class whose cost is smooth in m, rather than on a
    # boundary between classes.
    LOWER = {6: 1, 7: 6, 8: 1, 9: 1, 10: 1, 11: 6}
    UPPER = range(6, 22)
    round_s = 3.5

    def setup(self, seed: int) -> None:
        _, _, self.counting, _ = load_mpart()
        rng = random.Random(f"count_points:{seed}")
        R = 64
        lower = {n: spread(*lower_half(n), rng.random(), R * k) for n, k in self.LOWER.items()}
        upper = {n: spread(*upper_half(n), rng.random(), R) for n in self.UPPER}
        # Peak RSS is set by the longest b series a run computes, that of
        # the smallest m drawn from binade 2^21.  Starting that class in the
        # lowest 1/64 of its range gives every run one of about that size.
        top = self.UPPER[-1]
        upper[top] = spread(*upper_half(top), rng.random() / 64, R)
        self.rounds = []
        for r in range(R):
            qs = [("lower", m) for n, k in self.LOWER.items() for m in lower[n][r * k : (r + 1) * k]]
            qs.extend(("upper", upper[n][r]) for n in self.UPPER)
            rng.shuffle(qs)
            self.rounds.append(qs)
        self.answers = []
        self.counting.a(100, self.counting.CountTable())
        self.counting.a_upper_half_via_b(upper_half(10)[0], self.counting.BinarySeries())

    def _lower(self, tr, m):
        c = self.counting
        table = c.CountTable()
        with tr.span("counting.a") as sp:
            v = c.a(m, table)
            sp.work = len(table.memo)
        return v

    def _upper(self, tr, m):
        c = self.counting
        with tr.span("counting.a_upper_half_via_b", work=series_index(m) + 1):
            return c.a_upper_half_via_b(m, c.BinarySeries())

    def round(self, run, r: int) -> None:
        for side, m in self.rounds[r % len(self.rounds)]:
            fn = self._lower if side == "lower" else self._upper
            idx, v = run.op(f"query_{side}", fn, run.tr, m)
            self.answers.append((run, idx, side, m, v))

    def peak_rss(self) -> float:
        return peak_rss_mb()

    def check(self, run) -> None:
        """Lower halves against a dense table; upper halves against
        ``a_simple`` over a dense table up to 2^16 and, everywhere, against
        the truncated product (no recurrence involved)."""
        c = self.counting
        mine = [x for x in self.answers if x[0] is run]
        dense = c.build_table(1 << 16)
        jmax = max((series_index(m) for _, _, side, m, _ in mine if side == "upper"), default=0)
        gf = c.gf_coefficients(jmax)
        for _, idx, side, m, v in mine:
            if side == "lower":
                ok = v == dense[m]
            else:
                ok = v == gf[series_index(m)]
                if m < 1 << 17:
                    ok = ok and v == c.a_simple(m, dense)
            run.check(idx, ok)

    def throughputs(self, run) -> dict:
        return {}


class CountTable:
    """One dense table built from empty and extended once (write side),
    then read: ``table[m]`` for every m, ``a_simple`` on every upper-half
    m, and seeded ``range_sum`` intervals (read side); last, the b series
    and the truncated product at J = 10^6.
    """

    M = 1 << 19
    EXTEND = (1 << 19) + (1 << 18) + (1 << 16)
    J = 10**6
    # Pages of a few milliseconds, so that sub-millisecond stalls of the
    # host average out within an operation.  The a_simple pages are the
    # slowest and most numerous, so both percentiles fall among them; the
    # time of a table page varies between runs more than the reference
    # work tracks.
    PAGE = 1 << 15
    SIMPLE_PAGE = 1 << 12
    INTERVALS = 1 << 14
    round_s = 6.0

    def setup(self, seed: int) -> None:
        _, _, self.counting, self.cli = load_mpart()
        self.rng = random.Random(f"count_table:{seed}")
        self.intervals = []
        for _ in range(self.INTERVALS):
            lo, hi = sorted(self.rng.randint(1, self.EXTEND) for _ in range(2))
            self.intervals.append((lo, hi))
        self.uppers = [
            m
            for n in range(1, self.EXTEND.bit_length())
            for m in range(upper_half(n)[0], min(upper_half(n)[1], self.EXTEND) + 1)
        ]
        self.golden = self.cli._golden_table64()
        c = self.counting
        t = c.build_table(1 << 10)
        c.build_table(1 << 11, t)
        c.a_simple(upper_half(10)[0], t)
        c.gf_coefficients(1 << 10)

    def _build(self, tr, M, table=None):
        c = self.counting
        before = table.dense_limit if table is not None else 1
        with tr.span("counting.build_table", work=M - before):
            return c.build_table(M, table)

    def _reads(self, tr, table, lo, hi):
        with tr.span("counting.reads", calls=hi - lo):
            return [table[m] for m in range(lo, hi)]

    def _simple(self, tr, table, ms):
        a_simple = self.counting.a_simple
        with tr.span("counting.reads", calls=len(ms)):
            return [a_simple(m, table) for m in ms]

    def _sums(self, tr, table, ivs):
        with tr.span("counting.reads", calls=len(ivs)):
            return [table.range_sum(lo, hi) for lo, hi in ivs]

    def _bseries(self, tr):
        with tr.span("counting.BinarySeries", work=self.J + 1):
            return self.counting.BinarySeries().prefix(self.J)

    def _gf(self, tr):
        with tr.span("counting.gf_coefficients", work=self.J + 1):
            return self.counting.gf_coefficients(self.J)

    def round(self, run, r: int) -> None:
        tr, E = run.tr, self.EXTEND
        i_build, table = run.op("build", self._build, tr, self.M)
        i_ext, _ = run.op("extend", self._build, tr, E, table)
        run.work["entries"] += E - 1
        reads = []
        for lo in range(1, E + 1, self.PAGE):
            idx, vals = run.op("read", self._reads, tr, table, lo, min(lo + self.PAGE, E + 1))
            reads.append((idx, lo, vals))
        simple = []
        for k in range(0, len(self.uppers), self.SIMPLE_PAGE):
            ms = self.uppers[k : k + self.SIMPLE_PAGE]
            idx, vals = run.op("read", self._simple, tr, table, ms)
            simple.append((idx, ms, vals))
        sums = []
        for k in range(0, len(self.intervals), self.SIMPLE_PAGE):
            ivs = self.intervals[k : k + self.SIMPLE_PAGE]
            idx, vals = run.op("read", self._sums, tr, table, ivs)
            sums.append((idx, ivs, vals))
        run.work["reads"] += E + len(self.uppers) + len(self.intervals)
        i_b, bs = run.op("series", self._bseries, tr)
        i_gf, gf = run.op("series", self._gf, tr)
        run.work["series_terms"] += 2 * (self.J + 1)
        self._check_pass(run, table, i_build, i_ext, reads, simple, sums, i_b, bs, i_gf, gf)

    def _check_pass(self, run, table, i_build, i_ext, reads, simple, sums, i_b, bs, i_gf, gf):
        """Checks of one pass, between timed operations: the golden CSV, the
        sparse recurrence at seeded lower-half m, the b series on every upper
        half, range sums against running sums of the values read, and the
        b series against the truncated product."""
        c = self.counting
        if table is None or bs is None or gf is None:
            for idx in (i_build, i_ext, i_b, i_gf):
                run.check(idx, False)
            return
        csv = "m,a_m\n" + "".join(f"{m},{table[m]}\n" for m in range(1, 65))
        spot = [self.rng.randint(*lower_half(n)) for n in (7, 8, 9)]
        run.check(i_build, csv == self.golden and all(table[m] == c.a(m) for m in spot))
        ext_upper = [m for m in self.uppers if m > self.M]
        run.check(i_ext, bool(ext_upper) and all(table[m] == bs[series_index(m)] for m in ext_upper))
        flat = []  # the value read for m sits at flat[m - 1]
        for idx, lo, vals in reads:
            size = min(self.PAGE, self.EXTEND + 1 - lo)
            run.check(idx, vals is not None and len(vals) == size)
            flat.extend(vals if vals is not None and len(vals) == size else [None] * size)
        for m in self.uppers:
            if flat[m - 1] != bs[series_index(m)]:
                run.check(reads[(m - 1) // self.PAGE][0], False)
        needed = {x for _, ivs, _ in sums for lo, hi in ivs for x in (lo - 1, hi)}
        prefix, running = {0: 0}, 0
        for m, v in enumerate(flat, 1):
            running += v or 0
            if m in needed:
                prefix[m] = running
        for idx, ms, vals in simple:
            run.check(idx, vals is not None and vals == [bs[series_index(m)] for m in ms])
        for idx, ivs, vals in sums:
            run.check(idx, vals is not None and all(
                v == prefix[hi] - prefix[lo - 1] for (lo, hi), v in zip(ivs, vals)
            ))
        run.check(i_b, len(bs) == self.J + 1 and bs == gf)
        run.check(i_gf, len(gf) == self.J + 1)

    def peak_rss(self) -> float:
        return peak_rss_mb()

    def check(self, run) -> None:
        pass  # every pass is checked as it ends, so its table can be freed

    def throughputs(self, run) -> dict:
        return {
            "entries_per_s": run.rate("entries", "build", "extend"),
            "reads_per_s": run.rate("reads", "read"),
            "series_terms_per_s": run.rate("series_terms", "series"),
        }


class Streams:
    """One caller's walk through Mp(m) for a list of m, one after another."""

    def __init__(self, enum, ms: list[int]) -> None:
        self.enum, self.ms = enum, ms
        self.i, self.total = 0, 0
        self.cursor = enum.iter_m_partitions(ms[0])

    @property
    def m(self) -> int:
        return self.ms[self.i]

    def advance(self) -> None:
        self.i += 1
        self.total = 0
        self.cursor = self.enum.iter_m_partitions(self.m)


class EnumVerify:
    """Stream Mp(m) for seeded m alternating between the binades 2^7 and
    2^8, in pages of 1024, checking every partition with the prefix-sum
    predicate and the subset-sum oracle; then, for a seeded window of 4
    consecutive m, build the three witnesses and count by enumeration.

    A page continues into the next m when one ends, and a round is 64 pages
    plus one window, so every round has the same mix of operations whatever
    the sizes of the Mp(m) drawn.
    """

    PAGE = 1024
    PAGES = 64
    WINDOW = 4
    round_s = 0.7

    def setup(self, seed: int) -> None:
        self.core, self.enum, self.counting, _ = load_mpart()
        rng = random.Random(f"enum_verify:{seed}")
        b7 = spread(1 << 7, (1 << 8) - 1, rng.random(), 2048)
        b8 = spread(1 << 8, (1 << 9) - 1, rng.random(), 2048)
        self.ms = [m for pair in zip(b7, b8) for m in pair]
        self.windows = spread(1 << 7, (1 << 9) - self.WINDOW, rng.random(), 1024)
        self.streams = {}  # one walk per Run
        self.kept = []
        for p in self.enum.iter_m_partitions(40):
            self.core.is_m_partition(p) and self.enum.oracle_is_weak(p)
        self.enum.count_by_enumeration(100)

    def _page(self, tr, st: Streams):
        """The next PAGE partitions of the walk, the (m, count) segments they
        span, the (m, |Mp(m)|) of each stream that ended, and whether every
        partition passed the predicate and the oracle."""
        core, enum = self.core, self.enum
        page, segments, ended = [], [], []
        with tr.span("enumeration.iter_m_partitions") as sp:
            while len(page) < self.PAGE:
                before = len(page)
                for p in st.cursor:
                    page.append(p)
                    if len(page) == self.PAGE:
                        break
                got = len(page) - before
                segments.append((st.m, got))
                st.total += got
                if len(page) < self.PAGE:
                    ended.append((st.m, st.total))
                    st.advance()
            sp.work = len(page)
        with tr.span("core.is_m_partition", calls=len(page)):
            ok = all([core.is_m_partition(p) for p in page])
        with tr.span("enumeration.oracle_is_weak", calls=len(page)):
            ok = all([enum.oracle_is_weak(p) for p in page]) and ok
        return page, segments, ended, ok

    def _count(self, tr, m):
        core = self.core
        gens = [core.generate_alg1, core.generate_alg2]
        if m <= lower_half(m.bit_length() - 1)[1]:
            gens.append(core.generate_alg3)
        with tr.span("core.generate", calls=len(gens)):
            ws = [g(m) for g in gens]
        with tr.span("core.is_m_partition", calls=len(ws)):
            ok = all([core.is_m_partition(w) for w in ws])
        with tr.span("enumeration.count_by_enumeration") as sp:
            v = self.enum.count_by_enumeration(m)
            sp.work = v
        return v, ws, ok

    def round(self, run, r: int) -> None:
        tr = run.tr
        st = self.streams.setdefault(id(run), Streams(self.enum, self.ms))
        for _ in range(self.PAGES):
            idx, res = run.op("page", self._page, tr, st)
            if res is None:
                st.advance()
                continue
            page, segments, ended, ok = res
            at = 0
            for m, n in segments:
                ok = ok and all(p.total == m for p in page[at : at + n])
                at += n
            run.check(idx, ok)
            run.work["partitions"] += len(page)
            self.kept.extend((run, idx, m, total) for m, total in ended)
        start = self.windows[r % len(self.windows)]
        for m in range(start, start + self.WINDOW):
            idx, res = run.op("count", self._count, tr, m)
            if res is None:
                continue
            v, ws, ok = res
            run.work["counted"] += v
            run.check(idx, ok and all(w.total == m and self.enum.oracle_is_weak(w) for w in ws))
            self.kept.append((run, idx, m, v))

    def peak_rss(self) -> float:
        return peak_rss_mb()

    def check(self, run) -> None:
        """Lengths of the finished streams and enumeration counts against
        the dense table."""
        table = self.counting.build_table(1 << 9)
        for who, idx, m, v in self.kept:
            if who is run:
                run.check(idx, v == table[m])

    def throughputs(self, run) -> dict:
        return {
            "partitions_per_s": run.rate("partitions", "page"),
            "counted_per_s": run.rate("counted", "count"),
        }


COMMANDS = ("verify", "gen", "enum", "count", "table", "series", "selftest")


class CliMix:
    """Sequential ``python -m mpart`` subprocesses over a seeded mix of all
    seven commands at small sizes, including inputs that must be refused
    with exit 1 or 2.

    Two of the 13 commands of a round are ``selftest``, the slowest, so
    latency_p90_ms falls inside that class rather than on its boundary.
    """

    round_s = 2.0

    def setup(self, seed: int) -> None:
        _, _, self.counting, self.cli = load_mpart()
        rng = random.Random(f"cli_mix:{seed}")
        self.rounds = [self._mix(rng) for _ in range(64)]
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.kept = []
        self._call(["gen", "3"])

    @staticmethod
    def _mix(rng: random.Random) -> list[list[str]]:
        def weak_parts():
            parts, s = [], 0
            for _ in range(rng.randint(3, 10)):
                q = rng.randint(parts[-1] if parts else 1, s + 1)
                parts.append(q)
                s += q
            return parts

        n = rng.randint(6, 16)
        cmds = [
            ["verify", *map(str, weak_parts())],
            ["gen", str(rng.randint(1, 10**6)), "--alg", rng.choice("12")],
            ["gen", str(rng.randint(*lower_half(rng.randint(2, 19)))), "--alg", "3"],
            ["enum", str(rng.randint(20, 64)), *rng.choice([[], ["--limit", "3"], ["--format", "json"]])],
            ["count", str(rng.randint(*upper_half(n)))],
            ["count", str(rng.randint(*lower_half(rng.choice((8, 9)))))],
            ["count", str(rng.randint(64, 200)), "--method", "enumerate"],
            ["table", str(rng.randint(64, 512)), *rng.choice([[], ["--format", "json"]])],
            ["series", str(rng.randint(50, 400)), *rng.choice([[], ["--format", "json"]])],
            ["selftest"],
            ["selftest"],
            ["count", str(rng.randint(*lower_half(n))), "--method", "genfun"],
            rng.choice(
                [
                    ["gen", "5", "--alg", "3"],
                    ["verify", "1", "2", "4", "--format", "csv"],
                    ["verify", "1", "3", "2"],
                    ["table", "0"],
                ]
            ),
        ]
        rng.shuffle(cmds)
        return cmds

    def _call(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "mpart", *argv],
            env=self.env,
            capture_output=True,
            timeout=60,
        )

    def _command(self, tr, argv):
        with tr.span(f"cli.{argv[0]}") as sp:
            proc = self._call(argv)
            sp.work = len(proc.stdout)
        return proc

    def round(self, run, r: int) -> None:
        for argv in self.rounds[r % len(self.rounds)]:
            idx, proc = run.op(f"command:{argv[0]}", self._command, run.tr, argv)
            self.kept.append((run, idx, argv, proc))

    def peak_rss(self) -> float:
        return peak_rss_mb(children=True)

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(self, run) -> None:
        """Exit code and stdout bytes against the same command run in
        process; counts against a dense table; tables against the golden
        CSV; refusals must exit 1 or 2, and no call may print a traceback."""
        table = self.counting.build_table(1 << 17)
        golden = self.cli._golden_table64()
        expected = {}
        for who, idx, argv, proc in self.kept:
            if who is not run:
                continue
            if proc is None:
                run.check(idx, False)
                continue
            key = tuple(argv)
            if key not in expected:
                expected[key] = self._in_process(list(argv))
            code, out = expected[key]
            stdout = proc.stdout.decode()
            ok = proc.returncode == code and stdout == out and b"Traceback" not in proc.stderr
            refused = argv in (["gen", "5", "--alg", "3"], ["verify", "1", "3", "2"], ["table", "0"]) or (
                "genfun" in argv or "csv" in argv
            )
            if refused:
                ok = ok and code in (1, 2) and stdout == ""
            else:
                ok = ok and code == 0
                if argv[0] == "count":
                    found = re.search(r"^a_m: (\d+)$", stdout, re.M)
                    ok = ok and found is not None and int(found.group(1)) == table[int(argv[1])]
                elif argv[0] == "table" and "json" not in argv:
                    ok = ok and stdout.startswith(golden)
            run.check(idx, ok)

    def throughputs(self, run) -> dict:
        return {}

    def cli_baselines(self, repeats: int = 5) -> dict:
        """Bare interpreter start and the cumulative import of mpart.cli."""
        bare, imp = [], []
        for _ in range(repeats):
            t0 = perf_counter_ns()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True, timeout=60)
            bare.append((perf_counter_ns() - t0) / 1e6)
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import mpart.cli"],
                env=self.env,
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            )
            for line in proc.stderr.splitlines():
                fields = line.split("|")
                if len(fields) == 3 and fields[2].strip() == "mpart.cli":
                    imp.append(int(fields[1]) / 1000)
        return {
            "cli.interpreter_ms": median(bare),
            "cli.import_ms": median(imp) if imp else 0.0,
        }


WORKLOADS = {
    "count_points": CountPoints,
    "count_table": CountTable,
    "enum_verify": EnumVerify,
    "cli_mix": CliMix,
}
