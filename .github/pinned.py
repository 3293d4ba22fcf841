"""Run every pinned `mpart` output and cap edge; exit 1 if any pin failed.

Each pin runs `timeout <s> python -m mpart <argv>` and checks its exit code
and its stdout: a SHA-256 digest, a whole line within the first 64 KiB, or
nothing.  Each run logs one line with its time and the peak RSS of the
`python -m mpart` process alone.  From the repository root, with or without
an install:

    PYTHONPATH=src python .github/pinned.py
    PYTHONPATH=src python .github/pinned.py --repeat 3 --out BENCH_<pr>_cli.json

--repeat N runs every pin N times, in N rounds over the table; a pin fails
if any of its runs fails.  --out PATH writes one JSON object: per pin, its
argv, exit codes, times with their median and spread, peak RSS and work
unit; per run, the host's Python, nproc, PYTHONDONTWRITEBYTECODE, the
commit and the median time of perfbench's reference work.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from itertools import islice
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A cap admits inputs that finish within a 10 s budget, run here under twice
# that since hosts differ; the first input past it must exit 1 at once.
SLOW, FAST = 20, 2
PINS = [  # (timeout s, exit code wanted, stdout SHA-256 | a line stdout holds | None, argv)
    # every lower half up to 2^19; digests of the output at 2f052aa, before
    # the lower half became one block per parity
    (SLOW, 0, "32e31b74805c66970361690bd7da39899ce9e9b1d594cb2c08ca6094c7cd41b5", ["table", "1048576"]),
    (SLOW, 0, "a84c4c2ea29cf7c35d37465d4f06cb6a6e4708983e54b7f84d94db5089a391f2", ["table", "1048576", "--format", "json"]),
    # lower halves answered by a table up to hi and the one entry; at 42b53cd,
    # before each parity's step became one difference of S
    (SLOW, 0, "177927be85c2092132fdb54015434d777a5e81476ff3f3aaaf08c5bd2bfb0ccd", ["count", "2621440"]),
    (SLOW, 0, "37e38405f90d800c2ab2cbb53e146a65c5f89da63e022ac9e48302c20d242f14", ["count", "12582910"]),  # the table cap's largest lower half
    # at dfa1e85, before JSON streams became plain iterators
    (SLOW, 0, "c6ddbd7b88929a0181bb2ccb3a22d769594625b47c6f915467bac93015a7e922", ["series", "1000000"]),
    (SLOW, 0, "cbc107fda3e472674c71b1aa940f6af900feac4ec34e7a0ccda1067a196ba720", ["series", "1000000", "--format", "json"]),
    (SLOW, 0, "1b937d651d8d4f0713383a4144b8fd28cc3d6c2b8a10e59382b58e72ba1f7c24", ["enum", "300"]),
    (SLOW, 0, "3ad5eeceb19fc0bb7de52e09a002bbcdd5f029ea97e22032b7b3295d1de00a1d", ["enum", "300", "--format", "json"]),
    # --limit 1 builds one leaf: at the table cap's largest lower half, and at
    # a far upper half whose parts pass 2^53
    (SLOW, 0, "1+1+3+6+12+24+48+96+192+384+768+1536+3072+6144+12288+24576+49152+98304+196608+393216+786432+1572864+3145728+6291455", ["enum", "12582910", "--limit", "1"]),
    (SLOW, 0, "+".join(str(1 << i) for i in range(300)), ["enum", str(2**300 - 1), "--limit", "1"]),
    # each cap's slowest admitted input: table 8388608, every half-binade up
    # to the cap, at eec70ca, before each block's steps became slice stores;
    # its JSON at ccf6468, row for row the CSV's rows
    (SLOW, 0, "8e581c85b542476efb1a3fa8b2bb8efa51d5f621ec99d2a43784acd59c6dbe83", ["table", "8388608"]),
    (SLOW, 0, "ce405ec2644a1b01151301d004f4f1f431116b0fcb3d3005babc6fef9c36a4ee", ["table", "8388608", "--format", "json"]),
    # stride 2^21 of the truncated product, at 9603885, before each stride
    # summed only its even multiples
    (SLOW, 0, "0b72cc82cc67d9ce13f87ff67f11073b8a476a204083fe15a84849ca6feee572", ["series", "2500000", "--format", "json"]),
    # j = 3*2^216, the slowest 218-bit halving measured, digest at b8f3c21,
    # while value() still appended up to 4096 terms; and j = 4096, the last
    # j it appended, which now halves
    (SLOW, 0, "5ee4a193892a01f132255989efcf7ad3a8e9b24b4f65d42ccda0232b3ea23f86", ["count", str(13 * 2**217 - 1)]),
    (SLOW, 0, "a_m: 34394869942983370", ["count", "57343"]),
    (SLOW, 0, "a_m: 98547380", ["count", "3470", "--method", "enumerate"]),  # a_3470 = b_312 <= 10^8
    (FAST, 1, None, ["table", "8388609"]),
    (FAST, 1, None, ["count", "16777216"]),
    (FAST, 1, None, ["series", "2500001"]),
    (FAST, 1, None, ["count", str(2**221 - 2**219 - 1)]),  # j of 219 bits
    (FAST, 1, None, ["count", "3469", "--method", "enumerate"]),  # a_3469 = b_313 > 10^8
]


# A process started by posix_spawn shares its parent's memory until it execs,
# and keeps the parent's high-water RSS as its own.  So `timeout`'s peak, and
# with it what os.wait4 reads, is never below the driver's; this wrapper,
# started with no site imports, waits on `python -m mpart` and writes the
# peak of that child alone to the file descriptor named by its first argument.
WAIT = """import os, resource, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "mpart", *sys.argv[2:]], os.environ)
status = os.waitpid(pid, 0)[1]
os.write(int(sys.argv[1]), b"%d" % resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))"""


def run(limit: int, want: int, check: str | None, argv: list[str]) -> tuple[bool, int, float, float]:
    """Run one pin once and log it; return (ok, exit code, seconds, peak RSS in MB)."""
    r, w = os.pipe()
    peak_r, peak_w = os.pipe()
    os.set_inheritable(peak_w, True)
    cmd = ["timeout", str(limit), sys.executable, "-S", "-c", WAIT, str(peak_w), *argv]
    t0 = time.perf_counter()
    pid = os.posix_spawnp("timeout", cmd, os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, w, 1)])
    os.close(w)
    os.close(peak_w)
    digest, head = hashlib.sha256(), b""
    with open(r, "rb") as f:
        while chunk := f.read(1 << 20):
            digest.update(chunk)
            head += chunk[: (1 << 16) - len(head)]
    _, status, usage = os.wait4(pid, 0)
    s, rc, sha = time.perf_counter() - t0, os.waitstatus_to_exitcode(status), digest.hexdigest()
    with open(peak_r, "rb") as f:
        peak = f.read()
    # a pin killed by its timeout reports no peak: log timeout's, an upper bound
    mb = int(peak or usage.ru_maxrss) / 1024
    # a line cut off by the end of the head is no whole line
    ok = rc == want and (check in (None, sha) or check.encode() in head.split(b"\n")[:-1])
    print(f"{'ok' if ok else 'FAILED'}: {s:.2f} s, {mb:.1f} MB peak RSS, exit {rc} (want {want}), "
          f"stdout sha256 {sha} (want {check!s:.64}): mpart {' '.join(argv)}", flush=True)
    return ok, rc, s, mb


def work(argv: list[str]) -> tuple[str, int]:
    """The work a pin's input asks for, whether it is done or refused: rows
    for table, series and enum, partitions for count --method enumerate,
    table entries hi for a lower-half count, bits of j for an upper half."""
    from mpart.core import extension_range_m1, in_upper_half
    from mpart.counting import _series_index, a
    from mpart.enumeration import iter_m_partitions

    cmd, m = argv[0], int(argv[1])
    if cmd == "table":
        return "rows", m
    if cmd == "series":
        return "rows", m + 1
    if cmd == "enum":
        if "--limit" in argv:
            return "rows", sum(1 for _ in islice(iter_m_partitions(m), int(argv[argv.index("--limit") + 1])))
        return "rows", a(m)
    if "enumerate" in argv:
        return "partitions", a(m)
    if in_upper_half(m):
        return "bits of j", _series_index(m).bit_length()
    return "table entries", extension_range_m1(m).hi


def host() -> dict:
    """What a run's times depend on besides the code: the interpreter, the
    cores, bytecode caching, the commit, and the median of 21 timings of
    perfbench's reference work, a fixed computation independent of mpart."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from harness import reference_work

    ns = []
    for _ in range(21):
        t0 = time.perf_counter_ns()
        reference_work()
        ns.append(time.perf_counter_ns() - t0)
    git = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--abbrev=40"],
                         capture_output=True, text=True)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "commit": git.stdout.strip() if git.returncode == 0 else None,
        "reference_work_ms": median(ns) / 1e6,
    }


def drive(pins: list, repeat: int = 1, out: str | None = None) -> int:
    """Run every pin `repeat` times, in rounds over `pins`, and log a summary;
    with `out`, write the JSON report there.  Return how many pins failed."""
    t0 = time.perf_counter()
    runs = [[] for _ in pins]
    for _ in range(repeat):
        for pin, pin_runs in zip(pins, runs):
            pin_runs.append(run(*pin))
    failed = sum(not all(ok for ok, *_ in pin_runs) for pin_runs in runs)
    print(f"{len(pins)} pins in {time.perf_counter() - t0:.1f} s, {failed} failed")
    if out is not None:
        report = host() | {"repeat": repeat, "failed": failed, "pins": []}
        for (_, want, _, argv), pin_runs in zip(pins, runs):
            oks, codes, times, mbs = zip(*pin_runs)
            unit, count = work(argv)
            report["pins"].append({
                "argv": argv, "ok": all(oks), "want": want, "exit_codes": list(codes),
                "times_s": list(times), "median_s": median(times), "spread_s": max(times) - min(times),
                "peak_rss_mb": max(mbs), "work_unit": unit, "work": count,
            })
        with open(out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return failed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=1, help="runs of each pin (default 1)")
    parser.add_argument("--out", help="write the JSON report to this path")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.exit(drive(PINS, args.repeat, args.out) > 0)
