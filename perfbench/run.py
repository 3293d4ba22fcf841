#!/usr/bin/env python3
"""Benchmark of the mpart library and CLI.

Run from the root of a checkout, which must hold the sources under src/:

    python3 perfbench/run.py --workload count_points --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in its own process, pinned to one core.  With --trace 0
the last line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run instead, together
with the tracing overhead.  The lines before it are a readable report
(environment, seed, every metric with its unit and sample count, failures
with their base).  With --trace 1 the spans are also written to
.perfbench_out/ in the checkout.  Workloads, metrics and their predicted
links are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    CAL_REF_NS,
    MIN_BEYOND,
    Calibration,
    NullTracer,
    Run,
    Tracer,
    environment,
    failed_ratio,
    layer_totals,
    percentile,
    samples_beyond,
    tail_permille,
    write_spans,
)
from workloads import COMMANDS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = ".perfbench_out"

# Per-layer metric -> (span name, field).  The field is "busy_s", "calls"
# or "work" of the spans of that name; "per" is their busy ns per work unit.
LAYER_METRICS = {
    "counting.a.busy_s": ("counting.a", "busy_s"),
    "counting.a.calls": ("counting.a", "calls"),
    "counting.a.memo_entries": ("counting.a", "work"),
    "counting.a_upper_half_via_b.busy_s": ("counting.a_upper_half_via_b", "busy_s"),
    "counting.a_upper_half_via_b.calls": ("counting.a_upper_half_via_b", "calls"),
    "counting.a_upper_half_via_b.series_terms": ("counting.a_upper_half_via_b", "work"),
    "counting.build_table.busy_s": ("counting.build_table", "busy_s"),
    "counting.build_table.entries": ("counting.build_table", "work"),
    "counting.build_table.ns_per_entry": ("counting.build_table", "per"),
    "counting.reads.busy_s": ("counting.reads", "busy_s"),
    "counting.reads.calls": ("counting.reads", "calls"),
    "counting.BinarySeries.busy_s": ("counting.BinarySeries", "busy_s"),
    "counting.BinarySeries.terms": ("counting.BinarySeries", "work"),
    "counting.gf_coefficients.busy_s": ("counting.gf_coefficients", "busy_s"),
    "counting.gf_coefficients.terms": ("counting.gf_coefficients", "work"),
    "enumeration.iter_m_partitions.busy_s": ("enumeration.iter_m_partitions", "busy_s"),
    "enumeration.iter_m_partitions.yielded": ("enumeration.iter_m_partitions", "work"),
    "enumeration.iter_m_partitions.ns_per_partition": ("enumeration.iter_m_partitions", "per"),
    "enumeration.count_by_enumeration.busy_s": ("enumeration.count_by_enumeration", "busy_s"),
    "enumeration.count_by_enumeration.calls": ("enumeration.count_by_enumeration", "calls"),
    "enumeration.count_by_enumeration.counted": ("enumeration.count_by_enumeration", "work"),
    "enumeration.oracle_is_weak.busy_s": ("enumeration.oracle_is_weak", "busy_s"),
    "enumeration.oracle_is_weak.calls": ("enumeration.oracle_is_weak", "calls"),
    "core.is_m_partition.busy_s": ("core.is_m_partition", "busy_s"),
    "core.is_m_partition.calls": ("core.is_m_partition", "calls"),
    "core.generate.busy_s": ("core.generate", "busy_s"),
    "core.generate.calls": ("core.generate", "calls"),
}
END_TO_END = ("setup_s", "peak_rss_mb", "latency_p50_ms", "latency_p90_ms", "ops_per_s")
THROUGHPUTS = ("entries_per_s", "reads_per_s", "series_terms_per_s", "partitions_per_s", "counted_per_s")


def layer_metric_names() -> list[str]:
    """Every per-layer metric, in the order the traced run prints them."""
    cli = [f"cli.{cmd}.{field}" for cmd in COMMANDS for field in ("p50_ms", "stdout_bytes")]
    return [*LAYER_METRICS, *cli, "cli.interpreter_ms", "cli.import_ms", *THROUGHPUTS, "trace.overhead_pct"]


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_pct"):
        return "%"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("ns_per_entry", "ns"),
                         ("ns_per_partition", "ns"), ("stdout_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def find_checkout() -> str:
    """The checkout is the working directory; refuse to run without the
    sources it is meant to measure."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "mpart", "__init__.py")):
        raise SystemExit("perfbench: no src/mpart/ under the working directory; run from a checkout root")
    sys.path.insert(0, src)
    return src


def pin_one_core() -> None:
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not Linux, or not permitted: run unpinned


def latencies(lat_ns) -> dict:
    ms = [x / 1e6 for x in lat_ns]
    return {
        "latency_p50_ms": percentile(ms, 500),
        "latency_p90_ms": percentile(ms, 900),
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
    }


def per_layer(w, plain: Run, traced: Run) -> dict:
    totals = layer_totals(traced.tr.spans)
    layer = {}
    for key, (span, field) in LAYER_METRICS.items():
        t = totals.get(span, {"busy_s": 0.0, "calls": 0, "work": 0})
        if field == "per":
            layer[key] = t["busy_s"] * 1e9 / t["work"] if t["work"] else 0.0
        else:
            layer[key] = t[field]
    for cmd in COMMANDS:
        lat = [x / 1e6 for x, k in zip(traced.normalized_ns(), traced.kind) if k == f"command:{cmd}"]
        layer[f"cli.{cmd}.p50_ms"] = median(lat) if lat else 0.0
        layer[f"cli.{cmd}.stdout_bytes"] = totals.get(f"cli.{cmd}", {"work": 0})["work"]
    if hasattr(w, "cli_baselines"):
        layer.update(w.cli_baselines())
    else:
        layer.update({"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0})
    throughputs = w.throughputs(plain)
    for key in THROUGHPUTS:
        layer[key] = throughputs.get(key, 0.0)
    layer["trace.overhead_pct"] = 100 * (sum(traced.normalized_ns()) / sum(plain.normalized_ns()) - 1)
    return layer


def report(name: str, value, samples: str = "") -> None:
    print(f"{name:<48} {value!r:>24} {unit_of(name):<6} {samples}")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    src = find_checkout()
    pin_one_core()
    w = WORKLOADS[name]()
    cal = Calibration()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = cal.measure(0)
        t0 = perf_counter_ns()
        w.setup(seed)
        dt = perf_counter_ns() - t0
        raw_setups.append(dt / 1e9)
        setups.append(dt / 1e9 * 2 * CAL_REF_NS / (before + cal.measure(0)))
    mpart_file = sys.modules["mpart"].__file__
    if not mpart_file.startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported mpart from {mpart_file}, not from {src}")

    env = environment(seed)
    print(f"# workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print("# env " + json.dumps(env))
    plain = Run(NullTracer())
    traced = Run(Tracer()) if trace else None
    if trace:
        # Fixed work: every round runs once untraced and once traced, in
        # alternating order, so the difference is the tracing overhead.
        rounds = max(1, round(seconds / (2 * w.round_s)))
        for r in range(rounds):
            for run in (plain, traced) if r % 2 == 0 else (traced, plain):
                w.round(run, r)
                run.end_round()
    else:
        rounds, t0 = 0, perf_counter_ns()
        while rounds == 0 or perf_counter_ns() - t0 < seconds * 1e9:
            w.round(plain, rounds)
            plain.end_round()
            rounds += 1
    rss = w.peak_rss()
    runs = (plain, traced) if trace else (plain,)
    for run in runs:
        w.check(run)
    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failed) for r in runs)

    n = plain.attempted
    e2e = {"setup_s": median(setups), "peak_rss_mb": rss, **latencies(plain.normalized_ns())}
    raw = {"setup_s": median(raw_setups), **latencies(plain.latency_ns)}
    cal_ms = [dt / 1e6 for _, dt in plain.cal.marks]
    samples = {"setup_s": SETUP_REPEATS, "peak_rss_mb": 1, "latency_p50_ms": n, "latency_p90_ms": n,
               "ops_per_s": n}
    print(f"# {rounds} rounds, {n} operations; reference work {CAL_REF_NS / 1e6:g} ms on the reference host, "
          f"here median {median(cal_ms):.3f} ms over {len(cal_ms)} timings (from {min(cal_ms):.3f} to "
          f"{max(cal_ms):.3f})")
    print(f"# {'metric':<46} {'reference host':>24} {'unit':<6} {'as timed here':>22}  samples")
    for key, value in e2e.items():
        print(f"{key:<48} {value!r:>24} {unit_of(key):<6} {raw.get(key, value)!r:>22}  n={samples[key]}")
    tail = tail_permille(n)
    print(f"# latency_p90_ms has {samples_beyond(n, 900)} of {n} samples beyond it; the highest "
          f"percentile with {MIN_BEYOND}+ beyond is {'none' if tail is None else f'p{tail / 10:g}'}")
    for key, value in w.throughputs(plain).items():
        report(key, value, f"(over {n} operations)")
    print(f"failed_ratio {failed_ratio(failed, attempted)!r}  ({failed} of {attempted} operations failed)")

    if trace:
        metrics = per_layer(w, plain, traced)
        print("# per-layer metrics, traced run")
        for key, value in metrics.items():
            report(key, value)
        write_spans(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl"), traced.tr.spans)
    else:
        metrics = e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {"workload": name, "seconds": seconds, "trace": trace, "env": env, "rounds": rounds,
              "samples": samples, "as_timed_here": raw, "reference_ms": cal_ms, "result": result}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def run_all(args) -> dict:
    """Every workload in a child process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, value in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        find_checkout()
        pin_one_core()
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
