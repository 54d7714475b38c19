#!/usr/bin/env python3
"""Bench smoke gate for the kernel fast paths, the engine and the wire codec.

Runs the four gated benches from --build-dir RUNS times each at the fixed
sizes in BENCHES, writes their bench records (bench/common.hpp) to
--out-dir, and gates the median of each metric against one table, GATES
(EXPERIMENTS.md "Bench records and the smoke gate"). A row
names a bench, a metric (an fnmatch pattern), whether the metric is held
to its checked-in baseline (BASELINES), and a bound: a floor when the
metric's `better` is "higher", a ceiling when "lower"; a number applies at
every SIMD level, a dict only at the levels it names.

A baseline-held metric may be at most TOLERANCE worse than its baseline
value, and only when the fresh record's host.simd equals the baseline's:
a vector and a scalar build differ by configuration, not by regression.
No other host field gates anything. 25% because the compared speedups are
same-host ratios whose residual noise (frequency scaling, cache state,
co-tenants on shared runners) stays within about 10-15% at the smoke size,
while a disabled fast path costs 2x or more. The bounds, not the
tolerance, are the acceptance bars; wire byte counts are deterministic for
a fixed seed, so the fig6 rows need no tolerance.

A missing binary, a failed run and a missing metric all fail; nothing is
skipped. --selftest pushes synthetic records through the same gate and
requires every injected violation to fail naming what broke.
Exit status: 0 pass, 1 fail.
"""

import argparse
import collections
import copy
import fnmatch
import itertools
import json
import math
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNS = 3
TOLERANCE = 0.25

# Bench binary -> its fixed smoke arguments.
BENCHES = {
    "ablate_convert": ["--n=200000"],
    "ablate_block": ["--n=200000"],
    # A longer stream: the two compared paths differ by nanoseconds, so
    # short streams drown the ratio in noise.
    "ablate_shards": ["--n=2000000", "--maxshards=4"],
    # The standard lognormal stream at 1024 multiplexed ranks.
    "fig6_mpi_scaling": ["--n=262144", "--maxp=1024", "--dist=lognormal",
                         "--algo=rdouble", "--wire=sparse", "--mode=mux"],
}

BASELINES = {
    "ablate_convert": ROOT / "bench" / "BENCH_scatter.json",
    "ablate_block": ROOT / "bench" / "BENCH_block.json",
}

Gate = collections.namedtuple("Gate", "bench metric baseline bound")

GATES = (
    # Scatter-add deposit vs the convert+add pair, every stream.
    Gate("ablate_convert", "*.speedup", True, 2.0),
    # Block path vs scalar deposits. Mixed signs are the paper's workload;
    # same-sign streams are the scalar loop's best case, so only the vector
    # path is held above parity there.
    Gate("ablate_block", "mixed.speedup", True, {"avx2": 2.5, "off": 1.5}),
    Gate("ablate_block", "wide.speedup", True, None),
    Gate("ablate_block", "all-positive.speedup", False, {"avx2": 1.3}),
    Gate("ablate_block", "all-negative.speedup", False, {"avx2": 1.3}),
    # The engine lane's seqlock publish may cost at most 5%.
    Gate("ablate_shards", "overhead_ratio", False, 1.05),
    # Sparse wire codec engaged at every point, and HP rank invariance.
    Gate("fig6_mpi_scaling", "wire_ratio", False, 3.0),
    Gate("fig6_mpi_scaling", "hp_invariant", False, 1),
    Gate("fig6_mpi_scaling", "uncompressed_points", False, 0),
)


def metrics(record):
    return {m["metric"]: m for m in record["metrics"]}


def median_record(records):
    """The first record with every metric's value replaced by its median
    over all runs. A metric some run lacks (or wrote as null) is dropped,
    so the gate reports it missing."""
    out = copy.deepcopy(records[0])
    kept = []
    for m in out["metrics"]:
        values = [metrics(r).get(m["metric"], {}).get("value")
                  for r in records]
        if None not in values:
            m["value"] = sorted(values)[len(values) // 2]
            kept.append(m)
    out["metrics"] = kept
    return out


def check(label, fresh, base, bound):
    """Gates one metric against its baseline (None: not compared) and its
    bound (None: unbounded); returns the failures."""
    if fresh is None or fresh.get("value") is None:
        return [f"{label}: missing from the record"]
    if base is not None and base.get("value") is None:
        return [f"{label}: missing from the baseline"]
    if fresh.get("better") not in ("higher", "lower"):
        return [f"{label}: better is {fresh.get('better')!r}"]
    value = fresh["value"]
    sign = 1 if fresh["better"] == "higher" else -1
    failures = []
    note = ""
    if base is not None:
        limit = base["value"] * (1 - sign * TOLERANCE)
        note += f"  baseline {base['value']:.4g} (limit {limit:.4g})"
        if sign * (value - limit) < 0:
            failures.append(
                f"{label}: {value:.4g} is more than {TOLERANCE:.0%} worse "
                f"than baseline {base['value']:.4g}")
    if bound is not None:
        kind = "floor" if sign > 0 else "ceiling"
        note += f"  {kind} {bound:g}"
        if sign * (value - bound) < 0:
            failures.append(f"{label}: {value:.4g} misses the {kind} "
                            f"{bound:g}")
    print(f"  {label:40s} {value:9.4g}{note}  "
          f"{'FAIL' if failures else 'ok'}")
    return failures


def gate(records, baselines, table=GATES):
    """Applies every row of `table` to the median records (bench ->
    record); returns the failures."""
    failures = []
    for row in table:
        record = records.get(row.bench)
        if record is None:
            failures.append(f"{row.bench} {row.metric}: no record (bench "
                            "not built or failed)")
            continue
        simd = record["host"]["simd"]
        fresh = metrics(record)
        base = {}
        if row.baseline:
            baseline = baselines[row.bench]
            if baseline["host"]["simd"] == simd:
                base = metrics(baseline)
            else:
                print(f"  {row.bench} {row.metric}: simd {simd!r} != "
                      f"baseline {baseline['host']['simd']!r}; bound only")
        names = sorted(set(fnmatch.filter(fresh, row.metric)) |
                       set(fnmatch.filter(base, row.metric))) or [row.metric]
        bound = (row.bound.get(simd) if isinstance(row.bound, dict)
                 else row.bound)
        for name in names:
            failures += check(f"{row.bench} {name}", fresh.get(name),
                              base.get(name, {}) if base else None, bound)
    return failures


def measure(build_dir, bench, out_dir):
    """Runs `bench` RUNS times; returns its median record, also written to
    out_dir, or None after printing why there is none."""
    binary = pathlib.Path(build_dir) / "bench" / bench
    if not binary.exists():
        print(f"bench_smoke: {binary} not built", file=sys.stderr)
        return None
    records = []
    for r in range(RUNS):
        path = out_dir / f"{bench}.run{r}.json"
        cmd = [str(binary), *BENCHES[bench], f"--json={path}"]
        print("+", " ".join(cmd))
        code = subprocess.run(cmd).returncode
        if code != 0:
            print(f"bench_smoke: {binary} exited {code}", file=sys.stderr)
            return None
        records.append(json.loads(path.read_text(encoding="utf-8")))
    record = median_record(records)
    (out_dir / f"{bench}.json").write_text(json.dumps(record, indent=2) +
                                           "\n", encoding="utf-8")
    return record


def run(build_dir, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    records = {}
    for bench in BENCHES:
        record = measure(build_dir, bench, out_dir)
        if record is not None:
            records[bench] = record
    baselines = {bench: json.loads(path.read_text(encoding="utf-8"))
                 for bench, path in BASELINES.items()}
    print(f"gates (median of {RUNS} runs):")
    return gate(records, baselines)


def _record(bench, values, simd="avx2"):
    """A synthetic record; metrics named like the benches' lower-is-better
    ones get better=lower."""
    lower = ("_ns_per_add", "overhead_ratio", "uncompressed_points")
    return {"bench": bench, "config": {},
            "host": {"nproc": 1, "simd": simd, "trace": False},
            "metrics": [{"metric": k, "value": v, "unit": "",
                         "better": "lower" if k.endswith(lower) else
                         "higher"} for k, v in values.items()]}


def _table(bench, bounds=None):
    """GATES rows of `bench`, with the bounds `bounds` (metric -> bound)
    replaced."""
    return [r._replace(bound=(bounds or {}).get(r.metric, r.bound))
            for r in GATES if r.bench == bench]


def selftest():
    """Failure injection: every synthetic violation must FAIL and name the
    broken metric; clean records must pass. Catches gate-logic bugs (an
    inverted comparison, a pattern that matches nothing) that would turn
    the smoke job into a silent no-op."""
    results = []

    def expect(label, failures, must_name=None):
        ok = (not failures if must_name is None else
              any(must_name in f for f in failures))
        results.append(ok)
        print(f"  selftest [{label}]: {'PASS' if ok else 'FAIL'}")
        for f in failures:
            print(f"    - {f}")

    def speedups(bench, streams, simd="avx2"):
        return {bench: _record(bench, {f"{k}.speedup": v
                                       for k, v in streams.items()}, simd)}

    def block(streams, simd="avx2"):
        return speedups("ablate_block", streams, simd)

    slow_mixed = 3.0 * (1.0 - TOLERANCE) * 0.9
    clean = {"all-positive": 2.0, "all-negative": 2.0, "mixed": 3.0,
             "wide": 4.0}
    base = block(clean)
    samesign_off = {"all-positive.speedup": None,
                    "all-negative.speedup": None}
    # The original fifteen cases, same numbers and verdicts.
    expect("gate-stream slowdown",
           gate(block({**clean, "mixed": slow_mixed}), base,
                _table("ablate_block", {**samesign_off,
                                        "mixed.speedup": None})),
           "mixed.speedup")
    expect("gate floor",
           gate(block({**clean, "mixed": 2.0}), base,
                _table("ablate_block", samesign_off)), "mixed.speedup")
    expect("same-sign floor",
           gate(block({**clean, "all-positive": 1.1}), base,
                _table("ablate_block", {"mixed.speedup": None})),
           "all-positive.speedup")
    off = block({"all-positive": 1.0, "all-negative": 1.0, "mixed": 1.2,
                 "wide": 1.0}, simd="off")
    block_rows = _table("ablate_block")
    expect("simd-off floors-only", gate(off, base, block_rows),
           "mixed.speedup")
    expect("simd-off ratio skipped",
           gate(off, base, _table("ablate_block", {"mixed.speedup": 1.0})))
    expect("wide slowdown",
           gate(block({**clean, "wide": 4.0 * (1.0 - TOLERANCE) * 0.9}),
                base, block_rows), "wide.speedup")
    expect("clean pass", gate(block(clean), base, block_rows))
    expect("scatter slowdown",
           gate(speedups("ablate_convert", {"uniform": slow_mixed}),
                speedups("ablate_convert", {"uniform": 3.0}),
                _table("ablate_convert", {"*.speedup": None})),
           "uniform.speedup")
    med = metrics(median_record(
        [block({"all-positive": s, "all-negative": 2.0, "mixed": 3.0})
         ["ablate_block"] for s in (0.5, 2.0, 9.9)]))
    expect("median-of-3", [] if med["all-positive.speedup"]["value"] == 2.0
           and med["mixed.speedup"]["value"] == 3.0 else ["wrong median"])
    fig6 = {"wire_raw_bytes": 96, "wire_encoded_bytes": 28,
            "wire_ratio": 3.4, "hp_invariant": 1, "uncompressed_points": 0}
    eng = {"direct_ns_per_add": 2.5, "engine_ns_per_add": 2.55,
           "overhead_ratio": 1.02}

    def alone(bench, values, **changes):
        return gate({bench: _record(bench, {**values, **changes})}, {},
                    _table(bench))
    expect("fig6 wire-ratio floor",
           alone("fig6_mpi_scaling", fig6, wire_ratio=2.1), "wire_ratio")
    expect("fig6 invariant",
           alone("fig6_mpi_scaling", fig6, hp_invariant=0), "hp_invariant")
    expect("fig6 raw fallback", alone("fig6_mpi_scaling", fig6,
                                      wire_encoded_bytes=96,
                                      uncompressed_points=1),
           "uncompressed_points")
    expect("fig6 clean pass", alone("fig6_mpi_scaling", fig6))
    expect("engine overhead ceiling",
           alone("ablate_shards", eng, overhead_ratio=1.31), "overhead_ratio")
    expect("engine clean pass", alone("ablate_shards", eng))

    # Every row can fail: its bound at each SIMD level it names, and its
    # baseline, each violated by the smallest step past the limit, and the
    # metric removed from the record.
    def clean_records(simd="avx2"):
        return {**speedups("ablate_convert", {"all-positive": 3.0,
                                              "all-negative": 3.0,
                                              "mixed": 3.0}, simd),
                **block(clean, simd),
                "ablate_shards": _record("ablate_shards", eng, simd),
                "fig6_mpi_scaling": _record("fig6_mpi_scaling", fig6, simd)}

    baselines = clean_records()
    expect("all rows clean pass", gate(clean_records(), baselines))
    for row in GATES:
        levels = (row.bound if isinstance(row.bound, dict) else
                  {"avx2": row.bound})
        cases = [(simd, row._replace(baseline=False, bound=b))
                 for simd, b in levels.items() if b is not None]
        if row.baseline:
            cases.append(("avx2", row._replace(bound=None)))
        names = fnmatch.filter(metrics(baselines[row.bench]), row.metric)
        for (simd, one), name in itertools.product(cases, names):
            records = clean_records(simd)
            m = metrics(records[row.bench])[name]
            sign = 1 if m["better"] == "higher" else -1
            limit = one.bound
            if limit is None:
                limit = (metrics(baselines[row.bench])[name]["value"] *
                         (1 - sign * TOLERANCE))
            m["value"] = math.nextafter(limit, -sign * math.inf)
            expect(f"{row.bench} {name} past "
                   f"{'baseline' if one.bound is None else simd}",
                   gate(records, baselines, [one]), name)
        records = clean_records()
        records[row.bench]["metrics"] = [
            m for m in records[row.bench]["metrics"] if m["metric"] != names[0]]
        expect(f"{row.bench} {names[0]} missing",
               gate(records, baselines, [row]), f"{names[0]}: missing")
    with tempfile.TemporaryDirectory() as tmp:
        unbuilt = run(pathlib.Path(tmp), pathlib.Path(tmp) / "out")
    for bench in BENCHES:
        expect(f"{bench} not built", unbuilt, f"{bench} ")

    print(f"bench_smoke --selftest: {'PASS' if all(results) else 'FAIL'} "
          f"({sum(results)}/{len(results)})")
    return 0 if all(results) else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--build-dir", default="build",
                    help="CMake build dir holding the bench binaries")
    ap.add_argument("--out-dir", default="bench-records",
                    help="where to write the per-run and median records")
    ap.add_argument("--selftest", action="store_true",
                    help="run the offline failure-injection selftest")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    failures = run(args.build_dir, pathlib.Path(args.out_dir))
    if failures:
        print("bench_smoke: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("bench_smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
