#!/usr/bin/env python3
"""Metrics smoke gate for the hpsum_trace telemetry layer.

Runs bench/ablate_convert with --metrics=FILE at two sizes and validates
the exported metric snapshot (schema in docs/OBSERVABILITY.md):

  * the document carries ``"hpsum_trace": 2``, ``"enabled": true``, a
    ``"counters"`` object whose values are all non-negative integers, a
    ``"histograms"`` object whose entries each carry ``count``/``sum`` and
    a bucket array of the catalog width with ``sum(buckets) == count``,
    and a ``"gauges"`` object of non-negative integers,
  * the required core counters and histograms are present
    (scatter/reference adder calls, CAS retries, sticky-status raises,
    the carry-chain distribution),
  * the fast path actually fired: ``core.scatter_add.calls`` is nonzero
    (ablate_convert's scatter streams go through scatter_add_double), and
  * counters are monotone in workload size: doubling --n must not shrink
    the adder-call counts.

With ``--expect-disabled`` the gate flips for HPSUM_TRACE=OFF builds: one
run must export ``"enabled": false`` with every counter exactly zero (the
probes are compiled out, but the schema contract still holds). Registered
as the ``metrics_smoke_disabled`` ctest in that configuration.

Exit status is 0 on pass, 1 on a schema/monotonicity failure, 2 on
usage/environment errors. Registered as the ``metrics_smoke`` ctest when
the build has HPSUM_TRACE=ON.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

# Presence is required for these; ablate_convert must additionally report
# nonzero values for the NONZERO subset.
REQUIRED = [
    "core.scatter_add.calls",
    "core.reference_add.calls",
    "core.status_raise.inexact",
    "atomic.cas.adds",
    "atomic.cas.retries",
    "backends.reductions",
]
NONZERO = [
    "core.scatter_add.calls",
    "core.reference_add.calls",
]
REQUIRED_HISTS = [
    "core.scatter_add.carry_chain",
    "core.block.flush_depth",
    "core.reduce.latency_ns",
    "atomic.cas.retries_per_add",
    "mpisim.msg_bytes",
]
REQUIRED_GAUGES = [
    "core.block.limb_occupancy",
]
# Must match trace::kHistBuckets.
HIST_BUCKETS = 48


def validate_hist_gauge_schema(doc, failures, expect_enabled=True):
    """Validates the v2 "histograms" and "gauges" objects."""
    hists = doc.get("histograms")
    if not isinstance(hists, dict):
        failures.append('"histograms" object missing')
        hists = {}
    for name in REQUIRED_HISTS:
        if name not in hists:
            failures.append(f"required histogram {name!r} missing")
    for name, h in hists.items():
        if not isinstance(h, dict):
            failures.append(f"histogram {name!r} is not an object")
            continue
        buckets = h.get("buckets")
        if not isinstance(buckets, list) or len(buckets) != HIST_BUCKETS:
            failures.append(f"histogram {name!r} buckets is not a "
                            f"{HIST_BUCKETS}-wide array")
            continue
        bad = [b for b in buckets
               if not isinstance(b, int) or isinstance(b, bool) or b < 0]
        if bad:
            failures.append(f"histogram {name!r} has non-integer buckets")
            continue
        count, total = h.get("count"), h.get("sum")
        for key, v in (("count", count), ("sum", total)):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                failures.append(f"histogram {name!r} {key} is not a "
                                f"non-negative integer: {v!r}")
        if isinstance(count, int) and sum(buckets) != count:
            failures.append(f"histogram {name!r}: sum(buckets)="
                            f"{sum(buckets)} != count={count}")
        if not expect_enabled and (h.get("count") or sum(buckets)):
            failures.append(f"histogram {name!r} is nonzero in a disabled "
                            "build — probes were not compiled out")
    gauges = doc.get("gauges")
    if not isinstance(gauges, dict):
        failures.append('"gauges" object missing')
        gauges = {}
    for name in REQUIRED_GAUGES:
        if name not in gauges:
            failures.append(f"required gauge {name!r} missing")
    for name, v in gauges.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            failures.append(f"gauge {name!r} is not a non-negative integer: "
                            f"{v!r}")
        elif not expect_enabled and v != 0:
            failures.append(f"gauge {name!r} is {v} in a disabled build")


def run_once(bench, n, out_path):
    cmd = [str(bench), f"--n={n}", f"--metrics={out_path}"]
    print("+", " ".join(cmd))
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"{bench} exited {proc.returncode}")
    with open(out_path, "r", encoding="utf-8") as f:
        return json.load(f)


def validate_schema(doc, failures, expect_enabled=True):
    if doc.get("hpsum_trace") != 2:
        failures.append('missing/wrong "hpsum_trace": 2 version marker')
        return {}
    validate_hist_gauge_schema(doc, failures, expect_enabled)
    if expect_enabled and doc.get("enabled") is not True:
        failures.append('"enabled" is not true — was the bench built with '
                        "HPSUM_TRACE=OFF?")
    if not expect_enabled and doc.get("enabled") is not False:
        failures.append('"enabled" is not false — expected an '
                        "HPSUM_TRACE=OFF build")
    counters = doc.get("counters")
    if not isinstance(counters, dict) or not counters:
        failures.append('"counters" object missing or empty')
        return {}
    for name, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            failures.append(f"counter {name!r} is not a non-negative integer: "
                            f"{value!r}")
    for name in REQUIRED:
        if name not in counters:
            failures.append(f"required counter {name!r} missing")
    if not expect_enabled:
        for name, value in counters.items():
            if value != 0:
                failures.append(f"counter {name!r} is {value} in a disabled "
                                "build — probes were not compiled out")
        return counters
    for name in NONZERO:
        if counters.get(name, 0) == 0:
            failures.append(f"counter {name!r} is zero — the fast path never "
                            "fired")
    return counters


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", default=None,
                    help="path to the ablate_convert binary")
    ap.add_argument("--build-dir", default="build",
                    help="CMake build dir (used when --bench is not given)")
    ap.add_argument("--n", type=int, default=50_000,
                    help="summands per stream for the small run")
    ap.add_argument("--expect-disabled", action="store_true",
                    help="validate an HPSUM_TRACE=OFF build: enabled=false "
                         "and all-zero counters (single run, no "
                         "monotonicity check)")
    args = ap.parse_args()

    bench = pathlib.Path(args.bench) if args.bench else \
        pathlib.Path(args.build_dir) / "bench" / "ablate_convert"
    if not bench.exists():
        print(f"metrics_smoke: {bench} not built", file=sys.stderr)
        return 2

    failures = []
    if args.expect_disabled:
        with tempfile.TemporaryDirectory(prefix="hpsum_metrics_") as tmp:
            doc = run_once(bench, args.n, pathlib.Path(tmp) / "off.json")
        counters = validate_schema(doc, failures, expect_enabled=False)
        if failures:
            print("metrics_smoke: FAIL", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print(f"metrics_smoke: PASS ({len(counters)} counters, "
              "disabled + all-zero as expected)")
        return 0

    with tempfile.TemporaryDirectory(prefix="hpsum_metrics_") as tmp:
        small = run_once(bench, args.n, pathlib.Path(tmp) / "small.json")
        big = run_once(bench, 2 * args.n, pathlib.Path(tmp) / "big.json")

    small_counters = validate_schema(small, failures)
    big_counters = validate_schema(big, failures)

    # Monotone in workload size: each run is a fresh process, so the
    # counters are per-run totals — doubling --n must not shrink them.
    for name in NONZERO:
        lo = small_counters.get(name, 0)
        hi = big_counters.get(name, 0)
        print(f"  {name:28s} n={args.n}: {lo:>12}  n={2 * args.n}: {hi:>12}")
        if hi < lo:
            failures.append(f"{name} shrank when --n doubled ({lo} -> {hi})")

    if failures:
        print("metrics_smoke: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"metrics_smoke: PASS "
          f"({len(small_counters)} counters, schema + monotonicity ok)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
