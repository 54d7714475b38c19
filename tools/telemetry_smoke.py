#!/usr/bin/env python3
"""Telemetry smoke gate: every export of the hpsum telemetry stack, checked
from one place (schemas in docs/OBSERVABILITY.md).

Runs, from --build-dir:

  1. bench/fig6_mpi_scaling at n with --metrics, --flight and --pulse
     together;
  2. bench/fig6_mpi_scaling at 2n with --metrics;
  3. examples/exact_sum_cli with --pulse and --health on a fixed input.

and checks:

  * --metrics: ``"hpsum_trace": 3``, ``"enabled": true``, a ``counters``
    object of non-negative integers and nothing else; every counter a
    health rule reads is in the catalog; ``core.block.deposits`` is
    nonzero (fig6 runs the block path) and does not shrink from n to 2n;
  * --pulse: a ``"hpsum_pulse": 2`` header, >= 2 ticks, ``seq`` 1, 2, ...,
    ``ts_ms`` monotone from ``epoch_ms``, tick deltas nonzero
    non-negative integers whose names resolve in the same run's
    --metrics catalog, and summed deltas equal to the --metrics totals;
  * --flight: >= 2 mpisim rank lanes, a ``reduction_id`` shared by
    ``mpi.reduce`` spans on >= 2 lanes and by a ``local.reduce`` span,
    balanced B/E spans per track;
  * --health: tools/hpsum_top.py's rule mirror, recomputed from the
    summed pulse deltas, equals the C++ report on every indicator's name,
    level, numerator, denominator and thresholds.

With --expect-disabled (an HPSUM_TRACE=OFF build) the gate flips: the
--metrics export is ``"enabled": false`` with every counter zero, the
pulse stream is its header alone (``"enabled": false``), and the health
mirror still agrees (all n/a).

--selftest feeds hand-built exports, each broken in one way, to the same
checks; each must fail naming its defect, and the clean exports must pass.
It runs no binary.

Exit status: 0 on pass, 1 on a check failure, 2 when a binary is missing.
Registered as the ``telemetry_smoke`` ctest (``telemetry_smoke_disabled`` in
an HPSUM_TRACE=OFF build) and ``telemetry_smoke_selftest``.
"""

import argparse
import collections
import json
import pathlib
import subprocess
import sys
import tempfile

TOOLS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
import hpsum_top  # noqa: E402  (the health-rule mirror under test)

TRACE_VERSION = 3
PULSE_VERSION = 2
N = 200_000
MAXP = 16
INTERVAL_MS = 10
# fig6 runs the block path: this counter is nonzero and grows with n.
BLOCK_DEPOSITS = "core.block.deposits"
# The exact_sum_cli run: a block-path reduction plus an engine pass, so the
# block, status and snapshot rules have nonzero denominators.
CLI_VALUES = [f"{i}.25" for i in range(1, 5001)]
CLI_FLAGS = ["--shards=2", "--snapshot-every=256"]


def nonneg_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def required_counters():
    """Every counter a health rule reads."""
    names = set()
    for _, num, den, *_ in hpsum_top.HEALTH_RULES:
        names.update(num)
        names.update(den)
    return names


def check_metrics(doc, failures, label, enabled=True):
    """The --metrics document; returns its counters (name -> value)."""
    if doc.get("hpsum_trace") != TRACE_VERSION:
        failures.append(f"{label}: wrong version: \"hpsum_trace\" is "
                        f"{doc.get('hpsum_trace')!r}, expected "
                        f"{TRACE_VERSION}")
        return {}
    if doc.get("enabled") is not enabled:
        failures.append(f"{label}: \"enabled\" is {doc.get('enabled')!r}, "
                        f"expected {enabled}")
    extra = set(doc) - {"hpsum_trace", "enabled", "counters"}
    if extra:
        failures.append(f"{label}: unexpected keys {sorted(extra)}")
    counters = doc.get("counters")
    if not isinstance(counters, dict) or not counters:
        failures.append(f"{label}: \"counters\" object missing or empty")
        return {}
    for name, v in counters.items():
        if not nonneg_int(v):
            failures.append(f"{label}: counter {name!r} is not a "
                            f"non-negative integer: {v!r}")
        elif not enabled and v != 0:
            failures.append(f"{label}: counter {name!r} is {v} in a "
                            "disabled build — probes were not compiled out")
    for name in sorted(required_counters() - set(counters)):
        failures.append(f"{label}: counter {name!r} a health rule reads is "
                        "missing")
    return counters


def summed(lines):
    """Per-counter sum of a pulse stream's tick deltas."""
    totals = collections.Counter()
    for tick in lines[1:]:
        totals.update(tick.get("counters", {}))
    return dict(totals)


def check_pulse(lines, catalog, failures, enabled=True):
    """The JSONL stream, against the same run's --metrics counters."""
    if not lines:
        failures.append("pulse: stream is empty")
        return
    header, ticks = lines[0], lines[1:]
    if header.get("hpsum_pulse") != PULSE_VERSION:
        failures.append(f"pulse: wrong version: \"hpsum_pulse\" is "
                        f"{header.get('hpsum_pulse')!r}, expected "
                        f"{PULSE_VERSION}")
    if header.get("enabled") is not enabled:
        failures.append(f"pulse: header \"enabled\" is "
                        f"{header.get('enabled')!r}, expected {enabled}")
    for key in ("interval_ms", "epoch_ms"):
        if not nonneg_int(header.get(key)):
            failures.append(f"pulse: header {key!r} missing or invalid")
    if not enabled:
        if ticks:
            failures.append(f"pulse: disabled build wrote {len(ticks)} "
                            "ticks, expected the header only")
        return
    if len(ticks) < 2:
        failures.append(f"pulse: only {len(ticks)} ticks, expected >= 2")
    prev_ts = header.get("epoch_ms", 0)
    for i, tick in enumerate(ticks, start=1):
        extra = set(tick) - {"seq", "ts_ms", "counters"}
        if extra:
            failures.append(f"pulse tick {i}: unexpected keys "
                            f"{sorted(extra)}")
        seq, ts = tick.get("seq"), tick.get("ts_ms")
        if seq != i:
            failures.append(f"pulse tick {i}: seq is {seq!r}, expected {i} "
                            "(not monotone)")
        if not nonneg_int(ts) or ts < prev_ts:
            failures.append(f"pulse tick {i}: ts_ms {ts!r} is not monotone "
                            f"(previous {prev_ts})")
        else:
            prev_ts = ts
        for name, v in tick.get("counters", {}).items():
            if name not in catalog:
                failures.append(f"pulse tick {i}: phantom counter {name!r} "
                                "is not in the --metrics catalog")
            if not nonneg_int(v):
                failures.append(f"pulse tick {i}: counter {name!r} delta "
                                f"{v!r} is not a non-negative integer")
            elif v == 0:
                failures.append(f"pulse tick {i}: counter {name!r} has a "
                                "zero delta — ticks carry nonzero deltas "
                                "only")
    totals = summed(lines)
    for name, v in catalog.items():
        if totals.get(name, 0) != v:
            failures.append(f"pulse: summed deltas of {name!r} = "
                            f"{totals.get(name, 0)}, --metrics says {v}")


def check_flight(events, failures, label):
    """Chrome trace events from fig6: rank lanes, shared ids, balance."""
    if not events:
        failures.append(f"{label}: \"traceEvents\" missing or empty")
        return
    for i, ev in enumerate(events):
        missing = [k for k in ("name", "ph", "pid", "tid")
                   if not isinstance(ev, dict) or k not in ev]
        if missing or (ev["ph"] != "M" and "ts" not in ev):
            failures.append(f"{label}: traceEvents[{i}] lacks "
                            f"{missing or ['ts']}")
            return
    lanes = {ev["pid"] for ev in events if ev["ph"] == "M"
             and ev["name"] == "process_name"
             and ev.get("args", {}).get("name", "").startswith("mpisim ")}
    if len(lanes) < 2:
        failures.append(f"{label}: {len(lanes)} mpisim rank lanes, "
                        "expected >= 2")
    reduce_lanes = collections.defaultdict(set)
    for ev in events:
        if ev["name"] == "mpi.reduce" and ev["ph"] == "B" \
                and ev["pid"] in lanes:
            reduce_lanes[ev.get("args", {}).get("reduction_id")].add(
                ev["pid"])
    shared = {rid for rid, pids in reduce_lanes.items()
              if rid is not None and len(pids) >= 2}
    if not shared:
        failures.append(f"{label}: no reduction_id is shared by mpi.reduce "
                        "spans on >= 2 rank lanes")
    local = [ev for ev in events if ev["name"] == "local.reduce"
             and ev["ph"] == "B" and ev["pid"] in lanes]
    if len({ev["pid"] for ev in local}) < 2:
        failures.append(f"{label}: local.reduce spans on fewer than 2 rank "
                        "lanes")
    elif not any(ev.get("args", {}).get("reduction_id") in shared
                 for ev in local):
        failures.append(f"{label}: no local.reduce span shares its "
                        "reduction_id with an mpi.reduce span")
    depth = collections.Counter()
    for ev in events:
        if ev["ph"] in ("B", "E"):
            depth[(ev["pid"], ev["tid"], ev["name"])] += \
                1 if ev["ph"] == "B" else -1
    for (pid, tid, name), d in sorted(depth.items()):
        if d:
            failures.append(f"{label}: unbalanced B/E span {name!r} on "
                            f"pid={pid} tid={tid}: B-E = {d:+d}")


def check_health(report, counters, failures):
    """The C++ --health report against hpsum_top's mirror over `counters`."""
    fields = ("level", "numerator", "denominator", "warn_at", "fail_at",
              "higher_is_better")
    got = {ind.get("name"): ind for ind in report.get("indicators", [])}
    rows = hpsum_top.health_rows(counters)
    if set(got) != {row["name"] for row in rows}:
        failures.append(f"health: C++ rules {sorted(got)} differ from the "
                        f"hpsum_top mirror {[r['name'] for r in rows]}")
    for row in rows:
        ind = got.get(row["name"], {})
        for key in fields:
            if ind.get(key) != row[key]:
                failures.append(f"health: {row['name']} {key} is "
                                f"{ind.get(key)!r} in C++, "
                                f"{row[key]!r} in hpsum_top")


def check_all(x, enabled=True):
    """Every check over one set of parsed exports (see run_binaries)."""
    failures = []
    catalog = check_metrics(x["metrics"], failures, "metrics", enabled)
    check_pulse(x["pulse"], catalog, failures, enabled)
    check_health(x["health"], summed(x["cli_pulse"]), failures)
    if not enabled:
        return failures
    big = check_metrics(x["metrics_2n"], failures, "metrics 2n")
    small_n = catalog.get(BLOCK_DEPOSITS, 0)
    if small_n == 0:
        failures.append(f"metrics: {BLOCK_DEPOSITS} is zero — the block "
                        "path never ran")
    if big.get(BLOCK_DEPOSITS, 0) < small_n:
        failures.append(f"metrics: {BLOCK_DEPOSITS} shrank when n doubled "
                        f"({small_n} -> {big.get(BLOCK_DEPOSITS)})")
    check_flight(x["flight"], failures, "flight")
    return failures


# ---- running the binaries ------------------------------------------------

def run(cmd, stdin=None):
    print("+", " ".join(str(c) for c in cmd))
    subprocess.run([str(c) for c in cmd], input=stdin, text=True, check=True,
                   stdout=subprocess.DEVNULL)


def read_jsonl(path):
    return [json.loads(line) for line in
            path.read_text(encoding="utf-8").splitlines() if line.strip()]


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def run_binaries(build_dir, tmp, enabled):
    fig6 = build_dir / "bench" / "fig6_mpi_scaling"
    cli = build_dir / "examples" / "exact_sum_cli"
    t = pathlib.Path(tmp)
    flight = [f"--flight={t / 'flight.json'}"] if enabled else []
    run([fig6, f"--n={N}", f"--maxp={MAXP}", f"--metrics={t / 'm.json'}",
         f"--pulse={t / 'p.jsonl'}", f"--pulse-interval-ms={INTERVAL_MS}",
         *flight])
    run([cli, f"--pulse={t / 'cli.jsonl'}",
         f"--pulse-interval-ms={INTERVAL_MS}", f"--health={t / 'h.json'}",
         *CLI_FLAGS], stdin="\n".join(CLI_VALUES) + "\n")
    x = {"metrics": read_json(t / "m.json"),
         "pulse": read_jsonl(t / "p.jsonl"),
         "cli_pulse": read_jsonl(t / "cli.jsonl"),
         "health": read_json(t / "h.json")}
    if enabled:
        run([fig6, f"--n={2 * N}", f"--maxp={MAXP}",
             f"--metrics={t / 'm2.json'}"])
        x["metrics_2n"] = read_json(t / "m2.json")
        x["flight"] = read_json(t / "flight.json").get("traceEvents")
    return x


# ---- selftest --------------------------------------------------------------

def clean_exports():
    """A small, internally consistent set of enabled-build exports."""
    counters = {name: 0 for name in sorted(required_counters())}
    counters.update({"core.block.deposits": 100,
                     "mpisim.wire.raw_bytes": 96,
                     "mpisim.wire.encoded_bytes": 28})
    ticks = [{"seq": 1, "ts_ms": 1005, "counters": {
                 "core.block.deposits": 60, "mpisim.wire.raw_bytes": 96}},
             {"seq": 2, "ts_ms": 1012, "counters": {
                 "core.block.deposits": 40,
                 "mpisim.wire.encoded_bytes": 28}}]
    header = {"hpsum_pulse": PULSE_VERSION, "enabled": True,
              "interval_ms": INTERVAL_MS, "epoch_ms": 1000}
    events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
               "args": {"name": f"mpisim {pid}"}} for pid in (0, 1)]
    for pid in (0, 1):
        for name in ("mpi.reduce", "local.reduce"):
            events.append({"name": name, "ph": "B", "pid": pid, "tid": 0,
                           "ts": 1, "args": {"reduction_id": 7}})
            events.append({"name": name, "ph": "E", "pid": pid, "tid": 0,
                           "ts": 2})
    return {
        "metrics": {"hpsum_trace": TRACE_VERSION, "enabled": True,
                    "counters": dict(counters)},
        "metrics_2n": {"hpsum_trace": TRACE_VERSION, "enabled": True,
                       "counters": {**counters, "core.block.deposits": 200}},
        "pulse": [header, *ticks],
        "flight": events,
        "cli_pulse": [header, *json.loads(json.dumps(ticks))],
        "health": {"hpsum_health": 1,
                   "indicators": hpsum_top.health_rows(counters)},
    }


def disabled_exports():
    x = clean_exports()
    x["metrics"]["enabled"] = False
    x["metrics"]["counters"] = {n: 0 for n in x["metrics"]["counters"]}
    x["pulse"] = [{**x["pulse"][0], "enabled": False}]
    x["cli_pulse"] = list(x["pulse"])
    x["health"]["indicators"] = hpsum_top.health_rows({})
    return x


def selftest():
    results = []

    def expect(label, failures, must_name=None):
        ok = (not failures if must_name is None else
              any(must_name in f for f in failures))
        results.append(ok)
        print(f"  selftest [{label}]: {'PASS' if ok else 'FAIL'}")
        for f in failures:
            print(f"    - {f}")

    def broken(mutate, enabled=True):
        x = clean_exports() if enabled else disabled_exports()
        mutate(x)
        return check_all(x, enabled)

    def set_in(path, value):
        def mutate(x):
            node = x
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        return mutate

    expect("clean exports", check_all(clean_exports()))
    expect("clean disabled exports",
           check_all(disabled_exports(), enabled=False))
    expect("wrong trace version",
           broken(set_in(["metrics", "hpsum_trace"], 2)), "wrong version")
    expect("wrong pulse version",
           broken(set_in(["pulse", 0, "hpsum_pulse"], 1)), "wrong version")
    expect("negative counter",
           broken(set_in(["metrics", "counters", "core.block.deposits"], -1)),
           "non-negative integer")
    expect("phantom counter",
           broken(set_in(["pulse", 2, "counters", "core.reduce.latency_ns"],
                         5)), "phantom counter")
    expect("non-monotone seq",
           broken(set_in(["pulse", 2, "seq"], 1)), "not monotone")
    expect("non-monotone ts_ms",
           broken(set_in(["pulse", 2, "ts_ms"], 1001)), "not monotone")
    expect("zero delta in a tick",
           broken(set_in(["pulse", 1, "counters", "atomic.cas.adds"], 0)),
           "zero delta")
    expect("unbalanced B/E span",
           broken(lambda x: x["flight"].pop()), "unbalanced B/E span")
    expect("nonzero counter in a disabled build",
           broken(set_in(["metrics", "counters", "core.block.deposits"], 3),
                  enabled=False), "disabled build")
    expect("pulse ticks in a disabled build",
           broken(lambda x: x["pulse"].append({"seq": 1, "ts_ms": 1001,
                                               "counters": {}}),
                  enabled=False), "header only")
    expect("health mirror drift",
           broken(set_in(["health", "indicators", 3, "level"], "fail")),
           "status.raise_rate level")
    expect("pulse totals differ from --metrics",
           broken(set_in(["pulse", 1, "counters", "core.block.deposits"],
                         61)), "summed deltas")
    print(f"telemetry_smoke --selftest: "
          f"{'PASS' if all(results) else 'FAIL'} "
          f"({sum(results)}/{len(results)})")
    return 0 if all(results) else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--build-dir", default="build",
                    help="CMake build dir holding bench/ and examples/")
    ap.add_argument("--expect-disabled", action="store_true",
                    help="check an HPSUM_TRACE=OFF build's contract")
    ap.add_argument("--selftest", action="store_true",
                    help="run the offline failure-injection selftest")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    build_dir = pathlib.Path(args.build_dir)
    enabled = not args.expect_disabled
    for binary in ("bench/fig6_mpi_scaling", "examples/exact_sum_cli"):
        if not (build_dir / binary).exists():
            print(f"telemetry_smoke: {build_dir / binary} not built",
                  file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="hpsum_telemetry_") as tmp:
        x = run_binaries(build_dir, tmp, enabled)
        failures = check_all(x, enabled)
    if failures:
        print("telemetry_smoke: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"telemetry_smoke: PASS "
          f"({'enabled' if enabled else 'disabled'} build)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
