#!/usr/bin/env python3
"""Telemetry smoke gate: every export of the hpsum telemetry stack, checked
from one place (schemas in docs/OBSERVABILITY.md).

Runs, from --build-dir:

  1. bench/fig6_mpi_scaling at n with --metrics and --flight together;
  2. bench/fig6_mpi_scaling at 2n with --metrics;
  3. examples/exact_sum_cli with --health on a fixed input.

and checks:

  * --metrics: ``"hpsum_trace": 3``, ``"enabled": true``, a ``counters``
    object of non-negative integers and nothing else;
    ``core.block.deposits`` is nonzero (fig6 runs the block path) and
    does not shrink from n to 2n;
  * --flight: >= 2 mpisim rank lanes, a ``reduction_id`` shared by
    ``mpi.reduce`` spans on >= 2 lanes and by a ``local.reduce`` span,
    balanced B/E spans per track;
  * --health: ``"hpsum_health": 1`` and six uniquely named indicators;
    each non-n/a indicator's ``ratio`` is ``numerator / denominator`` and
    its ``level`` follows ``warn_at``/``fail_at`` in the direction
    ``higher_is_better`` gives; ``overall`` is the worst non-n/a level;
    the rules the CLI run engages (block.fast_coverage,
    snapshot.retry_rate) have nonzero denominators. The rules themselves
    live only in src/audit/health.cpp; this checks the report against its
    own numbers.

With --expect-disabled (an HPSUM_TRACE=OFF build) the gate flips: the
--metrics export is ``"enabled": false`` with every counter zero, and
every health indicator is n/a.

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
import math
import pathlib
import subprocess
import sys
import tempfile

TRACE_VERSION = 3
HEALTH_VERSION = 1
HEALTH_RULES = 6
N = 200_000
MAXP = 16
# fig6 runs the block path: this counter is nonzero and grows with n.
BLOCK_DEPOSITS = "core.block.deposits"
# The exact_sum_cli run: a block-path reduction plus an engine pass, so the
# block, status and snapshot rules have nonzero denominators.
CLI_VALUES = [f"{i}.25" for i in range(1, 5001)]
CLI_FLAGS = ["--shards=2", "--snapshot-every=256"]
CLI_ENGAGED_RULES = ("block.fast_coverage", "snapshot.retry_rate")
# Worst first; "n/a" (the rule's subsystem did not run) never counts.
LEVELS = ("fail", "warn", "ok")


def nonneg_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


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
    return counters


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


def threshold_level(ind, ratio):
    """The level `ratio` earns against the indicator's own thresholds."""
    if ind["higher_is_better"]:
        if ratio >= ind["warn_at"]:
            return "ok"
        return "warn" if ratio >= ind["fail_at"] else "fail"
    if ratio <= ind["warn_at"]:
        return "ok"
    return "warn" if ratio <= ind["fail_at"] else "fail"


def check_health(report, failures, enabled=True):
    """The exact_sum_cli --health report, against its own numbers."""
    if report.get("hpsum_health") != HEALTH_VERSION:
        failures.append(f"health: wrong version: \"hpsum_health\" is "
                        f"{report.get('hpsum_health')!r}, expected "
                        f"{HEALTH_VERSION}")
        return
    indicators = report.get("indicators")
    if not isinstance(indicators, list):
        failures.append("health: \"indicators\" list missing")
        return
    names = [ind.get("name") for ind in indicators]
    if len(names) != HEALTH_RULES or len(set(names)) != HEALTH_RULES:
        failures.append(f"health: indicators {names} are not "
                        f"{HEALTH_RULES} uniquely named rules")
    levels = []
    for ind in indicators:
        name, level = ind.get("name"), ind.get("level")
        num, den = ind.get("numerator"), ind.get("denominator")
        if not (nonneg_int(num) and nonneg_int(den)):
            failures.append(f"health: {name} numerator/denominator "
                            f"{num!r}/{den!r} are not non-negative "
                            "integers")
            continue
        if level == "n/a":
            continue
        if not enabled:
            failures.append(f"health: {name} level is {level!r} in a "
                            "disabled build, expected n/a")
        if den == 0:
            failures.append(f"health: {name} level is {level!r} over a "
                            "zero denominator, expected n/a")
            continue
        ratio = num / den
        # The report prints ratios with 6 significant digits.
        if not math.isclose(ind.get("ratio", math.nan), ratio,
                            rel_tol=1e-5, abs_tol=1e-12):
            failures.append(f"health: {name} ratio {ind.get('ratio')!r} "
                            f"is not numerator/denominator = {ratio:.6g}")
        want = threshold_level(ind, ratio)
        if level != want:
            failures.append(f"health: {name} level is {level!r}, its "
                            f"thresholds give {want!r} at ratio "
                            f"{ratio:.6g}")
        levels.append(level)
    overall = next((lv for lv in LEVELS if lv in levels), "n/a")
    if report.get("overall") != overall:
        failures.append(f"health: overall is {report.get('overall')!r}, "
                        f"the worst indicator level is {overall!r}")
    if enabled:
        by_name = {ind.get("name"): ind for ind in indicators}
        for name in CLI_ENGAGED_RULES:
            if by_name.get(name, {}).get("denominator", 0) == 0:
                failures.append(f"health: {name} has a zero denominator — "
                                "the CLI run did not engage it")


def check_all(x, enabled=True):
    """Every check over one set of parsed exports (see run_binaries)."""
    failures = []
    catalog = check_metrics(x["metrics"], failures, "metrics", enabled)
    check_health(x["health"], failures, enabled)
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


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def run_binaries(build_dir, tmp, enabled):
    fig6 = build_dir / "bench" / "fig6_mpi_scaling"
    cli = build_dir / "examples" / "exact_sum_cli"
    t = pathlib.Path(tmp)
    flight = [f"--flight={t / 'flight.json'}"] if enabled else []
    run([fig6, f"--n={N}", f"--maxp={MAXP}", f"--metrics={t / 'm.json'}",
         *flight])
    run([cli, f"--health={t / 'h.json'}", *CLI_FLAGS],
        stdin="\n".join(CLI_VALUES) + "\n")
    x = {"metrics": read_json(t / "m.json"),
         "health": read_json(t / "h.json")}
    if enabled:
        run([fig6, f"--n={2 * N}", f"--maxp={MAXP}",
             f"--metrics={t / 'm2.json'}"])
        x["metrics_2n"] = read_json(t / "m2.json")
        x["flight"] = read_json(t / "flight.json").get("traceEvents")
    return x


# ---- selftest --------------------------------------------------------------

def indicator(name, num, den, warn_at, fail_at, higher_is_better,
              level):
    """One --health indicator as exact_sum_cli renders it."""
    ratio = float(f"{num / den:.6g}") if level != "n/a" else 0
    return {"name": name, "level": level, "ratio": ratio, "numerator": num,
            "denominator": den, "warn_at": warn_at, "fail_at": fail_at,
            "higher_is_better": higher_is_better}


def clean_exports():
    """A small, internally consistent set of enabled-build exports."""
    counters = {"core.block.deposits": 100, "core.scatter_add.calls": 0,
                "mpisim.wire.raw_bytes": 96,
                "mpisim.wire.encoded_bytes": 28}
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
        "flight": events,
        "health": {"hpsum_health": HEALTH_VERSION, "overall": "warn",
                   "indicators": [
            indicator("scatter.fast_path_coverage", 0, 0, 0.5, 0.2, True,
                      "n/a"),
            indicator("block.fast_coverage", 2992, 3000, 0.5, 0.2, True,
                      "ok"),
            indicator("atomic.cas_retry_rate", 0, 0, 0.5, 2, False, "n/a"),
            indicator("status.raise_rate", 0, 3000, 0.25, 0.75, False, "ok"),
            indicator("mpisim.wire_compression", 0, 0, 0.5, 0.9, False,
                      "n/a"),
            indicator("snapshot.retry_rate", 3, 4, 0.5, 2, False, "warn"),
        ]},
    }


def disabled_exports():
    x = clean_exports()
    x["metrics"]["enabled"] = False
    x["metrics"]["counters"] = {n: 0 for n in x["metrics"]["counters"]}
    x["health"]["overall"] = "n/a"
    x["health"]["indicators"] = [
        {**ind, "level": "n/a", "ratio": 0, "numerator": 0,
         "denominator": 0} for ind in x["health"]["indicators"]]
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
    expect("negative counter",
           broken(set_in(["metrics", "counters", "core.block.deposits"], -1)),
           "non-negative integer")
    expect("unbalanced B/E span",
           broken(lambda x: x["flight"].pop()), "unbalanced B/E span")
    expect("nonzero counter in a disabled build",
           broken(set_in(["metrics", "counters", "core.block.deposits"], 3),
                  enabled=False), "disabled build")
    expect("health ratio is not numerator/denominator",
           broken(set_in(["health", "indicators", 1, "ratio"], 0.5)),
           "block.fast_coverage ratio 0.5 is not numerator/denominator")
    expect("health level disagrees with its thresholds",
           broken(set_in(["health", "indicators", 3, "level"], "fail")),
           "status.raise_rate level is 'fail', its thresholds give 'ok'")
    expect("wrong health overall",
           broken(set_in(["health", "overall"], "ok")),
           "overall is 'ok', the worst indicator level is 'warn'")
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
