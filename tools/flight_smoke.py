#!/usr/bin/env python3
"""Flight-recorder smoke gate for the hpsum_flight timeline export.

Runs bench/fig6_mpi_scaling with --flight=FILE and validates the exported
Chrome trace-event JSON end to end:

  * the document is well-formed JSON with a ``traceEvents`` array whose
    entries carry the Chrome schema (name/ph/pid/tid/ts, "M" metadata),
  * at least two distinct mpisim rank lanes appear (process_name metadata
    "mpisim <rank>"), i.e. the per-rank tracks actually got labeled,
  * ``mpi.reduce`` spans from >= 2 different rank lanes share a
    reduction_id — the cross-rank correlation key works,
  * ``local.reduce`` spans (each rank's local phase, reduce_hp) appear on
    >= 2 rank lanes, and at least one shares its reduction_id with an
    ``mpi.reduce`` span — the local phase is on the same timeline as the
    collective it feeds, and
  * every (pid, tid) track has matched B/E counts per event name, so the
    spans nest instead of leaking.

Also round-trips the binary dump: a second run with --flight=FILE.bin is
decoded by tools/flight2chrome.py and must yield the same event multiset
(name, ph, pid) as the JSON export modulo timing jitter — we only check
shape, not timestamps.

Exit status: 0 on pass, 1 on a validation failure, 2 on usage/environment
errors. Registered as the ``flight_smoke`` ctest when the build has
HPSUM_TRACE=ON, which the release-tests CI job runs.
"""

import argparse
import collections
import json
import pathlib
import subprocess
import sys
import tempfile


def run_fig6(bench, n, maxp, flight_path):
    cmd = [str(bench), f"--n={n}", f"--maxp={maxp}",
           f"--flight={flight_path}"]
    print("+", " ".join(cmd))
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"{bench} exited {proc.returncode}")


def load_events(path, failures):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        failures.append(f"flight export is not well-formed JSON: {e}")
        return []
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        failures.append('"traceEvents" array missing or empty')
        return []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            failures.append(f"traceEvents[{i}] is not an object")
            return []
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                failures.append(f"traceEvents[{i}] missing {key!r}")
                return []
        if ev["ph"] != "M" and "ts" not in ev:
            failures.append(f"traceEvents[{i}] ({ev['name']}) missing 'ts'")
            return []
    return events


def validate(events, failures):
    # Rank lanes: process_name metadata named "mpisim <rank>".
    rank_pids = {}
    for ev in events:
        if ev["ph"] == "M" and ev["name"] == "process_name":
            label = ev.get("args", {}).get("name", "")
            if label.startswith("mpisim "):
                rank_pids[ev["pid"]] = label
    print(f"  mpisim rank lanes: {len(rank_pids)} "
          f"({', '.join(sorted(rank_pids.values()))})")
    if len(rank_pids) < 2:
        failures.append(f"expected >= 2 mpisim rank lanes, got "
                        f"{len(rank_pids)} — per-rank set_track never ran?")

    # Correlation: some reduction_id must appear in mpi.reduce spans on at
    # least two distinct rank lanes (one logical reduction, many ranks).
    rid_to_pids = collections.defaultdict(set)
    for ev in events:
        if ev["name"] == "mpi.reduce" and ev["ph"] == "B" \
                and ev["pid"] in rank_pids:
            rid = ev.get("args", {}).get("reduction_id")
            if rid is not None:
                rid_to_pids[rid].add(ev["pid"])
    correlated = [rid for rid, pids in rid_to_pids.items() if len(pids) >= 2]
    print(f"  mpi.reduce reduction ids: {len(rid_to_pids)} total, "
          f"{len(correlated)} spanning >= 2 ranks")
    if not rid_to_pids:
        failures.append("no mpi.reduce begin spans with a reduction_id")
    elif not correlated:
        failures.append("no reduction_id is shared by mpi.reduce spans on "
                        ">= 2 rank lanes — the correlation key is broken")

    # Local phases: each rank's reduce_hp emits local.reduce on its own
    # lane, tagged with the reduction it feeds.
    local = [ev for ev in events if ev["name"] == "local.reduce"
             and ev["ph"] == "B" and ev["pid"] in rank_pids]
    local_pids = {ev["pid"] for ev in local}
    linked = [ev for ev in local
              if ev.get("args", {}).get("reduction_id") in rid_to_pids]
    print(f"  local.reduce spans: {len(local)} on {len(local_pids)} rank "
          f"lanes, {len(linked)} sharing a reduction_id with mpi.reduce")
    if len(local_pids) < 2:
        failures.append(f"expected local.reduce spans on >= 2 mpisim rank "
                        f"lanes, got {len(local_pids)}")
    elif not linked:
        failures.append("no local.reduce span shares its reduction_id with "
                        "an mpi.reduce span")

    # Span hygiene: B/E counts must match per (pid, tid, name).
    depth = collections.Counter()
    for ev in events:
        key = (ev["pid"], ev["tid"], ev["name"])
        if ev["ph"] == "B":
            depth[key] += 1
        elif ev["ph"] == "E":
            depth[key] -= 1
    unbalanced = {k: v for k, v in depth.items() if v != 0}
    if unbalanced:
        for (pid, tid, name), v in sorted(unbalanced.items()):
            failures.append(f"unbalanced span {name!r} on pid={pid} "
                            f"tid={tid}: B-E = {v:+d}")


def shape(events):
    """Timestamp-free event multiset for JSON-vs-binary comparison."""
    return collections.Counter(
        (ev["name"], ev["ph"], ev["pid"]) for ev in events)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", default=None,
                    help="path to the fig6_mpi_scaling binary")
    ap.add_argument("--build-dir", default="build",
                    help="CMake build dir (used when --bench is not given)")
    ap.add_argument("--n", type=int, default=20_000,
                    help="summands for the smoke run")
    ap.add_argument("--maxp", type=int, default=4,
                    help="max rank count for the smoke run")
    ap.add_argument("--skip-binary", action="store_true",
                    help="skip the binary-dump round-trip check")
    args = ap.parse_args()

    bench = pathlib.Path(args.bench) if args.bench else \
        pathlib.Path(args.build_dir) / "bench" / "fig6_mpi_scaling"
    if not bench.exists():
        print(f"flight_smoke: {bench} not built", file=sys.stderr)
        return 2
    decoder = pathlib.Path(__file__).resolve().parent / "flight2chrome.py"

    failures = []
    with tempfile.TemporaryDirectory(prefix="hpsum_flight_") as tmp:
        json_path = pathlib.Path(tmp) / "flight.json"
        run_fig6(bench, args.n, args.maxp, json_path)
        events = load_events(json_path, failures)
        if events:
            validate(events, failures)

        if events and not args.skip_binary:
            bin_path = pathlib.Path(tmp) / "flight.bin"
            decoded_path = pathlib.Path(tmp) / "decoded.json"
            run_fig6(bench, args.n, args.maxp, bin_path)
            cmd = [sys.executable, str(decoder), str(bin_path),
                   "-o", str(decoded_path)]
            print("+", " ".join(cmd))
            if subprocess.run(cmd).returncode != 0:
                failures.append("flight2chrome.py failed to decode the "
                                "binary dump")
            else:
                decoded = load_events(decoded_path, failures)
                if decoded:
                    validate(decoded, failures)
                    # Same workload, same recorder: the two exports must
                    # describe the same lanes even if event counts differ
                    # by scheduling (ring drops are counted, not hidden).
                    json_lanes = {k[2] for k in shape(events)}
                    bin_lanes = {k[2] for k in shape(decoded)}
                    if json_lanes != bin_lanes:
                        failures.append(
                            f"binary dump decoded to different lanes "
                            f"({sorted(bin_lanes)}) than the JSON export "
                            f"({sorted(json_lanes)})")

    if failures:
        print("flight_smoke: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"flight_smoke: PASS ({len(events)} events, rank lanes + "
          "correlation + local phases + span balance ok)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
