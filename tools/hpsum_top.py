#!/usr/bin/env python3
"""hpsum_top — a live terminal dashboard over the hpsum_pulse JSONL stream.

Tails the stream a binary running with --pulse=FILE (or HPSUM_PULSE)
appends to, and renders a refreshing top-style view:

  * per-tick counter *rates* (delta / tick wall time) for the busiest
    counters, plus cumulative totals accumulated from the deltas,
  * the derived health indicators of src/audit/health.cpp — the same
    ratios and ok/warn/fail thresholds, recomputed in Python over the
    accumulated totals so the dashboard needs nothing but the stream.

Usage:
  tools/hpsum_top.py pulse.jsonl              # follow live (Ctrl-C to stop)
  tools/hpsum_top.py pulse.jsonl --once       # render current state, exit
  tools/hpsum_top.py pulse.jsonl --max-seconds 10   # bounded follow (CI)

The dashboard is read-only and stateless across restarts: totals are the
sum of the deltas it has seen, so attaching mid-run shows the activity
since attach (rates are exact either way).

Exit status: 0 on a clean stop (EOF in --once, timeout, Ctrl-C), 2 on
usage errors (missing stream, malformed header).
"""

import argparse
import json
import sys
import time

# The health-rule catalog, mirroring src/audit/health.cpp (name,
# numerator counters, denominator counters, warn_at, fail_at,
# higher_is_better, na_when_equal). tools/telemetry_smoke.py checks that
# this copy evaluates exactly like the C++ table.
HEALTH_RULES = [
    ("scatter.fast_path_coverage",
     ["core.scatter_add.calls"],
     ["core.scatter_add.calls", "core.reference_add.calls"],
     0.50, 0.20, True, False),
    ("block.fast_coverage",
     ["core.block.simd_deposits", "core.block.chunk_deposits"],
     ["core.block.deposits"],
     0.50, 0.20, True, False),
    ("atomic.cas_retry_rate",
     ["atomic.cas.retries"],
     ["atomic.cas.adds"],
     0.50, 2.00, False, False),
    ("status.raise_rate",
     ["core.status_raise.convert_overflow", "core.status_raise.add_overflow",
      "core.status_raise.to_double_overflow", "core.status_raise.inexact",
      "core.status_raise.to_double_inexact", "core.status_raise.invalid_op"],
     ["core.scatter_add.calls", "core.reference_add.calls",
      "core.block.deposits"],
     0.25, 0.75, False, False),
    ("mpisim.wire_compression",
     ["mpisim.wire.encoded_bytes"],
     ["mpisim.wire.raw_bytes"],
     0.50, 0.90, False, True),
    ("snapshot.retry_rate",
     ["engine.snapshot.retries"],
     ["engine.snapshot.count"],
     0.50, 2.00, False, False),
]

LEVEL_COLORS = {"ok": "\x1b[32m", "warn": "\x1b[33m", "fail": "\x1b[31m",
                "n/a": "\x1b[2m"}


class State:
    def __init__(self, header):
        self.header = header
        self.counters = {}       # cumulative totals from deltas
        self.last_tick = None
        self.prev_ts = header.get("epoch_ms", 0)
        self.last_dt_ms = header.get("interval_ms", 250)
        self.ticks = 0

    def apply(self, tick):
        self.ticks += 1
        ts = tick.get("ts_ms", self.prev_ts)
        self.last_dt_ms = max(ts - self.prev_ts, 1)
        self.prev_ts = ts
        self.last_tick = tick
        for name, v in tick.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + v


def judge(ratio, warn_at, fail_at, higher_is_better):
    if higher_is_better:
        if ratio >= warn_at:
            return "ok"
        return "warn" if ratio >= fail_at else "fail"
    if ratio <= warn_at:
        return "ok"
    return "warn" if ratio <= fail_at else "fail"


def health_rows(counters):
    """Evaluates every rule over `counters` (name -> total). Each row has
    the fields of one "indicators" entry of the C++ --health JSON."""
    rows = []
    for name, num, den, warn_at, fail_at, hib, na_eq in HEALTH_RULES:
        n = sum(counters.get(c, 0) for c in num)
        d = sum(counters.get(c, 0) for c in den)
        na = d == 0 or (na_eq and n == d)
        ratio = 0.0 if na else n / d
        rows.append({"name": name,
                     "level": "n/a" if na else judge(ratio, warn_at,
                                                     fail_at, hib),
                     "ratio": ratio, "numerator": n, "denominator": d,
                     "warn_at": warn_at, "fail_at": fail_at,
                     "higher_is_better": hib})
    return rows


def render(state, color=True):
    def paint(level, text):
        if not color:
            return text
        return f"{LEVEL_COLORS.get(level, '')}{text}\x1b[0m"

    lines = []
    hdr = state.header
    lines.append(f"hpsum_top — pulse stream (interval {hdr.get('interval_ms')}"
                 f" ms, {state.ticks} ticks, last dt {state.last_dt_ms} ms)")
    lines.append("")
    lines.append("HEALTH")
    for row in health_rows(state.counters):
        level = row["level"]
        shown = f"{row['ratio']:8.3f}" if level != "n/a" else "       —"
        lines.append(f"  {paint(level, f'{level:>4}')}  {row['name']:30s} "
                     f"{shown}")
    lines.append("")
    lines.append(f"{'COUNTER':36s} {'RATE/s':>14s} {'TOTAL':>16s}")
    last = state.last_tick.get("counters", {}) if state.last_tick else {}
    dt_s = state.last_dt_ms / 1000.0
    busiest = sorted(state.counters, key=lambda n: -last.get(n, 0))[:12]
    for name in busiest:
        rate = last.get(name, 0) / dt_s
        lines.append(f"{name:36s} {rate:>14,.0f} {state.counters[name]:>16,}")
    return "\n".join(lines)


def follow(path, args):
    state = None
    deadline = time.monotonic() + args.max_seconds if args.max_seconds else None
    last_render = 0.0
    with open(path, "r", encoding="utf-8") as f:
        while True:
            line = f.readline()
            if line:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    continue  # partially-written tail line; retry on next read
                if state is None:
                    if doc.get("hpsum_pulse") != 2:
                        print("hpsum_top: not a pulse stream (bad header)",
                              file=sys.stderr)
                        return 2
                    if doc.get("enabled") is False:
                        print("hpsum_top: stream from an HPSUM_TRACE=OFF "
                              "build — nothing to show")
                        return 0
                    state = State(doc)
                else:
                    state.apply(doc)
                continue
            # EOF: render what we have, then either stop or keep tailing.
            now = time.monotonic()
            if state is not None and now - last_render >= args.refresh:
                out = render(state, color=not args.no_color)
                if args.once:
                    print(out)
                else:
                    sys.stdout.write("\x1b[2J\x1b[H" + out + "\n")
                    sys.stdout.flush()
                last_render = now
            if args.once:
                return 0
            if deadline is not None and now >= deadline:
                return 0
            time.sleep(min(args.refresh, 0.2))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("stream", nargs="?", default="pulse.jsonl",
                    help="pulse JSONL stream to tail (default pulse.jsonl)")
    ap.add_argument("--once", action="store_true",
                    help="render the stream's current state once and exit")
    ap.add_argument("--max-seconds", type=float, default=0,
                    help="stop following after this many seconds (0 = forever)")
    ap.add_argument("--refresh", type=float, default=0.5,
                    help="redraw interval while following")
    ap.add_argument("--no-color", action="store_true",
                    help="disable ANSI colors")
    args = ap.parse_args()

    try:
        return follow(args.stream, args)
    except FileNotFoundError:
        print(f"hpsum_top: stream {args.stream} does not exist (start a "
              "binary with --pulse first)", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print()
        return 0
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that's a clean stop.
        return 0


if __name__ == "__main__":
    sys.exit(main())
