#!/usr/bin/env python3
"""Decode an hpsum_flight binary dump into Chrome trace-event JSON.

The flight recorder (src/trace/flight.{hpp,cpp}) exports two formats:
Chrome JSON directly, or a compact binary dump (``--flight=FILE.bin`` on
the bench harnesses). This tool turns the latter into the former, byte
layout per docs/OBSERVABILITY.md:

  magic   8 bytes  "HPFLIGT1"
  u32     format version (2)
  u32     thread count
  per thread:
    u16   label length, then that many label bytes (UTF-8)
    u32   logical pid (backend/rank)
    u32   logical tid (thread/PE)
    u64   event count
    per event (32 bytes, little-endian):
      u64 ts_ns   steady-clock ns since the recorder epoch
      u16 id      EventId
      u16 phase   0=instant, 1=begin, 2=end
      u32 reserved
      u64 arg0
      u64 arg1

The emitted JSON matches flight::to_chrome_json(): one synthetic Chrome
pid per distinct (label, logical pid) lane, process_name/thread_name
metadata events, timestamps in microseconds with ns kept as the
fractional part, and per-event "args" decoded by the EventId contract.
Load the result in chrome://tracing or https://ui.perfetto.dev.

Usage: tools/flight2chrome.py FLIGHT.bin [-o OUT.json]

Exit status: 0 on success, 1 on a malformed dump, 2 on usage errors.
"""

import argparse
import json
import struct
import sys

MAGIC = b"HPFLIGT1"
VERSION = 2
EVENT_STRUCT = struct.Struct("<QHHIQQ")  # ts_ns, id, phase, reserved, a0, a1

# Mirrors flight::event_name / EventId in src/trace/flight.hpp.
EVENT_NAMES = [
    "reduction",        # 0
    "local.reduce",     # 1
    "pe.busy",          # 2
    "merge",            # 3
    "mpi.send",         # 4
    "mpi.recv",         # 5
    "mpi.reduce",       # 6
    "cuda.launch",      # 7
    "cuda.memcpy_h2d",  # 8
    "cuda.memcpy_d2h",  # 9
    "phi.offload",      # 10
    "status.raise",     # 11
]

# Sticky-status bit names, mirroring core/hp_status.hpp's to_string.
STATUS_BITS = [
    (1 << 0, "convert-overflow"),
    (1 << 1, "add-overflow"),
    (1 << 2, "to-double-overflow"),
    (1 << 3, "inexact"),
    (1 << 4, "to-double-inexact"),
    (1 << 5, "invalid-op"),
]
STATUS_MASK = 0x3F


class FormatError(Exception):
    pass


class Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise FormatError(f"truncated dump: wanted {n} bytes for {what} "
                              f"at offset {self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u16(self, what):
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]


def status_string(mask):
    names = [name for bit, name in STATUS_BITS if mask & bit]
    return "|".join(names) if names else "ok"


def decode_args(event_id, a0, a1):
    """Per-EventId args decode; mirrors flight::append_args."""
    name = EVENT_NAMES[event_id] if event_id < len(EVENT_NAMES) else "unknown"
    if name == "reduction":
        return {"reduction_id": a0, "items": a1}
    if name in ("local.reduce", "pe.busy"):
        return {"reduction_id": a0, "elements": a1}
    if name == "merge":
        return {"reduction_id": a0, "partials": a1}
    if name in ("mpi.send", "mpi.recv"):
        return {"rank": a0 >> 32, "peer": a0 & 0xFFFFFFFF,
                "reduction_id": a1 >> 32, "bytes": a1 & 0xFFFFFFFF}
    if name in ("mpi.reduce", "cuda.memcpy_h2d", "cuda.memcpy_d2h",
                "phi.offload"):
        return {"reduction_id": a0, "bytes": a1}
    if name == "cuda.launch":
        return {"reduction_id": a0, "threads": a1}
    if name == "status.raise":
        return {"status": status_string(a0 & STATUS_MASK), "mask": a0,
                "reduction_id": a1}
    return {"arg0": a0, "arg1": a1}


def parse_dump(data):
    r = Reader(data)
    if r.take(len(MAGIC), "magic") != MAGIC:
        raise FormatError(f"bad magic (expected {MAGIC!r}) — not an "
                          "hpsum_flight binary dump")
    version = r.u32("version")
    if version != VERSION:
        raise FormatError(f"unsupported format version {version} "
                          f"(this tool decodes version {VERSION})")
    thread_count = r.u32("thread count")
    threads = []
    for t in range(thread_count):
        label_len = r.u16(f"thread {t} label length")
        label = r.take(label_len, f"thread {t} label").decode(
            "utf-8", errors="replace")
        pid = r.u32(f"thread {t} pid")
        tid = r.u32(f"thread {t} tid")
        count = r.u64(f"thread {t} event count")
        raw = r.take(count * EVENT_STRUCT.size, f"thread {t} events")
        events = [EVENT_STRUCT.unpack_from(raw, i * EVENT_STRUCT.size)
                  for i in range(count)]
        threads.append({"label": label, "pid": pid, "tid": tid,
                        "events": events})
    if r.pos != len(data):
        raise FormatError(f"{len(data) - r.pos} trailing bytes after the "
                          "last thread record")
    return threads


def to_chrome(threads):
    # Same synthetic-pid scheme as flight::to_chrome_json: one Chrome pid
    # per distinct (label, logical pid) lane, in first-seen order from 1.
    lanes = {}

    def lane_pid(label, pid):
        return lanes.setdefault((label, pid), len(lanes) + 1)

    out = []
    for th in threads:
        pid = lane_pid(th["label"], th["pid"])
        out.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": f'{th["label"]} {th["pid"]}'}})
        out.append({"ph": "M", "name": "thread_name", "pid": pid,
                    "tid": th["tid"],
                    "args": {"name": f'{th["label"]}/t{th["tid"]}'}})
    for th in threads:
        pid = lane_pid(th["label"], th["pid"])
        for ts_ns, event_id, phase, _reserved, a0, a1 in th["events"]:
            name = (EVENT_NAMES[event_id] if event_id < len(EVENT_NAMES)
                    else "unknown")
            ev = {"name": name,
                  "ph": {1: "B", 2: "E"}.get(phase, "i"),
                  "pid": pid, "tid": th["tid"],
                  "ts": ts_ns / 1000.0,
                  "args": decode_args(event_id, a0, a1)}
            if ev["ph"] == "i":
                ev["s"] = "t"
            out.append(ev)
    return {"traceEvents": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("dump", help="hpsum_flight binary dump (--flight=X.bin)")
    ap.add_argument("-o", "--output", default="-",
                    help="output JSON path (default: stdout)")
    args = ap.parse_args()

    try:
        with open(args.dump, "rb") as f:
            data = f.read()
    except OSError as e:
        print(f"flight2chrome: {e}", file=sys.stderr)
        return 2

    try:
        threads = parse_dump(data)
    except FormatError as e:
        print(f"flight2chrome: {args.dump}: {e}", file=sys.stderr)
        return 1

    text = json.dumps(to_chrome(threads), indent=1)
    if args.output in ("-", ""):
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    n_events = sum(len(t["events"]) for t in threads)
    print(f"flight2chrome: decoded {len(threads)} threads, "
          f"{n_events} events", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
