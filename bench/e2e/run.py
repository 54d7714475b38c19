#!/usr/bin/env python3
"""End-to-end benchmark for hpsum (see README.md beside this file).

One workload, the benchmark contract (last stdout line is the JSON result):
  python3 bench/e2e/run.py --workload uniform --seed 1 --seconds 20 --trace 0

Every workload, each in its own process, saved as a result set:
  python3 bench/e2e/run.py --seed 1 --repeat 10 --out a.json

Compare two result sets metric by metric against the bounds in
BENCHMARK.json:
  python3 bench/e2e/run.py compare a.json b.json

Small inputs, every check on (about 1 s per workload):
  python3 bench/e2e/run.py --smoke

Check that compare flags what it must:
  python3 bench/e2e/run.py --selftest

The C++ driver (hpsum_e2e.cpp) is built from the repository sources into
$CARGO_TARGET_DIR/hpsum_e2e (default .bench_build/hpsum_e2e) on first use.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["uniform", "wide"]
# Fingerprint fields that must match before two result sets are compared.
# The commit is recorded but expected to differ: comparing commits is the
# point of compare.
HOST_KEYS = ["nproc", "pes", "cpu_quota", "simd", "trace_enabled", "compiler",
             "build_type"]
RUN_TIMEOUT_S = 150


def fail(msg: str, code: int = 2) -> None:
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


# ------------------------------------------------------------------ build

def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "hpsum_e2e"


def build() -> Path:
    """Configures (once) and builds the driver; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"hpsum sources not found under {ROOT}; the benchmark builds "
             "them from a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "hpsum_e2e",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, capture_output=True, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:] + res.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))
    return out / "hpsum_e2e"


# ------------------------------------------------------------ fingerprint

def cpu_quota() -> str:
    try:
        return Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        return "unknown"


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


# -------------------------------------------------------------- one run

def run_one(binary: Path, workload: str, seed: int, seconds: float,
            trace_file: str | None, smoke: bool) -> dict:
    """Runs the driver once in its own process; returns its report."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if smoke:
        cmd.append("--smoke")
    if trace_file:
        Path(trace_file).parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={trace_file}")
    env = {k: v for k, v in os.environ.items()
           if k not in ("HPSUM_FLIGHT", "HPSUM_PULSE")}
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed}: driver timed out after {RUN_TIMEOUT_S} s")
    lines = res.stdout.strip().splitlines()
    if res.returncode not in (0, 1) or not lines:
        sys.stderr.write(res.stderr)
        fail(f"{workload} seed {seed}: driver exited {res.returncode}")
    report = json.loads(lines[-1])
    report["fingerprint"]["cpu_quota"] = cpu_quota()
    report["trace"] = bool(trace_file)
    return report


def fmt(v: float) -> str:
    return f"{v:.6g}"


def print_report(spec: dict, r: dict) -> None:
    ok = "ok" if r["failed"] == 0 else f"{r['failed']} FAILED {r['failures']}"
    t = r["tails"]
    print(f"== {r['workload']} seed {r['seed']}: {int(t['rounds'])} rounds "
          f"after {fmt(t['generate_s'])} s of input generation, "
          f"checks {r['attempted'] - r['failed']}/{r['attempted']} {ok}")
    for m in spec["end_to_end"]:
        v = r["end_to_end"][m["name"]]
        print(f"  {m['name']:<20} {fmt(v):>12} {m['unit']:<12} "
              f"({m['better']} is better, bound {m['bound']:.0%})")
    print(f"  fail_rate            {r['failed'] / r['attempted']:>12.6g} "
          f"failed/attempted (bound 0 absolute)")
    print(f"  allreduce over {int(t['allreduce_blocks'])} blocks of 32 steps: "
          f"p50 {fmt(t['allreduce_p50_us'])} us, "
          f"p99 {fmt(t['allreduce_p99_us'])} us, "
          f"p{100 * t['allreduce_tail_q']:.7g} {fmt(t['allreduce_tail_us'])} us")
    print(f"  snapshot over {int(t['snapshot_calls'])} calls: "
          f"p50 {fmt(t['snapshot_p50_us'])} us, "
          f"p99 {fmt(t['snapshot_p99_us'])} us, "
          f"p{100 * t['snapshot_tail_q']:.7g} {fmt(t['snapshot_tail_us'])} us; "
          f"{int(t['deposit_windows'])} deposit windows")
    if r["trace"]:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<36} {fmt(r['per_layer'][m['name']]):>12} "
                  f"{m['unit']}")
        for name, a in r["spans"].items():
            if a["count"]:
                print(f"  span {name:<28} n={int(a['count']):<9} "
                      f"total={fmt(a['total_ms'])} ms self={fmt(a['self_ms'])} ms")
    fp = r["fingerprint"]
    print("  fingerprint " + " ".join(f"{k}={fp[k]}" for k in HOST_KEYS))


def contract_line(spec: dict, r: dict) -> str:
    """The benchmark contract's result: end-to-end metrics untraced,
    per-layer metrics traced."""
    kind, src = ("per_layer", r["per_layer"]) if r["trace"] else \
        ("end_to_end", r["end_to_end"])
    metrics = {}
    for m in spec[kind]:
        if m["name"] not in src:
            fail(f"driver did not report {m['name']}")
        metrics[m["name"]] = {"value": src[m["name"]], "unit": m["unit"]}
    return json.dumps({"correct": r["failed"] == 0,
                       "attempted": int(r["attempted"]),
                       "failed": int(r["failed"]), "metrics": metrics})


# -------------------------------------------------------------- compare

def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple:
    """Verdict for one (metric, workload) pair: same, better, worse or
    unresolved (run-to-run spread wider than the bound)."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = -1.0 if better == "lower" else 1.0
    gain = sign * (bm - am) / am          # > 0: B is better
    spread = max((a3 - a1) / am, (b3 - b1) / bm)

    def wins(x: float, y: float) -> bool:
        return sign * (y - x) > 0

    all_better = all(wins(x, y) for x in a for y in b)
    paired = list(zip(a, b))
    pair_wins = sum(wins(x, y) for x, y in paired)
    if spread > bound:
        v = "better" if all_better else "unresolved"
    elif -gain > bound:
        v = "worse"
    elif gain > (a3 - a1) / am and paired and pair_wins >= 0.9 * len(paired):
        v = "better"
    else:
        v = "same"
    return v, (a1, am, a3), (b1, bm, b3), gain, spread


def compare_sets(spec: dict, a: dict, b: dict) -> list[dict]:
    """Rows of (workload, metric, verdict, ...). Raises ValueError when the
    two sets come from different hosts or builds."""
    fa, fb = a["fingerprint"], b["fingerprint"]
    diff = [k for k in HOST_KEYS if fa.get(k) != fb.get(k)]
    if diff:
        raise ValueError("fingerprints differ in " + ", ".join(
            f"{k} ({fa.get(k)} vs {fb.get(k)})" for k in diff))
    rows = []
    workloads = [w for w in WORKLOADS
                 if any(r["workload"] == w for r in a["runs"])
                 and any(r["workload"] == w for r in b["runs"])]
    for w in workloads:
        ra = [r for r in a["runs"] if r["workload"] == w]
        rb = [r for r in b["runs"] if r["workload"] == w]
        for m in spec["end_to_end"]:
            va = [r["end_to_end"][m["name"]] for r in ra]
            vb = [r["end_to_end"][m["name"]] for r in rb]
            v, qa, qb, gain, spread = verdict(va, vb, m["better"], m["bound"])
            rows.append({"workload": w, "metric": m["name"], "verdict": v,
                         "a": qa, "b": qb, "gain": gain, "spread": spread,
                         "bound": m["bound"]})
        # fail_rate: failed / attempted checks, bound 0 absolute.
        fa_rate = sum(r["failed"] for r in ra) / sum(r["attempted"] for r in ra)
        fb_rate = sum(r["failed"] for r in rb) / sum(r["attempted"] for r in rb)
        v = ("worse" if fb_rate > fa_rate else
             "better" if fb_rate < fa_rate else "same")
        rows.append({"workload": w, "metric": "fail_rate", "verdict": v,
                     "a": (fa_rate,) * 3, "b": (fb_rate,) * 3,
                     "gain": fa_rate - fb_rate, "spread": 0.0, "bound": 0.0})
    return rows


def cmd_compare(spec: dict, path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    try:
        rows = compare_sets(spec, a, b)
    except ValueError as e:
        print(f"compare refused: {e}")
        return 3
    print(f"A = {path_a} (commit {a['fingerprint'].get('commit')}), "
          f"B = {path_b} (commit {b['fingerprint'].get('commit')})")
    print(f"{'workload':<10} {'metric':<18} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'gain':>8} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for r in rows:
        qa = f"{fmt(r['a'][1])} [{fmt(r['a'][0])}, {fmt(r['a'][2])}]"
        qb = f"{fmt(r['b'][1])} [{fmt(r['b'][0])}, {fmt(r['b'][2])}]"
        print(f"{r['workload']:<10} {r['metric']:<18} {qa:>32} {qb:>32} "
              f"{r['gain']:>+8.2%} {r['spread']:>7.2%} {r['bound']:>6.0%}  "
              f"{r['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("same", "better", "worse", "unresolved")}
    print("verdicts: " + ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0


# -------------------------------------------------------------- selftest

def cmd_selftest(spec: dict) -> int:
    """Injects a 20% slowdown, a fail_rate rise and a fingerprint mismatch
    into synthetic result sets and asserts that compare flags each one."""
    fp = {"nproc": 4, "pes": 4, "cpu_quota": "max 100000", "simd": "avx2",
          "trace_enabled": True, "compiler": "gcc", "build_type": "Release",
          "commit": "a"}

    def make_set(jitter: float, scale=None, failed=0) -> dict:
        runs = []
        for w in WORKLOADS:
            for i in range(10):
                wobble = 1.0 + jitter * ((i * 7) % 10 - 4.5) / 4.5
                e2e = {m["name"]: 100.0 * wobble for m in spec["end_to_end"]}
                if scale and scale[0] == w:
                    e2e[scale[1]] *= scale[2]
                runs.append({"workload": w, "seed": i, "end_to_end": e2e,
                             "attempted": 1000,
                             "failed": failed if (w, i) == ("wide", 3) else 0})
        return {"fingerprint": dict(fp), "runs": runs}

    base = make_set(0.01)
    checks = []

    def verdict_of(rows, w, metric):
        return next(r["verdict"] for r in rows
                    if r["workload"] == w and r["metric"] == metric)

    rows = compare_sets(spec, base, make_set(0.012))
    checks.append(("identical sets read as same",
                   all(r["verdict"] == "same" for r in rows)))
    for m in spec["end_to_end"]:
        # 20% slower, or twice the bound where the bound allows 20%.
        slower = max(0.2, 2 * m["bound"])
        factor = 1 / (1 + slower) if m["better"] == "higher" else 1 + slower
        rows = compare_sets(spec, base, make_set(0.01, ("uniform", m["name"], factor)))
        checks.append((f"20% slowdown of {m['name']} is worse",
                       verdict_of(rows, "uniform", m["name"]) == "worse"))
        checks.append((f"slowdown of {m['name']} leaves other pairs same",
                       all(r["verdict"] == "same" for r in rows
                           if (r["workload"], r["metric"]) != ("uniform", m["name"]))))
    rows = compare_sets(spec, base, make_set(0.01, failed=1))
    checks.append(("fail_rate rise is worse",
                   verdict_of(rows, "wide", "fail_rate") == "worse"))
    rows = compare_sets(spec, base, make_set(0.3))
    checks.append(("spread wider than the bound is unresolved",
                   verdict_of(rows, "uniform", "setup_s") == "unresolved"))
    other = make_set(0.01)
    other["fingerprint"]["simd"] = "off"
    try:
        compare_sets(spec, base, other)
        refused = False
    except ValueError:
        refused = True
    checks.append(("fingerprint mismatch is refused", refused))
    other = make_set(0.01)
    other["fingerprint"]["commit"] = "b"
    rows = compare_sets(spec, base, other)
    checks.append(("a different commit is compared",
                   all(r["verdict"] == "same" for r in rows)))

    bad = [name for name, ok in checks if not ok]
    for name in bad:
        print(f"selftest FAILED: {name}")
    print(f"selftest: {len(checks) - len(bad)}/{len(checks)} checks passed")
    return 1 if bad else 0


# ------------------------------------------------------------------ main

def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        args = p.parse_args(sys.argv[2:])
        return cmd_compare(load_spec(), args.a, args.b)

    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (default: every workload)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeat", type=int, default=1,
                   help="runs per workload, with seeds seed .. seed+repeat-1")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", default="0",
                   help="1 (or a FILE) for the traced pass: spans, a Chrome "
                        "trace file and the per-layer metrics")
    p.add_argument("--out", help="write the result set to this file")
    p.add_argument("--smoke", action="store_true",
                   help="small inputs for about 1 s per workload")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.selftest:
        return cmd_selftest(spec)
    if args.smoke and args.seconds == spec["run_seconds"]:
        args.seconds = 1.0

    binary = build()
    workloads = [args.workload] if args.workload else WORKLOADS
    traced = args.trace != "0"
    runs = []
    for w in workloads:
        for seed in range(args.seed, args.seed + args.repeat):
            trace_file = None
            if traced:
                trace_file = args.trace if args.trace != "1" else str(
                    build_dir() / "traces" / f"{w}.trace.json")
            r = run_one(binary, w, seed, args.seconds, trace_file, args.smoke)
            print_report(spec, r)
            if trace_file:
                print(f"  trace written to {trace_file}")
            runs.append(r)

    if args.out:
        fingerprint = dict(runs[0]["fingerprint"], commit=commit())
        Path(args.out).write_text(json.dumps(
            {"fingerprint": fingerprint, "runs": runs}, indent=1) + "\n")
    failed = sum(r["failed"] for r in runs)
    if len(runs) == 1:
        print(contract_line(spec, runs[0]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
