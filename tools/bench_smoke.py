#!/usr/bin/env python3
"""Bench smoke gates for the kernel fast paths.

Two gates, both comparing speedups (never absolute nanoseconds — CI
machines differ in clock speed, but a fast path's advantage over the
reference path on the same host is stable):

scatter gate — runs bench/ablate_convert at a small fixed size, writes a
fresh BENCH_scatter.json and compares it against the checked-in baseline
(bench/BENCH_scatter.json):

  * every stream's speedup (convert+add ns / scatter ns) must be within
    --tolerance of the baseline speedup, and
  * min_speedup must clear --floor (default 2.0x, the acceptance bar for
    HP(6,3)).

block gate — runs bench/ablate_block and compares against
bench/BENCH_block.json:

  * the gate stream's speedup (mixed-sign: the paper's workload, where the
    scalar path's sign-dependent carry/borrow branch mispredicts) must be
    within --tolerance of the baseline and clear --block-floor (default
    2.5x, the SIMD deposit path's acceptance bar; scalar-only builds gate
    at the pre-SIMD 1.5x via the flag), and
  * samesign_min_speedup (the worse of the all-positive / all-negative
    streams) must clear --block-samesign-floor (default 1.3x — the SIMD
    path's bar on the scalar kernel's branch-predictor best case; pass 0
    on scalar-only builds, where same-sign parity is expected), and
  * the wide stream's speedup (the wide-range set, whose batches take the
    per-lane deposit) must be within --tolerance of the baseline. It has
    no floor of its own.

engine gate (opt-in via --engine) — runs bench/ablate_shards, which
re-times the chunked HP(6,3) deposit loop through an engine lane against
the direct accumulator it replaced (PR 10 routed every parallel driver
through engine::ShardSet):

  * overhead_ratio (engine ns/add / direct ns/add, median of --runs) must
    stay at or below --engine-ceiling (default 1.05 — the refactor's
    acceptance bar: the seqlock publish per chunk may cost at most 5%).
    This gate is same-host and same-build relative, so it needs no
    checked-in baseline; the bench itself refuses to time a diverging
    kernel (bit-identity is its precondition).

fig6 gate (opt-in via --fig6) — runs bench/fig6_mpi_scaling on the
standard lognormal stream (recursive-doubling, sparse wire, multiplexed
engine, 1024 simulated ranks) and gates the emitted JSON:

  * hp_invariant must be true (the HP global sum is bit-identical at
    every rank count — the paper's core claim), and
  * wire_ratio (total raw bytes / total encoded bytes over the p >= 2
    points) must clear --fig6-floor (default 3.0x, the sparse codec's
    acceptance bar; docs/FORMAT.md). Wire byte counts are deterministic
    for a fixed seed, so this gate needs no tolerance band or medianing.

Noise control: each bench binary is run --runs times (default 3) and each
stream's MEDIAN speedup is gated — a single descheduled run or turbo
transition cannot fail the gate or inflate a new baseline. The medianized
document (per stream: the run with the median speedup; aggregates
recomputed) is what gets written to --out / --block-out.

Tolerance: --tolerance (default 0.25) is the allowed fractional drop of a
stream's speedup below its checked-in baseline. 25% is deliberately loose:
the compared quantity is already a same-host ratio, so the residual noise
is microarchitectural (frequency scaling, cache/TLB state, co-tenancy on
shared CI runners), which empirically stays within ~10-15% for these
kernels at the smoke size; 25% keeps false-fail risk negligible while
still catching any real regression of the "accidentally disabled the fast
path" magnitude (2x+). The hard floors, not the tolerance, are the
acceptance bars.

Baselines record which SIMD level produced them (the "simd" field of the
block document). When the fresh measurement's level differs from the
baseline's — e.g. a HPSUM_SIMD=OFF build gated against the default SIMD
baseline — the baseline comparison is skipped for the block gate (the
ratio shift is the configuration, not a regression) and only the floors
apply.

--selftest runs an offline failure-injection check: synthetic baseline and
regressed documents are pushed through the same gate functions, asserting
that an injected slowdown FAILS the gate and that the failure message
names the regressed stream. Run it in CI before the real gates so a bug
that silently turns the gate into a no-op cannot land.

Exit status is 0 on pass, 1 on regression, 2 on usage/environment errors.
Schema notes live in EXPERIMENTS.md.
"""

import argparse
import copy
import json
import pathlib
import subprocess
import sys

# ablate_block streams: the same-sign pair behind samesign_min_speedup, and
# the streams held to the per-stream baseline tolerance besides the gate
# stream.
SAMESIGN_STREAMS = ("all-positive", "all-negative")
BLOCK_TOLERANCE_STREAMS = ("wide",)


def load(path, bench_name):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("bench") != bench_name or "streams" not in doc:
        raise ValueError(f"{path}: not a {bench_name} document")
    return doc


def medianize(docs):
    """Collapses per-run documents into one: for each stream, keep the run
    whose speedup is the median (so ns fields stay mutually consistent),
    then recompute the aggregate fields from the surviving streams."""
    out = copy.deepcopy(docs[0])
    by_name = {}
    for doc in docs:
        for s in doc["streams"]:
            by_name.setdefault(s["stream"], []).append(s)
    streams = []
    for s in out["streams"]:
        runs = sorted(by_name[s["stream"]], key=lambda r: r["speedup"])
        streams.append(runs[len(runs) // 2])  # median by speedup
    out["streams"] = streams
    if "min_speedup" in out:
        out["min_speedup"] = min(s["speedup"] for s in streams)
    gate = out.get("gate_stream")
    if gate is not None:
        for s in streams:
            if s["stream"] == gate:
                out["gate_speedup"] = s["speedup"]
        samesign = [s["speedup"] for s in streams
                    if s["stream"] in SAMESIGN_STREAMS]
        if "samesign_min_speedup" in out and samesign:
            out["samesign_min_speedup"] = min(samesign)
    return out


def run_bench(build_dir, name, bench_name, n, out, runs):
    """Runs a bench binary `runs` times, writes the medianized document to
    `out`, and returns it (None on environment errors)."""
    bench = pathlib.Path(build_dir) / "bench" / name
    if not bench.exists():
        print(f"bench_smoke: {bench} not built", file=sys.stderr)
        return None
    docs = []
    for r in range(runs):
        run_out = f"{out}.run{r}" if runs > 1 else out
        cmd = [str(bench), f"--n={n}", f"--json={run_out}"]
        print("+", " ".join(cmd))
        proc = subprocess.run(cmd)
        if proc.returncode != 0:
            print(f"bench_smoke: {bench} exited {proc.returncode}",
                  file=sys.stderr)
            return None
        docs.append(load(run_out, bench_name))
    doc = medianize(docs)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    if runs > 1:
        print(f"  median of {runs} runs -> {out}")
    return doc


def gate_scatter(fresh, baseline, tolerance, floor):
    """Every stream within tolerance of baseline; min_speedup over floor."""
    failures = []
    base_by_stream = {s["stream"]: s for s in baseline["streams"]}
    for s in fresh["streams"]:
        name = s["stream"]
        base = base_by_stream.get(name)
        if base is None:
            failures.append(f"stream {name!r} missing from baseline")
            continue
        limit = base["speedup"] * (1.0 - tolerance)
        verdict = "ok" if s["speedup"] >= limit else "REGRESSION"
        print(f"  {name:14s} speedup {s['speedup']:6.3f}x  "
              f"(baseline {base['speedup']:6.3f}x, limit {limit:6.3f}x)  "
              f"{verdict}")
        if s["speedup"] < limit:
            failures.append(
                f"stream '{name}': speedup {s['speedup']:.3f}x fell more "
                f"than {tolerance:.0%} below baseline {base['speedup']:.3f}x")
    if floor > 0 and fresh["min_speedup"] < floor:
        slowest = min(fresh["streams"], key=lambda s: s["speedup"])
        failures.append(
            f"stream '{slowest['stream']}': min_speedup "
            f"{fresh['min_speedup']:.3f}x is below the {floor:.1f}x "
            f"acceptance floor")
    return failures


def gate_block(fresh, baseline, tolerance, floor, samesign_floor):
    """Mixed stream against baseline + floor; same-sign streams against
    their own floor (SIMD builds); the wide stream against baseline only.
    Baseline ratios are skipped when the two documents were measured at
    different SIMD levels."""
    failures = []
    gate = fresh.get("gate_stream", "mixed")
    comparable = fresh.get("simd") == baseline.get("simd")
    if not comparable:
        print(f"  note: fresh simd level {fresh.get('simd')!r} != baseline "
              f"{baseline.get('simd')!r}; gating floors only")
    base_by_stream = {s["stream"]: s for s in baseline["streams"]}
    for s in fresh["streams"]:
        name = s["stream"]
        gated = comparable and (name == gate or
                                name in BLOCK_TOLERANCE_STREAMS)
        base = base_by_stream.get(name)
        if base is None:
            if gated:
                failures.append(f"gated stream {name!r} missing from "
                                "baseline")
            continue
        limit = base["speedup"] * (1.0 - tolerance) if gated else 0.0
        verdict = ("ok" if s["speedup"] >= limit else
                   "REGRESSION") if gated else "info"
        print(f"  {name:14s} speedup {s['speedup']:6.3f}x  "
              f"(baseline {base['speedup']:6.3f}x)  {verdict}")
        if gated and s["speedup"] < limit:
            failures.append(
                f"stream '{name}': speedup {s['speedup']:.3f}x fell more "
                f"than {tolerance:.0%} below baseline {base['speedup']:.3f}x")
    if floor > 0 and fresh["gate_speedup"] < floor:
        failures.append(
            f"stream '{gate}': gate_speedup {fresh['gate_speedup']:.3f}x is "
            f"below the {floor:.1f}x acceptance floor")
    samesign = fresh.get("samesign_min_speedup")
    if samesign_floor > 0 and samesign is not None and samesign < samesign_floor:
        slowest = min((s for s in fresh["streams"]
                       if s["stream"] in SAMESIGN_STREAMS),
                      key=lambda s: s["speedup"])
        failures.append(
            f"stream '{slowest['stream']}': samesign_min_speedup "
            f"{samesign:.3f}x is below the {samesign_floor:.1f}x same-sign "
            f"floor")
    return failures


def run_engine(build_dir, out, n, runs):
    """Runs bench/ablate_shards `runs` times and keeps the run with the
    median overhead_ratio (whole document, so the ns fields stay mutually
    consistent). Returns the surviving document (None on environment
    errors)."""
    bench = pathlib.Path(build_dir) / "bench" / "ablate_shards"
    if not bench.exists():
        print(f"bench_smoke: {bench} not built", file=sys.stderr)
        return None
    docs = []
    for r in range(runs):
        run_out = f"{out}.run{r}" if runs > 1 else out
        cmd = [str(bench), f"--n={n}", "--maxshards=4", f"--json={run_out}"]
        print("+", " ".join(cmd))
        proc = subprocess.run(cmd)
        if proc.returncode != 0:
            print(f"bench_smoke: {bench} exited {proc.returncode}",
                  file=sys.stderr)
            return None
        with open(run_out, "r", encoding="utf-8") as f:
            doc = json.load(f)
        if doc.get("bench") != "ablate_shards" or "overhead_ratio" not in doc:
            raise ValueError(f"{run_out}: not an ablate_shards document")
        docs.append(doc)
    docs.sort(key=lambda d: d["overhead_ratio"])
    doc = docs[len(docs) // 2]
    with open(out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    if runs > 1:
        print(f"  median of {runs} runs -> {out}")
    return doc


def gate_engine(fresh, ceiling):
    """The engine-routed deposit loop must stay within `ceiling` of the
    direct accumulator path it replaced."""
    failures = []
    ratio = fresh.get("overhead_ratio", float("inf"))
    verdict = "ok" if ratio <= ceiling else "REGRESSION"
    print(f"  engine/direct overhead_ratio {ratio:6.3f}x  "
          f"(ceiling {ceiling:.2f}x)  {verdict}")
    if ceiling > 0 and ratio > ceiling:
        failures.append(
            f"engine: overhead_ratio {ratio:.3f}x exceeds the "
            f"{ceiling:.2f}x ceiling — the ShardSet deposit path got "
            f"slower than the direct accumulator it replaced")
    return failures


def run_fig6(build_dir, out, n, maxp):
    """Runs the fig6 scaling bench in the gate configuration (lognormal,
    recursive doubling, sparse wire, multiplexed engine) and returns its
    JSON document (None on environment errors). One run: wire byte counts
    are deterministic for a fixed seed."""
    bench = pathlib.Path(build_dir) / "bench" / "fig6_mpi_scaling"
    if not bench.exists():
        print(f"bench_smoke: {bench} not built", file=sys.stderr)
        return None
    cmd = [str(bench), f"--n={n}", f"--maxp={maxp}", "--dist=lognormal",
           "--algo=rdouble", "--wire=sparse", "--mode=mux", f"--json={out}"]
    print("+", " ".join(cmd))
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        print(f"bench_smoke: {bench} exited {proc.returncode}",
              file=sys.stderr)
        return None
    with open(out, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("bench") != "fig6_mpi" or "points" not in doc:
        raise ValueError(f"{out}: not a fig6_mpi document")
    return doc


def gate_fig6(fresh, floor):
    """hp_invariant must hold; aggregate wire_ratio must clear the floor;
    every message-sending point must actually have compressed."""
    failures = []
    ratio = fresh.get("wire_ratio", 0.0)
    invariant = fresh.get("hp_invariant", False)
    print(f"  hp_invariant {str(invariant).lower():5s}  "
          f"wire_ratio {ratio:6.3f}x  (floor {floor:.1f}x)  "
          f"{'ok' if invariant and ratio >= floor else 'REGRESSION'}")
    if not invariant:
        failures.append(
            "fig6: hp_invariant is false — the HP sum changed with the "
            "rank count")
    if floor > 0 and ratio < floor:
        failures.append(
            f"fig6: wire_ratio {ratio:.3f}x is below the {floor:.1f}x "
            f"sparse-codec acceptance floor")
    for p in fresh.get("points", []):
        if p.get("ranks", 0) < 2:
            continue
        raw = p.get("hp_wire_raw_bytes", 0)
        enc = p.get("hp_wire_encoded_bytes", 0)
        if enc >= raw:
            failures.append(
                f"fig6: point ranks={p['ranks']} encoded {enc} bytes >= "
                f"raw {raw} bytes — sparse codec not engaged")
    return failures


def _fake_block_doc(speedups, simd="avx2"):
    """A synthetic ablate_block document with the given stream speedups."""
    streams = [{"stream": name, "block_ns_per_add": 10.0 / s,
                "scalar_ns_per_add": 10.0, "speedup": s}
               for name, s in speedups.items()]
    return {
        "bench": "ablate_block",
        "format": {"n": 6, "k": 3},
        "simd": simd,
        "stream_size": 1000,
        "streams": streams,
        "gate_stream": "mixed",
        "gate_speedup": speedups["mixed"],
        "samesign_min_speedup": min(s for n, s in speedups.items()
                                    if n in SAMESIGN_STREAMS),
        "min_speedup": min(speedups.values()),
    }


def selftest(tolerance):
    """Failure injection: a synthetic slowdown must FAIL the gates, and the
    failure message must name the regressed stream. Catches gate-logic bugs
    (inverted comparison, stream filter that skips everything) that would
    otherwise turn the smoke job into a silent no-op."""
    base = _fake_block_doc({"all-positive": 2.0, "all-negative": 2.0,
                            "mixed": 3.0, "wide": 4.0})
    ok = 0

    def check(label, failures, must_name):
        nonlocal ok
        hit = any(must_name in f for f in failures)
        print(f"  selftest [{label}]: "
              f"{'PASS' if failures and hit else 'FAIL'}"
              f" ({len(failures)} failure(s))")
        for f in failures:
            print(f"    - {f}")
        ok += 1 if failures and hit else 0

    # 1. Gate-stream slowdown beyond tolerance must fail and name "mixed".
    slow = _fake_block_doc({"all-positive": 2.0, "all-negative": 2.0,
                            "mixed": 3.0 * (1.0 - tolerance) * 0.9,
                            "wide": 4.0})
    check("gate-stream slowdown",
          gate_block(slow, base, tolerance, 0.0, 0.0), "'mixed'")

    # 2. Floor violation must fail and name the gate stream.
    low = _fake_block_doc({"all-positive": 2.0, "all-negative": 2.0,
                           "mixed": 2.0, "wide": 4.0})
    check("gate floor", gate_block(low, base, tolerance, 2.5, 0.0), "'mixed'")

    # 3. Same-sign floor violation must fail and name the slow stream.
    lop = _fake_block_doc({"all-positive": 1.1, "all-negative": 2.0,
                           "mixed": 3.0, "wide": 4.0})
    check("same-sign floor",
          gate_block(lop, base, tolerance, 0.0, 1.3), "'all-positive'")

    # 4. Mismatched SIMD levels must skip the ratio but keep the floors.
    off = _fake_block_doc({"all-positive": 1.0, "all-negative": 1.0,
                           "mixed": 1.2, "wide": 1.0}, simd="off")
    check("simd-off floors-only",
          gate_block(off, base, tolerance, 1.5, 0.0), "'mixed'")
    if gate_block(off, base, tolerance, 1.0, 0.0):
        print("  selftest [simd-off ratio skipped]: FAIL "
              "(ratio fired across simd levels)")
    else:
        print("  selftest [simd-off ratio skipped]: PASS")
        ok += 1

    # 4b. A wide-stream slowdown beyond tolerance must fail and name "wide"
    # (no floor: the baseline ratio alone catches it).
    wslow = _fake_block_doc({"all-positive": 2.0, "all-negative": 2.0,
                             "mixed": 3.0,
                             "wide": 4.0 * (1.0 - tolerance) * 0.9})
    check("wide slowdown",
          gate_block(wslow, base, tolerance, 2.5, 1.3), "'wide'")

    # 5. An identical measurement must pass every gate.
    clean = gate_block(copy.deepcopy(base), base, tolerance, 2.5, 1.3)
    print(f"  selftest [clean pass]: {'FAIL' if clean else 'PASS'}")
    ok += 0 if clean else 1

    # 6. The scatter gate fails on slowdown too, naming the stream.
    sbase = {"bench": "ablate_convert_scatter", "min_speedup": 3.0,
             "streams": [{"stream": "uniform", "speedup": 3.0}]}
    sslow = {"bench": "ablate_convert_scatter",
             "min_speedup": 3.0 * (1.0 - tolerance) * 0.9,
             "streams": [{"stream": "uniform",
                          "speedup": 3.0 * (1.0 - tolerance) * 0.9}]}
    check("scatter slowdown",
          gate_scatter(sslow, sbase, tolerance, 0.0), "'uniform'")

    # 7. Medianizing picks the middle run, not an outlier.
    runs = [_fake_block_doc({"all-positive": s, "all-negative": 2.0,
                             "mixed": 3.0}) for s in (0.5, 2.0, 9.9)]
    med = medianize(runs)
    med_ok = (med["samesign_min_speedup"] == 2.0 and
              med["gate_speedup"] == 3.0)
    print(f"  selftest [median-of-3]: {'PASS' if med_ok else 'FAIL'}")
    ok += 1 if med_ok else 0

    # 8-10. The fig6 gate: a dilated wire ratio, a broken invariant, and a
    # point whose codec silently fell back to raw must each fail; a healthy
    # document must pass.
    fig6 = {"bench": "fig6_mpi", "hp_invariant": True, "wire_ratio": 3.4,
            "points": [
                {"ranks": 1, "hp_wire_raw_bytes": 0,
                 "hp_wire_encoded_bytes": 0},
                {"ranks": 2, "hp_wire_raw_bytes": 96,
                 "hp_wire_encoded_bytes": 28}]}
    thin = copy.deepcopy(fig6)
    thin["wire_ratio"] = 2.1
    check("fig6 wire-ratio floor", gate_fig6(thin, 3.0), "wire_ratio")
    drift = copy.deepcopy(fig6)
    drift["hp_invariant"] = False
    check("fig6 invariant", gate_fig6(drift, 3.0), "hp_invariant")
    rawpt = copy.deepcopy(fig6)
    rawpt["points"][1]["hp_wire_encoded_bytes"] = 96
    check("fig6 raw fallback", gate_fig6(rawpt, 3.0), "ranks=2")
    clean_fig6 = gate_fig6(copy.deepcopy(fig6), 3.0)
    print(f"  selftest [fig6 clean pass]: "
          f"{'FAIL' if clean_fig6 else 'PASS'}")
    ok += 0 if clean_fig6 else 1

    # 11-12. The engine gate: an overhead ratio above the ceiling must
    # fail naming overhead_ratio; a within-ceiling document must pass.
    eng = {"bench": "ablate_shards", "direct_ns_per_add": 2.5,
           "engine_ns_per_add": 2.55, "overhead_ratio": 1.02}
    slow_eng = copy.deepcopy(eng)
    slow_eng["overhead_ratio"] = 1.31
    check("engine overhead ceiling", gate_engine(slow_eng, 1.05),
          "overhead_ratio")
    clean_eng = gate_engine(copy.deepcopy(eng), 1.05)
    print(f"  selftest [engine clean pass]: "
          f"{'FAIL' if clean_eng else 'PASS'}")
    ok += 0 if clean_eng else 1

    total = 15
    if ok != total:
        print(f"bench_smoke --selftest: FAIL ({ok}/{total})", file=sys.stderr)
        return 1
    print(f"bench_smoke --selftest: PASS ({ok}/{total})")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build",
                    help="CMake build dir with bench/ablate_convert and "
                         "bench/ablate_block")
    ap.add_argument("--baseline", default="bench/BENCH_scatter.json",
                    help="checked-in scatter baseline to compare against")
    ap.add_argument("--out", default="BENCH_scatter.json",
                    help="where to write the fresh scatter measurement")
    ap.add_argument("--block-baseline", default="bench/BENCH_block.json",
                    help="checked-in block baseline to compare against")
    ap.add_argument("--block-out", default="BENCH_block.json",
                    help="where to write the fresh block measurement")
    ap.add_argument("--n", type=int, default=200_000,
                    help="summands per stream (small fixed smoke size)")
    ap.add_argument("--runs", type=int, default=3,
                    help="repetitions per bench; medians are gated")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional speedup regression vs baseline "
                         "(see the module docstring for why 25%%)")
    ap.add_argument("--floor", type=float, default=2.0,
                    help="hard minimum for scatter min_speedup (0 disables)")
    ap.add_argument("--block-floor", type=float, default=2.5,
                    help="hard minimum for the block gate stream's speedup "
                         "(0 disables; use 1.5 on HPSUM_SIMD=OFF builds)")
    ap.add_argument("--block-samesign-floor", type=float, default=1.3,
                    help="hard minimum for the worse same-sign block stream "
                         "(0 disables; use 0 on HPSUM_SIMD=OFF builds)")
    ap.add_argument("--engine", action="store_true",
                    help="also run the engine gate (ablate_shards: the "
                         "ShardSet deposit loop vs the direct accumulator)")
    ap.add_argument("--engine-ceiling", type=float, default=1.05,
                    help="hard maximum for the engine/direct overhead ratio "
                         "(0 disables)")
    ap.add_argument("--engine-out", default="BENCH_engine.json",
                    help="where to write the fresh engine measurement")
    ap.add_argument("--engine-n", type=int, default=2_000_000,
                    help="summands for the engine gate run (larger than "
                         "--n: the compared paths differ by nanoseconds, "
                         "so short streams drown the ratio in noise)")
    ap.add_argument("--fig6", action="store_true",
                    help="also run the fig6 mpisim gate (sparse wire "
                         "compression + HP rank-count invariance)")
    ap.add_argument("--fig6-floor", type=float, default=3.0,
                    help="hard minimum for the fig6 sparse-wire compression "
                         "ratio (0 disables)")
    ap.add_argument("--fig6-out", default="BENCH_mpi.json",
                    help="where to write the fresh fig6 measurement")
    ap.add_argument("--fig6-n", type=int, default=262_144,
                    help="summands for the fig6 gate run")
    ap.add_argument("--fig6-maxp", type=int, default=1024,
                    help="max simulated ranks for the fig6 gate run")
    ap.add_argument("--skip-scatter", action="store_true",
                    help="gate only the block ablation (used by the "
                         "HPSUM_SIMD=OFF CI pass, which only rebuilds "
                         "ablate_block)")
    ap.add_argument("--selftest", action="store_true",
                    help="run the offline failure-injection selftest and exit")
    args = ap.parse_args()

    if args.selftest:
        return selftest(args.tolerance)
    if args.runs < 1 or args.runs % 2 == 0:
        print("bench_smoke: --runs must be a positive odd number",
              file=sys.stderr)
        return 2

    failures = []

    if args.skip_scatter:
        print("scatter gate: skipped (--skip-scatter)")
    else:
        print("scatter gate (ablate_convert):")
        fresh = run_bench(args.build_dir, "ablate_convert",
                          "ablate_convert_scatter", args.n, args.out,
                          args.runs)
        if fresh is None:
            return 2
        failures += gate_scatter(fresh, load(args.baseline,
                                             "ablate_convert_scatter"),
                                 args.tolerance, args.floor)

    print("block gate (ablate_block):")
    fresh = run_bench(args.build_dir, "ablate_block", "ablate_block",
                      args.n, args.block_out, args.runs)
    if fresh is None:
        return 2
    failures += gate_block(fresh, load(args.block_baseline, "ablate_block"),
                           args.tolerance, args.block_floor,
                           args.block_samesign_floor)

    if args.engine:
        print("engine gate (ablate_shards):")
        fresh = run_engine(args.build_dir, args.engine_out, args.engine_n,
                           args.runs)
        if fresh is None:
            return 2
        failures += gate_engine(fresh, args.engine_ceiling)

    if args.fig6:
        print("fig6 gate (fig6_mpi_scaling):")
        fresh = run_fig6(args.build_dir, args.fig6_out, args.fig6_n,
                         args.fig6_maxp)
        if fresh is None:
            return 2
        failures += gate_fig6(fresh, args.fig6_floor)

    if failures:
        print("bench_smoke: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("bench_smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
