// hpsum_e2e — the end-to-end benchmark driver (README.md beside this file).
//
// One process runs one workload. It generates the inputs from --seed with
// src/workload, computes every oracle through reference paths that share no
// deposit fast path with the code under test, sets up, then runs
// closed-loop rounds for --seconds with four more set-up passes spread
// among them (setup_s is the median of the five). Each round calls every
// pinned public entry point, round-robin, so a noise burst on a shared
// host lands on every metric rather than on one:
//
//   bulk       reduce_hp<6,3>, run_threads<HpSum<6,3>>, run_openmp<HpSum<6,3>>,
//              run_threads<HallbergSum<10,38>> and reduce_double over the
//              whole input at p = min(4, nproc);
//   allreduce  one mpisim::run of 16 ranks on one fiber worker; each step is
//              engine::local_reduce of 1024 values per rank, then
//              allreduce_hp_value(kRecursiveDoubling, kSparse), then
//              to_double, cycling through distinct input sets;
//   live       a ShardSet<DynSum> with 2 depositor lanes fed 4096-value
//              chunks beside one monitor calling snapshot() back to back,
//              for one window; then checkpoint, restore onto 3 lanes, drain;
//   wire       mpisim::wire::encode/decode of the allreduce partials.
//
// Every result is compared bit for bit with its oracle: limbs and status
// where the API returns them, the rounded double otherwise. The driver
// prints one JSON object; run.py turns it into the benchmark's report.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backends/accumulators.hpp"
#include "backends/scaling.hpp"
#include "core/hp_kernel_simd.hpp"
#include "core/reduce.hpp"
#include "engine/engine.hpp"
#include "hallberg/hallberg.hpp"
#include "mpisim/hp_ops.hpp"
#include "mpisim/mpisim.hpp"
#include "mpisim/wire.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"
#include "workload/workload.hpp"

#ifndef HPSUM_E2E_BUILD_TYPE
#define HPSUM_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace hpsum;
using Clock = std::chrono::steady_clock;

constexpr int kN = 6;  // HP(6,3): the paper's Figs 5-8 format
constexpr int kK = 3;
constexpr HpConfig kCfg{kN, kK};
using Hp = HpFixed<kN, kK>;
using Hb = HallbergFixed<10, 38>;
using HpAcc = backends::HpSum<kN, kK>;
using HbAcc = backends::HallbergSum<10, 38>;

constexpr int kRanks = 16;
constexpr std::size_t kRankValues = 1024;
constexpr std::size_t kStepValues = kRanks * kRankValues;
constexpr std::size_t kChunk = 4096;
constexpr int kLanes = 2;
constexpr int kRestoreLanes = 3;
constexpr std::size_t kSetups = 5;
constexpr int kMinRounds = 3;
// Raw spans are kept for this long from the start of the traced segment,
// and at most kRawCap per track, so the Chrome trace stays a few MiB.
constexpr double kRawWindowS = 2.0;
constexpr std::size_t kRawCap = 5000;

/// Problem sizes: the full run, and --smoke (every check, small inputs).
/// The allreduce inputs (4 sets, 512 KiB) and each live lane's pass
/// (32 chunks, 1 MiB) fit a core's L2: with them cycling through the
/// shared L3 instead, neighbours' cache pressure on a shared host moved
/// the allreduce step time by half.
struct Sizes {
  std::size_t n;            // bulk summands
  std::size_t step_sets;    // distinct allreduce input sets
  std::size_t lane_chunks;  // chunks per live-lane pass
  int step_blocks;          // allreduce step blocks per round
  std::chrono::milliseconds window;  // live window per round
};
constexpr Sizes kFull{std::size_t{32} << 20, 4, 32, 16,
                      std::chrono::milliseconds(250)};
constexpr Sizes kSmoke{std::size_t{1} << 20, 4, 8, 2,
                       std::chrono::milliseconds(50)};

// Step time is taken over blocks of this many steps on rank 0. With all
// ranks on one fiber worker, peers run up to one step ahead of rank 0, so
// a single rank-0 step interval alternates between nearly nothing and
// nearly two steps; over a block that error is at most 1/kStepBlock.
constexpr int kStepBlock = 32;

[[nodiscard]] std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- tracing

/// Span names, one per layer boundary the benchmark calls across.
enum SpanId : std::uint8_t {
  kSpanBulkRound,
  kSpanReduceHp,
  kSpanRunThreads,
  kSpanRunOpenmp,
  kSpanHallbergThreads,
  kSpanReduceDouble,
  kSpanMpisimRun,
  kSpanStep,
  kSpanLocalReduce,
  kSpanAllreduce,
  kSpanToDouble,
  kSpanLiveWindow,
  kSpanDeposit,
  kSpanSnapshot,
  kSpanCheckpoint,
  kSpanRestore,
  kSpanDrain,
  kSpanWireEncode,
  kSpanWireDecode,
  kSpanCount
};

constexpr std::array<const char*, kSpanCount> kSpanNames = {
    "bulk.round",          "core.reduce_hp",        "backends.run_threads",
    "backends.run_openmp", "hallberg.run_threads",  "baseline.reduce_double",
    "mpisim.run",          "mpisim.step",           "engine.local_reduce",
    "mpisim.allreduce_hp_value", "core.to_double",  "engine.live_window",
    "engine.deposit",      "engine.snapshot",       "engine.checkpoint",
    "engine.restore",      "engine.drain",          "mpisim.wire.encode",
    "mpisim.wire.decode"};

/// One recording thread or rank fiber. Spans on a track nest strictly, so
/// self time is a span's duration minus its direct children's. Only the
/// owning thread touches a track while spans are recorded.
class Track {
 public:
  struct Raw {
    SpanId id;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;  // index into raw, or -1
    std::uint64_t group;  // round / step id shared by one reduction
  };
  struct Agg {
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };

  explicit Track(std::string label) : label_(std::move(label)) {}

  void begin(SpanId id, std::uint64_t group, std::int64_t t) {
    std::int32_t raw_idx = -1;
    if (static_cast<double>(t - epoch_) < kRawWindowS * 1e9 &&
        raw_.size() < kRawCap) {
      raw_idx = static_cast<std::int32_t>(raw_.size());
      raw_.push_back({id, t, t, stack_.empty() ? -1 : stack_.back().raw_idx,
                      group});
    }
    stack_.push_back({id, t, 0, raw_idx});
  }

  void end(std::int64_t t) {
    const Open o = stack_.back();
    stack_.pop_back();
    const auto dur = static_cast<double>(t - o.start);
    Agg& a = agg_[o.id];
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - o.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (o.raw_idx >= 0) raw_[static_cast<std::size_t>(o.raw_idx)].end = t;
  }

  void set_epoch(std::int64_t t) { epoch_ = t; }
  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] const std::vector<Raw>& raw() const { return raw_; }
  [[nodiscard]] const std::array<Agg, kSpanCount>& agg() const { return agg_; }

 private:
  struct Open {
    SpanId id;
    std::int64_t start;
    double child_ns;
    std::int32_t raw_idx;
  };
  std::string label_;
  std::int64_t epoch_ = 0;
  std::vector<Open> stack_;
  std::vector<Raw> raw_;
  std::array<Agg, kSpanCount> agg_{};
};

/// All tracks of the traced pass. A null Track* means "not tracing"; the
/// helpers below make that a single branch at each call site.
class Tracer {
 public:
  Tracer() {
    tracks_.emplace_back("main");
    for (int l = 0; l < kLanes; ++l) tracks_.emplace_back("lane" + std::to_string(l));
    tracks_.emplace_back("monitor");
    for (int r = 0; r < kRanks; ++r) tracks_.emplace_back("rank" + std::to_string(r));
  }
  [[nodiscard]] Track* main() { return &tracks_[0]; }
  [[nodiscard]] Track* lane(int l) { return &tracks_[static_cast<std::size_t>(1 + l)]; }
  [[nodiscard]] Track* monitor() { return &tracks_[1 + kLanes]; }
  [[nodiscard]] Track* rank(int r) {
    return &tracks_[static_cast<std::size_t>(2 + kLanes + r)];
  }
  void start(std::int64_t t) {
    epoch_ = t;
    for (auto& tr : tracks_) tr.set_epoch(t);
  }

  /// Chrome trace-event JSON (Perfetto-loadable): one tid per track.
  [[nodiscard]] bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (std::size_t tid = 0; tid < tracks_.size(); ++tid) {
      const Track& tr = tracks_[tid];
      out << (first ? "" : ",") << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << tr.label()
          << "\"}}";
      first = false;
      for (const Track::Raw& s : tr.raw()) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      ",{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"name\":\"%s\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"group\":%llu,"
                      "\"parent\":%d}}",
                      tid, kSpanNames[s.id],
                      static_cast<double>(s.start - epoch_) * 1e-3,
                      static_cast<double>(s.end - s.start) * 1e-3,
                      static_cast<unsigned long long>(s.group), s.parent);
        out << buf;
      }
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

  /// Aggregates over every span of every track, per span name.
  [[nodiscard]] std::array<Track::Agg, kSpanCount> totals() const {
    std::array<Track::Agg, kSpanCount> out{};
    for (const Track& tr : tracks_) {
      for (std::size_t i = 0; i < kSpanCount; ++i) {
        out[i].count += tr.agg()[i].count;
        out[i].total_ns += tr.agg()[i].total_ns;
        out[i].self_ns += tr.agg()[i].self_ns;
      }
    }
    return out;
  }

 private:
  std::vector<Track> tracks_;
  std::int64_t epoch_ = 0;
};

/// RAII span on an optional track, timed by its own clock reads.
class Span {
 public:
  Span(Track* t, SpanId id, std::uint64_t group) : t_(t) {
    if (t_ != nullptr) t_->begin(id, group, now_ns());
  }
  ~Span() {
    if (t_ != nullptr) t_->end(now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Track* t_;
};

// ------------------------------------------------------------- statistics

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// The highest percentile with at least ten samples beyond it.
[[nodiscard]] double tail_q(std::size_t n) {
  return n > 10 ? 1.0 - 10.0 / static_cast<double>(n) : 0.5;
}

/// Latency histogram with 1 ns buckets up to 100 us (values beyond are
/// kept exactly). Quantiles interpolate inside a bucket, so they are not
/// quantized to whole nanoseconds. Used where there are too many samples
/// to store: back-to-back snapshot() calls.
class LatencyHist {
 public:
  LatencyHist() : buckets_(kBuckets, 0) {}
  void add(std::int64_t ns) {
    if (ns < 0) ns = 0;
    if (ns < static_cast<std::int64_t>(kBuckets)) {
      ++buckets_[static_cast<std::size_t>(ns)];
    } else {
      tail_.push_back(static_cast<double>(ns));
    }
    ++count_;
  }
  void merge(const LatencyHist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    tail_.insert(tail_.end(), o.tail_.begin(), o.tail_.end());
    count_ += o.count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double quantile_ns(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_);
    double cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const auto c = static_cast<double>(buckets_[i]);
      if (c > 0 && cum + c >= rank) {
        return static_cast<double>(i) + (rank - cum) / c;
      }
      cum += c;
    }
    std::vector<double> t = tail_;
    const double rest = (rank - cum) / static_cast<double>(t.size());
    return quantile(std::move(t), std::clamp(rest, 0.0, 1.0));
  }

 private:
  static constexpr std::size_t kBuckets = 100000;
  std::vector<std::uint64_t> buckets_;
  std::vector<double> tail_;
  std::uint64_t count_ = 0;
};

// ------------------------------------------------------------- correctness

/// Check ledger: every bit-for-bit comparison counts as one attempt.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report

  void add(std::uint64_t attempts, std::uint64_t fails, const char* what) {
    attempted += attempts;
    failed += fails;
    if (fails != 0 && failures.size() < 8) failures.emplace_back(what);
  }
  void expect(bool ok, const char* what) { add(1, ok ? 0 : 1, what); }
};

[[nodiscard]] bool same(const Hp& a, const Hp& b) {
  return a.limbs() == b.limbs() && a.status() == b.status();
}

[[nodiscard]] bool same(const HpDyn& v, const Hp& ref) {
  if (v.config() != kCfg || v.status() != ref.status()) return false;
  const auto ls = v.limbs();
  for (std::size_t i = 0; i < static_cast<std::size_t>(kN); ++i) {
    if (ls[i] != ref.limbs()[i]) return false;
  }
  return true;
}

/// Element-by-element HP sum through the convert+add reference path, which
/// shares no code with the scatter, block or SIMD deposits.
void add_reference(Hp& acc, std::span<const double> xs) {
  for (const double x : xs) acc.add_double_reference(x);
}

// ---------------------------------------------------------------- inputs

[[nodiscard]] std::vector<double> generate(const std::string& name,
                                           std::size_t n, std::uint64_t seed) {
  if (name == "uniform") return workload::uniform_set(n, seed, -0.5, 0.5);
  // Exponents inside both HP(6,3) and Hallberg(10,38) range, so the sums
  // stay exact while batches spread over every limb.
  if (name == "wide") return workload::wide_range_set(n, seed, -120, 100);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (uniform|wide)");
}

/// Inputs plus every oracle, all built before any timing starts.
struct Inputs {
  Sizes sz;
  std::vector<double> xs;
  Hp bulk;                  // HP oracle of the whole input
  Hb hallberg;              // sequential Hallberg add loop
  double left_to_right = 0;  // element-wise double sum, reduce_double's order
  std::vector<Hp> rank_ref;  // [set * kRanks + rank] local partials
  std::vector<Hp> step_ref;  // [set] global sums
  std::vector<std::vector<std::byte>> raw_partials;  // wire images of rank_ref
  std::array<std::vector<Hp>, kLanes> lane_prefix;   // [lane][chunks done]

  [[nodiscard]] std::span<const double> rank_slice(std::size_t set,
                                                   int rank) const {
    return std::span<const double>(xs).subspan(
        set * kStepValues + static_cast<std::size_t>(rank) * kRankValues,
        kRankValues);
  }
  [[nodiscard]] std::span<const double> lane_chunk(int lane,
                                                   std::size_t c) const {
    const std::size_t base = static_cast<std::size_t>(lane) * sz.lane_chunks;
    return std::span<const double>(xs).subspan((base + c) * kChunk, kChunk);
  }
  /// Exact lane total after `chunks` deposits: whole passes times the pass
  /// sum plus the prefix of the current pass.
  [[nodiscard]] Hp lane_expected(int lane, std::uint64_t chunks) const {
    const auto& pre = lane_prefix[static_cast<std::size_t>(lane)];
    Hp out = pre[chunks % sz.lane_chunks];
    for (std::uint64_t p = 0; p < chunks / sz.lane_chunks; ++p) {
      out += pre[sz.lane_chunks];
    }
    return out;
  }
};

/// The wire's raw limb image: most significant limb first, each limb
/// little-endian (docs/FORMAT.md).
[[nodiscard]] std::vector<std::byte> raw_image(const Hp& v) {
  std::vector<std::byte> out(static_cast<std::size_t>(kN) * 8);
  for (std::size_t i = 0; i < static_cast<std::size_t>(kN); ++i) {
    for (std::size_t b = 0; b < 8; ++b) {
      out[i * 8 + b] = static_cast<std::byte>((v.limbs()[i] >> (8 * b)) & 0xff);
    }
  }
  return out;
}

[[nodiscard]] Inputs make_inputs(const std::string& name, const Sizes& sz,
                                 std::uint64_t seed) {
  Inputs in;
  in.sz = sz;
  in.xs = generate(name, sz.n, seed);
  add_reference(in.bulk, in.xs);
  backends::DoubleSum left_to_right;
  for (const double x : in.xs) {
    in.hallberg.add(x);
    left_to_right.accumulate(x);
  }
  in.left_to_right = left_to_right.result();
  for (std::size_t s = 0; s < sz.step_sets; ++s) {
    Hp step;
    for (int r = 0; r < kRanks; ++r) {
      Hp part;
      add_reference(part, in.rank_slice(s, r));
      add_reference(step, in.rank_slice(s, r));
      in.raw_partials.push_back(raw_image(part));
      in.rank_ref.push_back(part);
    }
    in.step_ref.push_back(step);
  }
  for (int l = 0; l < kLanes; ++l) {
    auto& pre = in.lane_prefix[static_cast<std::size_t>(l)];
    Hp acc;
    pre.push_back(acc);
    for (std::size_t c = 0; c < sz.lane_chunks; ++c) {
      add_reference(acc, in.lane_chunk(l, c));
      pre.push_back(acc);
    }
  }
  return in;
}

// ------------------------------------------------------------- the rounds

/// Everything the timed rounds record.
struct Samples {
  // bulk, seconds per call
  std::vector<double> seq_s, thr_s, omp_s, hb_s, dbl_s;
  std::vector<backends::ScalingPoint> thr_pt, omp_pt, hb_pt;
  std::vector<double> simd_cov, punt_ratio;
  // allreduce
  std::vector<double> step_us, local_us, coll_us, coll_share, world_ms;
  mpisim::RunStats stats;  // summed over bursts
  std::uint64_t steps = 0;
  // live
  std::vector<double> deposit_msps, deposit_ns;
  LatencyHist snap;
  std::uint64_t snap_retries = 0;
  std::vector<double> ckpt_us, restore_us;
  double ckpt_bytes = 0;
  // wire
  std::vector<double> enc_ns, dec_ns;
  // per-round work time (bulk calls + allreduce steps), untraced / traced
  std::vector<double> work_plain_s, work_traced_s;
};

class Bench {
 public:
  Bench(const Inputs& in, int pes) : in_(in), pes_(pes) {}

  /// One untimed pass over every path: the set-up the first timed
  /// iteration would otherwise pay (OpenMP pool, the mpisim world through
  /// step 0, the ShardSet and its threads through the first snapshot).
  void setup() {
    Samples scratch;
    bulk(scratch, nullptr, 0);
    allreduce(scratch, nullptr, 1, 0);
    live(scratch, nullptr, std::nullopt, 0);
  }

  /// One timed round; `tr` non-null records spans.
  void round(Samples& out, Tracer* tr, std::uint64_t id) {
    const double bulk_s = bulk(out, tr, id);
    const double steps_s =
        allreduce(out, tr, 1 + in_.sz.step_blocks * kStepBlock, id);
    live(out, tr, in_.sz.window, id);
    wire(out, tr, id);
    (tr != nullptr ? out.work_traced_s : out.work_plain_s)
        .push_back(bulk_s + steps_s);
  }

  [[nodiscard]] Checks& checks() { return checks_; }

 private:
  /// Times `fn` from outside, under a span on the main track.
  template <class Fn>
  double timed(Tracer* tr, SpanId id, std::uint64_t group, Fn&& fn) {
    const Span span(tr != nullptr ? tr->main() : nullptr, id, group);
    const auto t0 = Clock::now();
    fn();
    return seconds_since(t0);
  }

  double bulk(Samples& out, Tracer* tr, std::uint64_t id) {
    const Span round_span(tr != nullptr ? tr->main() : nullptr, kSpanBulkRound,
                          id);
    const std::span<const double> xs(in_.xs);
    const double ref = in_.bulk.to_double();

    const trace::Snapshot before = trace::snapshot();
    Hp seq;
    const double seq_s = timed(tr, kSpanReduceHp, id,
                               [&] { seq = reduce_hp<kN, kK>(xs); });
    const trace::Snapshot d = trace::snapshot().delta_since(before);
    checks_.expect(same(seq, in_.bulk), "reduce_hp limbs/status");

    backends::ScalingPoint thr;
    const double thr_s = timed(tr, kSpanRunThreads, id, [&] {
      thr = backends::run_threads<HpAcc>(xs, pes_);
    });
    checks_.expect(thr.value == ref, "run_threads<HpSum> value");

    backends::ScalingPoint omp;
    const double omp_s = timed(tr, kSpanRunOpenmp, id, [&] {
      omp = backends::run_openmp<HpAcc>(xs, pes_);
    });
    checks_.expect(omp.value == ref, "run_openmp<HpSum> value");

    backends::ScalingPoint hb;
    const double hb_s = timed(tr, kSpanHallbergThreads, id, [&] {
      hb = backends::run_threads<HbAcc>(xs, pes_);
    });
    checks_.expect(hb.value == in_.hallberg.to_double(),
                   "run_threads<HallbergSum> value");

    double dbl = 0;
    const double dbl_s = timed(tr, kSpanReduceDouble, id,
                               [&] { dbl = reduce_double(xs); });
    checks_.expect(dbl == in_.left_to_right, "reduce_double value");

    out.seq_s.push_back(seq_s);
    out.thr_s.push_back(thr_s);
    out.omp_s.push_back(omp_s);
    out.hb_s.push_back(hb_s);
    out.dbl_s.push_back(dbl_s);
    // The driver's measured wall is replaced by the outside timing, which
    // is what a caller waits for.
    thr.measured_wall = thr_s;
    omp.measured_wall = omp_s;
    hb.measured_wall = hb_s;
    out.thr_pt.push_back(thr);
    out.omp_pt.push_back(omp);
    out.hb_pt.push_back(hb);
    const auto batches =
        static_cast<double>(d.value(trace::Counter::kBlockSimdBatches));
    out.simd_cov.push_back(
        static_cast<double>(d.value(trace::Counter::kBlockSimdDeposits)) /
        static_cast<double>(xs.size()));
    out.punt_ratio.push_back(
        batches > 0
            ? static_cast<double>(d.value(trace::Counter::kBlockSimdPunts)) /
                  batches
            : 0.0);
    return seq_s + thr_s + omp_s + hb_s + dbl_s;
  }

  /// One mpisim world of `steps` steps; returns the wall time of steps
  /// 1..steps-1 as seen by rank 0 (0 when steps < 2). Step 0 pays the
  /// world start and is never timed.
  double allreduce(Samples& out, Tracer* tr, int steps, std::uint64_t id) {
    const auto nsteps = static_cast<std::size_t>(steps);
    std::vector<std::int64_t> step_end(nsteps, 0);
    // Per rank: summed local_reduce and to_double ns over steps 1.., and
    // local_reduce call durations.
    std::array<std::int64_t, kRanks> own_ns{};
    std::array<std::vector<double>, kRanks> local_us;
    std::array<std::uint64_t, kRanks> fails{};
    std::array<std::int64_t, kRanks> entry{};
    mpisim::RunStats stats;
    mpisim::RunOptions opts;
    opts.mode = mpisim::RunMode::kMultiplexed;
    opts.workers = 1;
    opts.stats = &stats;
    const std::size_t base = id * nsteps;

    const Span run_span(tr != nullptr ? tr->main() : nullptr, kSpanMpisimRun,
                        id);
    const std::int64_t t_call = now_ns();
    mpisim::run(
        kRanks,
        [&](mpisim::Comm& comm) {
          const int r = comm.rank();
          const auto ri = static_cast<std::size_t>(r);
          Track* track = tr != nullptr ? tr->rank(r) : nullptr;
          entry[ri] = now_ns();
          local_us[ri].reserve(nsteps);
          for (std::size_t s = 0; s < nsteps; ++s) {
            const std::size_t set = (base + s) % in_.sz.step_sets;
            const std::uint64_t group = base + s;
            const Span step_span(track, kSpanStep, group);
            const std::int64_t t0 = now_ns();
            if (track != nullptr) track->begin(kSpanLocalReduce, group, t0);
            const HpDyn local =
                engine::local_reduce(in_.rank_slice(set, r), kCfg);
            const std::int64_t t1 = now_ns();
            if (track != nullptr) {
              track->end(t1);
              track->begin(kSpanAllreduce, group, t1);
            }
            const HpDyn total = mpisim::allreduce_hp_value(
                comm, local, mpisim::ReduceAlgo::kRecursiveDoubling,
                mpisim::Wire::kSparse);
            const std::int64_t t2 = now_ns();
            if (track != nullptr) {
              track->end(t2);
              track->begin(kSpanToDouble, group, t2);
            }
            const double v = total.to_double();
            const std::int64_t t3 = now_ns();
            if (track != nullptr) track->end(t3);

            fails[ri] += same(local, in_.rank_ref[set * kRanks + ri]) ? 0 : 1;
            fails[ri] += same(total, in_.step_ref[set]) ? 0 : 1;
            fails[ri] += v == in_.step_ref[set].to_double() ? 0 : 1;
            if (s > 0) {
              own_ns[ri] += (t1 - t0) + (t3 - t2);
              local_us[ri].push_back(static_cast<double>(t1 - t0) * 1e-3);
            }
            if (r == 0) step_end[s] = t3;
          }
        },
        opts);

    std::uint64_t failed = 0;
    for (const auto f : fails) failed += f;
    checks_.add(3ull * kRanks * nsteps, failed, "allreduce step results");
    if (nsteps < 2) return 0.0;

    const std::int64_t first_entry = *std::min_element(entry.begin(), entry.end());
    out.world_ms.push_back(static_cast<double>(first_entry - t_call) * 1e-6);
    const auto block = static_cast<std::size_t>(kStepBlock);
    for (std::size_t s = block; s < nsteps; s += block) {
      out.step_us.push_back(
          static_cast<double>(step_end[s] - step_end[s - block]) * 1e-3 /
          kStepBlock);
    }
    for (const auto& v : local_us) {
      out.local_us.insert(out.local_us.end(), v.begin(), v.end());
    }
    std::int64_t own = 0;
    for (const auto o : own_ns) own += o;
    const auto span_ns = static_cast<double>(step_end[nsteps - 1] - step_end[0]);
    const double coll_ns = span_ns - static_cast<double>(own);
    out.coll_us.push_back(coll_ns * 1e-3 / static_cast<double>(nsteps - 1));
    out.coll_share.push_back(coll_ns / span_ns);
    out.stats.messages += stats.messages;
    out.stats.wire_raw_bytes += stats.wire_raw_bytes;
    out.stats.wire_encoded_bytes += stats.wire_encoded_bytes;
    out.steps += nsteps;
    return span_ns * 1e-9;
  }

  /// One live window: `window` long, or (nullopt) until the monitor has
  /// completed its first snapshot. Ends with checkpoint / restore / drain.
  void live(Samples& out, Tracer* tr, std::optional<std::chrono::milliseconds> window,
            std::uint64_t id) {
    engine::ShardSet<engine::DynSum> set(kLanes, engine::DynSum(kCfg));
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::array<std::atomic<std::uint64_t>, kLanes> chunks{};
    std::array<double, kLanes> cpu_s{};
    std::atomic<std::uint64_t> snaps{0};
    LatencyHist hist;

    const trace::Snapshot before = trace::snapshot();
    std::vector<std::jthread> threads;
    // Declared after `threads`, so on an exception it releases the waiting
    // threads before their destructors join them.
    struct Release {
      std::atomic<bool>& go;
      std::atomic<bool>& stop;
      ~Release() {
        stop.store(true, std::memory_order_relaxed);
        go.store(true, std::memory_order_release);
      }
    } const release{go, stop};
    for (int l = 0; l < kLanes; ++l) {
      threads.emplace_back([&, l] {
        auto shard = set.shard(static_cast<std::size_t>(l));
        Track* track = tr != nullptr ? tr->lane(l) : nullptr;
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const util::ThreadCpuTimer cpu;
        std::uint64_t c = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const Span span(track, kSpanDeposit, id);
          shard.deposit(in_.lane_chunk(l, c % in_.sz.lane_chunks));
          chunks[static_cast<std::size_t>(l)].store(++c,
                                                    std::memory_order_relaxed);
        }
        cpu_s[static_cast<std::size_t>(l)] = cpu.seconds();
      });
    }
    threads.emplace_back([&] {
      Track* track = tr != nullptr ? tr->monitor() : nullptr;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::int64_t t0 = now_ns();
        if (track != nullptr) track->begin(kSpanSnapshot, id, t0);
        const engine::DynSum snap = set.snapshot();
        const std::int64_t t1 = now_ns();
        if (track != nullptr) track->end(t1);
        hist.add(t1 - t0);
        snaps.store(snaps.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
        if (snap.hp.limbs().empty()) break;  // keeps the snapshot observable
      }
    });

    const Span window_span(tr != nullptr ? tr->main() : nullptr,
                           kSpanLiveWindow, id);
    const auto t0 = Clock::now();
    go.store(true, std::memory_order_release);
    if (window.has_value()) {
      std::this_thread::sleep_for(*window);
    } else {
      while (snaps.load(std::memory_order_acquire) == 0) std::this_thread::yield();
    }
    std::uint64_t deposited = 0;
    for (const auto& c : chunks) deposited += c.load(std::memory_order_relaxed);
    const double window_s = seconds_since(t0);
    stop.store(true, std::memory_order_relaxed);
    threads.clear();  // joins
    const trace::Snapshot d = trace::snapshot().delta_since(before);

    // Oracle: whole passes times the pass sum plus the partial pass.
    std::array<std::uint64_t, kLanes> done{};
    Hp expected;
    for (int l = 0; l < kLanes; ++l) {
      done[static_cast<std::size_t>(l)] =
          chunks[static_cast<std::size_t>(l)].load(std::memory_order_relaxed);
      expected += in_.lane_expected(l, done[static_cast<std::size_t>(l)]);
    }
    checks_.expect(same(set.snapshot().hp, expected), "snapshot after stop");
    std::vector<std::byte> bytes;
    const double ckpt_s = timed(tr, kSpanCheckpoint, id,
                                [&] { bytes = set.checkpoint(); });
    engine::ShardSet<engine::DynSum> restored(kRestoreLanes,
                                              engine::DynSum(kCfg));
    const double restore_s = timed(tr, kSpanRestore, id,
                                   [&] { restored.restore(bytes); });
    HpDyn drained(kCfg);
    timed(tr, kSpanDrain, id, [&] { drained = restored.drain().hp; });
    checks_.expect(same(drained, expected), "restore onto 3 lanes + drain");
    checks_.expect(same(set.drain().hp, expected), "drain");

    if (!window.has_value()) return;
    out.deposit_msps.push_back(static_cast<double>(deposited * kChunk) /
                               window_s * 1e-6);
    double ns = 0;
    for (int l = 0; l < kLanes; ++l) {
      const auto values =
          static_cast<double>(done[static_cast<std::size_t>(l)] * kChunk);
      ns += values > 0 ? cpu_s[static_cast<std::size_t>(l)] * 1e9 / values : 0;
    }
    out.deposit_ns.push_back(ns / kLanes);
    out.snap.merge(hist);
    out.snap_retries += d.value(trace::Counter::kEngineSnapshotRetries);
    out.ckpt_us.push_back(ckpt_s * 1e6);
    out.restore_us.push_back(restore_s * 1e6);
    out.ckpt_bytes = static_cast<double>(bytes.size());
  }

  /// Encodes then decodes every allreduce partial of this workload.
  void wire(Samples& out, Tracer* tr, std::uint64_t id) {
    const auto& raws = in_.raw_partials;
    std::vector<std::vector<std::byte>> msgs(raws.size());
    const double enc_s = timed(tr, kSpanWireEncode, id, [&] {
      for (std::size_t i = 0; i < raws.size(); ++i) {
        msgs[i] = mpisim::wire::encode(
            raws[i].data(), 1, kN,
            static_cast<std::uint8_t>(in_.rank_ref[i].status()));
      }
    });
    std::vector<std::vector<std::byte>> back(
        raws.size(), std::vector<std::byte>(static_cast<std::size_t>(kN) * 8));
    std::vector<std::uint8_t> st(raws.size(), 0);
    const double dec_s = timed(tr, kSpanWireDecode, id, [&] {
      for (std::size_t i = 0; i < raws.size(); ++i) {
        st[i] = mpisim::wire::decode(msgs[i].data(), msgs[i].size(),
                                     back[i].data(), 1, kN);
      }
    });
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < raws.size(); ++i) {
      failed += (back[i] == raws[i] &&
                 st[i] == static_cast<std::uint8_t>(in_.rank_ref[i].status()))
                    ? 0
                    : 1;
    }
    checks_.add(raws.size(), failed, "wire encode/decode round trip");
    const auto count = static_cast<double>(raws.size());
    out.enc_ns.push_back(enc_s * 1e9 / count);
    out.dec_ns.push_back(dec_s * 1e9 / count);
  }

  const Inputs& in_;
  int pes_;
  Checks checks_;
};

// ---------------------------------------------------------------- report

/// Minimal JSON object writer for the flat report.
class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    std::string esc;
    for (const char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) esc += c;
    }
    field(key, "\"" + esc + "\"");
  }
  void raw(const std::string& key, const std::string& json) { field(key, json); }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
  }
  std::string body_;
};

template <class F>
[[nodiscard]] std::vector<double> map_points(
    const std::vector<backends::ScalingPoint>& pts, F f) {
  std::vector<double> out;
  out.reserve(pts.size());
  for (const auto& p : pts) out.push_back(f(p));
  return out;
}

/// Per-layer numbers of one parallel driver (backends.threads / .omp).
void backend_metrics(JsonObject& j, const std::string& prefix,
                     const std::vector<backends::ScalingPoint>& pts,
                     const std::vector<double>& seq_s, int pes) {
  const auto busy_max = map_points(pts, [](const auto& p) { return p.busy_max; });
  const auto merge = map_points(pts, [](const auto& p) { return p.merge_time; });
  const auto overhead = map_points(pts, [](const auto& p) {
    return p.measured_wall - p.busy_max - p.merge_time;
  });
  const auto imbalance = map_points(pts, [](const auto& p) {
    return p.busy_total > 0
               ? p.busy_max * static_cast<double>(p.pes) / p.busy_total
               : 0.0;
  });
  std::vector<double> eff;
  for (std::size_t i = 0; i < pts.size() && i < seq_s.size(); ++i) {
    eff.push_back(seq_s[i] / (static_cast<double>(pes) * pts[i].measured_wall));
  }
  j.num(prefix + ".busy_max_s", median(busy_max));
  j.num(prefix + ".merge_s", median(merge));
  j.num(prefix + ".overhead_s", median(overhead));
  j.num(prefix + ".imbalance", median(imbalance));
  j.num(prefix + ".efficiency", median(eff));
}

[[nodiscard]] std::vector<double> rate_msps(const std::vector<double>& secs,
                                            std::size_t n) {
  std::vector<double> out;
  out.reserve(secs.size());
  for (const double s : secs) out.push_back(static_cast<double>(n) / s * 1e-6);
  return out;
}

[[nodiscard]] std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6g", i == 0 ? "" : ",", v[i]);
    out += buf;
  }
  return out + "]";
}

[[nodiscard]] double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv,
                          {"workload", "seed", "seconds", "smoke", "trace"});
    const std::string name = args.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const double seconds = args.get_double("seconds", 20.0);
    const Sizes sz = args.get_bool("smoke") ? kSmoke : kFull;
    const std::string trace_path = args.get_string("trace", "");
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const int pes = static_cast<int>(std::min(4u, hw));

    const auto t_gen = Clock::now();
    const Inputs in = make_inputs(name, sz, seed);
    const double gen_s = seconds_since(t_gen);

    // setup_s is the median of kSetups set-up passes: one before the first
    // round, the rest spread evenly through the run. Passes bunched at the
    // start sampled the host's speed over a few seconds only, and spread
    // two to three times wider between runs than the metrics of the rounds.
    Bench bench(in, pes);
    std::vector<double> setup_s;
    const auto set_up = [&] {
      const auto t0 = Clock::now();
      bench.setup();
      setup_s.push_back(seconds_since(t0));
    };
    set_up();

    // With --trace every odd round records spans. Traced and untraced
    // rounds then see the same host states, so the difference in their
    // per-round work time is the tracing overhead.
    Samples s;
    Tracer tracer;
    const bool tracing = !trace_path.empty();
    const auto t_run = Clock::now();
    std::uint64_t rounds = 0;
    while (seconds_since(t_run) < seconds ||
           rounds < (tracing ? 2 : 1) * kMinRounds) {
      if (setup_s.size() < kSetups &&
          seconds_since(t_run) >= seconds *
                                      static_cast<double>(setup_s.size()) /
                                      static_cast<double>(kSetups)) {
        set_up();
      }
      const bool trace_round = tracing && rounds % 2 == 1;
      if (trace_round && rounds == 1) tracer.start(now_ns());
      bench.round(s, trace_round ? &tracer : nullptr, rounds);
      ++rounds;
    }
    while (setup_s.size() < kSetups) set_up();
    if (tracing && !tracer.write_chrome(trace_path)) {
      std::fprintf(stderr, "error: cannot write trace file %s\n",
                   trace_path.c_str());
      return 1;
    }

    const Checks& ck = bench.checks();
    const double n = static_cast<double>(sz.n);
    // On a shared host a single thread's speed flips between two states
    // for seconds at a time, so the median of a single-thread series
    // flips with the share of slow time in the run, while a quantile on
    // the fast side stays put. A fork/join call waits for the slowest of
    // its threads and spreads broadly instead; there the median is the
    // steady statistic. README.md has the measurements behind the choice.
    const double hp_seq = quantile(rate_msps(s.seq_s, sz.n), 0.9);
    const double dbl_seq = quantile(rate_msps(s.dbl_s, sz.n), 0.9);

    JsonObject e2e;
    e2e.num("hp_seq_msps", hp_seq);
    e2e.num("hp_threads_msps", median(rate_msps(s.thr_s, sz.n)));
    e2e.num("hp_omp_msps", median(rate_msps(s.omp_s, sz.n)));
    e2e.num("hb_threads_msps", median(rate_msps(s.hb_s, sz.n)));
    e2e.num("allreduce_p10_us", quantile(s.step_us, 0.1));
    e2e.num("allreduce_p90_us", quantile(s.step_us, 0.9));
    e2e.num("deposit_msps", quantile(s.deposit_msps, 0.9));
    e2e.num("snapshot_p10_us", s.snap.quantile_ns(0.1) * 1e-3);
    e2e.num("setup_s", median(setup_s));
    e2e.num("peak_rss_mib", peak_rss_mib());

    const double steps = static_cast<double>(s.steps);
    JsonObject layer;
    layer.num("core.seq_ns_per_add", 1e3 / hp_seq);
    layer.num("core.gbytes_per_s", hp_seq * 1e6 * 8.0 * 1e-9);
    layer.num("core.simd_coverage", median(s.simd_cov));
    layer.num("core.simd_punt_ratio", median(s.punt_ratio));
    backend_metrics(layer, "backends.threads", s.thr_pt, s.seq_s, pes);
    backend_metrics(layer, "backends.omp", s.omp_pt, s.seq_s, pes);
    layer.num("hallberg.ns_per_add",
              median(map_points(s.hb_pt, [](const auto& p) { return p.busy_total; })) *
                  1e9 / n);
    layer.num("engine.local_reduce_us", median(s.local_us));
    layer.num("mpisim.allreduce_us", median(s.coll_us));
    layer.num("mpisim.collective_share", median(s.coll_share));
    layer.num("mpisim.messages_per_step", static_cast<double>(s.stats.messages) / steps);
    layer.num("mpisim.wire_raw_bytes_per_step",
              static_cast<double>(s.stats.wire_raw_bytes) / steps);
    layer.num("mpisim.wire_encoded_bytes_per_step",
              static_cast<double>(s.stats.wire_encoded_bytes) / steps);
    layer.num("mpisim.wire_ratio",
              static_cast<double>(s.stats.wire_raw_bytes) /
                  static_cast<double>(s.stats.wire_encoded_bytes));
    layer.num("mpisim.wire_encode_ns", median(s.enc_ns));
    layer.num("mpisim.wire_decode_ns", median(s.dec_ns));
    layer.num("mpisim.world_start_ms", median(s.world_ms));
    layer.num("engine.deposit_ns_per_add", median(s.deposit_ns));
    layer.num("engine.snapshot_p99_us", s.snap.quantile_ns(0.99) * 1e-3);
    layer.num("engine.snapshot_retries_per_call",
              static_cast<double>(s.snap_retries) /
                  static_cast<double>(std::max<std::uint64_t>(1, s.snap.count())));
    layer.num("engine.checkpoint_us", median(s.ckpt_us));
    layer.num("engine.restore_us", median(s.restore_us));
    layer.num("engine.checkpoint_bytes", s.ckpt_bytes);
    layer.num("baseline.double_seq_msps", dbl_seq);
    layer.num("ratio.hp_over_double_seq", dbl_seq / hp_seq);
    if (tracing) {
      layer.num("trace.overhead_pct",
                (median(s.work_traced_s) / median(s.work_plain_s) - 1.0) * 100.0);
    }

    // Printed, not gated: the median sits where the host's two speed
    // states mix, and the far tails swing more than any bound.
    JsonObject tails;
    tails.num("allreduce_blocks", static_cast<double>(s.step_us.size()));
    tails.num("allreduce_p50_us", quantile(s.step_us, 0.5));
    tails.num("allreduce_p99_us", quantile(s.step_us, 0.99));
    tails.num("allreduce_tail_q", tail_q(s.step_us.size()));
    tails.num("allreduce_tail_us", quantile(s.step_us, tail_q(s.step_us.size())));
    tails.num("snapshot_calls", static_cast<double>(s.snap.count()));
    tails.num("snapshot_p50_us", s.snap.quantile_ns(0.5) * 1e-3);
    tails.num("snapshot_p99_us", s.snap.quantile_ns(0.99) * 1e-3);
    tails.num("snapshot_tail_q", tail_q(s.snap.count()));
    tails.num("snapshot_tail_us", s.snap.quantile_ns(tail_q(s.snap.count())) * 1e-3);
    tails.num("rounds", static_cast<double>(rounds));
    tails.num("deposit_windows", static_cast<double>(s.deposit_msps.size()));
    tails.num("generate_s", gen_s);

    std::string spans = "{";
    if (tracing) {
      const auto tot = tracer.totals();
      for (std::size_t i = 0; i < kSpanCount; ++i) {
        JsonObject a;
        a.num("count", static_cast<double>(tot[i].count));
        a.num("total_ms", tot[i].total_ns * 1e-6);
        a.num("self_ms", tot[i].self_ns * 1e-6);
        spans += std::string(i == 0 ? "" : ",") + "\"" + kSpanNames[i] +
                 "\":" + a.done();
      }
    }
    spans += "}";

    JsonObject fp;
    fp.num("nproc", hw);
    fp.num("pes", pes);
    fp.str("simd", kernel::simd::level_name(kernel::simd::active_level()));
    fp.raw("trace_enabled", trace::enabled() ? "true" : "false");
    fp.str("compiler", std::string("gcc ") + __VERSION__);
    fp.str("build_type", HPSUM_E2E_BUILD_TYPE);

    std::string failures = "[";
    for (std::size_t i = 0; i < ck.failures.size(); ++i) {
      failures += (i == 0 ? "\"" : ",\"") + ck.failures[i] + "\"";
    }
    failures += "]";

    JsonObject report;
    report.str("workload", name);
    report.num("seed", static_cast<double>(seed));
    report.raw("fingerprint", fp.done());
    report.num("attempted", static_cast<double>(ck.attempted));
    report.num("failed", static_cast<double>(ck.failed));
    report.raw("failures", failures);
    report.raw("end_to_end", e2e.done());
    report.raw("per_layer", layer.done());
    report.raw("tails", tails.done());
    report.raw("spans", spans);
    // Per-round series behind the medians, for run-to-run analysis.
    JsonObject series;
    series.raw("hp_seq_msps", json_array(rate_msps(s.seq_s, sz.n)));
    series.raw("hp_threads_msps", json_array(rate_msps(s.thr_s, sz.n)));
    series.raw("hp_omp_msps", json_array(rate_msps(s.omp_s, sz.n)));
    series.raw("hb_threads_msps", json_array(rate_msps(s.hb_s, sz.n)));
    series.raw("allreduce_block_us", json_array(s.step_us));
    series.raw("deposit_msps", json_array(s.deposit_msps));
    series.raw("setup_s", json_array(setup_s));
    report.raw("series", series.done());
    std::printf("%s\n", report.done().c_str());
    return ck.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpsum_e2e: %s\n", e.what());
    return 2;
  }
}
