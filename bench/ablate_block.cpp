// Ablation A2c: the carry-deferred block accumulation path.
//
// reduce_hp and every backend inner loop hand whole slices to
// BlockAccumulator (core/hp_kernel.hpp): deposits land in per-limb
// carry-save planes (one unsigned __int128 per limb per sign) and carries
// normalize once per flush instead of once per summand. The contract is
// bit-identity — limbs AND sticky status — with the element-at-a-time
// operator+=(double) loop; this bench first verifies that on every stream
// it times (exit 1 on any mismatch), then measures ns/summand for both
// paths. Streams: the paper's uniform set as all-positive, all-negative
// and mixed-sign, plus the wide-range set (exponents -120..100), which
// spreads every block over ~220 exponents and all six limbs. A span
// sweep then deposits the uniform and wide streams in spans of 64 to
// 4096 summands and whole, through the dispatched block path, the chunk
// deposit alone and simd::accumulate alone: the price of the chunk fold,
// and the evidence for kernel::kChunkMinSpan. A prefetch sweep deposits
// the uniform and wide streams whole through the chunk deposit body at
// prefetch distances off/256..4096: the evidence for
// kernel::kChunkPrefetch. Run it at --n=33554432 to stream from DRAM and
// at --n=131072 to stay in L2.
//
// Flags: --n (default 4M summands), --seed, --json=PATH (write the bench
// record tools/bench_smoke.py gates; see EXPERIMENTS.md).
#include <algorithm>
#include <array>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/hp_fixed.hpp"
#include "core/hp_kernel.hpp"
#include "core/hp_kernel_chunk.hpp"
#include "core/hp_kernel_simd.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hpsum;

/// ns total for the block path (BlockAccumulator::accumulate over the whole
/// stream) or the scalar path (operator+= per element).
template <int N, int K>
double time_sum(const std::vector<double>& xs, bool block) {
  return bench::time_min(3, [&] {
    if (block) {
      BlockAccumulator<N, K> blk;
      blk.accumulate(std::span<const double>(xs.data(), xs.size()));
      bench::sink(HpFixed<N, K>(blk).to_double());
    } else {
      HpFixed<N, K> acc;
      for (const double x : xs) acc += x;
      bench::sink(acc.to_double());
    }
  });
}

/// The ablation's precondition: the two paths agree bit for bit, limbs and
/// status, on this stream. Timing a divergent fast path would be garbage.
template <int N, int K>
bool paths_identical(const std::vector<double>& xs) {
  HpFixed<N, K> scalar;
  for (const double x : xs) scalar += x;
  BlockAccumulator<N, K> blk;
  blk.accumulate(std::span<const double>(xs.data(), xs.size()));
  HpFixed<N, K> fast(blk);
  return fast.limbs() == scalar.limbs() && fast.status() == scalar.status();
}

struct BlockRow {
  const char* stream;
  double block_ns;
  double scalar_ns;
};

/// One span-sweep deposit entry point: the raw kernel signature shared by
/// kernel::block_accumulate, kernel::chunk_accumulate and
/// kernel::simd::accumulate.
using SpanDeposit = HpStatus (*)(util::Limb*, kernel::U128*, kernel::U128*,
                                 int, int, int&, int&,
                                 std::span<const double>);

/// HP(6,3) limbs of `xs` deposited through `deposit` in consecutive spans
/// of `span` summands into one block state, flushed once at the end, with
/// the sticky status appended as a seventh word.
std::vector<util::Limb> deposit_spans(const std::vector<double>& xs,
                                      std::size_t span, SpanDeposit deposit) {
  std::vector<util::Limb> a(6, 0);
  kernel::U128 pos[7] = {};
  kernel::U128 neg[7] = {};
  int bound = 0;
  int pending = 0;
  HpStatus st = HpStatus::kOk;
  const std::span<const double> all(xs.data(), xs.size());
  for (std::size_t i = 0; i < all.size(); i += span) {
    st |= deposit(a.data(), pos, neg, 6, 3, bound, pending,
                  all.subspan(i, std::min(span, all.size() - i)));
  }
  kernel::block_flush(a.data(), pos, neg, 6, bound, pending);
  a.push_back(static_cast<util::Limb>(st));
  return a;
}

/// One point of the prefetch sweep: the chunk deposit body with prefetch
/// distance kAhead, over its own scratch (the bench is single-threaded).
/// The production point is kernel::chunk_accumulate itself.
template <std::size_t kAhead>
HpStatus chunk_variant(util::Limb* a, kernel::U128* pos, kernel::U128* neg,
                       int n, int k, int& bound, int& pending,
                       std::span<const double> xs) noexcept {
  static std::vector<std::uint64_t> scratch(kernel::chunk::kCount, 0);
  return kernel::chunk::deposit<kAhead>(scratch.data(), a, pos, neg, n, k,
                                        bound, pending, xs);
}

struct Variant {
  std::size_t ahead;
  SpanDeposit deposit;
};

constexpr std::array<Variant, 6> kPrefetchVariants = {
    Variant{0, &chunk_variant<0>},       Variant{256, &chunk_variant<256>},
    Variant{512, &chunk_variant<512>},   Variant{1024, &chunk_variant<1024>},
    Variant{2048, &chunk_variant<2048>}, Variant{4096, &chunk_variant<4096>}};

struct TuneRow {
  std::string stream;
  std::size_t ahead;
  double ns;
};

struct SweepRow {
  std::string stream;
  std::string span;  ///< summands per span, or "whole"
  double block_ns;
  double chunk_ns;
  double simd_ns;
};

int run(const util::Args& args) {
  bench::arm_flight(args);
  const auto n = bench::pick(args, "n", 4 * 1024 * 1024, 32 * 1024 * 1024);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));

  bench::banner("Ablation A2c: carry-deferred block path vs scalar deposits",
                "per-limb carry-save planes normalize once per flush "
                "instead of propagating a carry chain per summand");

  auto mixed = workload::uniform_set(static_cast<std::size_t>(n), seed);
  std::vector<double> positive = mixed;
  std::vector<double> negative = mixed;
  for (std::size_t i = 0; i < positive.size(); ++i) {
    positive[i] = std::abs(positive[i]);
    negative[i] = -std::abs(negative[i]);
  }
  const auto wide =
      workload::wide_range_set(static_cast<std::size_t>(n), seed, -120, 100);

  util::TablePrinter table({"format", "stream", "block ns/add",
                            "scalar ns/add", "speedup"});
  std::vector<BlockRow> rows;
  bool all_identical = true;
  const auto row = [&](const char* label, const std::vector<double>& xs) {
    if (!paths_identical<6, 3>(xs)) {
      std::fprintf(stderr,
                   "ablate_block: block path diverges from scalar on the "
                   "%s stream — refusing to time a wrong kernel\n",
                   label);
      all_identical = false;
      return;
    }
    const double tb =
        1e9 * time_sum<6, 3>(xs, true) / static_cast<double>(xs.size());
    const double ts =
        1e9 * time_sum<6, 3>(xs, false) / static_cast<double>(xs.size());
    rows.push_back({label, tb, ts});
    table.begin_row();
    table.add_cell("HP(6,3)");
    table.add_cell(label);
    table.add_num(tb, 4);
    table.add_num(ts, 4);
    table.add_num(ts / tb, 3);
  };
  row("all-positive", positive);
  row("all-negative", negative);
  row("mixed", mixed);
  row("wide", wide);

  // ns/add of `xs` deposited in spans of `span` through `deposit`, after
  // checking its limbs and status against `ref`.
  const auto time_spans = [&](const char* label, const std::vector<double>& xs,
                              const std::vector<util::Limb>& ref,
                              std::size_t span, SpanDeposit deposit) {
    if (deposit_spans(xs, span, deposit) != ref) {
      std::fprintf(stderr,
                   "ablate_block: span-%zu deposits diverge on the %s "
                   "stream — refusing to time a wrong kernel\n",
                   span, label);
      all_identical = false;
      return 0.0;
    }
    return 1e9 *
           bench::time_min(3,
                           [&] {
                             bench::sink(static_cast<double>(
                                 deposit_spans(xs, span, deposit)[0]));
                           }) /
           static_cast<double>(xs.size());
  };

  // The span sweep prices the chunk fold: the same stream deposited in
  // spans of one length through the dispatched block path, the chunk
  // deposit alone and simd::accumulate alone. The fold walks the span's
  // touched exponent range once per block, so short spans pay it over
  // few summands; kChunkMinSpan sits where the chunk column starts
  // winning on the wide stream.
  util::TablePrinter sweep({"stream", "span", "block ns/add", "chunk ns/add",
                            "simd ns/add"});
  util::TablePrinter tune({"stream", "prefetch", "chunk ns/add"});
  std::vector<SweepRow> sweep_rows;
  std::vector<TuneRow> tune_rows;
  for (const auto& [label, xs] :
       {std::pair<const char*, const std::vector<double>*>{"uniform", &mixed},
        {"wide", &wide}}) {
    const std::vector<util::Limb> ref =
        deposit_spans(*xs, xs->size(), &kernel::block_accumulate);
    for (const std::size_t span :
         {std::size_t{64}, std::size_t{256}, std::size_t{512},
          std::size_t{1024}, std::size_t{4096}, xs->size()}) {
      const SweepRow r{
          label, span == xs->size() ? "whole" : std::to_string(span),
          time_spans(label, *xs, ref, span, &kernel::block_accumulate),
          time_spans(label, *xs, ref, span, &kernel::chunk_accumulate),
          time_spans(label, *xs, ref, span, &kernel::simd::accumulate)};
      sweep_rows.push_back(r);
      sweep.begin_row();
      sweep.add_cell(r.stream);
      sweep.add_cell(r.span);
      sweep.add_num(r.block_ns, 4);
      sweep.add_num(r.chunk_ns, 4);
      sweep.add_num(r.simd_ns, 4);
    }
  }
  // The prefetch sweep deposits each whole stream through the chunk
  // deposit at every prefetch distance: the evidence for kChunkPrefetch.
  for (const auto& [label, xs] :
       {std::pair<const char*, const std::vector<double>*>{"uniform", &mixed},
        {"wide", &wide}}) {
    const std::vector<util::Limb> ref =
        deposit_spans(*xs, xs->size(), &kernel::block_accumulate);
    for (const Variant& v : kPrefetchVariants) {
      const TuneRow r{label, v.ahead,
                      time_spans(label, *xs, ref, xs->size(), v.deposit)};
      tune_rows.push_back(r);
      tune.begin_row();
      tune.add_cell(r.stream);
      tune.add_cell(r.ahead == 0 ? std::string("off")
                                 : std::to_string(r.ahead));
      tune.add_num(r.ns, 4);
    }
  }
  if (!all_identical) return 1;
  bench::emit_table(table, args);
  std::printf("\nspan sweep (HP(6,3), one block state, spans deposited in "
              "stream order; kChunkMinSpan = %zu):\n",
              kernel::kChunkMinSpan);
  bench::emit_table(sweep, args);
  std::printf("\nprefetch sweep (HP(6,3), whole stream, chunk deposit; "
              "kChunkPrefetch = %zu doubles):\n",
              kernel::kChunkPrefetch);
  bench::emit_table(tune, args);
  std::printf(
      "\nreading: the block path wins twice over the scalar loop. It "
      "removes the sign-dependent carry/borrow branch per summand, which "
      "the scalar loop mispredicts on mixed-sign streams (the paper's "
      "workload); and on spans of kChunkMinSpan or more it adds each "
      "mantissa, unshifted, into one 64-bit chunk per sign and exponent, "
      "folding the chunks into the limb planes once per %zu summands, so "
      "a summand costs a load, a mask and an add whatever its exponent — "
      "the wide stream costs about what the uniform ones do. The span "
      "sweep prices the fold, which walks the block's touched exponent "
      "range (a few dozen chunks on uniform data, ~440 on the wide set): "
      "on short wide spans it costs more than the chunks save, so spans "
      "and span tails shorter than kChunkMinSpan = %zu take "
      "simd::accumulate (level \"%s\" here). The prefetch sweep sets "
      "the chunk deposit's prefetch distance: on a stream larger than the "
      "caches (--n=33554432) the prefetch rows run well below the 'off' "
      "rows, at about what an L2-sized stream (--n=131072) costs. "
      "Identity of limbs and status is checked above before timing.\n",
      kernel::kChunkBlock, kernel::kChunkMinSpan,
      kernel::simd::level_name(kernel::simd::active_level()));

  // --json=PATH: the bench record (bench/common.hpp) tools/bench_smoke.py
  // gates against bench/BENCH_block.json.
  bench::Record record("ablate_block");
  record.config("format", "HP(6,3)");
  record.config("n", n);
  record.config("seed", static_cast<std::int64_t>(seed));
  for (const BlockRow& r : rows) {
    const std::string stream = r.stream;
    record.add(stream + ".block_ns_per_add", r.block_ns, "ns",
               bench::Better::kLower);
    record.add(stream + ".scalar_ns_per_add", r.scalar_ns, "ns",
               bench::Better::kLower);
    record.add(stream + ".speedup", r.scalar_ns / r.block_ns, "ratio",
               bench::Better::kHigher);
  }
  for (const SweepRow& r : sweep_rows) {
    const std::string prefix = "sweep." + r.stream + "." + r.span;
    record.add(prefix + ".block_ns_per_add", r.block_ns, "ns",
               bench::Better::kLower);
    record.add(prefix + ".chunk_ns_per_add", r.chunk_ns, "ns",
               bench::Better::kLower);
    record.add(prefix + ".simd_ns_per_add", r.simd_ns, "ns",
               bench::Better::kLower);
  }
  for (const TuneRow& r : tune_rows) {
    record.add("tune." + r.stream + ".prefetch" + std::to_string(r.ahead) +
                   ".ns_per_add",
               r.ns, "ns", bench::Better::kLower);
  }
  if (!record.write(args)) return 1;
  return bench::finish(args);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv,
                         {"n", "seed", "csv", "json", bench::kMetricsFlag,
                          bench::kFlightFlag}, run);
}
