// hp_kernel — the single home of the paper's limb-level arithmetic.
//
// Every accumulation path in the tree (HpFixed, HpDyn, HpAtomic, HpAdaptive,
// reduce_hp, the backends' HpSum, rblas, and the mpisim / cudasim / phisim
// reductions) routes through the primitives in this header; hplint
// rule L6 (duplicate-kernel) mechanically bans re-implementations elsewhere.
// The layering is:
//
//   detail::   — the kernel bodies: carry-propagating add (paper Listing 2),
//                subtract, two's-complement negate, the fused scatter-add
//                deposit, and the Deposit decomposition they share. Function
//                names here (add_impl, scatter_add_double, ...) are the
//                tokens L6 polices outside src/core/hp_kernel.*.
//   kernel::   — the public entry points over raw big-endian limb arrays:
//                add/sub/negate/compare/scatter_add, a generic atomic_add
//                over any fetch-add primitive (HpAtomic's CAS loop, its
//                fetch_add ablation, and the cudasim device adder are all
//                instantiations), and the carry-deferred block kernel
//                (block_add / block_flush / block_bound_exp, and the span
//                entry block_accumulate). At runtime block_accumulate runs
//                the exponent-indexed chunk deposit (chunk_accumulate in
//                hp_kernel.cpp over hp_kernel_chunk.hpp: Neal's large
//                superaccumulator, one 64-bit chunk per sign+exponent,
//                folded into the planes once per block of up to
//                kChunkBlock summands) and sends spans shorter than
//                kChunkMinSpan to simd::accumulate (hp_kernel_simd.hpp).
//   BlockAccumulator<N,K> — the block fast path as a value type: deposits
//                a stream of doubles into per-limb carry-save partials
//                (unsigned __int128 planes, one positive one negative) and
//                normalizes carries once per flush instead of once per
//                summand — in practice once per span, because flushes
//                wait for Neal's logarithmic deferral budget (arXiv
//                1505.05571) to run out. Provably bit-identical — limbs
//                AND sticky status — to the sequential scalar
//                operator+=(double) path;
//                tests/test_block.cpp holds the differential fuzz and
//                constexpr proofs, docs/KERNELS.md the invariant argument.
//
// All double-path kernels are constexpr and libm-free (IEEE fields via
// std::bit_cast), so the whole deposit -> defer -> normalize pipeline can be
// evaluated at compile time; constant evaluation of block_accumulate takes
// the scalar block_add loop instead of the two runtime bodies.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "core/hp_config.hpp"
#include "core/hp_kernel_simd.hpp"
#include "core/hp_status.hpp"
#include "trace/trace.hpp"
#include "util/annotations.hpp"
#include "util/limbs.hpp"

namespace hpsum {

namespace detail {

/// 2^e as a double for -1022 <= e <= 1023, computable at compile time.
constexpr double pow2(int e) noexcept {
  return std::bit_cast<double>(static_cast<std::uint64_t>(1023 + e) << 52);
}

/// IEEE-754 binary64 field accessors (constexpr stand-ins for isfinite &c).
constexpr std::uint64_t f64_bits(double r) noexcept {
  return std::bit_cast<std::uint64_t>(r);
}
constexpr int f64_biased_exp(double r) noexcept {
  return static_cast<int>((f64_bits(r) >> 52) & 0x7FF);
}
constexpr bool f64_is_finite(double r) noexcept {
  return f64_biased_exp(r) != 0x7FF;
}
constexpr double f64_abs(double r) noexcept {
  return std::bit_cast<double>(f64_bits(r) & ~(std::uint64_t{1} << 63));
}

/// Single-limb add with intentional mod-2^64 wrap, for call sites (lambdas,
/// expression contexts) where the function-level wrap attribute can't go.
HPSUM_ALLOW_UNSIGNED_WRAP
[[nodiscard]] constexpr util::Limb wrap_add(util::Limb a,
                                            util::Limb b) noexcept {
  return a + b;
}

/// HP += HP (paper Listing 2): limb-wise addition from the least significant
/// limb upward, with explicit carry propagation. Detects overflow by the
/// sign rule the paper gives (§III.A): same-sign operands whose sum has the
/// opposite sign. Unsigned wraparound is the mechanism, not an accident.
HPSUM_ALLOW_UNSIGNED_WRAP
[[nodiscard]] constexpr HpStatus add_impl(util::Limb* a, const util::Limb* b,
                                          int n) noexcept {
  const bool sa = (a[0] >> 63) != 0;
  const bool sb = (b[0] >> 63) != 0;
  if (n == 1) {
    a[0] += b[0];
  } else {
    a[n - 1] = a[n - 1] + b[n - 1];
    bool co = a[n - 1] < b[n - 1];
    for (int i = n - 2; i >= 1; --i) {
      a[i] = a[i] + b[i] + static_cast<util::Limb>(co);
      co = (a[i] == b[i]) ? co : (a[i] < b[i]);
    }
    a[0] = a[0] + b[0] + static_cast<util::Limb>(co);
  }
  const bool sr = (a[0] >> 63) != 0;
  const HpStatus st =
      (sa == sb && sr != sa) ? HpStatus::kAddOverflow : HpStatus::kOk;
  trace::count_status(st);
  return st;
}

/// Two's-complement negation in place with the overflow rule: the most
/// negative value (-2^(64n-1)) has no positive counterpart — it negates to
/// itself and kAddOverflow is returned. (No trace probe here: the raise is
/// counted by whichever status-counting operation consumes the flag.)
[[nodiscard]] constexpr HpStatus negate_impl(util::Limb* a, int n) noexcept {
  const bool was_min =
      a[0] == (util::Limb{1} << 63) &&
      util::is_zero(
          util::ConstLimbSpan(a + 1, static_cast<std::size_t>(n - 1)));
  util::negate_twos(util::LimbSpan(a, static_cast<std::size_t>(n)));
  return was_min ? HpStatus::kAddOverflow : HpStatus::kOk;
}

/// HP -= HP as negate-then-add, so the status semantics are exactly those
/// of the subtraction the accumulator types always performed: kAddOverflow
/// if b is the most negative value (unnegatable) or if the add overflows.
[[nodiscard]] constexpr HpStatus sub_impl(util::Limb* a, const util::Limb* b,
                                          int n) noexcept {
  util::Limb tmp[kMaxLimbs] = {};
  for (int i = 0; i < n; ++i) tmp[i] = b[i];
  HpStatus st = negate_impl(tmp, n);
  st |= add_impl(a, tmp, n);
  return st;
}

/// Three-way two's-complement comparison: -1, 0, or +1.
[[nodiscard]] constexpr int compare_impl(const util::Limb* a,
                                         const util::Limb* b, int n) noexcept {
  return util::compare_twos(
      util::ConstLimbSpan(a, static_cast<std::size_t>(n)),
      util::ConstLimbSpan(b, static_cast<std::size_t>(n)));
}

/// Where a double lands in an (n,k) limb array: the deposit decomposition
/// shared by the scalar scatter-add and the block fast path. `st` carries
/// the conversion-side flags (kInexact truncation / kConvertOverflow);
/// `has_bits` is false when nothing reaches the limbs (zero, sub-lsb
/// truncation to nothing, non-finite, out of range) and the caller must
/// just return `st` with the accumulator untouched.
struct Deposit {
  HpStatus st = HpStatus::kOk;
  bool has_bits = false;
  bool isneg = false;
  int li = 0;              ///< limb index of the mantissa's low word
  int msb = 0;             ///< storage-bit index of the mantissa msb
  util::Limb lo = 0;       ///< bits for limb li
  util::Limb hi = 0;       ///< straddle bits for limb li-1 (0 when aligned)
};

/// Decomposes `r` for an (n,k) format. Same bit-placement math as
/// from_double_exact: a normal double is (2^52|frac) * 2^(E-1075), a
/// subnormal is frac * 2^-1074; the mantissa lsb lands at storage bit
/// p = weight-of-lsb + 64k (bit 0 = lsb of limb n-1).
constexpr Deposit decompose_double(int n, int k, double r) noexcept {
  Deposit d;
  if (!f64_is_finite(r)) {
    d.st = HpStatus::kConvertOverflow;
    return d;
  }
  if (r == 0.0) return d;  // covers -0.0: canonical zero addend

  const int be = f64_biased_exp(r);
  std::uint64_t m53 = f64_bits(r) & ((std::uint64_t{1} << 52) - 1);
  if (be != 0) m53 |= std::uint64_t{1} << 52;  // implicit leading bit
  int p = (be == 0 ? -1074 : be - 1075) + 64 * k;

  if (p < 0) {
    // Low bits fall below 2^(-64k): truncate toward zero.
    if (-p >= 53) {
      d.st = HpStatus::kInexact;  // entirely sub-lsb
      return d;
    }
    if ((m53 & ((std::uint64_t{1} << -p) - 1)) != 0) {
      d.st |= HpStatus::kInexact;
    }
    m53 >>= -p;
    p = 0;
    if (m53 == 0) return d;
  }
  d.msb = p + 63 - std::countl_zero(m53);
  if (d.msb >= 64 * n - 1) {
    d.st = HpStatus::kConvertOverflow;  // collides with or passes the sign bit
    return d;
  }
  d.has_bits = true;
  d.isneg = (f64_bits(r) >> 63) != 0;
  d.li = n - 1 - p / 64;
  const int off = p % 64;
  d.lo = m53 << off;
  // The straddle limb; zero when off == 0 (the two-step shift keeps the
  // shift count < 64 — branchless, no UB), and provably zero when li == 0
  // (msb < 64n-1 keeps the mantissa inside the top limb there).
  d.hi = (m53 >> 1) >> (63 - off);
  return d;
}

/// Fused double -> HP convert + add: the scatter-add fast path for the hot
/// reduction loop (`acc += x`). A double's 53-bit mantissa lands in at most
/// two adjacent limbs (plus a dying carry), so instead of materializing a
/// full n-limb temporary (from_double_impl) and paying an O(n) carry add
/// (add_impl), this places the mantissa directly into the affected limbs
/// and propagates the carry upward only until it dies. Negative summands
/// subtract the magnitude with borrow propagation — no full-width
/// two's-complement temporary is ever built.
///
/// Bit-exact contract (enforced by tests/test_scatter_add.cpp): for every
/// finite/non-finite double and every accumulator state, the resulting
/// limbs AND the returned status equal the reference two-step path
/// `from_double_impl/_exact(r, tmp) ; add_impl(a, tmp)`:
///   - kInexact     when bits below 2^(-64k) truncate toward zero,
///   - kConvertOverflow for non-finite or out-of-range |r| (a unchanged),
///   - kAddOverflow when the add leaves the range, by the same sign rule
///     as add_impl (same-sign operands, opposite-sign result).
/// Carry/borrow past the top limb wraps mod 2^(64n), exactly as add_impl
/// wraps — the Z/2^(64n) group structure the overflow flag reports on.
HPSUM_ALLOW_UNSIGNED_WRAP
[[nodiscard]] constexpr HpStatus scatter_add_double(util::Limb* a, int n,
                                                    int k, double r) noexcept {
  trace::count(trace::Counter::kScatterAddCalls);
  const Deposit d = decompose_double(n, k, r);
  if (!d.has_bits) {
    trace::count_status(d.st);  // no-op for the clean-zero case
    return d.st;
  }
  HpStatus st = d.st;
  const bool sa = (a[0] >> 63) != 0;  // accumulator sign before the add

  if (!d.isneg) {
    bool carry = util::detail::addc(a[d.li], d.lo, false, &a[d.li]);
    if (d.li >= 1) {
      carry = util::detail::addc(a[d.li - 1], d.hi, carry, &a[d.li - 1]);
      for (int i = d.li - 2; i >= 0 && carry; --i) {
        carry = ++a[i] == 0;
      }
    }
  } else {
    bool borrow = util::detail::subb(a[d.li], d.lo, false, &a[d.li]);
    if (d.li >= 1) {
      borrow = util::detail::subb(a[d.li - 1], d.hi, borrow, &a[d.li - 1]);
      for (int i = d.li - 2; i >= 0 && borrow; --i) {
        borrow = a[i]-- == 0;
      }
    }
  }
  // add_impl's sign rule: the (virtual) addend is nonzero here, so its sign
  // is just the input's sign; compare against the result's sign.
  const bool sr = (a[0] >> 63) != 0;
  if (sa == d.isneg && sr != sa) st |= HpStatus::kAddOverflow;
  trace::count_status(st);
  return st;
}

}  // namespace detail

/// Public limb-kernel entry points. Everything below operates on raw
/// big-endian limb arrays (a[0] most significant) so both the compile-time
/// (HpFixed) and runtime (HpDyn) value types instantiate the same code.
namespace kernel {

__extension__ using U128 = unsigned __int128;

/// a += b over n limbs (paper Listing 2). Returns the sticky flags raised.
[[nodiscard]] constexpr HpStatus add(util::Limb* a, const util::Limb* b,
                                     int n) noexcept {
  return detail::add_impl(a, b, n);
}

/// a -= b over n limbs (negate-then-add; see detail::sub_impl).
[[nodiscard]] constexpr HpStatus sub(util::Limb* a, const util::Limb* b,
                                     int n) noexcept {
  return detail::sub_impl(a, b, n);
}

/// a = -a over n limbs; kAddOverflow for the unnegatable most-negative value.
[[nodiscard]] constexpr HpStatus negate(util::Limb* a, int n) noexcept {
  return detail::negate_impl(a, n);
}

/// Three-way two's-complement comparison: -1, 0, or +1.
[[nodiscard]] constexpr int compare(const util::Limb* a, const util::Limb* b,
                                    int n) noexcept {
  return detail::compare_impl(a, b, n);
}

/// a += r via the fused scatter deposit (see detail::scatter_add_double).
[[nodiscard]] constexpr HpStatus scatter_add(util::Limb* a, int n, int k,
                                             double r) noexcept {
  return detail::scatter_add_double(a, n, k, r);
}

/// Carry-propagating add of `b` into a shared n-limb accumulator expressed
/// over any atomic fetch-add primitive: `fetch_add(i, x)` must atomically
/// add `x` to limb i and return the limb's PREVIOUS value. The carry chain
/// lives entirely in the calling thread (the paper's §III.B.2 construction);
/// intermediate cross-limb states are torn, but limb-wise addition with
/// deferred carries is commutative/associative over Z/2^(64n), so once all
/// adders finish the result equals the sequential sum.
///
/// The top-limb update applies add_impl's sign rule to the observed
/// before/after values: in uncontended (or joined) runs they equal the
/// sequential adder's operands, so both paths raise the same sticky
/// kAddOverflow; under contention the observation is of some valid
/// interleaving — best-effort, never a dropped sequentially-detectable wrap.
/// HpAtomic's CAS-loop and fetch_add adders and the cudasim device adder are
/// the three instantiations.
template <class FetchAdd>
[[nodiscard]] inline HpStatus atomic_add(FetchAdd&& fetch_add,
                                         const util::Limb* b, int n) noexcept {
  HpStatus st = HpStatus::kOk;
  bool carry = false;
  for (int i = n - 1; i >= 0; --i) {
    const util::Limb x =
        detail::wrap_add(b[i], static_cast<util::Limb>(carry));
    const bool xwrap = carry && x == 0;  // b[i] was all-ones
    bool sumwrap = false;
    if (x != 0) {
      const util::Limb old = fetch_add(i, x);
      const util::Limb next = detail::wrap_add(old, x);
      sumwrap = next < old;  // unsigned wrap => carry into limb i-1
      if (i == 0) {
        const bool sa = (old >> 63) != 0;
        const bool sb = (b[0] >> 63) != 0;
        const bool sr = (next >> 63) != 0;
        if (sa == sb && sr != sa) st |= HpStatus::kAddOverflow;
      }
    }
    carry = xwrap || sumwrap;
  }
  // A carry out of limb 0 wraps the full 64n-bit ring exactly as the
  // sequential adder wraps; range departures are reported by the sign rule.
  trace::count_status(st);
  return st;
}

/// Conservative magnitude bound of the value in `a`: the smallest e with
/// |value| < 2^e (0 for zero; 64n for the most-negative value, whose
/// magnitude negate cannot represent — that forces the block path into its
/// scalar fallback, which is exactly right).
[[nodiscard]] constexpr int block_bound_exp(const util::Limb* a,
                                            int n) noexcept {
  util::Limb mag[kMaxLimbs] = {};
  for (int i = 0; i < n; ++i) mag[i] = a[i];
  const auto span = util::LimbSpan(mag, static_cast<std::size_t>(n));
  if (util::sign_bit(span)) util::negate_twos(span);
  return util::highest_set_bit(span) + 1;
}

/// Most deposits the block planes defer between flushes, whatever the
/// format's headroom: each U128 slot receives at most one < 2^64 word per
/// deposit, so it stays below 2^94 — far from wrapping.
inline constexpr int kBlockMaxPending = 1 << 30;

/// The deferral budget (Neal's small-superaccumulator count, arXiv
/// 1505.05571): true iff a flushed value below 2^bound plus `pending`
/// deferred deposits, each below 2^bound, stays strictly inside the
/// format's range. Their magnitudes sum to less than
/// (pending+1) * 2^bound <= 2^(bound + bit_width(pending)), so this holds
/// whenever bound + bit_width(pending) <= 64n-1. Monotone in both
/// arguments, which is what lets the SIMD batch gate test one batch with
/// one call and reach exactly the scalar loop's decision.
[[nodiscard]] constexpr bool block_budget_ok(int n, int bound,
                                             int pending) noexcept {
  return pending <= kBlockMaxPending &&
         bound + static_cast<int>(std::bit_width(
                     static_cast<unsigned>(pending))) <=
             64 * n - 1;
}

/// Normalizes the deferred carry-save planes into `a`: folds each plane's
/// per-limb U128 partials into an n-limb value (lsb-first, carries ripple
/// once per flush instead of once per summand) and applies the positive
/// plane as one add and the negative plane as one subtract. Recomputes
/// `bound_exp` from the flushed value and zeroes `pending`.
///
/// Plane layout: n+1 slots, with plane[j+1] accumulating deposits of
/// weight 2^(64*(n-1-j)) — i.e. slot j+1 mirrors limb j. Slot 0 is a pad
/// that lets block_add write the straddle word unconditionally (it only
/// ever receives provably-zero straddles of top-limb deposits).
///
/// Two writers fill the planes between flushes: block_add (two words per
/// deposit) and the exponent-indexed chunk fold (chunk_accumulate, one
/// write per slot per committed block). Exactness rests on three facts:
///   - Slot bound. Each block_add deposit adds one word < 2^64 to a slot;
///     each committed chunk block adds at most 128 such words (the low
///     words of one limb window's 64 exponents plus the high words of the
///     window below), so < 2^71. Either way one deferral event adds < 2^71
///     and counts at least one toward `pending` <= kBlockMaxPending, so a
///     slot holds < 2^101 — far from wrapping.
///   - Pad slot. block_budget_ok bounds |value| plus the deferred
///     magnitudes below 2^(64n-1), which bounds each plane's total
///     separately (not just their difference), so no carry is lost off
///     the top of the fold. The same bound keeps every deferred addend —
///     a single mantissa, or a chunk of up to kChunkBlock mantissas
///     sharing one exponent — below 2^(64n-1), so the part of it that
///     would land above the top limb, which is what slot 0 receives, is
///     zero.
///   - Slot contents vs totals. A chunk fold hands a slot the low word of
///     a chunk's shifted sum, not the sum of each summand's low word, so
///     plane slot CONTENTS may differ from what element-wise block_add
///     leaves; each plane's weighted total is the same integer, so the
///     flushed limbs cannot differ.
constexpr void block_flush(util::Limb* a, U128* pos, U128* neg, int n,
                           int& bound_exp, int& pending) noexcept {
  if (pending == 0) return;
  trace::count(trace::Counter::kBlockNormalizes);
  util::Limb pv[kMaxLimbs] = {};
  util::Limb nv[kMaxLimbs] = {};
  U128 c = 0;
  for (int j = n - 1; j >= 0; --j) {
    c += pos[j + 1];
    pos[j + 1] = 0;
    pv[j] = static_cast<util::Limb>(c);
    c >>= 64;
  }
  pos[0] = 0;  // the pad only ever holds zero; keep the invariant visible
  c = 0;
  for (int j = n - 1; j >= 0; --j) {
    c += neg[j + 1];
    neg[j + 1] = 0;
    nv[j] = static_cast<util::Limb>(c);
    c >>= 64;
  }
  neg[0] = 0;
  const auto span = util::LimbSpan(a, static_cast<std::size_t>(n));
  // Carry/borrow out of the top wraps mod 2^(64n), exactly as the scalar
  // path wraps; under the budget no prefix can actually wrap.
  // hplint: allow(discard-status) — ring-wrap is the scalar semantics
  util::add_into(span, util::ConstLimbSpan(pv, static_cast<std::size_t>(n)));
  // hplint: allow(discard-status) — ring-wrap is the scalar semantics
  util::sub_into(span, util::ConstLimbSpan(nv, static_cast<std::size_t>(n)));
  pending = 0;
  bound_exp = block_bound_exp(a, n);
}

/// One block-path deposit of `r` into (a, pos, neg). State between
/// flushes: `bound_exp` is the max of the flushed value's bound and
/// msb+1 of every deferred deposit, and `pending` counts the deferred
/// deposits. A deposit defers iff block_budget_ok still holds with it
/// counted; then every prefix of the scalar deposit sequence stays inside
/// the representable range, so the scalar path would raise no kAddOverflow
/// and the deferred status is exactly the conversion-side flags — that is
/// the status half of the bit-identity proof. When the budget is spent the
/// planes are flushed and the summand takes detail::scatter_add_double
/// verbatim, making the overflow corner bit-identical by construction
/// (limbs and status).
[[nodiscard]] constexpr HpStatus block_add(util::Limb* a, U128* pos, U128* neg,
                                           int n, int k, int& bound_exp,
                                           int& pending, double r) noexcept {
  trace::count(trace::Counter::kBlockDeposits);
  const detail::Deposit d = detail::decompose_double(n, k, r);
  if (!d.has_bits) {
    trace::count_status(d.st);
    return d.st;
  }
  const int nb = bound_exp > d.msb + 1 ? bound_exp : d.msb + 1;
  if (!block_budget_ok(n, nb, pending + 1)) [[unlikely]] {
    block_flush(a, pos, neg, n, bound_exp, pending);
    trace::count(trace::Counter::kBlockScalarFallbacks);
    const HpStatus st = detail::scatter_add_double(a, n, k, r);
    bound_exp = block_bound_exp(a, n);
    return st;
  }
  bound_exp = nb;
  // Unconditional two-word deposit: slot li+1 is limb li, slot li is the
  // straddle limb li-1 — or the always-zero pad slot when li == 0.
  U128* plane = d.isneg ? neg : pos;
  plane[d.li + 1] += d.lo;
  plane[d.li] += d.hi;
  ++pending;
  trace::count_status(d.st);
  return d.st;
}

/// The IEEE-754 binary64 mantissa field and its implicit leading bit.
inline constexpr std::uint64_t kMask52 = (std::uint64_t{1} << 52) - 1;
inline constexpr std::uint64_t kBit52 = std::uint64_t{1} << 52;

/// The fast window for an (n,k) format, in biased-exponent terms. A
/// summand is FAST iff be_lo <= biased_exp <= be_hi, which is exactly:
///   - normal and finite (be >= 1, be <= 0x7FE),
///   - whole mantissa at or above 2^(-64k): p = be-1075+64k >= 0, so the
///     deposit is exact (no kInexact truncation), and
///   - msb = p+52 <= 64n-2, below the sign bit (no kConvertOverflow).
/// A fast deposit raises no status flags, touches exactly limbs li/li-1,
/// and has msb = p+52 with the implicit leading bit — the facts both the
/// SIMD batch gate and the chunk block gate rest on. Everything else
/// (zeros, subnormals, non-finite, out-of-range, sub-lsb truncation) takes
/// the element-wise block_add.
struct Window {
  int be_lo;
  int be_hi;
  int pbias;  ///< 64k - 1075: biased exponent -> signed lsb position p
};

[[nodiscard]] constexpr Window window(int n, int k) noexcept {
  Window w{};
  w.be_lo = 1075 - 64 * k;
  if (w.be_lo < 1) w.be_lo = 1;
  w.be_hi = 64 * (n - k) + 1021;
  if (w.be_hi > 0x7FE) w.be_hi = 0x7FE;
  w.pbias = 64 * k - 1075;
  return w;
}

/// Most summands one exponent-indexed block deposits before its chunks
/// are folded into the planes. A chunk sums up to kChunkBlock mantissas
/// below 2^53, so it cannot wrap its 64 bits.
inline constexpr std::size_t kChunkBlock = 2048;
static_assert(static_cast<U128>(kChunkBlock) *
                      ((std::uint64_t{1} << 53) - 1) <
                  (static_cast<U128>(1) << 64),
              "a chunk of kChunkBlock mantissas must fit 64 bits");

/// How far ahead of its loop the chunk deposit prefetches, in doubles
/// (8 KiB, 128 lines). A span no longer than this issues no prefetch.
/// EXPERIMENTS.md A2c's constants sweep: on spans streamed from DRAM,
/// every distance from 256 to 4096 took the loop from 1.4-1.8 to
/// 1.0-1.3 ns/add, what it costs on an L2-resident span; 1024 sits in
/// the middle of that plateau.
inline constexpr std::size_t kChunkPrefetch = 1024;

/// Spans and span tails shorter than this skip the chunk deposit and take
/// simd::accumulate: below it the fold over the touched exponent range
/// costs more than the chunk deposit saves (EXPERIMENTS.md A2c, span
/// sweep).
inline constexpr std::size_t kChunkMinSpan = 512;

/// The exponent-indexed deposit (hp_kernel.cpp), after Neal's large
/// superaccumulator (arXiv 1505.05571): each block of up to kChunkBlock
/// summands adds every mantissa, unshifted, into a 64-bit chunk indexed by
/// sign and biased exponent (prefetching kChunkPrefetch doubles ahead
/// within the span), then either commits — one fold of the touched
/// exponent range into the planes — or rolls back and replays
/// element-wise through block_add. A block commits iff every summand is
/// in window(n, k) and block_budget_ok accepts the state the element-wise
/// loop would reach after the whole block; the budget is monotone, so
/// that is exactly block_add's decision for every element. Flushed limbs,
/// sticky status, bound_exp and pending therefore match block_add driven
/// per element; plane slot contents may not (see block_flush). Takes any
/// span length; block_accumulate decides which spans come here.
[[nodiscard]] HpStatus chunk_accumulate(util::Limb* a, U128* pos, U128* neg,
                                        int n, int k, int& bound_exp,
                                        int& pending,
                                        std::span<const double> xs) noexcept;

/// Deposits a whole span into the block state: limbs, sticky status,
/// bound_exp and pending end exactly as calling block_add per element
/// would leave them. At runtime the span goes to chunk_accumulate in
/// blocks of kChunkBlock, except a span or final partial block shorter
/// than kChunkMinSpan, which takes simd::accumulate (the AVX2 batch
/// deposit, or the scalar loop where the build or CPU lacks AVX2).
/// Constant evaluation keeps the scalar block_add loop, with bound and
/// pending in locals so the loop's invariant updates stay in registers.
[[nodiscard]] constexpr HpStatus block_accumulate(
    util::Limb* a, U128* pos, U128* neg, int n, int k, int& bound_exp,
    int& pending, std::span<const double> xs) noexcept {
  if (!std::is_constant_evaluated()) {
    const std::size_t rem = xs.size() % kChunkBlock;
    const std::size_t tail = rem < kChunkMinSpan ? rem : 0;
    HpStatus st = chunk_accumulate(a, pos, neg, n, k, bound_exp, pending,
                                   xs.first(xs.size() - tail));
    st |= simd::accumulate(a, pos, neg, n, k, bound_exp, pending,
                           xs.last(tail));
    return st;
  }
  HpStatus st = HpStatus::kOk;
  int bound = bound_exp;
  int pend = pending;
  for (const double r : xs) {
    st |= block_add(a, pos, neg, n, k, bound, pend, r);
  }
  bound_exp = bound;
  pending = pend;
  return st;
}

}  // namespace kernel

/// Carry-deferred block accumulator with a compile-time format — the block
/// fast path of kernel::block_add/block_flush as a value type. Deposits go
/// into per-limb U128 carry-save planes (positive and negative separately,
/// so no per-deposit two's-complement work); carries normalize once per
/// block. Bit-identical (limbs and sticky status) to feeding the same
/// doubles through HpFixed<N,K>::operator+=(double) in the same order —
/// and therefore in ANY order, by the HP method's order invariance.
///
/// Not an HpFixed (this header cannot see that type); HpFixed<N,K> offers
/// a draining constructor and accumulate(span) built on this.
template <int N, int K>
class BlockAccumulator {
  static_assert(N >= 1 && N <= kMaxLimbs, "limb count out of range");
  static_assert(K >= 0 && K <= N, "fractional limbs must satisfy 0 <= K <= N");

 public:
  /// Zero value.
  constexpr BlockAccumulator() noexcept = default;

  /// Starts from an existing value (e.g. an HpFixed's limbs) and its sticky
  /// status, so accumulate-into-nonzero matches the scalar path exactly.
  explicit constexpr BlockAccumulator(util::ConstLimbSpan start,
                                      HpStatus st = HpStatus::kOk) noexcept
      : status_(st) {
    for (int i = 0; i < N; ++i) limbs_[i] = start[static_cast<std::size_t>(i)];
    bound_exp_ = kernel::block_bound_exp(limbs_, N);
  }

  /// Deposits one double (deferred; carries normalize at the next flush).
  constexpr void add(double r) noexcept {
    status_ |= kernel::block_add(limbs_, pos_, neg_, N, K, bound_exp_,
                                 pending_, r);
  }

  /// Deposits a block of doubles (the register-resident span loop).
  constexpr void accumulate(std::span<const double> xs) noexcept {
    status_ |= kernel::block_accumulate(limbs_, pos_, neg_, N, K, bound_exp_,
                                        pending_, xs);
  }

  /// Folds any deferred deposits into the limb value. Idempotent.
  constexpr void normalize() noexcept {
    kernel::block_flush(limbs_, pos_, neg_, N, bound_exp_, pending_);
  }

  /// The normalized limbs (flushes first), big-endian.
  [[nodiscard]] constexpr util::ConstLimbSpan limbs() noexcept {
    normalize();
    return util::ConstLimbSpan(limbs_, static_cast<std::size_t>(N));
  }

  /// Sticky status accumulated so far (valid without flushing).
  [[nodiscard]] constexpr HpStatus status() const noexcept { return status_; }

 private:
  util::Limb limbs_[N] = {};
  // N+1 plane slots; see block_flush's layout comment (slot 0 is the pad,
  // slot j+1 mirrors limb j).
  kernel::U128 pos_[N + 1] = {};
  kernel::U128 neg_[N + 1] = {};
  HpStatus status_ = HpStatus::kOk;
  int bound_exp_ = 0;
  int pending_ = 0;
};

/// Runtime-config wrappers over the kernels above (hp_kernel.cpp). `a` /
/// `limbs` must have exactly the format's limb count.
HpStatus hp_add(util::LimbSpan a, util::ConstLimbSpan b) noexcept;
/// Fused `limbs += r` via detail::scatter_add_double — the hot-path
/// equivalent of hp_from_double into a temporary followed by hp_add,
/// bit-identical in limbs and status.
HpStatus hp_scatter_add(util::LimbSpan limbs, const HpConfig& cfg, double r) noexcept;

}  // namespace hpsum
