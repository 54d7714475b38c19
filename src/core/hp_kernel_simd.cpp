// hp_kernel_simd.cpp — the runtime dispatch behind kernel::simd::accumulate:
// the AVX2 decomposer (hp_kernel_simd_avx2.cpp) when the build has it and
// the CPU reports AVX2, else the plain scalar block_add loop. See
// hp_kernel_simd_deposit.hpp for the batched driver and the bit-identity
// argument.

#include "core/hp_kernel_simd.hpp"

#include "core/hp_kernel.hpp"

namespace hpsum::kernel::simd {

namespace detail {

#if HPSUM_SIMD_DISPATCH
// Defined in hp_kernel_simd_avx2.cpp (compiled with -mavx2).
[[nodiscard]] HpStatus accumulate_avx2(util::Limb* a, U128* pos, U128* neg,
                                       int n, int k, int& bound_exp,
                                       int& pending,
                                       std::span<const double> xs) noexcept;
#endif

namespace {

[[nodiscard]] Level resolve_level() noexcept {
#if HPSUM_SIMD_DISPATCH
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kOff;
#else
  return Level::kOff;
#endif
}

// Namespace-scope so the hot path reads a plain const, not a guarded magic
// static. Level::kOff is deliberately the zero enumerator: a call that
// races static initialization (another TU's dynamic init accumulating)
// reads 0 and takes the scalar loop — slow, never wrong.
const Level g_level = resolve_level();

}  // namespace
}  // namespace detail

Level active_level() noexcept { return detail::g_level; }

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kOff: return "off";
    case Level::kAvx2: return "avx2";
  }
  return "unknown";
}

HpStatus accumulate(util::Limb* a, U128* pos, U128* neg, int n, int k,
                    int& bound_exp, int& pending,
                    std::span<const double> xs) noexcept {
#if HPSUM_SIMD_DISPATCH
  if (detail::g_level == Level::kAvx2) {
    return detail::accumulate_avx2(a, pos, neg, n, k, bound_exp, pending, xs);
  }
#endif
  // kOff (or pre-init): the plain scalar loop, so direct callers — the
  // differential tests — stay valid in every configuration.
  HpStatus st = HpStatus::kOk;
  int bound = bound_exp;
  int pend = pending;
  for (const double r : xs) {
    st |= kernel::block_add(a, pos, neg, n, k, bound, pend, r);
  }
  bound_exp = bound;
  pending = pend;
  return st;
}

}  // namespace hpsum::kernel::simd
