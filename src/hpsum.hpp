// Umbrella header for the hpsum library.
//
// Include this to get the whole public API; individual headers are listed
// for selective inclusion in compile-time-sensitive translation units.
#pragma once

#include "core/hp_adaptive.hpp"    // full-range accumulator (paper §V)
#include "core/hp_atomic.hpp"      // CAS-based shared accumulator (§III.B.2)
#include "core/hp_config.hpp"      // N/k format descriptor + Table 1 formulas
#include "core/hp_convert.hpp"     // Listing 1 / Listing 2 kernels
#include "core/hp_dyn.hpp"         // runtime-formatted value
#include "core/hp_fixed.hpp"       // compile-time-formatted value
#include "core/hp_plan.hpp"        // N/k sizing from data bounds
#include "core/hp_serialize.hpp"   // canonical endian-safe serialization
#include "core/hp_status.hpp"      // sticky overflow/underflow flags
#include "core/dot.hpp"            // exact order-invariant dot products
#include "core/reduce.hpp"         // sequential reduction kernels
