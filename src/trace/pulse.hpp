// hpsum_pulse — the live time-series plane over hpsum_trace snapshots.
//
// trace.hpp answers "how much so far" and flight.hpp answers "when, in
// what order". Neither shows a run's counters *while it runs*: a long
// bench or `exact_sum_cli` over a big stream, watched by
// tools/hpsum_top.py. This layer is that view: a runtime-armable
// background sampler thread that snapshots the counter catalog on a fixed
// interval and appends it to a JSONL stream: one header line describing
// the stream, then one line per tick carrying the per-tick *delta* of
// every counter (nonzero entries only). `tools/hpsum_top.py` tails this
// live; `tools/telemetry_smoke.py` validates it in CI.
//
// Timestamps are monotone by construction: the wall-clock epoch is read
// once at arm() and every tick stamps epoch_ms + steady_clock delta, so a
// wall-clock step mid-run cannot make ts_ms go backwards.
//
// Arming mirrors the flight recorder: explicit arm(Config), the
// HPSUM_PULSE environment variable (value = JSONL path, or "1" for the
// default "pulse.jsonl"; HPSUM_PULSE_INTERVAL_MS sets the interval), or a
// harness's --pulse flags (bench/common.hpp). disarm() takes one final
// tick so short runs still produce a complete stream.
//
// Under -DHPSUM_TRACE=OFF the sampler never starts: arm() writes only the
// stream header (with "enabled": false) and reports failure, keeping the
// disarmed-binary cost at zero and the OFF contract testable
// (telemetry_smoke.py --expect-disabled).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "trace/trace.hpp"

namespace hpsum::trace::pulse {

/// Sampler configuration: the JSONL stream path and the tick interval.
struct Config {
  std::string jsonl_path = "pulse.jsonl";
  std::chrono::milliseconds interval{250};
};

/// True while the sampler thread is running (always false when the
/// telemetry layer is compiled out).
[[nodiscard]] bool armed() noexcept;

/// Starts the sampler. Writes the stream header immediately, then one
/// tick line per interval. Returns false — with the header (enabled:false)
/// still written so downstream tooling sees a well-formed stream — when
/// the layer is compiled out; false also when already armed or the JSONL
/// file cannot be opened.
bool arm(const Config& cfg);

/// Arms from the environment (HPSUM_PULSE / HPSUM_PULSE_INTERVAL_MS).
/// Returns false when HPSUM_PULSE is unset/empty/"0"
/// or arm() fails. Harnesses call this once at startup.
bool arm_from_env();

/// Stops the sampler after one final tick (so every armed run exports its
/// end state even if shorter than one interval). Idempotent; safe to call
/// while disarmed.
void disarm() noexcept;

/// Number of tick lines written since the last arm(). For tests.
[[nodiscard]] std::uint64_t ticks() noexcept;

// ---- render helpers (pure; exposed for unit tests) ----

/// The JSONL header line (no trailing newline), e.g.
/// {"hpsum_pulse": 2, "enabled": true, "interval_ms": 250, "epoch_ms": T}
[[nodiscard]] std::string jsonl_header(const Config& cfg,
                                       std::uint64_t epoch_ms);

/// One JSONL tick line (no trailing newline): seq, ts_ms, nonzero counter
/// deltas.
[[nodiscard]] std::string jsonl_tick(const Snapshot& delta,
                                     std::uint64_t ts_ms, std::uint64_t seq);

}  // namespace hpsum::trace::pulse
