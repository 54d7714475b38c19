#include "audit/audit.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/hp_dyn.hpp"
#include "core/hp_plan.hpp"
#include "core/reduce.hpp"
#include "stats/stats.hpp"
#include "trace/flight.hpp"
#include "trace/trace.hpp"
#include "workload/workload.hpp"

namespace hpsum::audit {

SensitivityReport order_sensitivity(std::span<const double> xs,
                                    std::size_t trials, std::uint64_t seed) {
  SensitivityReport report;
  report.trials = trials;
  const trace::Snapshot before = trace::snapshot();
  report.config = suggest_config(plan_for_data(xs));

  const HpDyn exact_hp = reduce_hp(xs, report.config);
  report.exact = exact_hp.to_double();
  report.naive_error = std::fabs(reduce_double(xs) - report.exact);

  std::vector<double> scratch(xs.begin(), xs.end());
  stats::RunningStats rs;
  for (std::size_t t = 0; t < trials; ++t) {
    workload::shuffle(scratch, seed + t * 0x9E3779B97F4A7C15ull);
    const double s = reduce_double(scratch);
    rs.add(s);
    const double err = std::fabs(s - report.exact);
    if (err > report.worst_abs_error) report.worst_abs_error = err;
  }
  report.mean = rs.mean();
  report.stddev = rs.stddev();
  report.trace_delta = trace::snapshot().delta_since(before);
  return report;
}

DivergenceReport compare_limbs(std::string_view label_a, util::ConstLimbSpan a,
                               HpStatus status_a, std::string_view label_b,
                               util::ConstLimbSpan b, HpStatus status_b) {
  DivergenceReport report;
  report.label_a.assign(label_a);
  report.label_b.assign(label_b);
  report.limbs_a.assign(a.begin(), a.end());
  report.limbs_b.assign(b.begin(), b.end());
  report.status_a = status_a;
  report.status_b = status_b;

  const std::size_t common = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) {
      report.limb_index = i;
      report.diverged = true;
      break;
    }
  }
  if (a.size() != b.size() || status_a != status_b) report.diverged = true;
  return report;
}

namespace {

/// Minimal JSON string escaping for labels and env values.
void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_side(std::string& out, const char* key, std::string_view label,
                 const std::vector<util::Limb>& limbs, HpStatus status) {
  out += "  \"";
  out += key;
  out += "\": {\"label\": \"";
  append_escaped(out, label);
  out += "\", \"limb_count\": ";
  out += std::to_string(limbs.size());
  out += ", \"limbs_hex\": \"";
  append_escaped(out, util::to_hex({limbs.data(), limbs.size()}));
  out += "\", \"status\": \"";
  append_escaped(out, to_string(status));
  out += "\", \"status_mask\": ";
  out += std::to_string(static_cast<unsigned>(status));
  out += "}";
}

void append_env_var(std::string& out, const char* name, bool& first) {
  const char* v = std::getenv(name);
  if (v == nullptr) return;
  if (!first) out += ", ";
  first = false;
  out += '"';
  out += name;
  out += "\": \"";
  append_escaped(out, v);
  out += '"';
}

}  // namespace

std::string forensic_bundle_json(const DivergenceReport& report,
                                 std::size_t last_k_events) {
  std::string out = "{\n  \"hpsum_forensic\": 1,\n  \"diverged\": ";
  out += report.diverged ? "true" : "false";
  out += ",\n  \"first_divergent_limb\": ";
  // SIZE_MAX (no limb-level mismatch) exports as null: the divergence, if
  // any, is status-only or a limb-count mismatch.
  if (report.limb_index == SIZE_MAX) {
    out += "null";
  } else {
    out += std::to_string(report.limb_index);
  }
  out += ",\n  \"limb_order\": \"most_significant_first\",\n";
  append_side(out, "a", report.label_a, report.limbs_a, report.status_a);
  out += ",\n";
  append_side(out, "b", report.label_b, report.limbs_b, report.status_b);
  out += ",\n  \"environment\": {\"compiler\": \"";
  append_escaped(out, __VERSION__);
  out += "\", \"trace_enabled\": ";
  out += trace::enabled() ? "true" : "false";
  out += ", \"flight_armed\": ";
  out += trace::flight::armed() ? "true" : "false";
  out += ", \"hardware_concurrency\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"env\": {";
  bool first_env = true;
  append_env_var(out, "HPSUM_FLIGHT", first_env);
  append_env_var(out, "HPSUM_FULL", first_env);
  append_env_var(out, "OMP_NUM_THREADS", first_env);
  out += "}},\n  \"flight_events\": [\n";

  const std::vector<trace::flight::ThreadEvents> threads =
      trace::flight::collect(last_k_events);
  bool first_thread = true;
  for (const trace::flight::ThreadEvents& te : threads) {
    if (!first_thread) out += ",\n";
    first_thread = false;
    out += "    {\"track\": \"";
    append_escaped(out, te.track.label);
    out += "\", \"pid\": ";
    out += std::to_string(te.track.pid);
    out += ", \"tid\": ";
    out += std::to_string(te.track.tid);
    out += ", \"events\": [";
    bool first_event = true;
    for (const trace::flight::Event& e : te.events) {
      if (!first_event) out += ", ";
      first_event = false;
      out += "{\"name\": \"";
      out += trace::flight::event_name(
          static_cast<trace::flight::EventId>(e.id));
      out += "\", \"phase\": ";
      out += std::to_string(e.phase);
      out += ", \"ts_ns\": ";
      out += std::to_string(e.ts_ns);
      out += ", \"arg0\": ";
      out += std::to_string(e.arg0);
      out += ", \"arg1\": ";
      out += std::to_string(e.arg1);
      out += '}';
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool write_forensic_bundle(const std::string& path,
                           const DivergenceReport& report,
                           std::size_t last_k_events) {
  return trace::write_file(path, forensic_bundle_json(report, last_k_events));
}

}  // namespace hpsum::audit
