// Minimal command-line flag parsing for bench and example binaries.
//
// Syntax: --name=value or --flag. Unknown flags are an error so typos in
// experiment sweeps fail loudly instead of silently running the default.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hpsum::util {

/// Parsed command line. Construct once in main(), then query typed flags.
class Args {
 public:
  /// Parses argv. `known` lists every accepted flag name; an argument that
  /// is not of the form --known[=value] raises std::invalid_argument.
  Args(int argc, char** argv, std::vector<std::string> known);

  /// Integer flag with default. Accepts size suffixes k/K, m/M, g/G
  /// (binary: 1k = 1024). A value that is not wholly a number (e.g.
  /// "1e6", "12x") or overflows int64 throws std::invalid_argument naming
  /// the flag.
  [[nodiscard]] std::int64_t get_int(std::string_view name,
                                     std::int64_t fallback) const;

  /// Floating-point flag with default; a bad value throws like get_int.
  [[nodiscard]] double get_double(std::string_view name, double fallback) const;

  /// String flag with default.
  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string fallback) const;

  /// True iff --name or --name=true/1 was given.
  [[nodiscard]] bool get_bool(std::string_view name) const;

  /// True when the HPSUM_FULL environment variable requests paper-scale
  /// problem sizes (32M summands, 16384 trials) instead of the scaled-down
  /// defaults suitable for a laptop run. See DESIGN.md §2.
  [[nodiscard]] static bool full_scale();

 private:
  [[nodiscard]] std::optional<std::string> raw(std::string_view name) const;
  std::map<std::string, std::string, std::less<>> values_;
};

}  // namespace hpsum::util
