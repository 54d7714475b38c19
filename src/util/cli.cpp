#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace hpsum::util {
namespace {

/// A value that is not wholly a number in range: name the flag.
std::invalid_argument bad_value(std::string_view name, const std::string& v) {
  return std::invalid_argument("bad value for --" + std::string(name) + ": " +
                               v);
}

}  // namespace

Args::Args(int argc, char** argv, std::vector<std::string> known) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --flag[=value], got: " +
                                  std::string(arg));
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value = "true";
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
    }
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw std::invalid_argument("unknown flag: --" + name);
    }
    values_[name] = value;
  }
}

std::optional<std::string> Args::raw(std::string_view name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::int64_t Args::get_int(std::string_view name, std::int64_t fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  std::string_view s = *v;
  std::int64_t scale = 1;
  if (!s.empty()) {
    switch (s.back()) {
      case 'k': case 'K': scale = 1024; break;
      case 'm': case 'M': scale = 1024 * 1024; break;
      case 'g': case 'G': scale = 1024 * 1024 * 1024; break;
      default: break;
    }
    if (scale != 1) s.remove_suffix(1);
  }
  std::int64_t n = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
  std::int64_t scaled = 0;
  if (ec != std::errc() || end != s.data() + s.size() ||
      __builtin_mul_overflow(n, scale, &scaled)) {
    throw bad_value(name, *v);
  }
  return scaled;
}

double Args::get_double(std::string_view name, double fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  double x = 0;
  const auto [end, ec] = std::from_chars(v->data(), v->data() + v->size(), x);
  if (ec != std::errc() || end != v->data() + v->size()) {
    throw bad_value(name, *v);
  }
  return x;
}

std::string Args::get_string(std::string_view name, std::string fallback) const {
  const auto v = raw(name);
  return v ? *v : fallback;
}

bool Args::get_bool(std::string_view name) const {
  const auto v = raw(name);
  return v && (*v == "true" || *v == "1" || *v == "yes");
}

bool Args::full_scale() {
  const char* env = std::getenv("HPSUM_FULL");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace hpsum::util
