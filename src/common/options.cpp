#include "common/options.h"

#include <cstdlib>

#include "common/units.h"

namespace sion {

Options::Options(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flags_done || !arg.starts_with("--")) {
      positional_.push_back(arg);
      continue;
    }
    if (arg == "--") {
      // Conventional end-of-flags separator: everything after it is
      // positional, and the "--" itself is consumed.
      flags_done = true;
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else {
      // Bare --flag is boolean true. Values always use --name=value; a
      // space-separated form would be ambiguous against positionals.
      flags_[body] = "true";
    }
  }
}

bool Options::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string Options::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::uint64_t Options::get_u64(const std::string& name,
                               std::uint64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_size(it->second);
}

double Options::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Options::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace sion
