#include "common/units.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace sion {

std::string format_bytes(std::uint64_t bytes) {
  char buf[64];
  if (bytes >= kTiB) {
    std::snprintf(buf, sizeof(buf), "%.1f TiB",
                  static_cast<double>(bytes) / static_cast<double>(kTiB));
  } else if (bytes >= kGiB) {
    std::snprintf(buf, sizeof(buf), "%.1f GiB",
                  static_cast<double>(bytes) / static_cast<double>(kGiB));
  } else if (bytes >= kMiB) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / static_cast<double>(kMiB));
  } else if (bytes >= kKiB) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / static_cast<double>(kKiB));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string format_seconds(double seconds) {
  char buf[64];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f s", seconds);
  } else if (seconds >= 1.0e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1.0e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f us", seconds * 1.0e6);
  }
  return buf;
}

std::string format_tasks(std::uint64_t n) {
  if (n >= kMiB && n % kMiB == 0) {
    return std::to_string(n / kMiB) + "Mi";
  }
  if (n >= kKiB && n % kKiB == 0) {
    return std::to_string(n / kKiB) + "Ki";
  }
  return std::to_string(n);
}

std::uint64_t parse_size(const std::string& text) {
  if (text.empty()) return 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  // !(value >= 0) also rejects NaN, which compares false to everything.
  if (end == text.c_str() || !(value >= 0.0)) return 0;
  std::uint64_t multiplier = 1;
  if (*end != '\0') {
    switch (std::tolower(static_cast<unsigned char>(*end))) {
      case 'k': multiplier = kKiB; break;
      case 'm': multiplier = kMiB; break;
      case 'g': multiplier = kGiB; break;
      case 't': multiplier = kTiB; break;
      default: return 0;
    }
    ++end;
    // Spelled-out binary suffix ("Ki", "KiB"); a bare "b" without the "i"
    // stays rejected — it would suggest a decimal unit we don't use.
    if (std::tolower(static_cast<unsigned char>(*end)) == 'i') {
      ++end;
      if (std::tolower(static_cast<unsigned char>(*end)) == 'b') ++end;
    }
  }
  if (*end != '\0') return 0;  // trailing garbage after the unit suffix
  const double scaled = value * static_cast<double>(multiplier);
  if (scaled >=
      static_cast<double>(std::numeric_limits<std::uint64_t>::max())) {
    return 0;  // would overflow u64 (also catches "1e30" etc.)
  }
  return static_cast<std::uint64_t>(std::round(scaled));
}

}  // namespace sion
