// Size and time units plus human-readable formatting, used by tools and the
// benchmark harness when printing paper-style tables.
#pragma once

#include <cstdint>
#include <string>

namespace sion {

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;
inline constexpr std::uint64_t kTiB = 1024 * kGiB;

// "1.5 GiB", "512 B", ...
std::string format_bytes(std::uint64_t bytes);

// "369.1 s", "28 ms", ...
std::string format_seconds(double seconds);

// "64Ki", "2Mi", "768" — task counts with explicit binary suffixes, matching
// the paper's "64Ki cores" style and format_bytes' Ki/Mi prefixes. Counts
// that are not whole binary multiples print as plain decimal.
std::string format_tasks(std::uint64_t n);

// Parse "64k", "64Ki", "2M", "1GiB", "4096" into a count/byte value. The
// k/m/g/t suffixes are binary multiples (matching how the paper writes task
// counts: 64K = 65536), optionally spelled out as Ki/KiB etc., so every
// string format_tasks emits parses back. Returns 0 on failure.
std::uint64_t parse_size(const std::string& text);

// Round `value` up to the next multiple of `granule` (granule > 0).
constexpr std::uint64_t round_up(std::uint64_t value, std::uint64_t granule) {
  return (value + granule - 1) / granule * granule;
}

constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

constexpr bool is_power_of_two(std::uint64_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

}  // namespace sion
