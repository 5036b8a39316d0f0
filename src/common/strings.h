// String formatting shared by the library, the tools and the benches.
#pragma once

#include <string>

namespace sion {

// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace sion
