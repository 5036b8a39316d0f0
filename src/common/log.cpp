#include "common/log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

namespace sion {

namespace {
std::atomic<int> g_level{-1};

LogLevel level_from_env() {
  const char* env = std::getenv("SION_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kWarn;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "trace") == 0) return LogLevel::kTrace;
  return LogLevel::kWarn;
}

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "E";
    case LogLevel::kWarn: return "W";
    case LogLevel::kInfo: return "I";
    case LogLevel::kDebug: return "D";
    case LogLevel::kTrace: return "T";
  }
  return "?";
}

const char* basename_of(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}
}  // namespace

LogLevel log_level() {
  int v = g_level.load(std::memory_order_relaxed);
  if (v < 0) {
    v = static_cast<int>(level_from_env());
    g_level.store(v, std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(v);
}

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void log_message(LogLevel level, const char* file, int line,
                 const std::string& message) {
  // One fprintf per line: stdio locks the stream for each call.
  std::fprintf(stderr, "[%s %s:%d] %s\n", level_tag(level), basename_of(file),
               line, message.c_str());
}

namespace detail {

CheckFailure::CheckFailure(const char* file, int line, const char* cond)
    : file_(file), line_(line), cond_(cond) {}

CheckFailure::~CheckFailure() {
  std::fprintf(stderr, "[FATAL %s:%d] CHECK failed: %s %s\n",
               basename_of(file_), line_, cond_, stream_.str().c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace detail
}  // namespace sion
