#include "common/log.hpp"

#include <cstdarg>
#include <cstdio>

namespace mic {

namespace {
LogLevel g_level = LogLevel::kWarn;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DBG";
    case LogLevel::kInfo: return "INF";
    case LogLevel::kWarn: return "WRN";
    case LogLevel::kError: return "ERR";
    case LogLevel::kOff: return "OFF";
  }
  return "???";
}
}  // namespace

void set_log_level(LogLevel level) { g_level = level; }
LogLevel log_level() { return g_level; }

namespace detail {
void log_message(LogLevel level, const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "[%s] ", level_tag(level));
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
}
}  // namespace detail

}  // namespace mic
