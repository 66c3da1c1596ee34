#include "common/log.hpp"

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
void vlog(LogLevel level, const char* fmt, std::va_list args) {
  if (level < g_level) return;
  std::fprintf(stderr, "[%s] ", level_tag(level));
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
}
}  // namespace detail

#define MIC_DEFINE_LOG_FN(name, level)          \
  void name(const char* fmt, ...) {             \
    std::va_list args;                          \
    va_start(args, fmt);                        \
    detail::vlog(level, fmt, args);             \
    va_end(args);                               \
  }

MIC_DEFINE_LOG_FN(log_debug, LogLevel::kDebug)
MIC_DEFINE_LOG_FN(log_warn, LogLevel::kWarn)

#undef MIC_DEFINE_LOG_FN

}  // namespace mic
