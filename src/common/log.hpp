// Minimal leveled logger.
//
// The simulator is single-threaded by design (a discrete-event loop), so the
// logger keeps no locks; it is a thin formatting shim over stderr that can be
// silenced globally (benchmarks) or per-level.
#pragma once

#include <cstdint>

namespace mic {

enum class LogLevel : std::uint8_t { kDebug = 0, kInfo, kWarn, kError, kOff };

/// Global log threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

namespace detail {
/// Print one message; the MIC_LOG_* macros have already checked its level.
void log_message(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
}  // namespace detail

}  // namespace mic

/// printf-style logging entry points.  The level is tested before the
/// arguments are evaluated, so a filtered-out message costs one comparison
/// and builds none of its arguments.
#define MIC_LOG(level, ...)                             \
  do {                                                  \
    if (::mic::log_level() <= (level)) {                \
      ::mic::detail::log_message((level), __VA_ARGS__); \
    }                                                   \
  } while (false)
#define MIC_LOG_DEBUG(...) MIC_LOG(::mic::LogLevel::kDebug, __VA_ARGS__)
#define MIC_LOG_WARN(...) MIC_LOG(::mic::LogLevel::kWarn, __VA_ARGS__)
