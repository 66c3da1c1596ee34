// Minimal leveled logger.
//
// The simulator is single-threaded by design (a discrete-event loop), so the
// logger keeps no locks; it is a thin formatting shim over stderr that can be
// silenced globally (benchmarks) or per-level.
#pragma once

#include <cstdarg>
#include <cstdint>

namespace mic {

enum class LogLevel : std::uint8_t { kDebug = 0, kInfo, kWarn, kError, kOff };

/// Global log threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

namespace detail {
void vlog(LogLevel level, const char* fmt, std::va_list args);
}  // namespace detail

// printf-style logging entry points.
void log_debug(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void log_warn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace mic
