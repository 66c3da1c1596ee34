// Measurement plumbing shared by the workloads: clocks, in-memory spans,
// the allocation counter and order statistics.  Everything here observes
// the program from outside; nothing reaches into a module's internals.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

/// Process CPU time.  The measured paths are single-threaded, so time the
/// guest gives to other processes is not charged to the benchmark.
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Move the process to the next CPU it may run on once kRotateNs of CPU
/// time has passed since the last move.  On a shared host the CPUs differ
/// persistently in speed (a busy hyperthread sibling slowed one vCPU by a
/// third for minutes); visiting all of them makes every run see the same
/// mix instead of whichever CPU the scheduler picked.
void rotate_cpu_if_due();
/// Move to the next allowed CPU now.
void move_to_next_cpu();

/// Global operator new calls while counting is on (harness.cpp).
void set_alloc_counting(bool on);
std::uint64_t allocations();

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 when empty.
template <typename T>
double percentile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return static_cast<double>(values[std::min(rank, values.size() - 1)]);
}

inline double mean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

template <typename T>
double median(std::vector<T> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return static_cast<double>(values[mid]);
  return (static_cast<double>(values[mid - 1]) +
          static_cast<double>(values[mid])) / 2.0;
}

/// Per-op cost accounting for ops_per_s.  The measured phase is split into
/// `kBlocks` consecutive blocks holding equal shares of the ops (boundaries
/// fall on slice or cycle ends, fixed per seed); the reported rate is the
/// median block's ops per CPU second, so a burst of contention in one
/// block does not move the figure, and neither do near-idle slices (a flow
/// waiting out a retransmission timeout) that hold almost no work.
class RateMeter {
 public:
  static constexpr std::size_t kBlocks = 16;

  void add(std::uint64_t ops, std::int64_t cpu) {
    ops_.push_back(ops);
    cpu_.push_back(cpu);
  }
  std::uint64_t total_ops() const;
  double median_rate() const;

 private:
  std::vector<std::uint64_t> ops_;
  std::vector<std::int64_t> cpu_;
};

/// Spans kept in memory and written once at exit.  CPU spans time a call
/// the benchmark makes into a module; sim spans carry simulated time.
/// Disabled tracers record nothing and read no clock.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  // index into the same list, -1 = root
    std::uint64_t op = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Open a CPU span nested under the innermost open one.
  [[nodiscard]] Scope span(const char* name, std::uint64_t op = 0);

  /// Record a finished simulated-time span (nanoseconds of sim time).
  /// Returns its index so children can name it as parent.
  std::int32_t sim_span(const char* name, std::uint64_t op,
                        std::int32_t parent, std::int64_t start,
                        std::int64_t end);

  /// Durations (ns) of every CPU span called `name`.
  std::vector<std::int64_t> durations(const std::string& name) const;
  std::int64_t total(const std::string& name) const;

  /// Per-name totals and self time (duration minus direct children).
  struct Summary {
    std::string name;
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::vector<Summary> summarize() const;

  /// Write every span as JSON; false if the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::uint32_t intern(const char* name);
  void close(std::size_t index);

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<Span> sim_spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
