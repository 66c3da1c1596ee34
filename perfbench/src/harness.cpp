#include "harness.hpp"

#include <sched.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {

// --- allocation counter ------------------------------------------------------
//
// Replaces the global operator new/delete of the benchmark binary.  Counting
// is switched on only in traced runs; untraced runs pay one relaxed load.

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// --- CPU rotation ------------------------------------------------------------

namespace {
constexpr std::int64_t kRotateNs = 50'000'000;
std::int64_t g_last_move = 0;
}  // namespace

void move_to_next_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  static std::size_t next = 0;
  g_last_move = cpu_ns();
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[next++ % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort: a refusal is fine
}

void rotate_cpu_if_due() {
  if (cpu_ns() - g_last_move >= kRotateNs) move_to_next_cpu();
}

// --- RateMeter ---------------------------------------------------------------

std::uint64_t RateMeter::total_ops() const {
  std::uint64_t sum = 0;
  for (const auto ops : ops_) sum += ops;
  return sum;
}

double RateMeter::median_rate() const {
  const std::uint64_t total = total_ops();
  std::vector<double> rates;
  std::uint64_t ops = 0;
  std::int64_t cpu = 0;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    ops += ops_[i];
    cpu += cpu_[i];
    // Close the block once it holds its share of the work.
    if (ops * kBlocks >= total && cpu > 0) {
      rates.push_back(static_cast<double>(ops) * 1e9 /
                      static_cast<double>(cpu));
      ops = 0;
      cpu = 0;
    }
  }
  return median(rates);
}

// --- Tracer ------------------------------------------------------------------

std::uint32_t Tracer::intern(const char* name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::Scope Tracer::span(const char* name, std::uint64_t op) {
  if (!enabled_) return Scope(nullptr, 0);
  Span s;
  s.name = intern(name);
  s.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  s.op = op;
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  spans_.back().start = cpu_ns();
  return Scope(this, spans_.size() - 1);
}

void Tracer::close(std::size_t index) {
  spans_[index].end = cpu_ns();
  open_.pop_back();
}

std::int32_t Tracer::sim_span(const char* name, std::uint64_t op,
                              std::int32_t parent, std::int64_t start,
                              std::int64_t end) {
  if (!enabled_) return -1;
  sim_spans_.push_back({intern(name), parent, op, start, end});
  return static_cast<std::int32_t>(sim_spans_.size() - 1);
}

std::vector<std::int64_t> Tracer::durations(const std::string& name) const {
  std::vector<std::int64_t> out;
  for (const Span& s : spans_) {
    if (names_[s.name] == name) out.push_back(s.end - s.start);
  }
  return out;
}

std::int64_t Tracer::total(const std::string& name) const {
  std::int64_t sum = 0;
  for (const auto d : durations(name)) sum += d;
  return sum;
}

std::vector<Tracer::Summary> Tracer::summarize() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] +=
        s.end - s.start;
  }
  std::vector<Summary> out(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) out[i].name = names_[i];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Summary& sum = out[spans_[i].name];
    const std::int64_t d = spans_[i].end - spans_[i].start;
    ++sum.count;
    sum.total_ns += d;
    sum.self_ns += d - child_ns[i];
  }
  std::erase_if(out, [](const Summary& s) { return s.count == 0; });
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto dump = [&](const char* key, const std::vector<Span>& spans,
                        bool last) {
    std::fprintf(f, "  \"%s\": [\n", key);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"op\": %llu, \"parent\": %d, "
                   "\"start\": %lld, \"end\": %lld}%s\n",
                   names_[s.name].c_str(),
                   static_cast<unsigned long long>(s.op), s.parent,
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "  ]%s\n", last ? "" : ",");
  };
  std::fprintf(f, "{\n");
  dump("cpu_spans", spans_, false);
  dump("sim_spans", sim_spans_, false);
  std::fprintf(f, "  \"self_time\": [\n");
  const auto summary = summarize();
  for (std::size_t i = 0; i < summary.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"count\": %llu, \"total_ns\": %lld, "
                 "\"self_ns\": %lld}%s\n",
                 summary[i].name.c_str(),
                 static_cast<unsigned long long>(summary[i].count),
                 static_cast<long long>(summary[i].total_ns),
                 static_cast<long long>(summary[i].self_ns),
                 i + 1 < summary.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  return perfbench::counted_alloc(size);
}
void* operator new[](std::size_t size) {
  return perfbench::counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
