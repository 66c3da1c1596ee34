// perfbench_bin: runs one workload in this single-threaded process and
// prints one JSON line with every figure it measured.  run.py builds it,
// calls it and shapes the result.
//
//   perfbench_bin --workload bulk|churn|rpc --seed N --seconds S
//                 [--trace 0|1] [--trace-out PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace {

using perfbench::Result;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void print_map(const char* key, const std::map<std::string, double>& values) {
  std::printf("\"%s\": {", key);
  bool first = true;
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_bin --workload bulk|churn|rpc --seed N "
               "--seconds S [--trace 0|1] [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PERFBENCH_SANITIZED
  std::fprintf(stderr, "perfbench: refusing to time a sanitizer build\n");
  return 2;
#endif
  // Sharding knobs would put a different engine under the same numbers.
  for (const char* var : {"MIC_SIM_SHARDS", "MIC_SIM_THREADS",
                          "MIC_SIM_PARALLEL", "MIC_PATH_WARMUP_THREADS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: %s must be unset\n", var);
      return 2;
    }
  }
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage();
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atoi(value);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  if (seconds < 1) return usage();

  perfbench::Tracer tracer(trace);
  perfbench::set_alloc_counting(trace);
  const perfbench::RunContext ctx{seed, seconds, tracer};
  Result result;
  if (workload == "bulk") {
    result = perfbench::run_bulk(ctx);
  } else if (workload == "churn") {
    result = perfbench::run_churn(ctx);
  } else if (workload == "rpc") {
    result = perfbench::run_rpc(ctx);
  } else {
    return usage();
  }

  if (trace && !trace_out.empty() && !tracer.write_json(trace_out)) {
    result.fail("cannot write trace to " + trace_out);
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"attempted\": %llu, "
              "\"failed\": %llu, ",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  std::printf("\"errors\": [");
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                json_escape(result.errors[i]).c_str());
  }
  std::printf("], ");
  print_map("metrics", result.metrics);
  std::printf(", ");
  print_map("fingerprint", result.fingerprint);
  std::printf(", \"self_time_ns\": {");
  bool first = true;
  for (const auto& s : tracer.summarize()) {
    std::printf("%s\"%s\": %lld", first ? "" : ", ", s.name.c_str(),
                static_cast<long long>(s.self_ns));
    first = false;
  }
  std::printf("}, \"build\": {\"type\": \"%s\", \"compiler\": \"%s\", "
              "\"hardware_concurrency\": %u}}\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              std::thread::hardware_concurrency());
  return result.failed == 0 ? 0 : 1;
}
