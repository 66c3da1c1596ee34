// Provenance of a bench's JSON ledger: the build type, compiler, core count
// and git revision its numbers came from.  bench/CMakeLists.txt passes the
// build type, the compiler and the revision to every bench as compile
// definitions; the revision is `git describe --always --dirty` of the
// source tree when the build tree was configured, or "unknown" outside a
// git checkout.
#pragma once

#include <cstdio>
#include <thread>

namespace mic::bench {

/// Writes `"build":{...}` (no surrounding separators) to `out`.
inline void write_provenance(std::FILE* out) {
  std::fprintf(out,
               "\"build\":{\"type\":\"%s\",\"compiler\":\"%s\","
               "\"hardware_concurrency\":%u,\"git_rev\":\"%s\"}",
               BENCH_BUILD_TYPE, BENCH_COMPILER,
               std::thread::hardware_concurrency(), BENCH_GIT_REV);
}

}  // namespace mic::bench
