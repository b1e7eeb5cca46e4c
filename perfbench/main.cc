// Serving benchmark for the DataVisT5 inference stack (see README.md).
//
//   perfbench --workload dv_mix|batch_decode|mixed_wire --seed N
//             --seconds S --trace 0|1 [--cache-dir DIR] [--trace-out FILE]
//   perfbench --workload mixed_wire --prepare 1 [--cache-dir DIR]
//   perfbench --workload W --seed N --seconds S --setup-only 1
//
// --prepare trains and caches mixed_wire's models when the cache lacks
// them; a measured run expects them cached. --setup-only sets the workload
// up, prints `setup_s <seconds>` and exits. --spawn-ns gives the
// CLOCK_MONOTONIC time (ns) at which the caller spawned this process, so
// set-up time counts from process start rather than from main().
//
// Prints a human-readable report on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload dv_mix|batch_decode|mixed_wire "
               "--seed N --seconds S --trace 0|1 [--cache-dir DIR] "
               "[--trace-out FILE] [--prepare 0|1] [--setup-only 0|1] "
               "[--spawn-ns NS]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
    } else if (flag == "--cache-dir") {
      options.cache_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--prepare") {
      if (value != "0" && value != "1") return Usage();
      options.prepare = value == "1";
    } else if (flag == "--setup-only") {
      if (value != "0" && value != "1") return Usage();
      options.setup_only = value == "1";
    } else if (flag == "--spawn-ns") {
      const long long spawn_ns = std::strtoll(value.c_str(), &end, 10);
      timespec now{};
      clock_gettime(CLOCK_MONOTONIC, &now);
      const long long now_ns =
          static_cast<long long>(now.tv_sec) * 1000000000LL + now.tv_nsec;
      if (*end != '\0' || spawn_ns <= 0 || spawn_ns > now_ns) return Usage();
      options.process_start =
          perfbench::Clock::now() - std::chrono::nanoseconds(now_ns - spawn_ns);
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage();
  return perfbench::RunBenchmark(options);
}
