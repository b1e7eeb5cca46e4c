#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/scheduler.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cache_dir = ".bench_build/perfbench-cache";
  std::string trace_out;  ///< Chrome trace of the traced run; "" = none
  /// Only prepare the workload's cached inputs (mixed_wire's trained
  /// models), then exit.
  bool prepare = false;
  /// Only set up, print `setup_s <seconds>` on stdout, then exit.
  bool setup_only = false;
  /// When the process was started, on the clock set-up time is measured
  /// on. Defaults to entry into main(); run.py passes its spawn time so
  /// set-up includes exec, dynamic linking and static initialization.
  Clock::time_point process_start = Clock::now();
};

/// The workloads the harness runs. BENCHMARK.json gates dv_mix and
/// mixed_wire; batch_decode runs by hand (README.md, "Workloads").
const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end: set-up (timed from process start),
/// correctness gate, timed phase, and with `trace` the traced phase and
/// layer walk. Prints a human-readable report on stderr and the result
/// line on stdout. Returns the process exit code.
int RunBenchmark(const RunOptions& options);

// ---------------------------------------------------------------------------
// In-process submission, shared by the in-process workloads and the tests.

/// Collects the responses of requests submitted to a BatchScheduler. Every
/// request gets a RequestRecord at a stable address; the scheduler's
/// stream and completion callbacks fill it from the decode thread (or
/// inline, for rejections).
class InProcessDriver {
 public:
  explicit InProcessDriver(vist5::serve::BatchScheduler* scheduler,
                           SpanLog* spans)
      : scheduler_(scheduler), spans_(spans) {}
  /// Waits for every answer: the callbacks hold `this`.
  ~InProcessDriver() { WaitAll(); }
  InProcessDriver(const InProcessDriver&) = delete;
  InProcessDriver& operator=(const InProcessDriver&) = delete;

  /// Submits `request`, timed from `start` (its due time in an open loop,
  /// now in a closed loop). `record` must outlive the response.
  void Submit(vist5::serve::Request request, Clock::time_point start,
              RequestRecord* record);

  /// Blocks until fewer than `limit` submitted requests are unanswered.
  void WaitInFlightBelow(int limit);
  /// Blocks until every submitted request is answered.
  void WaitAll() { WaitInFlightBelow(1); }

 private:
  vist5::serve::BatchScheduler* scheduler_;
  SpanLog* spans_;
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t submitted_ = 0;  ///< guarded by mu_
  int64_t answered_ = 0;   ///< guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
