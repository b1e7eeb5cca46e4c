#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// In-memory span log for the traced run. The benchmark records a span
/// around each call it makes into a layer (a request's submit ->
/// completion, each client call, each public function the layer walk
/// times); nothing inside the program under test is instrumented. Spans
/// stay in memory and are written once, when the run ends. Disabled
/// recorders cost one branch per call site.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 for a root span
    uint64_t request = 0;  ///< spans of one request share it (0 = none)
    Clock::time_point start{};
    Clock::time_point end{};
    int tid = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span.
  void Add(std::string name, Clock::time_point start, Clock::time_point end,
           uint64_t parent = 0, uint64_t request = 0, int tid = 0);

  /// Reserves an id for a span whose children are recorded before it ends.
  uint64_t NextId();
  /// Records a span under an id from NextId.
  void AddWithId(uint64_t id, std::string name, Clock::time_point start,
                 Clock::time_point end, uint64_t parent = 0,
                 uint64_t request = 0, int tid = 0);

  /// Per span name: total duration and self time (duration minus the part
  /// of its interval covered by its child spans), in ms, and call count.
  struct Rollup {
    int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Rollup> Rollups() const;

  /// Writes every span as Chrome trace_event JSON ("X" events, us).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// Records [construction, destruction) as one span when the log is on.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_;
  uint64_t request_;
  Clock::time_point start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
