#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds from `from` to `to`.
double MsBetween(Clock::time_point from, Clock::time_point to);

/// Quantile `q` in [0, 1] of `values` by linear interpolation between the
/// closest ranks (the definition numpy and Python's statistics module call
/// "inclusive"): q = 0 is the minimum, q = 1 the maximum. 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Per-request time per output token in ms: (last token - first token) /
/// (tokens - 1), from the arrival time of every token the client saw.
/// Tokens that arrive together (a speculative burst, a beam result
/// streamed at completion) therefore share one gap instead of producing
/// zero-length ones. Negative when the request has fewer than 2 tokens —
/// such requests are left out of tpot quantiles.
double TpotMs(const std::vector<Clock::time_point>& token_times);

/// Share of `keys` already seen earlier in the sequence: a prompt repeats
/// when the same key appeared at any earlier position. 0 when empty.
double RepeatShare(const std::vector<uint64_t>& keys);

/// How one request ended, as the client saw it.
enum class Outcome {
  kOk,          ///< answered, and passed every check applied to it
  kRejected,    ///< refused by admission (queue full, draining)
  kError,       ///< error status or transport failure
  kDeadline,    ///< cut off by its deadline
  kShutdown,    ///< the server stopped before answering
  kMismatch,    ///< answered, but failed the correctness gate
  kUnanswered,  ///< no final response, or more than one
};

const char* OutcomeName(Outcome outcome);

/// Everything the benchmark keeps about one request of a timed phase.
/// Times are client-side: `start` is the due time in an open loop and the
/// send time in a closed loop; token times are when the client observed
/// each streamed token; `end` is when the final response arrived.
struct RequestRecord {
  uint64_t key = 0;  ///< which prompt (for repeat share and gate sampling)
  Clock::time_point start{};
  Clock::time_point sent{};  ///< actual submit time (late = sent - start)
  Clock::time_point end{};
  std::vector<Clock::time_point> token_times;
  std::vector<int> streamed;  ///< tokens as streamed, in order
  std::vector<int> tokens;    ///< tokens of the final response
  int expected_tokens = -1;   ///< exact output length when known, else -1
  int finals = 0;             ///< final responses received (must be 1)
  Outcome outcome = Outcome::kUnanswered;
  /// Server-side timeline of the final response (ms), for per-layer rows.
  double server_queue_ms = 0;
  double server_ttft_ms = 0;
  double server_total_ms = 0;
  int src_tokens = 0;
};

/// Applies the checks every request of every workload must pass: exactly
/// one final response, the streamed tokens joining up to exactly the final
/// tokens, and the expected output length when the workload fixes it.
/// Sets `outcome` to kMismatch / kUnanswered on failure; leaves other
/// outcomes alone.
void CheckRecord(RequestRecord* record);

/// End-to-end figures of one timed phase.
struct PhaseSummary {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, int64_t> failures_by_outcome;
  double tok_s = 0;
  double ttft_p50_ms = 0, ttft_p90_ms = 0;
  double tpot_p50_ms = 0, tpot_p90_ms = 0;
  double e2e_p50_ms = 0, e2e_p90_ms = 0;
  double late_p99_ms = 0;
  double fail_frac() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

/// Summarizes the (already checked) requests of a timed phase that began
/// at `t0`. Every quantile is taken over the successful requests of the
/// whole phase. `tok_s` is their output tokens over the phase's wall time,
/// from `t0` to the last final response. Counts and late_p99_ms cover
/// every request; every outcome other than kOk counts in `failed`.
PhaseSummary Summarize(const std::vector<RequestRecord>& records,
                       Clock::time_point t0);

/// One named metric value with its unit, as the result line reports it.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const MetricMap& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
