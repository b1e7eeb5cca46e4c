#ifndef VIST5_SERVE_LOADGEN_H_
#define VIST5_SERVE_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/scheduler.h"
#include "util/status.h"

namespace vist5 {
namespace serve {

/// One request of a replayable trace: issue `tokens` at `at_ms`
/// milliseconds after the replay starts. Optional per-request overrides
/// fall back to LoadGenOptions::gen when negative.
struct TraceEntry {
  double at_ms = 0;
  std::vector<int> tokens;
  int max_len = -1;   ///< overrides gen.max_len when >= 0
  int draft_k = -1;   ///< overrides gen.draft_k when >= 0
};

/// Parses a trace from a JSONL file: one object per line with required
/// "tokens" (array of non-negative integers) and optional "at_ms"
/// (default: previous entry's, i.e. issue immediately after), "max_len",
/// and "draft" fields, the last two range-checked exactly as the request
/// wire checks them. Blank lines are skipped; any malformed line fails the
/// whole load with its line number.
StatusOr<std::vector<TraceEntry>> LoadTraceJsonl(const std::string& path);

struct LoadGenOptions {
  /// Target number of requests in flight at once. 1 reproduces sequential
  /// serving; >= max_batch keeps the continuous batch full. Closed-loop
  /// mode only (ignored under arrival_rate / trace replay).
  int concurrency = 8;
  /// Total requests to issue (prompts are reused round-robin). Ignored
  /// when `trace` is set — the trace length wins.
  int total_requests = 64;
  /// End-to-end latency target (ms). When > 0, the report's
  /// slo_violation_frac counts responses slower than this. 0 disables it.
  double slo_ms = 0;
  /// Open-loop Poisson arrivals at this rate (requests/second). 0 keeps
  /// the closed loop. Under open loop, arrivals do not wait for
  /// completions — queueing delay shows up in the latency quantiles
  /// instead of throttling the offered load, which is what an SLO
  /// violation fraction must be measured against.
  double arrival_rate = 0;
  /// Seed for the exponential inter-arrival draws (open loop only).
  uint64_t arrival_seed = 1;
  /// When non-empty, replay this trace instead of generating arrivals:
  /// entry i's tokens are issued at its at_ms offset (a fixed-timestamp
  /// open loop). Build one with LoadTraceJsonl or in code.
  std::vector<TraceEntry> trace;
  /// Attach a per-token stream subscriber (Request::on_token) to every
  /// request and measure *observed* TTFT — wall time from issue to the
  /// first published token — the way a streaming client experiences it.
  /// Reported as observed_ttft_p50/p99_ms next to the timeline-derived
  /// ttft quantiles (which stamp first-token time inside the decode loop
  /// and therefore exclude callback/delivery overhead).
  bool stream = false;
  model::GenerationOptions gen;
};

struct LoadGenReport {
  int completed = 0;          ///< responses with status ok
  int expired = 0;            ///< responses cut by the deadline
  int64_t tokens = 0;         ///< tokens generated across ok responses
  double wall_s = 0;
  double tok_per_sec = 0;
  double p50_ms = 0;          ///< request latency, exact quantiles
  double p99_ms = 0;
  double ttft_p50_ms = 0;     ///< time-to-first-token, exact quantiles
  double ttft_p99_ms = 0;
  /// Issue-to-first-streamed-token quantiles, measured at the stream
  /// subscriber (LoadGenOptions::stream). Zero when streaming is off.
  double observed_ttft_p50_ms = 0;
  double observed_ttft_p99_ms = 0;
  /// Fraction of finished responses whose end-to-end latency exceeded
  /// LoadGenOptions::slo_ms (0 when no target was set).
  double slo_violation_frac = 0;
  /// Mean decode-batch occupancy while the run was active, from the
  /// serve/batch_size histogram delta (the registry accumulates across a
  /// process, so the report diffs snapshots taken around the run).
  double mean_batch = 0;
  /// Prefix-cache activity over this run, from the scheduler's cache
  /// stats delta. All zero when the scheduler runs without a cache.
  int64_t prefix_hits = 0;
  int64_t prefix_misses = 0;
  double prefix_hit_rate = 0;      ///< hits / (hits + misses)
  /// Encoder tokens across all issued requests (= prefill work with the
  /// cache off) and the subset whose prefill a cache hit skipped.
  int64_t prefill_tokens = 0;
  int64_t prefill_tokens_saved = 0;
};

/// Schema-skewed prompt distribution for prefix-cache benchmarking: each
/// prompt is a long per-schema token block (the serialized database
/// schema every question against that database shares) followed by a
/// short question drawn from a small per-schema pool. Schemas are chosen
/// Zipf(s)-distributed, mirroring production traffic where a few popular
/// databases dominate — under it, exact repeats (warm hits) and
/// shared-schema partial matches are both common.
struct SchemaSkewOptions {
  int num_schemas = 8;
  int questions_per_schema = 4;  ///< distinct questions per schema
  int schema_tokens = 48;        ///< shared prefix length
  int question_tokens = 8;       ///< per-question suffix length
  double zipf_s = 1.1;           ///< Zipf exponent over schema ranks
  int total = 64;                ///< prompts to generate
  int vocab = 32;                ///< token ids drawn from [2, vocab)
  uint64_t seed = 17;
};

std::vector<std::vector<int>> SchemaSkewedPrompts(
    const SchemaSkewOptions& options);

/// Load generator. Closed loop by default: keeps `concurrency` requests
/// outstanding against the scheduler until `total_requests` have
/// completed. With arrival_rate > 0 it switches to an open loop (Poisson
/// arrivals at that rate), and with a trace set it replays the trace's
/// timestamps — both issue regardless of completions, so overload turns
/// into latency rather than reduced offered load. Reports throughput,
/// exact p50/p99 latency and TTFT quantiles, the SLO-violation fraction,
/// and mean batch occupancy. Drives the scheduler in-process (no TCP) so
/// the numbers measure the batching engine, not socket overhead.
LoadGenReport RunLoadGen(BatchScheduler* scheduler,
                         const std::vector<std::vector<int>>& prompts,
                         const LoadGenOptions& options);

}  // namespace serve
}  // namespace vist5

#endif  // VIST5_SERVE_LOADGEN_H_
