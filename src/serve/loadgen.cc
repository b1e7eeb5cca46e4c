#include "serve/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "util/json.h"
#include "util/rng.h"

namespace vist5 {
namespace serve {
namespace {

double ExactQuantile(std::vector<double> sorted_values, double q) {
  if (sorted_values.empty()) return 0;
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted_values.size() - 1) + 0.5);
  return sorted_values[std::min(idx, sorted_values.size() - 1)];
}

}  // namespace

StatusOr<std::vector<TraceEntry>> LoadTraceJsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open trace file: " + path);
  }
  std::vector<TraceEntry> trace;
  std::string line;
  int lineno = 0;
  double prev_at_ms = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const auto bad = [&](const std::string& msg) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": " + msg);
    };
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    if (!parsed.ok()) return bad(std::string(parsed.status().message()));
    const JsonValue& doc = parsed.value();
    if (!doc.is_object()) return bad("trace entry must be a JSON object");
    TraceEntry entry;
    const JsonValue* toks = doc.Find("tokens");
    if (toks == nullptr || !toks->is_array() || toks->size() == 0) {
      return bad("trace entry needs a non-empty \"tokens\" array");
    }
    for (size_t i = 0; i < toks->size(); ++i) {
      if (!toks->at(i).is_number()) return bad("\"tokens\" must hold numbers");
      int token = 0;
      if (!JsonToInt(toks->at(i), 0, std::numeric_limits<int>::max(),
                     &token)) {
        return bad("\"tokens\" must hold non-negative integers");
      }
      entry.tokens.push_back(token);
    }
    entry.at_ms = prev_at_ms;
    if (const JsonValue* v = doc.Find("at_ms")) {
      if (!v->is_number() || v->number_value() < prev_at_ms) {
        return bad("\"at_ms\" must be a number, non-decreasing across lines");
      }
      entry.at_ms = v->number_value();
    }
    prev_at_ms = entry.at_ms;
    std::string field_error;
    if (!ReadIntField(doc, "max_len", 1, kMaxRequestMaxLen, &entry.max_len,
                      &field_error) ||
        !ReadIntField(doc, "draft", 0, kMaxRequestDraftK, &entry.draft_k,
                      &field_error)) {
      return bad(field_error);
    }
    trace.push_back(std::move(entry));
  }
  if (trace.empty()) {
    return Status::InvalidArgument("trace file holds no entries: " + path);
  }
  return trace;
}

std::vector<std::vector<int>> SchemaSkewedPrompts(
    const SchemaSkewOptions& options) {
  VIST5_CHECK(options.num_schemas > 0 && options.questions_per_schema > 0);
  VIST5_CHECK(options.vocab > 2);
  Rng rng(options.seed);
  const auto random_run = [&](int len) {
    std::vector<int> tokens(static_cast<size_t>(len));
    // Keep clear of the pad/EOS ids (0 and 1 in every test/bench fixture).
    for (int& t : tokens) t = rng.UniformRange(2, options.vocab - 1);
    return tokens;
  };
  std::vector<std::vector<int>> schemas;
  std::vector<std::vector<std::vector<int>>> questions;
  for (int s = 0; s < options.num_schemas; ++s) {
    schemas.push_back(random_run(options.schema_tokens));
    questions.emplace_back();
    for (int q = 0; q < options.questions_per_schema; ++q) {
      questions.back().push_back(random_run(options.question_tokens));
    }
  }
  std::vector<double> weights(static_cast<size_t>(options.num_schemas));
  for (int s = 0; s < options.num_schemas; ++s) {
    weights[static_cast<size_t>(s)] =
        1.0 / std::pow(static_cast<double>(s + 1), options.zipf_s);
  }
  std::vector<std::vector<int>> prompts;
  prompts.reserve(static_cast<size_t>(options.total));
  for (int i = 0; i < options.total; ++i) {
    const int s = rng.Categorical(weights);
    const std::vector<int>& question =
        questions[static_cast<size_t>(s)][static_cast<size_t>(
            rng.UniformInt(options.questions_per_schema))];
    // Schema, then question: same-question repeats are exact cache hits.
    std::vector<int> prompt = schemas[static_cast<size_t>(s)];
    prompt.insert(prompt.end(), question.begin(), question.end());
    prompts.push_back(std::move(prompt));
  }
  return prompts;
}

LoadGenReport RunLoadGen(BatchScheduler* scheduler,
                         const std::vector<std::vector<int>>& prompts,
                         const LoadGenOptions& options) {
  const bool replay = !options.trace.empty();
  const bool open_loop = replay || options.arrival_rate > 0;
  VIST5_CHECK(replay || !prompts.empty());
  using Clock = std::chrono::steady_clock;
  obs::Histogram* batch_hist = obs::GetHistogram("serve/batch_size");
  const uint64_t batch_count0 = batch_hist->count();
  const double batch_sum0 = batch_hist->sum();
  const PrefixCache* cache = scheduler->prefix_cache();
  const PrefixCacheStats cache0 =
      cache != nullptr ? cache->stats() : PrefixCacheStats{};

  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<double> latencies_ms;
    std::vector<double> ttfts_ms;
    std::vector<double> observed_ttfts_ms;
    int slo_violations = 0;
    int issued = 0;
    int done = 0;
    int completed = 0;
    int expired = 0;
    int64_t tokens = 0;
    int64_t prefill_tokens = 0;
  };
  Shared shared;
  const int total =
      replay ? static_cast<int>(options.trace.size()) : options.total_requests;

  // Records one completion; returns true when it was the last. Shared by
  // the closed and open loops so both report identically.
  const auto record = [&shared, &options, total](const Response& r,
                                                 Clock::time_point start) {
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    bool all_done = false;
    {
      std::lock_guard<std::mutex> lock(shared.mu);
      shared.latencies_ms.push_back(ms);
      if (r.ttft_ms > 0) shared.ttfts_ms.push_back(r.ttft_ms);
      if (options.slo_ms > 0 && ms > options.slo_ms) {
        ++shared.slo_violations;
      }
      if (r.status == ResponseStatus::kOk) {
        ++shared.completed;
        shared.tokens += static_cast<int64_t>(r.tokens.size());
      } else if (r.status == ResponseStatus::kDeadlineExpired) {
        ++shared.expired;
      }
      all_done = ++shared.done >= total;
      // Notify while still holding the lock: `shared` lives on the
      // waiter's stack, and the waiter may destroy it the moment it can
      // observe done == total — which it cannot do before we unlock.
      // Notifying after unlocking would race the cv's own destruction.
      if (all_done) shared.cv.notify_all();
    }
    return all_done;
  };

  // Observed TTFT: stamp the first streamed token's arrival against the
  // request's issue time. Runs on the scheduler's decode thread, strictly
  // before that request's completion fires, so `shared` (on this stack
  // until every completion is recorded) is safe to touch.
  const auto attach_stream = [&shared, &options](Request* req,
                                                 Clock::time_point start) {
    if (!options.stream) return;
    req->on_token = [&shared, start](int /*token*/, size_t seq) {
      if (seq != 0) return;
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      std::lock_guard<std::mutex> lock(shared.mu);
      shared.observed_ttfts_ms.push_back(ms);
    };
  };

  // Closed loop: each completion immediately refills the slot it frees, so
  // the number in flight stays at `concurrency` until the tail.
  std::function<void()> issue_one = [&]() {
    int index;
    Clock::time_point start;
    {
      std::lock_guard<std::mutex> lock(shared.mu);
      if (shared.issued >= total) return;
      index = shared.issued++;
      start = Clock::now();
    }
    Request req;
    req.tokens = prompts[static_cast<size_t>(index) % prompts.size()];
    req.options = options.gen;
    {
      std::lock_guard<std::mutex> lock(shared.mu);
      shared.prefill_tokens += static_cast<int64_t>(req.tokens.size());
    }
    attach_stream(&req, start);
    scheduler->Submit(std::move(req),
                      [&record, &issue_one, start](Response r) {
                        if (!record(r, start)) issue_one();
                      });
  };

  const Clock::time_point t0 = Clock::now();
  if (open_loop) {
    // Open loop: arrivals follow the schedule — the trace's timestamps, or
    // exponential inter-arrival gaps (a Poisson process) at arrival_rate —
    // and never wait for completions. Overload therefore surfaces as
    // queueing latency and SLO violations, not as a throttled client.
    Rng arrivals(options.arrival_seed);
    double next_ms = 0;
    for (int i = 0; i < total; ++i) {
      double at_ms;
      if (replay) {
        at_ms = options.trace[static_cast<size_t>(i)].at_ms;
      } else {
        next_ms += -std::log(1.0 - arrivals.UniformDouble()) * 1000.0 /
                   options.arrival_rate;
        at_ms = next_ms;
      }
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(at_ms)));
      Request req;
      req.options = options.gen;
      if (replay) {
        const TraceEntry& entry = options.trace[static_cast<size_t>(i)];
        req.tokens = entry.tokens;
        if (entry.max_len >= 0) req.options.max_len = entry.max_len;
        if (entry.draft_k >= 0) req.options.draft_k = entry.draft_k;
      } else {
        req.tokens = prompts[static_cast<size_t>(i) % prompts.size()];
      }
      const Clock::time_point start = Clock::now();
      {
        std::lock_guard<std::mutex> lock(shared.mu);
        ++shared.issued;
        shared.prefill_tokens += static_cast<int64_t>(req.tokens.size());
      }
      attach_stream(&req, start);
      scheduler->Submit(std::move(req), [&record, start](Response r) {
        record(r, start);
      });
    }
  } else {
    const int initial = std::min(options.concurrency, total);
    for (int i = 0; i < initial; ++i) issue_one();
  }
  {
    std::unique_lock<std::mutex> lock(shared.mu);
    shared.cv.wait(lock, [&] { return shared.done >= total; });
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  LoadGenReport report;
  report.completed = shared.completed;
  report.expired = shared.expired;
  report.tokens = shared.tokens;
  report.wall_s = wall_s;
  report.tok_per_sec =
      wall_s > 0 ? static_cast<double>(shared.tokens) / wall_s : 0;
  std::sort(shared.latencies_ms.begin(), shared.latencies_ms.end());
  report.p50_ms = ExactQuantile(shared.latencies_ms, 0.50);
  report.p99_ms = ExactQuantile(shared.latencies_ms, 0.99);
  std::sort(shared.ttfts_ms.begin(), shared.ttfts_ms.end());
  report.ttft_p50_ms = ExactQuantile(shared.ttfts_ms, 0.50);
  report.ttft_p99_ms = ExactQuantile(shared.ttfts_ms, 0.99);
  std::sort(shared.observed_ttfts_ms.begin(), shared.observed_ttfts_ms.end());
  report.observed_ttft_p50_ms = ExactQuantile(shared.observed_ttfts_ms, 0.50);
  report.observed_ttft_p99_ms = ExactQuantile(shared.observed_ttfts_ms, 0.99);
  if (options.slo_ms > 0 && !shared.latencies_ms.empty()) {
    report.slo_violation_frac =
        static_cast<double>(shared.slo_violations) /
        static_cast<double>(shared.latencies_ms.size());
  }
  const uint64_t steps = batch_hist->count() - batch_count0;
  if (steps > 0) {
    report.mean_batch =
        (batch_hist->sum() - batch_sum0) / static_cast<double>(steps);
  }
  report.prefill_tokens = shared.prefill_tokens;
  if (cache != nullptr) {
    const PrefixCacheStats cache1 = cache->stats();
    report.prefix_hits = static_cast<int64_t>(cache1.hits - cache0.hits);
    report.prefix_misses =
        static_cast<int64_t>(cache1.misses - cache0.misses);
    const int64_t lookups = report.prefix_hits + report.prefix_misses;
    if (lookups > 0) {
      report.prefix_hit_rate =
          static_cast<double>(report.prefix_hits) /
          static_cast<double>(lookups);
    }
    report.prefill_tokens_saved =
        static_cast<int64_t>(cache1.reuse_tokens - cache0.reuse_tokens);
  }
  return report;
}

}  // namespace serve
}  // namespace vist5
