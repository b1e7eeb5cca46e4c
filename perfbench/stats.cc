#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace perfbench {

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TpotMs(const std::vector<Clock::time_point>& token_times) {
  if (token_times.size() < 2) return -1.0;
  return MsBetween(token_times.front(), token_times.back()) /
         static_cast<double>(token_times.size() - 1);
}

double RepeatShare(const std::vector<uint64_t>& keys) {
  if (keys.empty()) return 0.0;
  std::unordered_set<uint64_t> seen;
  size_t repeats = 0;
  for (const uint64_t key : keys) {
    if (!seen.insert(key).second) ++repeats;
  }
  return static_cast<double>(repeats) / static_cast<double>(keys.size());
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kRejected: return "rejected";
    case Outcome::kError: return "error";
    case Outcome::kDeadline: return "deadline";
    case Outcome::kShutdown: return "shutdown";
    case Outcome::kMismatch: return "mismatch";
    case Outcome::kUnanswered: return "unanswered";
  }
  return "unknown";
}

void CheckRecord(RequestRecord* record) {
  if (record->finals != 1) {
    record->outcome = Outcome::kUnanswered;
    return;
  }
  if (record->outcome != Outcome::kOk) return;
  if (record->streamed != record->tokens ||
      record->token_times.size() != record->tokens.size() ||
      (record->expected_tokens >= 0 &&
       static_cast<int>(record->tokens.size()) != record->expected_tokens)) {
    record->outcome = Outcome::kMismatch;
  }
}

PhaseSummary Summarize(const std::vector<RequestRecord>& records,
                       Clock::time_point t0) {
  PhaseSummary s;
  int64_t tokens = 0;
  Clock::time_point last_end = t0;
  std::vector<double> late, ttft, tpot, e2e;
  for (const RequestRecord& r : records) {
    ++s.attempted;
    late.push_back(MsBetween(r.start, r.sent));
    last_end = std::max(last_end, r.end);
    if (r.outcome != Outcome::kOk) {
      ++s.failed;
      ++s.failures_by_outcome[OutcomeName(r.outcome)];
      continue;
    }
    tokens += static_cast<int64_t>(r.tokens.size());
    e2e.push_back(MsBetween(r.start, r.end));
    if (!r.token_times.empty()) {
      ttft.push_back(MsBetween(r.start, r.token_times.front()));
    }
    const double t = TpotMs(r.token_times);
    if (t >= 0) tpot.push_back(t);
  }
  const double wall_s = MsBetween(t0, last_end) / 1e3;
  s.tok_s = wall_s > 0 ? static_cast<double>(tokens) / wall_s : 0.0;
  s.ttft_p50_ms = Quantile(ttft, 0.5);
  s.ttft_p90_ms = Quantile(ttft, 0.9);
  s.tpot_p50_ms = Quantile(tpot, 0.5);
  s.tpot_p90_ms = Quantile(tpot, 0.9);
  s.e2e_p50_ms = Quantile(e2e, 0.5);
  s.e2e_p90_ms = Quantile(e2e, 0.9);
  s.late_p99_ms = Quantile(late, 0.99);
  return s;
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    // %.17g keeps every digit a double carries; non-finite values cannot
    // appear in JSON, so they print as 0 (and the caller fails the run).
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
