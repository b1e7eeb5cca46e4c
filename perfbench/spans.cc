#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

uint64_t SpanLog::NextId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::Add(std::string name, Clock::time_point start,
                  Clock::time_point end, uint64_t parent, uint64_t request,
                  int tid) {
  if (!enabled_) return;
  AddWithId(NextId(), std::move(name), start, end, parent, request, tid);
}

void SpanLog::AddWithId(uint64_t id, std::string name,
                        Clock::time_point start, Clock::time_point end,
                        uint64_t parent, uint64_t request, int tid) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), id, parent, request, start, end, tid});
}

std::map<std::string, SpanLog::Rollup> SpanLog::Rollups() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, Rollup> out;
  for (const Span& s : spans_) {
    const double total = MsBetween(s.start, s.end);
    // Union of the children's intervals, clipped to the parent's, so
    // overlapping children (concurrent requests under one phase) are not
    // subtracted twice.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const auto lo = std::max(c->start, s.start);
        const auto hi = std::min(c->end, s.end);
        if (lo < hi) iv.emplace_back(lo, hi);
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    Clock::time_point cur_lo{}, cur_hi{};
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += MsBetween(cur_lo, cur_hi);
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += MsBetween(cur_lo, cur_hi);
    Rollup& r = out[s.name];
    ++r.count;
    r.total_ms += total;
    r.self_ms += total - covered;
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const Span& s : spans_) {
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  s.tid, us(s.start), us(s.end) - us(s.start));
    out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name << "\", "
        << buf << ", \"args\": {\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t parent,
                       uint64_t request)
    : log_(log), name_(name), parent_(parent), request_(request) {
  if (log_->enabled()) {
    id_ = log_->NextId();
    start_ = Clock::now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (log_->enabled()) {
    log_->AddWithId(id_, name_, start_, Clock::now(), parent_, request_);
  }
}

}  // namespace perfbench
