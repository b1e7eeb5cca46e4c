#include "serve/request_queue.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace vist5 {
namespace serve {

const char* ResponseStatusName(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kDeadlineExpired:
      return "deadline";
    case ResponseStatus::kRejected:
      return "rejected";
    case ResponseStatus::kShutdown:
      return "shutdown";
    case ResponseStatus::kError:
      return "error";
  }
  return "error";
}

namespace {
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* g = obs::GetGauge("serve/queue_depth");
  return g;
}
}  // namespace

bool RequestQueue::HeapLess(const Item& a, const Item& b) {
  // std::push_heap keeps the *greatest* element on top, so "less" means
  // "served later": lower priority, or same priority but enqueued later.
  if (a.entry.request.priority != b.entry.request.priority) {
    return a.entry.request.priority < b.entry.request.priority;
  }
  return a.seq > b.seq;
}

Status RequestQueue::Push(Entry entry) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return Status::Unavailable("request queue is closed");
    }
    if (heap_.size() >= capacity_) {
      return Status::Unavailable("request queue is full");
    }
    heap_.push_back(Item{std::move(entry), next_seq_++});
    std::push_heap(heap_.begin(), heap_.end(), HeapLess);
    QueueDepthGauge()->Set(static_cast<double>(heap_.size()));
  }
  cv_.notify_one();
  return Status::OK();
}

bool RequestQueue::PopLocked(Entry* out) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), HeapLess);
  *out = std::move(heap_.back().entry);
  heap_.pop_back();
  QueueDepthGauge()->Set(static_cast<double>(heap_.size()));
  return true;
}

RequestQueue::PopStatus RequestQueue::WaitAndPopFor(
    Entry* out, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [&] { return closed_ || !heap_.empty(); });
  if (PopLocked(out)) return PopStatus::kItem;
  return closed_ ? PopStatus::kClosed : PopStatus::kTimeout;
}

bool RequestQueue::TryPop(Entry* out) {
  std::lock_guard<std::mutex> lock(mu_);
  return PopLocked(out);
}

bool RequestQueue::TryPopPreferring(const std::vector<int>& ref,
                                    Entry* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (heap_.empty()) return false;
  const int top_priority = heap_.front().entry.request.priority;
  // The heap is small (bounded by capacity_), so a linear scan over the
  // top priority level is cheaper than maintaining a per-prefix index.
  size_t best = heap_.size();
  size_t best_lcp = 0;
  uint64_t best_seq = 0;
  for (size_t i = 0; i < heap_.size(); ++i) {
    const Item& item = heap_[i];
    if (item.entry.request.priority != top_priority) continue;
    const std::vector<int>& tokens = item.entry.request.tokens;
    const size_t limit = std::min(tokens.size(), ref.size());
    size_t lcp = 0;
    while (lcp < limit && tokens[lcp] == ref[lcp]) ++lcp;
    if (best == heap_.size() || lcp > best_lcp ||
        (lcp == best_lcp && item.seq < best_seq)) {
      best = i;
      best_lcp = lcp;
      best_seq = item.seq;
    }
  }
  *out = std::move(heap_[best].entry);
  heap_.erase(heap_.begin() + static_cast<long>(best));
  std::make_heap(heap_.begin(), heap_.end(), HeapLess);
  QueueDepthGauge()->Set(static_cast<double>(heap_.size()));
  return true;
}

void RequestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return heap_.size();
}

}  // namespace serve
}  // namespace vist5
