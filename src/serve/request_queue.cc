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

bool RequestQueue::TryPopIf(const std::function<bool(const Request&)>& pred,
                            Entry* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (heap_.empty() || !pred(heap_.front().entry.request)) return false;
  return PopLocked(out);
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
