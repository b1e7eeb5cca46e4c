#ifndef VIST5_SERVE_REQUEST_QUEUE_H_
#define VIST5_SERVE_REQUEST_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "model/seq2seq_model.h"
#include "util/status.h"

namespace vist5 {
namespace serve {

/// Per-token stream hook. `token` is the committed token id and `seq` its
/// 0-based position in the request's output. Invoked on the scheduler's
/// decode thread at step boundaries (speculative commits arrive as
/// accepted runs, one call per token) — keep it cheap and non-blocking;
/// a slow subscriber must buffer, never stall the decode loop
/// (docs/SERVING.md).
using TokenCallback = std::function<void(int token, size_t seq)>;

/// Ranges the line-JSON wire and replayed trace files accept for a
/// request's "max_len" and "draft" fields.
inline constexpr int kMaxRequestMaxLen = 4096;
inline constexpr int kMaxRequestDraftK = 1024;
/// Longest tokenized source BatchScheduler::Submit accepts; longer ones get
/// a per-request error. The encoder's [heads, n, n] attention scores grow
/// with the square of the source length, so an unbounded source can
/// exhaust memory: 20,000 tokens need 6.4 GB on t5_small's 4 heads. A
/// 2048-token prefill takes about a second, and the benchmark's longest
/// source is 241 tokens (docs/SERVING.md).
inline constexpr int kMaxRequestSrcTokens = 2048;

/// One tokenized generation request as it flows through the scheduler.
struct Request {
  /// Internal id, assigned by BatchScheduler::Submit. Client-side ids live
  /// in the transport layer (the server echoes them from the JSON line).
  uint64_t id = 0;
  std::vector<int> tokens;  ///< tokenized source (non-empty)
  model::GenerationOptions options;
  /// Higher priorities are dequeued first; equal priorities run FIFO.
  int priority = 0;
  std::chrono::steady_clock::time_point enqueue_time;
  /// Absolute per-request deadline (queue wait counts against it);
  /// time_point::max() means none. Derived from options.deadline_ms.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// When set, every committed token is published through it before the
  /// final response; the concatenated stream is bit-identical to the
  /// response's `tokens`. Unset (the default) skips all streaming work.
  TokenCallback on_token;
};

/// Wall-clock milestones of one request as it crosses the serve stack:
/// enqueue (Submit), admit (joined the decoder), first token, finish. The
/// scheduler fills one of these per request, derives the
/// serve/queue_wait_ms, serve/ttft_ms and serve/tokens_per_sec histograms
/// from it, attaches the breakdown to the response line, and emits
/// serve/req<id>/* trace spans so one request is reconstructable
/// end-to-end in the Chrome trace (docs/SERVING.md).
struct RequestTimeline {
  using Clock = std::chrono::steady_clock;

  Clock::time_point enqueue{};
  Clock::time_point admit{};
  Clock::time_point first_token{};
  Clock::time_point finish{};
  int decode_steps = 0;  ///< decoder steps this request took part in
  bool admitted = false;
  bool has_first_token = false;

  static double Ms(Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  }
  /// enqueue -> admission into the decoder.
  double queue_wait_ms() const {
    return admitted ? Ms(admit - enqueue) : 0.0;
  }
  /// enqueue -> first decode step completed (time-to-first-token as the
  /// client experiences it: queue wait + prefill + first step).
  double ttft_ms() const {
    return has_first_token ? Ms(first_token - enqueue) : 0.0;
  }
  /// admit -> first token: the prefill + first-step cost alone.
  double prefill_ms() const {
    return has_first_token ? Ms(first_token - admit) : 0.0;
  }
  /// admit -> finish: time spent decoding (excludes queue wait).
  double decode_ms() const { return admitted ? Ms(finish - admit) : 0.0; }
  double total_ms() const { return Ms(finish - enqueue); }
  /// Decode rate over the post-admission interval; 0 when unmeasurable.
  double tokens_per_sec(size_t tokens) const {
    const double s = decode_ms() / 1e3;
    return (tokens > 0 && s > 0) ? static_cast<double>(tokens) / s : 0.0;
  }
};

enum class ResponseStatus {
  kOk,
  kDeadlineExpired,  ///< best-so-far tokens, cut off by the deadline
  kRejected,         ///< backpressure: queue full, retry after a delay
  kShutdown,         ///< scheduler stopped before the request ran
  kError,
};

/// Maps a response status to its wire name ("ok", "deadline", ...).
const char* ResponseStatusName(ResponseStatus status);

struct Response {
  uint64_t id = 0;
  ResponseStatus status = ResponseStatus::kOk;
  std::vector<int> tokens;
  std::string error;
  double queue_ms = 0;   ///< enqueue -> admission into a batch
  double ttft_ms = 0;    ///< enqueue -> first decode step completed
  double decode_ms = 0;  ///< admission -> completion
  double total_ms = 0;   ///< enqueue -> completion
  double tokens_per_sec = 0;  ///< decode rate over the admitted interval
  int retry_after_ms = 0;     ///< backpressure hint when rejected
  RequestTimeline timeline;   ///< raw milestones behind the *_ms fields
};

/// Completion callback. Invoked exactly once per submitted request, on the
/// scheduler's decode thread (or inline on the submitting thread for
/// rejections) — keep it cheap and non-blocking.
using Completion = std::function<void(Response)>;

/// Bounded, priority-ordered admission queue between transport threads and
/// the scheduler's decode loop. Push returns Unavailable when full
/// (backpressure — callers translate this into a "rejected, retry after"
/// response instead of queueing unboundedly). Thread-safe.
class RequestQueue {
 public:
  struct Entry {
    Request request;
    Completion done;
  };

  explicit RequestQueue(size_t capacity) : capacity_(capacity) {}

  /// Enqueues; Unavailable when the queue is at capacity or closed.
  Status Push(Entry entry);

  enum class PopStatus {
    kItem,     ///< `*out` holds an entry
    kTimeout,  ///< nothing arrived within the window; queue still open
    kClosed,   ///< closed and empty — no entry will ever arrive
  };

  /// Blocks until an entry is available, the queue is closed, or
  /// `timeout` passes — bounded, so the scheduler loop can wake to service
  /// control-plane work (pending checkpoint reloads, shutdown checks) even
  /// when no requests arrive.
  PopStatus WaitAndPopFor(Entry* out, std::chrono::milliseconds timeout);

  /// Non-blocking pop; false when empty (or closed-and-empty).
  bool TryPop(Entry* out);

  /// TryPop that prefers, among entries at the current top priority
  /// level, the one whose token sequence shares the longest common prefix
  /// with `ref` (earliest arrival on ties — plain FIFO when nothing
  /// matches). Lower priority levels are never jumped; only the order
  /// *within* the top level bends toward prefix locality, which is what
  /// the scheduler's same-schema co-batching affinity needs
  /// (docs/SERVING.md).
  bool TryPopPreferring(const std::vector<int>& ref, Entry* out);

  /// Rejects future pushes and wakes blocked poppers. Entries already
  /// queued remain poppable (graceful drain).
  void Close();

  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Item {
    Entry entry;
    uint64_t seq = 0;  ///< FIFO tie-break within a priority level
  };
  /// Max-heap order: priority first, then earliest sequence number.
  static bool HeapLess(const Item& a, const Item& b);

  bool PopLocked(Entry* out);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Item> heap_;
  uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace serve
}  // namespace vist5

#endif  // VIST5_SERVE_REQUEST_QUEUE_H_
