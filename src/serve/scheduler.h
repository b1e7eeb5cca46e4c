#ifndef VIST5_SERVE_SCHEDULER_H_
#define VIST5_SERVE_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "model/batch_decoder.h"
#include "serve/prefix_cache.h"
#include "serve/request_queue.h"

namespace vist5 {
namespace serve {

struct SchedulerOptions {
  /// Maximum concurrent decode rows (continuous-batch width).
  int max_batch = 8;
  /// Admission queue bound; pushes beyond it are rejected with a
  /// retry-after hint instead of growing the queue unboundedly.
  size_t queue_capacity = 64;
  /// Backpressure hint attached to rejected responses.
  int retry_after_ms = 50;
  /// Byte budget for the shared encoder-prefix cache (docs/SERVING.md).
  /// 0 (the default) builds no cache. Admission order is the same either
  /// way: priority first, then FIFO.
  size_t prefix_cache_bytes = 0;
  /// Draft model for speculative decoding (docs/SPECULATIVE.md). Null
  /// (the default) disables it: requests carrying draft_k > 0 are rejected
  /// at admission. Not owned; must share the base model's tokenizer and
  /// outlive the scheduler. A speculative request decodes alone in the
  /// scheduler's decoder, draft and base at the request's own
  /// weight_dtype; its verify span is wider than a batch row's one token.
  model::TransformerSeq2Seq* draft_model = nullptr;
};

/// BatchScheduler::Reload's callback: the load's status, or why none ran.
using ReloadCompletion = std::function<void(Status)>;

/// Persistent decode loop implementing continuous (in-flight) batching.
///
/// One thread owns a ContinuousDecoder and repeatedly: (1) admits queued
/// requests at the current step boundary until the batch is full, (2) runs
/// one decode step for every active row (a draft-verify round for a
/// speculative request), (3) completes and evicts requests that finished
/// or blew their deadline. New requests therefore join a running batch
/// without waiting for it to drain, and finished requests free their slot
/// immediately.
///
/// Greedy and sampled requests batch together. A beam request and a
/// speculative request (draft_k > 0) each decode alone in the same
/// decoder, and a decode batch reads one weight dtype per step. So the
/// queue's head joins a running batch only when neither it nor the batch
/// decodes alone and it reads the batch's weight dtype. A head that cannot
/// join stays at the head, with everything behind it, until the batch
/// drains; it then starts the next batch. The queue is the only place a
/// request waits, so admission order is the queue's: priority, then FIFO
/// (docs/SERVING.md).
///
/// Per-request token streams are bit-identical to decoding each request
/// alone, regardless of batch composition (the determinism contract
/// tested by tests/serve_test.cc).
class BatchScheduler {
 public:
  /// `model` is non-const because Reload swaps its weights in place; the
  /// decode paths themselves never mutate it.
  BatchScheduler(model::TransformerSeq2Seq* model,
                 const SchedulerOptions& options);
  ~BatchScheduler();

  /// Spawns the decode thread. Call once.
  void Start();

  /// Enqueues `req`; `done` fires exactly once. On backpressure (full
  /// queue / stopped scheduler) `done` is invoked inline with a rejected
  /// response carrying retry_after_ms, and the returned status is
  /// Unavailable. `req.enqueue_time`/`deadline`/`id` are assigned here.
  Status Submit(Request req, Completion done);

  /// Submit + block until the response arrives.
  Response SubmitAndWait(Request req);

  /// Swaps a new checkpoint (VT5C module format, docs/CHECKPOINTING.md)
  /// into the model *between* decode steps: the loop stops admitting,
  /// lets in-flight rows finish (their tokens stay consistent — every step
  /// of a given request runs against one set of weights), loads `path`,
  /// and resumes admissions. Queued requests are *not* dropped; they
  /// decode under the new weights. `done` fires exactly once: on the
  /// decode thread with the load's status (on any load error the old
  /// weights remain and serving continues), or inline with Unavailable
  /// when another reload is pending or Shutdown has begun. Before Start
  /// the load runs inline.
  void Reload(const std::string& path, ReloadCompletion done);

  /// Stops the scheduler. With `drain` the decode loop first finishes
  /// every queued and in-flight request; without it, queued and active
  /// requests complete immediately with status "shutdown". Idempotent.
  void Shutdown(bool drain);

  size_t queue_depth() const { return queue_.size(); }
  int max_batch() const { return options_.max_batch; }

  /// The shared encoder-prefix cache, or null when prefix_cache_bytes is
  /// 0. Thread-safe to scrape stats() from while the loop mutates it
  /// (the /admin/stats handler and loadgen reports do).
  const PrefixCache* prefix_cache() const { return prefix_cache_.get(); }

 private:
  struct Track;

  void Loop();
  /// Admits queued requests until the batch is full. An idle decoder takes
  /// whatever heads the queue; a running batch takes the head only while
  /// it joins (see the class comment), so a head that cannot join waits in
  /// the queue until the batch drains. Returns true when the queue closed.
  bool FillBatch(std::vector<Track>* tracks);
  void Admit(RequestQueue::Entry entry, std::vector<Track>* tracks);
  void StepBatch(std::vector<Track>* tracks);
  void Finish(Track* track, ResponseStatus status, std::vector<int> tokens);
  /// Answers every request still queued "shutdown".
  void ShutDownQueued();
  /// Performs the pending reload (loop thread, no batch active) or, when
  /// `aborting`, answers it Unavailable, so every Reload is answered.
  void ServiceReload(bool aborting);

  model::TransformerSeq2Seq* model_;
  const SchedulerOptions options_;
  /// Decodes every admitted request, with options_.draft_model as its
  /// draft. Loop thread only.
  model::ContinuousDecoder decoder_;
  /// Null when prefix_cache_bytes == 0. Mutated only on the loop thread
  /// (the cache itself is internally locked for stats scrapes).
  std::unique_ptr<PrefixCache> prefix_cache_;
  RequestQueue queue_;
  std::thread loop_;
  std::atomic<bool> abort_{false};  ///< non-drain shutdown
  std::atomic<uint64_t> next_id_{1};
  /// Guards started_, shut_down_ and the pending reload, so a Reload loads
  /// inline only before Start, and otherwise either registers before
  /// Shutdown begins, and the loop then answers it, or is refused.
  std::mutex control_mu_;
  bool started_ = false;
  bool shut_down_ = false;
  /// The registered Reload, which the decode loop services at a
  /// batch-empty boundary; `reload_done_` is empty when none is pending.
  std::string reload_path_;
  ReloadCompletion reload_done_;
  /// Set while a reload is pending: the loop's cheap gate for pausing
  /// admissions.
  std::atomic<bool> reload_pending_{false};
};

}  // namespace serve
}  // namespace vist5

#endif  // VIST5_SERVE_SCHEDULER_H_
