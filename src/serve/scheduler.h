#ifndef VIST5_SERVE_SCHEDULER_H_
#define VIST5_SERVE_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
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
  /// 0 (the default) disables prefix caching entirely — behavior is
  /// identical to a scheduler without the cache.
  /// With the cache on, mid-flight admissions also prefer queued requests
  /// sharing the longest token prefix with the most recently admitted one,
  /// so same-schema requests co-batch and hit warm blocks (only within the
  /// top priority level).
  size_t prefix_cache_bytes = 0;
  /// Draft model for speculative decoding (docs/SPECULATIVE.md). Null
  /// (the default) disables it: requests carrying draft_k > 0 are rejected
  /// at admission. Not owned; must share the base model's tokenizer and
  /// outlive the scheduler. A speculative request decodes alone in the
  /// scheduler's decoder, draft and base at the request's own
  /// weight_dtype; its verify span is wider than a batch row's one token.
  model::TransformerSeq2Seq* draft_model = nullptr;
};

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
/// decoder: they wait for the batch to drain, and nothing joins the batch
/// while they decode. A request whose weight_dtype differs from the
/// running batch's also parks until the batch drains, then starts a batch
/// at its dtype — a decode batch reads one weight representation per
/// step. Parking keeps admission FIFO (docs/SERVING.md).
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
  /// and resumes admissions. Blocks until the swap happened (or failed —
  /// on any load error the old weights remain and serving continues).
  /// Queued requests are *not* dropped; they decode under the new weights.
  Status Reload(const std::string& path);

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
  struct PendingReload;

  void Loop();
  /// Admits queued requests until the batch is full, and none while a
  /// request that decodes alone runs. A request that cannot join the
  /// running batch (beam, speculative, or a dtype mismatch) is parked in
  /// `*parked` and admissions stop — FIFO order is preserved while the
  /// batch drains. Returns true when the queue closed.
  bool FillBatch(std::vector<Track>* tracks, RequestQueue::Entry* parked,
                 bool* have_parked);
  void Admit(RequestQueue::Entry entry, std::vector<Track>* tracks);
  void StepBatch(std::vector<Track>* tracks);
  void Finish(Track* track, ResponseStatus status, std::vector<int> tokens);
  /// Performs the pending reload (loop thread, no batch active) or fails
  /// it during shutdown so Reload callers never hang.
  void ServiceReload(bool aborting);

  model::TransformerSeq2Seq* model_;
  const SchedulerOptions options_;
  /// Decodes every admitted request, with options_.draft_model as its
  /// draft. Loop thread only.
  model::ContinuousDecoder decoder_;
  /// Null when prefix_cache_bytes == 0. Mutated only on the loop thread
  /// (the cache itself is internally locked for stats scrapes).
  std::unique_ptr<PrefixCache> prefix_cache_;
  /// Tokens of the most recently admitted request; steers
  /// RequestQueue::TryPopPreferring when the prefix cache is on. Loop
  /// thread only.
  std::vector<int> affinity_ref_;
  RequestQueue queue_;
  std::thread loop_;
  std::atomic<bool> started_{false};
  std::atomic<bool> abort_{false};  ///< non-drain shutdown
  std::atomic<uint64_t> next_id_{1};
  std::mutex shutdown_mu_;
  bool shut_down_ = false;
  /// Reload handshake: Reload parks a request here and the decode loop
  /// services it at a batch-empty boundary. `reload_pending_` is the
  /// loop's cheap gate for pausing admissions.
  std::mutex reload_mu_;
  std::unique_ptr<PendingReload> pending_reload_;
  std::atomic<bool> reload_pending_{false};
};

}  // namespace serve
}  // namespace vist5

#endif  // VIST5_SERVE_SCHEDULER_H_
