#include "serve/scheduler.h"

#include <future>
#include <string>
#include <utility>

#include "model/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vist5 {
namespace serve {
namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

int64_t Us(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t.time_since_epoch())
      .count();
}

/// How long the idle decode loop sleeps between control-plane checks
/// (pending reloads, shutdown). Requests arriving mid-sleep wake the loop
/// immediately through the queue's condition variable.
constexpr std::chrono::milliseconds kIdleWait{50};

/// Admission-time validation for speculative requests (docs/SPECULATIVE.md):
/// a request that cannot run speculatively must be rejected loudly, never
/// silently decoded plain. Returns an empty string when admissible.
std::string SpecAdmissionError(const model::GenerationOptions& options,
                               const SchedulerOptions& sched) {
  if (options.draft_k <= 0) return "";
  if (sched.draft_model == nullptr) {
    return "speculative decoding unavailable: no draft model loaded";
  }
  if (options.beam_size > 1) {
    return "speculative decoding is greedy-only: beam_size must be 1";
  }
  if (options.temperature > 0.0f) {
    return "speculative decoding is greedy-only: temperature must be 0";
  }
  return "";
}

/// Emits the serve/req<id>/* span family reconstructing one request in the
/// Chrome trace: queue wait, prefill (admit -> first token), decode, and a
/// parent span covering the whole request. All on the scheduler thread, so
/// they nest by containment like ordinary scoped spans.
void EmitTimelineSpans(uint64_t id, const RequestTimeline& tl) {
  if (!obs::TraceEnabled()) return;
  const std::string tag = "serve/req" + std::to_string(id);
  obs::EmitSpan(tag, Us(tl.enqueue), Us(tl.finish));
  if (!tl.admitted) return;
  obs::EmitSpan(tag + "/queue_wait", Us(tl.enqueue), Us(tl.admit));
  if (tl.has_first_token) {
    obs::EmitSpan(tag + "/prefill", Us(tl.admit), Us(tl.first_token));
    obs::EmitSpan(tag + "/decode", Us(tl.first_token), Us(tl.finish));
  } else {
    obs::EmitSpan(tag + "/decode", Us(tl.admit), Us(tl.finish));
  }
}

}  // namespace

/// Scheduler-side bookkeeping for one admitted request.
struct BatchScheduler::Track {
  uint64_t id = 0;
  Completion done;
  RequestTimeline timeline;
  /// Pin on the request's encoder-prefix block (empty when the cache is
  /// off or the request never reached the decoder). Released in Finish.
  PrefixCache::Handle cache_handle;
  /// Stream subscriber (Request::on_token); empty for buffered requests.
  TokenCallback on_token;
  /// Tokens already published through on_token (the next seq number).
  size_t streamed = 0;
  /// A beam or speculative request: it decodes alone, so nothing joins
  /// the batch.
  bool alone = false;
};

/// One parked Reload call: the path to load and the promise its caller
/// blocks on.
struct BatchScheduler::PendingReload {
  std::string path;
  std::promise<Status> done;
};

BatchScheduler::BatchScheduler(model::TransformerSeq2Seq* model,
                               const SchedulerOptions& options)
    : model_(model),
      options_(options),
      decoder_(model, options.draft_model),
      queue_(options.queue_capacity) {
  if (options.prefix_cache_bytes > 0) {
    PrefixCacheOptions cache_options;
    cache_options.max_bytes = options.prefix_cache_bytes;
    prefix_cache_ = std::make_unique<PrefixCache>(cache_options);
  }
}

BatchScheduler::~BatchScheduler() { Shutdown(/*drain=*/false); }

void BatchScheduler::Start() {
  VIST5_CHECK(!started_.exchange(true)) << "BatchScheduler started twice";
  loop_ = std::thread(&BatchScheduler::Loop, this);
}

Status BatchScheduler::Submit(Request req, Completion done) {
  static obs::Counter* requests = obs::GetCounter("serve/requests");
  static obs::Counter* rejected = obs::GetCounter("serve/rejected");
  requests->Add();
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  req.enqueue_time = Clock::now();
  req.deadline =
      model::ContinuousDecoder::Deadline(req.options, req.enqueue_time);
  const uint64_t id = req.id;
  // Request data that the model would reject with a VIST5_CHECK fails
  // this request instead of aborting the process.
  const auto fail = [&](const std::string& error) {
    Response r;
    r.id = id;
    r.status = ResponseStatus::kError;
    r.error = error;
    done(std::move(r));
    return Status::InvalidArgument(error);
  };
  if (req.tokens.empty()) return fail("empty token sequence");
  if (req.tokens.size() > static_cast<size_t>(kMaxRequestSrcTokens)) {
    return fail("source has " + std::to_string(req.tokens.size()) +
                " tokens; the limit is " +
                std::to_string(kMaxRequestSrcTokens));
  }
  const int vocab = model_->transformer().config().vocab_size;
  for (size_t i = 0; i < req.tokens.size(); ++i) {
    if (req.tokens[i] < 0 || req.tokens[i] >= vocab) {
      return fail("token id " + std::to_string(req.tokens[i]) +
                  " at position " + std::to_string(i) +
                  " is outside the vocabulary [0, " + std::to_string(vocab) +
                  ")");
    }
  }
  if (const std::string spec_error =
          SpecAdmissionError(req.options, options_);
      !spec_error.empty()) {
    static obs::Counter* spec_rejected =
        obs::GetCounter("spec/admission_rejected");
    spec_rejected->Add();
    return fail(spec_error);
  }
  if (req.options.temperature > 0.0f && req.options.rng == nullptr) {
    return fail("sampling (temperature > 0) needs options.rng; none is set");
  }
  // Keep a handle on the callback: Push consumes the entry even when it
  // rejects, and a rejected request still owes its caller a response.
  Completion on_reject = done;
  Status status = queue_.Push({std::move(req), std::move(done)});
  if (!status.ok()) {
    rejected->Add();
    Response r;
    r.id = id;
    r.status = ResponseStatus::kRejected;
    r.retry_after_ms = options_.retry_after_ms;
    r.error = std::string(status.message());
    on_reject(std::move(r));
  }
  return status;
}

Response BatchScheduler::SubmitAndWait(Request req) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> fut = promise->get_future();
  Submit(std::move(req),
         [promise](Response r) { promise->set_value(std::move(r)); });
  return fut.get();
}

Status BatchScheduler::Reload(const std::string& path) {
  {
    std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
    if (shut_down_ || !started_.load()) {
      // No decode loop is (or will be) stepping, so the swap is safe to
      // run inline on the caller's thread.
      return model::LoadCheckpoint(model_->CheckpointModule(), path);
    }
  }
  std::future<Status> done;
  {
    std::lock_guard<std::mutex> lock(reload_mu_);
    if (pending_reload_ != nullptr) {
      return Status::Unavailable("another reload is already in progress");
    }
    pending_reload_ = std::make_unique<PendingReload>();
    pending_reload_->path = path;
    done = pending_reload_->done.get_future();
    reload_pending_.store(true, std::memory_order_release);
  }
  return done.get();
}

void BatchScheduler::ServiceReload(bool aborting) {
  static obs::Counter* reloads = obs::GetCounter("serve/reloads");
  static obs::Histogram* reload_ms = obs::GetHistogram("serve/reload_ms");
  std::unique_ptr<PendingReload> pending;
  {
    std::lock_guard<std::mutex> lock(reload_mu_);
    pending = std::move(pending_reload_);
    reload_pending_.store(false, std::memory_order_release);
  }
  if (pending == nullptr) return;
  if (aborting) {
    pending->done.set_value(
        Status::Unavailable("scheduler shut down before the reload ran"));
    return;
  }
  VIST5_TRACE_SPAN("serve/reload");
  const Clock::time_point t0 = Clock::now();
  Status status = model::LoadCheckpoint(model_->CheckpointModule(),
                                        pending->path);
  if (status.ok()) {
    reloads->Add();
    reload_ms->Observe(Ms(Clock::now() - t0));
    if (prefix_cache_ != nullptr) {
      // Every cached block was computed under the old weights. Reloads
      // only run at a batch-empty boundary, so no pins are outstanding
      // and the whole index can drop.
      prefix_cache_->Clear();
      affinity_ref_.clear();
    }
  }
  pending->done.set_value(std::move(status));
}

void BatchScheduler::Shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  if (!drain) abort_.store(true);
  queue_.Close();
  if (loop_.joinable()) {
    loop_.join();
    return;
  }
  // Never started: there is no loop to run the cleanup path, but queued
  // requests still owe their callers exactly one completion each.
  ServiceReload(/*aborting=*/true);
  RequestQueue::Entry entry;
  while (queue_.TryPop(&entry)) {
    Response r;
    r.id = entry.request.id;
    r.status = ResponseStatus::kShutdown;
    entry.done(std::move(r));
  }
}

void BatchScheduler::Finish(Track* track, ResponseStatus status,
                            std::vector<int> tokens) {
  static obs::Counter* completed = obs::GetCounter("serve/completed");
  static obs::Counter* expired = obs::GetCounter("serve/deadline_expired");
  static obs::Counter* tokens_out = obs::GetCounter("serve/tokens");
  static obs::Histogram* latency = obs::GetHistogram("serve/latency_ms");
  static obs::Histogram* tok_rate = obs::GetHistogram("serve/tokens_per_sec");
  if (prefix_cache_ != nullptr && track->cache_handle.block != nullptr) {
    // The row's decode state is gone by the time Finish runs, so the pin
    // can drop; the block stays resident (unpinned) for future hits
    // unless the LRU trim reclaims it.
    prefix_cache_->Release(track->cache_handle);
    track->cache_handle = PrefixCache::Handle{};
  }
  RequestTimeline& tl = track->timeline;
  tl.finish = Clock::now();
  Response r;
  r.id = track->id;
  r.status = status;
  r.tokens = std::move(tokens);
  r.queue_ms = tl.queue_wait_ms();
  r.ttft_ms = tl.ttft_ms();
  r.decode_ms = tl.decode_ms();
  r.total_ms = tl.total_ms();
  r.tokens_per_sec = tl.tokens_per_sec(r.tokens.size());
  r.timeline = tl;
  if (status == ResponseStatus::kOk ||
      status == ResponseStatus::kDeadlineExpired) {
    (status == ResponseStatus::kOk ? completed : expired)->Add();
    tokens_out->Add(static_cast<int64_t>(r.tokens.size()));
    latency->Observe(r.total_ms);
    if (r.tokens_per_sec > 0) tok_rate->Observe(r.tokens_per_sec);
    EmitTimelineSpans(track->id, tl);
  }
  track->done(std::move(r));
}

void BatchScheduler::Admit(RequestQueue::Entry entry,
                           std::vector<Track>* tracks) {
  static obs::Counter* joined = obs::GetCounter("serve/joined");
  static obs::Counter* exclusive = obs::GetCounter("serve/exclusive");
  static obs::Counter* spec_requests = obs::GetCounter("spec/requests");
  static obs::Histogram* queue_wait =
      obs::GetHistogram("serve/queue_wait_ms");
  const Clock::time_point now = Clock::now();
  Request& req = entry.request;
  Track track;
  track.id = req.id;
  track.done = std::move(entry.done);
  track.on_token = std::move(req.on_token);
  track.timeline.enqueue = req.enqueue_time;
  track.timeline.admit = now;
  if (req.deadline <= now) {
    // Expired while queued: answer without paying for a prefill.
    Finish(&track, ResponseStatus::kDeadlineExpired, {});
    return;
  }
  track.timeline.admitted = true;
  queue_wait->Observe(track.timeline.queue_wait_ms());
  if (decoder_.active() > 0) joined->Add();
  track.alone = req.options.beam_size > 1 || req.options.draft_k > 0;
  if (track.alone) exclusive->Add();
  if (req.options.draft_k > 0) spec_requests->Add();
  if (prefix_cache_ != nullptr) {
    track.cache_handle =
        prefix_cache_->Acquire(req.tokens, req.options.weight_dtype);
    if (!track.cache_handle.hit) {
      // Miss: compute the block once and donate it immediately, so
      // same-prefix requests already queued behind this one admit warm.
      track.cache_handle = prefix_cache_->Insert(
          model_->EncodePrefix(req.tokens, req.options.weight_dtype));
    }
    decoder_.Admit(req.id, req.tokens, req.options, req.deadline,
                   track.cache_handle.block.get());
    affinity_ref_ = req.tokens;
  } else {
    decoder_.Admit(req.id, req.tokens, req.options, req.deadline);
  }
  tracks->push_back(std::move(track));
}

bool BatchScheduler::FillBatch(std::vector<Track>* tracks,
                               RequestQueue::Entry* parked,
                               bool* have_parked) {
  while (!*have_parked && decoder_.active() < options_.max_batch) {
    // A pending reload waits for a batch-empty boundary; admitting more
    // work would starve it, so pause admissions until it has run.
    if (reload_pending_.load(std::memory_order_acquire)) return false;
    // Beam and speculative requests decode alone (docs/SERVING.md).
    if (!tracks->empty() && tracks->front().alone) return false;
    RequestQueue::Entry entry;
    if (decoder_.active() == 0) {
      // Idle: block until work arrives, the queue closes for good, or the
      // control-plane check interval elapses.
      switch (queue_.WaitAndPopFor(&entry, kIdleWait)) {
        case RequestQueue::PopStatus::kClosed:
          return true;
        case RequestQueue::PopStatus::kTimeout:
          return false;
        case RequestQueue::PopStatus::kItem:
          break;
      }
    } else {
      // Mid-flight: join whatever is already queued at this step
      // boundary, but never stall the running batch to wait for more.
      // With the prefix cache on, prefer the queued request sharing the
      // longest prefix with the last admission — same-schema requests
      // co-batch and land on warm blocks.
      const bool affine = prefix_cache_ != nullptr && !affinity_ref_.empty();
      if (affine ? !queue_.TryPopPreferring(affinity_ref_, &entry)
                 : !queue_.TryPop(&entry)) {
        return false;
      }
    }
    const model::GenerationOptions& options = entry.request.options;
    if (decoder_.active() > 0 &&
        (options.beam_size > 1 || options.draft_k > 0 ||
         options.weight_dtype != decoder_.batch_dtype())) {
      // Cannot join the running batch: a beam or speculative request (it
      // decodes alone), or a different weight dtype. Park it — later
      // arrivals wait behind it so admission order stays FIFO — and let
      // the batch drain.
      *parked = std::move(entry);
      *have_parked = true;
    } else {
      Admit(std::move(entry), tracks);
    }
  }
  return false;
}

void BatchScheduler::StepBatch(std::vector<Track>* tracks) {
  static obs::Counter* steps = obs::GetCounter("serve/steps");
  static obs::Histogram* batch_size = obs::GetHistogram("serve/batch_size");
  static obs::Histogram* ttft = obs::GetHistogram("serve/ttft_ms");
  static obs::Histogram* step_ms = obs::GetHistogram("serve/step_ms");
  steps->Add();
  batch_size->Observe(static_cast<double>(decoder_.active()));
  const Clock::time_point step_start = Clock::now();
  // Collect per-step emissions only when someone in the batch subscribed;
  // an all-buffered batch skips the extra bookkeeping entirely.
  bool any_stream = false;
  for (const Track& track : *tracks) {
    if (track.on_token) {
      any_stream = true;
      break;
    }
  }
  std::vector<model::ContinuousDecoder::Emitted> emitted;
  std::vector<model::ContinuousDecoder::Finished> finished =
      decoder_.Step(any_stream ? &emitted : nullptr);
  const Clock::time_point now = Clock::now();
  step_ms->Observe(Ms(now - step_start));
  for (Track& track : *tracks) {
    ++track.timeline.decode_steps;
    if (!track.timeline.has_first_token) {
      track.timeline.has_first_token = true;
      track.timeline.first_token = now;
      ttft->Observe(track.timeline.ttft_ms());
    }
  }
  // Publish this step's committed tokens before any of the rows finish:
  // a subscriber always sees every stream token, then the final response.
  for (const model::ContinuousDecoder::Emitted& e : emitted) {
    for (Track& track : *tracks) {
      if (track.id != e.id) continue;
      if (track.on_token) track.on_token(e.token, track.streamed++);
      break;
    }
  }
  for (model::ContinuousDecoder::Finished& f : finished) {
    for (size_t i = 0; i < tracks->size(); ++i) {
      if ((*tracks)[i].id != f.id) continue;
      Finish(&(*tracks)[i],
             f.deadline_expired ? ResponseStatus::kDeadlineExpired
                                : ResponseStatus::kOk,
             std::move(f.tokens));
      tracks->erase(tracks->begin() + static_cast<long>(i));
      break;
    }
  }
}

void BatchScheduler::Loop() {
  VIST5_TRACE_SPAN("serve/loop");
  std::vector<Track> tracks;
  RequestQueue::Entry parked;
  bool have_parked = false;
  while (!abort_.load()) {
    if (reload_pending_.load(std::memory_order_acquire) &&
        decoder_.active() == 0 && !have_parked) {
      ServiceReload(/*aborting=*/false);
    }
    const bool closed = FillBatch(&tracks, &parked, &have_parked);
    if (abort_.load()) break;
    if (have_parked && decoder_.active() == 0) {
      // The old batch has drained, so a beam or speculative request can
      // decode alone and a dtype-mismatched request seeds a batch at its
      // own dtype.
      Admit(std::move(parked), &tracks);
      parked = RequestQueue::Entry{};
      have_parked = false;
      continue;
    }
    if (decoder_.active() == 0) {
      if (closed) break;  // drain complete
      continue;
    }
    StepBatch(&tracks);
  }
  // Abort path: whatever is still queued or mid-decode answers "shutdown"
  // so no caller is left hanging. (After a drain both loops are no-ops.)
  for (Track& track : tracks) {
    Finish(&track, ResponseStatus::kShutdown, {});
  }
  if (have_parked) {
    Track track;
    track.id = parked.request.id;
    track.done = std::move(parked.done);
    track.timeline.enqueue = parked.request.enqueue_time;
    track.timeline.admit = Clock::now();
    Finish(&track, ResponseStatus::kShutdown, {});
  }
  RequestQueue::Entry entry;
  while (queue_.TryPop(&entry)) {
    Track track;
    track.id = entry.request.id;
    track.done = std::move(entry.done);
    track.timeline.enqueue = entry.request.enqueue_time;
    track.timeline.admit = Clock::now();
    Finish(&track, ResponseStatus::kShutdown, {});
  }
  // A reload parked after the final FillBatch would otherwise strand its
  // caller; fail it explicitly. (A drain shutdown may legitimately still
  // hold one if Reload raced Close.)
  ServiceReload(/*aborting=*/true);
}

}  // namespace serve
}  // namespace vist5
