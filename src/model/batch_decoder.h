#ifndef VIST5_MODEL_BATCH_DECODER_H_
#define VIST5_MODEL_BATCH_DECODER_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "model/transformer_model.h"

namespace vist5 {
namespace model {

/// The decoder every non-speculative request runs through: continuous
/// (in-flight) batching over a shared KV cache.
///
/// Requests are admitted one at a time — each is prefilled by
/// TransformerSeq2Seq::EncodePrefix (or spliced from a cached block) and
/// merged into the running decode batch at a step boundary. Every Step()
/// advances all active rows by one token through one DecodeStep; requests
/// that emit EOS, hit max_len, exhaust their vocabulary constraint, or
/// blow their deadline are evicted and returned. Because every kernel on
/// the decode path is batch-row-pure, each request's tokens are
/// bit-identical to decoding it alone, whichever other requests share the
/// batch (docs/SERVING.md).
///
/// Each request picks its tokens by its own options: greedy
/// (BestAllowedToken), sampled from its own `options.rng` when
/// temperature > 0, or beam search when beam_size > 1. A beam request owns
/// a contiguous range of rows — one at admission, up to beam_size after —
/// and ExpandBeams runs on that range's logits after every step; one
/// DecodeState::Reorder per step then applies every range's parents and
/// drops every finished row. TransformerSeq2Seq::Generate and
/// GenerateBatch are the one- and N-request uses of this class. Not
/// thread-safe; the serve scheduler owns one instance on its decode
/// thread.
class ContinuousDecoder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Finished {
    uint64_t id = 0;
    std::vector<int> tokens;
    /// True when the request was evicted by its deadline; `tokens` then
    /// holds the best-so-far result (for beam search, SelectBeamResult
    /// over what exists at that point).
    bool deadline_expired = false;
  };

  /// One token committed by a request during a Step, in batch order.
  /// Greedy and sampled requests commit one token per step; a beam request
  /// has no committed prefix until its search ends, so it commits its
  /// whole result in the step that finishes it. Either way the emitted
  /// stream concatenates to exactly the Finished::tokens sequence, and
  /// every token is emitted no later than the step that finishes it.
  struct Emitted {
    uint64_t id = 0;
    int token = 0;
  };

  explicit ContinuousDecoder(const TransformerSeq2Seq* model)
      : model_(model) {}

  /// Admits one request into the batch. Its weight_dtype must match
  /// batch_dtype() when requests are already active — the dtype is a
  /// per-batch property because every row shares each step's weight
  /// reads; the serve scheduler parks mismatched requests until the batch
  /// drains. `deadline` of Clock::time_point::max() disables the
  /// per-request deadline.
  ///
  /// When `prefill` is non-null it must hold exactly `src` at the batch's
  /// weight dtype; the encoder forward and cross K/V projection are then
  /// skipped and the cached block's tensors are spliced (aliased, not
  /// copied) into the batch state. Because blocks are immutable and every
  /// decode-path mutation of cross caches replaces the handle rather than
  /// writing through it, a spliced admit is bit-identical to a recomputed
  /// one (docs/SERVING.md).
  void Admit(uint64_t id, const std::vector<int>& src,
             const GenerationOptions& options,
             Clock::time_point deadline = Clock::time_point::max(),
             const EncodedPrefix* prefill = nullptr);

  /// Advances every active row by one token. Returns the requests that
  /// finished (or expired) during this step, in batch order. When
  /// `emitted` is non-null, the tokens committed this step are appended
  /// to it — the serve scheduler uses this to publish stream tokens at
  /// step boundaries (docs/SERVING.md).
  std::vector<Finished> Step(std::vector<Emitted>* emitted = nullptr);

  /// Number of requests currently decoding.
  int active() const { return static_cast<int>(requests_.size()); }

  /// Weight dtype of the running batch. Meaningful only while
  /// active() > 0 (set from the first admitted request, retained until the
  /// batch drains).
  WeightDtype batch_dtype() const { return batch_dtype_; }

 private:
  /// One admitted request. It owns `beams.size()` consecutive batch rows,
  /// one per alive hypothesis: always one for greedy and sampled requests,
  /// whose single hypothesis is the output so far.
  struct Request {
    uint64_t id = 0;
    GenerationOptions options;
    Clock::time_point deadline = Clock::time_point::max();
    int steps = 0;  ///< decode steps taken
    /// Alive hypotheses; each starts with the pad/start symbol.
    std::vector<BeamHypothesis> beams;
    /// Beam search only: hypotheses that ended (ExpandBeams).
    std::vector<std::pair<std::vector<int>, double>> finished;
    bool done = false;  ///< set by Finish; Retain drops it
  };

  /// Ends `request` and appends its result to `done`; a beam request's
  /// tokens are emitted here. Retain then drops the request.
  static void Finish(Request* request, bool deadline_expired,
                     std::vector<Finished>* done,
                     std::vector<Emitted>* emitted);

  /// Keeps the rows `parents` lists in the decode state (old row indices,
  /// in their new batch order) and drops every finished request.
  void Retain(const std::vector<int>& parents);

  const TransformerSeq2Seq* model_;
  nn::DecodeState state_;
  std::vector<Request> requests_;  ///< in batch-row order
  WeightDtype batch_dtype_ = WeightDtype::kFloat32;
};

}  // namespace model
}  // namespace vist5

#endif  // VIST5_MODEL_BATCH_DECODER_H_
