#ifndef VIST5_MODEL_BATCH_DECODER_H_
#define VIST5_MODEL_BATCH_DECODER_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "model/transformer_model.h"

namespace vist5 {
namespace model {

/// Draft-verify counters of one speculative request (docs/SPECULATIVE.md).
/// `steps` counts verify rounds (one multi-token base forward each);
/// `proposed` counts draft tokens fed into a verify, `accepted` the subset
/// that matched the base argmax, `rejected` the rest. `committed`
/// additionally includes the base's corrective/bonus token per round, so
/// effective tokens/step = committed / steps >= 1.
struct SpecStats {
  int64_t proposed = 0;
  int64_t accepted = 0;
  int64_t rejected = 0;
  int64_t committed = 0;
  int64_t steps = 0;

  double acceptance_rate() const {
    return proposed > 0 ? static_cast<double>(accepted) /
                              static_cast<double>(proposed)
                        : 0.0;
  }
  double tokens_per_step() const {
    return steps > 0
               ? static_cast<double>(committed) / static_cast<double>(steps)
               : 0.0;
  }
};

/// The decoder every request runs through: continuous (in-flight)
/// batching over per-row KV caches.
///
/// Requests are admitted one at a time — each is prefilled by
/// TransformerSeq2Seq::EncodePrefix (or spliced from a cached block) and
/// merged into the running decode batch at a step boundary. Every Step()
/// advances all active rows through one DecodeStep; requests that emit
/// EOS, hit max_len, exhaust their vocabulary constraint, or blow their
/// deadline are evicted and returned. Because every kernel on the decode
/// path is batch-row-pure, each request's tokens are bit-identical to
/// decoding it alone, whichever other requests share the batch
/// (docs/SERVING.md).
///
/// Each request picks its tokens by its own options: greedy
/// (BestAllowedToken), sampled from its own `options.rng` when
/// temperature > 0, beam search when beam_size > 1, or draft-verify when
/// draft_k > 0 and the decoder has a draft model. A beam request owns a
/// contiguous range of rows — one at admission, up to beam_size after —
/// and ExpandBeams runs on that range's logits after every step; one
/// DecodeState::Reorder per step then applies every range's parents and
/// drops every finished row. A speculative request decodes alone: each
/// Step the draft catches up on its own DecodeState and proposes up to k
/// tokens, one span-(j + 1) DecodeStep scores them on the batch state,
/// the matching proposals plus the base's own next token are committed,
/// and TruncateTo rolls both states back to the committed length. Every
/// committed token is the base's greedy pick, so the tokens equal plain
/// greedy (docs/SPECULATIVE.md).
///
/// TransformerSeq2Seq::Generate and GenerateBatch are the one- and
/// N-request uses of this class, spec::DraftVerifyEngine::Generate the
/// one-request use with a draft. Not thread-safe; the serve scheduler owns
/// one instance on its decode thread.
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
    /// Speculative requests only: the request's draft-verify counters.
    SpecStats spec;
  };

  /// One token committed by a request during a Step, in batch order.
  /// Greedy and sampled requests commit one token per step, and a
  /// speculative request its round's accepted run plus the base's next
  /// token; no rolled-back proposal is ever emitted. A beam request has no
  /// committed prefix until its search ends, so it commits its whole
  /// result in the step that finishes it. Either way the emitted stream
  /// concatenates to exactly the Finished::tokens sequence, and every
  /// token is emitted no later than the step that finishes it.
  struct Emitted {
    uint64_t id = 0;
    int token = 0;
  };

  /// Neither model is owned. `draft`, when non-null, proposes tokens for
  /// requests with draft_k > 0; it must share `model`'s pad and eos ids and
  /// vocabulary size (checked here). Without a draft such requests decode
  /// as plain greedy, with the same tokens.
  explicit ContinuousDecoder(const TransformerSeq2Seq* model,
                             const TransformerSeq2Seq* draft = nullptr);

  /// The deadline `options.deadline_ms` sets for a request counted from
  /// `start`: Clock::time_point::max() when it is 0 (no deadline).
  static Clock::time_point Deadline(const GenerationOptions& options,
                                    Clock::time_point start);

  /// Admits one request into the batch. Its weight_dtype must match
  /// batch_dtype() when requests are already active — the dtype is a
  /// per-batch property because every row shares each step's weight
  /// reads; the serve scheduler leaves a mismatched request at the head of
  /// its queue until the batch drains. A speculative request (draft_k > 0
  /// with a draft model) must be greedy and decodes alone: it is admitted
  /// only into an empty decoder, and nothing joins it. A request with
  /// temperature > 0 must set `options.rng`. `deadline` of
  /// Clock::time_point::max() disables the per-request deadline.
  ///
  /// When `prefill` is non-null it must hold exactly `src` at the batch's
  /// weight dtype; the encoder forward and cross K/V projection are then
  /// skipped and the cached block's tensors are spliced (aliased, not
  /// copied) into the batch state. Blocks are immutable, and no decode step
  /// writes or copies a row's cross caches, so the row aliases the block
  /// until it leaves and a spliced admit is bit-identical to a recomputed
  /// one (docs/SERVING.md). Every row except a beam row gets a self-K/V
  /// slab of max_len positions of its own; admitting copies no other
  /// row's K/V.
  void Admit(uint64_t id, const std::vector<int>& src,
             const GenerationOptions& options,
             Clock::time_point deadline = Clock::time_point::max(),
             const EncodedPrefix* prefill = nullptr);

  /// Advances every active row by one token, or a speculative request by
  /// one draft-verify round. Returns the requests that finished (or
  /// expired) during this step, in batch order. When `emitted` is
  /// non-null, the tokens committed this step are appended to it — the
  /// serve scheduler uses this to publish stream tokens at step boundaries
  /// (docs/SERVING.md).
  std::vector<Finished> Step(std::vector<Emitted>* emitted = nullptr);

  /// Number of requests currently decoding.
  int active() const { return static_cast<int>(requests_.size()); }

  /// Weight dtype of the running batch. Meaningful only while
  /// active() > 0 (set from the first admitted request, retained until the
  /// batch drains).
  WeightDtype batch_dtype() const { return batch_dtype_; }

 private:
  /// One admitted request. It owns `beams.size()` consecutive batch rows,
  /// one per alive hypothesis: always one for greedy, sampled and
  /// speculative requests, whose single hypothesis is the output so far.
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
    /// Speculative requests only: the current proposal length (adaptive,
    /// at most options.draft_k; 0 for every other request), the draft's
    /// own decode state and the round counters.
    int k = 0;
    nn::DecodeState draft;
    SpecStats spec;
  };

  /// Ends `request` and appends its result to `done`; a beam request's
  /// tokens are emitted here. Retain then drops the request.
  static void Finish(Request* request, bool deadline_expired,
                     std::vector<Finished>* done,
                     std::vector<Emitted>* emitted);

  /// Runs `request`'s draft: catches it up on the committed tokens, then
  /// proposes up to k tokens, never past max_len (j proposals commit
  /// at most j + 1 tokens). A draft EOS or dead end ends the run early.
  std::vector<int> Propose(Request* request) const;

  /// Books one draft-verify round of `request`, which fed `j` proposals
  /// after a committed prefix of `p_len` tokens and accepted `accepted` of
  /// them. Unless the request finished, rolls the base and draft states
  /// back to the committed prefix and adapts the request's k.
  void EndRound(Request* request, int p_len, int j, int accepted,
                bool finished);

  /// Keeps the rows `parents` lists in the decode state (old row indices,
  /// in their new batch order) and drops every finished request.
  void Retain(const std::vector<int>& parents);

  const TransformerSeq2Seq* model_;
  const TransformerSeq2Seq* draft_;
  nn::DecodeState state_;
  std::vector<Request> requests_;  ///< in batch-row order
  WeightDtype batch_dtype_ = WeightDtype::kFloat32;
};

}  // namespace model
}  // namespace vist5

#endif  // VIST5_MODEL_BATCH_DECODER_H_
