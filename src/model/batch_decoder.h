#ifndef VIST5_MODEL_BATCH_DECODER_H_
#define VIST5_MODEL_BATCH_DECODER_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "model/transformer_model.h"

namespace vist5 {
namespace model {

/// Continuous (in-flight) batching over a shared KV cache.
///
/// Requests are admitted one at a time — each is prefilled exactly like a
/// single Generate call (batch-of-one encode + cross K/V projection) and
/// merged into the running decode batch at a step boundary. Every Step()
/// advances all active rows by one token through one DecodeStep; rows
/// that emit EOS, hit max_len, exhaust their vocabulary constraint, or
/// blow their deadline are evicted and returned. Because every kernel on
/// the decode path is batch-row-pure, each request's token stream is
/// bit-identical to what a sequential Generate would produce, regardless
/// of which other requests share the batch (docs/SERVING.md).
///
/// Greedy-only: beam search reorders the whole batch and sampling consumes
/// per-request RNG state, so the serve scheduler runs those exclusively via
/// Generate instead. Not thread-safe; the scheduler owns one instance on
/// its decode thread.
class ContinuousDecoder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Finished {
    uint64_t id = 0;
    std::vector<int> tokens;
    /// True when the row was evicted by its deadline; `tokens` then holds
    /// the best-so-far prefix.
    bool deadline_expired = false;
  };

  /// One token committed by a row during a Step, in batch order. A row
  /// that finishes on the same step (max_len reached) still reports its
  /// final token here, so the emitted stream concatenates to exactly the
  /// Finished::tokens sequence.
  struct Emitted {
    uint64_t id = 0;
    int token = 0;
  };

  explicit ContinuousDecoder(const TransformerSeq2Seq* model)
      : model_(model) {}

  /// Admits one request into the batch. `options` must be greedy
  /// (beam_size <= 1, temperature <= 0), and its weight_dtype must match
  /// batch_dtype() when rows are already active — the dtype is a per-batch
  /// property because every row shares each step's weight reads; the serve
  /// scheduler parks mismatched requests until the batch drains.
  /// `deadline` of Clock::time_point::max() disables the per-request
  /// deadline.
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

  /// Advances every active row by one token. Returns the rows that
  /// finished (or expired) during this step, in batch order. When
  /// `emitted` is non-null, the tokens committed this step are appended
  /// to it (rows that stop on EOS or expire in the pre-step sweep commit
  /// nothing) — the serve scheduler uses this to publish stream tokens at
  /// step boundaries (docs/SERVING.md).
  std::vector<Finished> Step(std::vector<Emitted>* emitted = nullptr);

  /// Number of requests currently decoding.
  int active() const { return static_cast<int>(rows_.size()); }

  /// Weight dtype of the running batch. Meaningful only while
  /// active() > 0 (set from the first admitted row, retained until the
  /// batch drains).
  WeightDtype batch_dtype() const { return batch_dtype_; }

 private:
  struct Row {
    uint64_t id = 0;
    GenerationOptions options;
    Clock::time_point deadline = Clock::time_point::max();
    std::vector<int> out;
    int prev = 0;  ///< last token fed (starts at the pad/start symbol)
  };

  /// Keeps only `survivors` (indices into the current batch order) in both
  /// the decode state and the row table.
  void Evict(const std::vector<int>& survivors);

  const TransformerSeq2Seq* model_;
  nn::DecodeState state_;
  std::vector<Row> rows_;
  WeightDtype batch_dtype_ = WeightDtype::kFloat32;
};

}  // namespace model
}  // namespace vist5

#endif  // VIST5_MODEL_BATCH_DECODER_H_
