#ifndef VIST5_SPEC_ENGINE_H_
#define VIST5_SPEC_ENGINE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "model/batch_decoder.h"

namespace vist5 {
namespace spec {

/// Per-decode speculative statistics (docs/SPECULATIVE.md).
using SpecStats = model::SpecStats;

/// Draft-verify speculative greedy decoding of one source: the one-request
/// use of a model::ContinuousDecoder built with a draft, as
/// TransformerSeq2Seq::Generate is the one-request use without one. Each
/// decoder step runs one round: a small draft model proposes up to k tokens
/// from its own KV-cached DecodeState, the base model scores all k+1
/// positions in one span DecodeStep, and the longest proposal prefix
/// matching the base argmax — plus the base's one corrective token — is
/// committed; DecodeState::TruncateTo rolls the rest back. Every committed
/// token is the base model's BestAllowedToken for its prefix, so the output
/// is bit-identical to plain base-only greedy decoding regardless of draft
/// quality (the parity contract pinned by decode_parity_test and
/// determinism_test; see docs/SPECULATIVE.md for the proof sketch).
///
/// The engine holds no per-request state — Generate is const and
/// thread-safe for concurrent requests, like the models it wraps.
class DraftVerifyEngine {
 public:
  /// Neither model is owned; both must outlive the engine. They must share
  /// the tokenizer: pad/eos ids and vocabulary size are checked here.
  DraftVerifyEngine(const model::TransformerSeq2Seq* base,
                    const model::TransformerSeq2Seq* draft);

  /// Speculative greedy decode of one source. `options.draft_k` must be
  /// >= 1; beam_size must be 1 and temperature <= 0 (greedy-only — the
  /// scheduler rejects anything else at admission). `deadline_ms` counts
  /// from the call, prefill included, as in Generate. `base_prefix`, when
  /// non-null, is a prefix-cache block for `src` computed at
  /// options.weight_dtype: the base-side encoder prefill is spliced from
  /// it instead of recomputed (aliased cross K/V are never written).
  /// `stats`, when non-null, receives this decode's counters on top of the
  /// global obs spec/* metrics. `on_commit`, when set, is invoked once per
  /// committed token (id, 0-based output position) after each verify
  /// round's accept loop — stream subscribers therefore see accepted runs
  /// land as bursts, never a proposal that later rolls back, because
  /// committed tokens are final (docs/SPECULATIVE.md).
  std::vector<int> Generate(
      const std::vector<int>& src, const model::GenerationOptions& options,
      const model::EncodedPrefix* base_prefix = nullptr,
      SpecStats* stats = nullptr,
      const std::function<void(int token, size_t seq)>& on_commit =
          nullptr) const;

 private:
  const model::TransformerSeq2Seq* base_;
  const model::TransformerSeq2Seq* draft_;
};

}  // namespace spec
}  // namespace vist5

#endif  // VIST5_SPEC_ENGINE_H_
