#ifndef VIST5_MODEL_TRANSFORMER_MODEL_H_
#define VIST5_MODEL_TRANSFORMER_MODEL_H_

#include <memory>

#include "model/seq2seq_model.h"
#include "nn/transformer.h"

namespace vist5 {
namespace model {

/// One alive beam-search hypothesis. `tokens` is the decoder input so far
/// (starts with the pad/start symbol); `log_prob` is the raw (unnormalized)
/// cumulative token log-probability.
struct BeamHypothesis {
  std::vector<int> tokens;
  double log_prob = 0;
};

/// Argmax over one logits row subject to the optional vocabulary
/// constraint. Returns -1 when the constraint rejects every token
/// ("nothing allowed"), which callers treat as end-of-sequence. Shared by
/// the decoder (base and draft alike) and the test oracle, so every path
/// picks tokens identically.
int BestAllowedToken(const float* row, int vocab,
                     const std::function<bool(int)>& allowed);

/// Temperature + top-k sampling over one logits row, drawing from
/// `options.rng` (required). Returns -1 when no token is allowed, which
/// callers treat as end-of-sequence.
int SampleToken(const float* row, int vocab, const GenerationOptions& options);

/// One beam-search expansion. `logits` holds one row of `vocab` scores per
/// alive hypothesis ([nb, V], row-major). EOS continuations move into
/// `finished` with length-normalized scores; a hypothesis whose every
/// continuation is disallowed also finishes (constrained decoding reached a
/// dead end). Exposed so the full-prefix test oracle expands beams exactly
/// as ContinuousDecoder does.
struct BeamExpansion {
  std::vector<BeamHypothesis> beams;  ///< pruned to at most k
  std::vector<int> parents;           ///< parent index per surviving beam
};

BeamExpansion ExpandBeams(
    const float* logits, int vocab, const std::vector<BeamHypothesis>& beams,
    int k, const GenerationOptions& options, int eos_id,
    std::vector<std::pair<std::vector<int>, double>>* finished);

/// Final beam selection. `finished` holds (output tokens, length-normalized
/// score) pairs for hypotheses that emitted EOS; `alive` holds hypotheses
/// still running when the step budget ended. Alive hypotheses are
/// length-normalized (log_prob / emitted tokens) so they compete with
/// finished ones on equal footing, then the best normalized score wins.
/// Exposed for regression tests.
std::vector<int> SelectBeamResult(
    std::vector<std::pair<std::vector<int>, double>> finished,
    const std::vector<BeamHypothesis>& alive);

/// Immutable, shareable product of the encoder-side prefill for one source
/// sequence: the encoder hidden states plus the per-layer cross-attention
/// K/V projection a decode needs before its first step. Produced under
/// NoGradGuard by TransformerSeq2Seq::EncodePrefix; nothing on the decode
/// path ever writes through these tensors (Reorder/MergeFrom replace cache
/// handles with copies, and only self_k/self_v see in-place scatter), so
/// one block can back any number of concurrent decodes bit-exactly. The
/// serve layer refcounts and LRU-evicts them (serve::PrefixCache,
/// docs/SERVING.md).
struct EncodedPrefix {
  std::vector<int> tokens;  ///< the full encoder input this block encodes
  /// Weight representation the block was computed under. int8 and float32
  /// encoder outputs differ numerically, so a block only substitutes for
  /// prefill in a batch running the same dtype.
  WeightDtype dtype = WeightDtype::kFloat32;
  Tensor memory;         ///< [src_len, d_model] encoder output (batch 1)
  nn::DecodeState state;  ///< batch-1 cross K/V; self caches left empty
  /// Heap bytes the block keeps resident (key + encoder output + cross
  /// K/V), the unit of PrefixCache byte budgeting.
  size_t ByteSize() const;
};

/// Seq2SeqModel adapter around nn::Transformer. This single class backs the
/// T5 family (DataVisT5, CodeT5+, T5), BART, the vanilla Transformer
/// baseline, the ncNet proxy (via constrained decoding), and the LLM
/// proxies (via EnableLora) — they differ only in configuration and
/// training recipe.
class TransformerSeq2Seq : public Seq2SeqModel {
 public:
  TransformerSeq2Seq(const nn::TransformerConfig& config, int pad_id,
                     int eos_id, uint64_t seed);

  std::vector<Tensor> TrainableParameters() const override {
    return transformer_->Parameters();
  }

  nn::Module* CheckpointModule() override { return transformer_.get(); }

  Tensor BatchLoss(const Batch& batch, bool train, Rng* rng) const override;

  /// Decodes one source as the only request of a ContinuousDecoder without
  /// a draft: greedy for beam_size <= 1 (draft_k is ignored; sampled when
  /// temperature > 0, which requires options.rng), otherwise
  /// length-normalized beam search. Honors `options.allowed` as a hard
  /// vocabulary constraint. Defined in batch_decoder.cc.
  std::vector<int> Generate(const std::vector<int>& src,
                            const GenerationOptions& options) const override;

  /// Decodes all sources as the requests of one ContinuousDecoder, over a
  /// shared KV cache. Greedy and beam results are token-for-token identical
  /// to calling Generate on each source — rows are batch-pure, see
  /// docs/SERVING.md. Sampled rows draw from the shared `options.rng` in
  /// row order at every step, so they match a sequential Generate loop
  /// only for a single source. Defined in batch_decoder.cc.
  std::vector<std::vector<int>> GenerateBatch(
      const std::vector<std::vector<int>>& srcs,
      const GenerationOptions& options) const;

  /// Runs the encoder-side prefill (encode + cross-attention K/V
  /// projection) for one source as a standalone immutable block. This is
  /// the only inference prefill: ContinuousDecoder::Admit calls it when no
  /// cached block is supplied, and for a speculative request's draft. The
  /// block is computed at `dtype` and is only valid for decode batches
  /// running that dtype. Defined in batch_decoder.cc.
  std::shared_ptr<const EncodedPrefix> EncodePrefix(
      const std::vector<int>& src, WeightDtype dtype) const;

  nn::Transformer& transformer() { return *transformer_; }
  const nn::Transformer& transformer() const { return *transformer_; }

  int pad_id() const { return pad_id_; }
  int eos_id() const { return eos_id_; }

 private:
  std::unique_ptr<nn::Transformer> transformer_;
  int pad_id_;
  int eos_id_;
};

}  // namespace model
}  // namespace vist5

#endif  // VIST5_MODEL_TRANSFORMER_MODEL_H_
