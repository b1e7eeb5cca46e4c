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
/// the greedy decoders and the continuous-batching serve path so every
/// path picks tokens identically.
int BestAllowedToken(const float* row, int vocab,
                     const std::function<bool(int)>& allowed);

/// One beam-search expansion. `logits` holds one row per alive hypothesis
/// ([nb, V]). EOS continuations move into `finished` with length-normalized
/// scores; a hypothesis whose every continuation is disallowed also
/// finishes (constrained decoding reached a dead end). Exposed so the
/// full-prefix test oracle expands beams exactly as BeamDecode does.
struct BeamExpansion {
  std::vector<BeamHypothesis> beams;  ///< pruned to at most k
  std::vector<int> parents;           ///< parent index per surviving beam
};

BeamExpansion ExpandBeams(
    const Tensor& logits, const std::vector<BeamHypothesis>& beams, int k,
    const GenerationOptions& options, int eos_id,
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

  /// Greedy decoding for beam_size == 1, otherwise length-normalized beam
  /// search. Honors `options.allowed` as a hard vocabulary constraint.
  std::vector<int> Generate(const std::vector<int>& src,
                            const GenerationOptions& options) const override;

  /// Decodes all sources as one continuously batched greedy decode over a
  /// shared KV cache (ContinuousDecoder). Token-for-token identical to
  /// calling Generate on each source — rows are batch-pure, see
  /// docs/SERVING.md. Beam and sampling options fall back to per-request
  /// Generate. Defined in batch_decoder.cc.
  std::vector<std::vector<int>> GenerateBatch(
      const std::vector<std::vector<int>>& srcs,
      const GenerationOptions& options) const;

  /// Runs the encoder-side prefill (encode + cross-attention K/V
  /// projection) for one source as a standalone immutable block that
  /// ContinuousDecoder::Admit can splice in place of recomputing it. The
  /// block is computed at `dtype` and is only valid for decode batches
  /// running that dtype. Defined in batch_decoder.cc.
  std::shared_ptr<const EncodedPrefix> EncodePrefix(
      const std::vector<int>& src, WeightDtype dtype) const;

  nn::Transformer& transformer() { return *transformer_; }
  const nn::Transformer& transformer() const { return *transformer_; }

  int pad_id() const { return pad_id_; }
  int eos_id() const { return eos_id_; }

 private:
  /// KV-cached incremental decoding. The full-prefix reference these are
  /// pinned to lives in the test tree (tests/full_prefix_oracle.h).
  std::vector<int> GreedyDecode(const std::vector<int>& src,
                                const GenerationOptions& options) const;
  std::vector<int> BeamDecode(const std::vector<int>& src,
                              const GenerationOptions& options) const;

  std::unique_ptr<nn::Transformer> transformer_;
  int pad_id_;
  int eos_id_;
};

}  // namespace model
}  // namespace vist5

#endif  // VIST5_MODEL_TRANSFORMER_MODEL_H_
