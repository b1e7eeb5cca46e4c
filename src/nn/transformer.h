#ifndef VIST5_NN_TRANSFORMER_H_
#define VIST5_NN_TRANSFORMER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace vist5 {
namespace nn {

/// Hyperparameters for the generic encoder-decoder transformer. Two presets
/// matter in this repo: the T5 family (pre-RMSNorm, relative position bias,
/// no linear biases, tied embeddings) and the vanilla/BART family
/// (post-LayerNorm, absolute positions, biased projections).
struct TransformerConfig {
  int vocab_size = 0;
  int d_model = 64;
  int num_heads = 4;
  int d_ff = 256;
  int num_encoder_layers = 2;
  int num_decoder_layers = 2;
  float dropout = 0.1f;

  enum class NormStyle { kPreRms, kPostLayerNorm };
  NormStyle norm_style = NormStyle::kPreRms;

  enum class PositionStyle { kRelativeBias, kSinusoidal, kLearned };
  PositionStyle position_style = PositionStyle::kRelativeBias;

  FeedForward::Activation activation = FeedForward::Activation::kRelu;
  bool tie_embeddings = true;
  bool linear_bias = false;
  bool scale_scores = true;
  int relative_buckets = 16;
  int relative_max_distance = 64;
  int max_positions = 512;

  /// T5-small-like preset standing in for the 220M checkpoints.
  static TransformerConfig T5Small(int vocab_size);
  /// T5-base-like preset standing in for the 770M checkpoints.
  static TransformerConfig T5Base(int vocab_size);
  /// Vanilla post-norm transformer (the "Transformer" baseline).
  static TransformerConfig Vanilla(int vocab_size);
  /// BART-like configuration (post-norm, learned positions, GELU).
  static TransformerConfig BartLike(int vocab_size);
  /// Larger generic-text LLM proxy used for the Llama2/Mistral baselines.
  static TransformerConfig LlmProxy(int vocab_size);
};

/// Per-layer attention caches for KV-cached incremental decoding (see
/// docs/INFERENCE.md). Each row's self-attention keys/values are written at
/// that row's own positions, one span at a time; cross-attention
/// keys/values are projected from the encoder memory exactly once at
/// BeginDecode. Inference-only: all tensors are built under NoGradGuard
/// and carry no autograd history.
struct DecodeState {
  struct LayerCache {
    Tensor self_k;   ///< [B, H, T, Dh], T >= step; written by DecodeStep
    Tensor self_v;   ///< [B, H, T, Dh]
    Tensor cross_k;  ///< [B, H, T_enc, Dh], fixed after BeginDecode
    Tensor cross_v;  ///< [B, H, T_enc, Dh]
  };

  std::vector<LayerCache> layers;  ///< one per decoder layer
  std::vector<int> memory_lengths;
  int batch = 0;
  int step = 0;  ///< max decoder tokens consumed by any row

  /// Per-row decode progress: `steps[b]` tokens consumed by batch row b
  /// (= absolute position of its next token). Rows need not agree: in the
  /// continuous batch, requests admitted mid-flight start at 0 while older
  /// rows are many steps in. Self-attention entries at or past a row's
  /// position are never read.
  std::vector<int> steps;

  /// Reorders/expands the batch dimension after beam pruning or batch
  /// eviction: entry i of the new state is old entry `parents[i]`.
  /// `parents` may repeat (a hypothesis forked) or drop indices (a
  /// hypothesis died / a request finished). The self-attention time
  /// capacity is kept as-is, so preallocated slabs stay preallocated.
  void Reorder(const std::vector<int>& parents);

  /// Joins `other`'s rows onto this state's batch (continuous batching:
  /// freshly prefilled requests merge into the running decode batch at a
  /// step boundary). Time dimensions are zero-padded to the pairwise max;
  /// padded entries lie past their row's position and are never read. Both
  /// states must come from the same Transformer.
  void MergeFrom(DecodeState&& other);

  /// Rolls the decode position back to `len` tokens (0 <= len <= step):
  /// every row's position moves back to at most `len`, so the next
  /// DecodeStep writes at position `len` exactly as if the rejected tokens
  /// were never fed. Nothing is copied or freed: the next write overwrites
  /// the tail, and decode steps never read past a row's position.
  /// Cross-attention K/V are untouched — they depend only on the encoder
  /// memory, and spliced prefix-cache states alias shared immutable blocks
  /// that must never be mutated (docs/SPECULATIVE.md).
  void TruncateTo(int len);
};

/// One encoder block (self-attention + feed-forward with residuals).
class EncoderLayer : public Module {
 public:
  EncoderLayer(const TransformerConfig& config, Rng* rng);

  Tensor Forward(const Tensor& x, int batch, int seq,
                 const std::vector<int>& lengths, const Tensor* position_bias,
                 float dropout_p, Rng* rng) const;

  void EnableLora(int rank, float alpha, Rng* rng) {
    self_attn_.EnableLora(rank, alpha, rng);
    ff_.EnableLora(rank, alpha, rng);
  }

 private:
  TransformerConfig::NormStyle norm_style_;
  MultiHeadAttention self_attn_;
  FeedForward ff_;
  std::unique_ptr<RmsNormLayer> rms1_, rms2_;
  std::unique_ptr<LayerNormLayer> ln1_, ln2_;
};

/// One decoder block (causal self-attention + cross-attention + FF).
class DecoderLayer : public Module {
 public:
  DecoderLayer(const TransformerConfig& config, Rng* rng);

  Tensor Forward(const Tensor& x, const Tensor& memory, int batch, int tq,
                 int tk, const std::vector<int>& self_lengths,
                 const std::vector<int>& memory_lengths,
                 const Tensor* self_bias, float dropout_p, Rng* rng) const;

  /// Projects `memory` into the layer's cross-attention cache.
  void BeginDecode(const Tensor& memory, int batch, int enc_seq,
                   DecodeState::LayerCache* cache) const;

  /// Incremental counterpart of Forward: row b consumes `span`
  /// already-embedded tokens (`x` is [B*span, d], row-major) at absolute
  /// positions steps[b] .. steps[b] + span - 1, writes their self-attention
  /// K/V there in `cache`, and returns the block output [B*span, d].
  /// `self_bias` is the per-row [B, H, span, T] bias from
  /// RelativePositionBias::ForwardBatched (relative-bias configs only).
  Tensor ForwardStep(const Tensor& x, const std::vector<int>& steps, int span,
                     const std::vector<int>& memory_lengths,
                     const Tensor* self_bias,
                     DecodeState::LayerCache* cache) const;

  void EnableLora(int rank, float alpha, Rng* rng) {
    self_attn_.EnableLora(rank, alpha, rng);
    cross_attn_.EnableLora(rank, alpha, rng);
    ff_.EnableLora(rank, alpha, rng);
  }

 private:
  TransformerConfig::NormStyle norm_style_;
  MultiHeadAttention self_attn_;
  MultiHeadAttention cross_attn_;
  FeedForward ff_;
  std::unique_ptr<RmsNormLayer> rms1_, rms2_, rms3_;
  std::unique_ptr<LayerNormLayer> ln1_, ln2_, ln3_;
};

/// Full encoder-decoder transformer with token embeddings and an LM head.
/// This is the network shared by DataVisT5, CodeT5+, T5, BART, the vanilla
/// Transformer baseline, and the LLM proxies — they differ only in
/// TransformerConfig and in how they are pre-trained.
class Transformer : public Module {
 public:
  Transformer(const TransformerConfig& config, Rng* rng);

  const TransformerConfig& config() const { return config_; }

  /// Encodes `ids` ([B*T] row-major, padded) into hidden states [B*T, d].
  /// `lengths[b]` gives the unpadded length of batch row b.
  Tensor Encode(const std::vector<int>& ids, int batch, int seq,
                const std::vector<int>& lengths, bool train, Rng* rng) const;

  /// Runs the decoder over `ids` given encoder `memory`; returns hidden
  /// states [B*T_dec, d].
  Tensor Decode(const std::vector<int>& ids, int batch, int dec_seq,
                const Tensor& memory, int enc_seq,
                const std::vector<int>& memory_lengths,
                const std::vector<int>& dec_lengths, bool train,
                Rng* rng) const;

  /// Starts KV-cached incremental decoding against encoder `memory`
  /// ([B*T_enc, d]): allocates per-layer caches and projects the
  /// cross-attention keys/values once. Must run under NoGradGuard.
  DecodeState BeginDecode(const Tensor& memory, int batch, int enc_seq,
                          const std::vector<int>& memory_lengths) const;

  /// The one decode step. Row b consumes `span` tokens (`next_ids` is
  /// [B*span] row-major) starting at its own position `state->steps[b]`,
  /// writes their keys/values into the cache, and returns the new hidden
  /// rows [B*span, d]; each row's position advances by `span`. Position
  /// machinery (relative bias / learned / sinusoidal) is applied at each
  /// row's positions, so a DecodeStep loop is bit-exact against Decode over
  /// the same prefix, a span call is bit-exact against `span` one-token
  /// calls (the speculative verify contract, docs/SPECULATIVE.md), and a
  /// row's result never depends on the other rows' positions (the
  /// continuous-batching contract, docs/SERVING.md).
  Tensor DecodeStep(const std::vector<int>& next_ids, DecodeState* state,
                    int span = 1) const;

  /// Same as DecodeStep(next_ids, state). Kept only because the serving
  /// benchmark (perfbench/layers.cc) times the step under this name.
  Tensor DecodeStepRagged(const std::vector<int>& next_ids,
                          DecodeState* state) const {
    return DecodeStep(next_ids, state);
  }

  /// Projects decoder hidden states to vocabulary logits [rows, V].
  Tensor Logits(const Tensor& decoder_hidden) const;

  /// LoRA fine-tuning mode (Sec. V-B baselines Llama2/Mistral + LoRA):
  /// freezes every existing parameter, then attaches trainable low-rank
  /// adapters to all attention query/value projections.
  void EnableLora(int rank, float alpha, Rng* rng);

  /// Teacher-forced sequence-to-sequence cross-entropy loss. Target rows
  /// equal to `pad_id` are ignored. decoder_input must be the right-shifted
  /// targets.
  Tensor Loss(const std::vector<int>& enc_ids, int batch, int enc_seq,
              const std::vector<int>& enc_lengths,
              const std::vector<int>& dec_input_ids,
              const std::vector<int>& dec_target_ids, int dec_seq,
              const std::vector<int>& dec_lengths, bool train, Rng* rng) const;

 private:
  /// Token plus position embedding of `ids` ([B*seq] row-major). Token t
  /// of row b sits at position t + (*offsets)[b]; null offsets (training,
  /// Encode, Decode) start every row at 0.
  Tensor Embed(const std::vector<int>& ids, int batch, int seq, bool train,
               Rng* rng, const std::vector<int>* offsets = nullptr) const;

  TransformerConfig config_;
  EmbeddingLayer embedding_;
  /// Inference-only cache of the transposed tied-embedding table, so the
  /// logits projection can run as a plain [rows, d] x [d, V] MatMul — whose
  /// row-panel kernels batch well — instead of a row-at-a-time dot against
  /// [V, d]. Keyed on the table's data_version; rebuilt after any in-place
  /// weight update. Guarded by tied_lm_mutex_ for concurrent inference.
  mutable std::mutex tied_lm_mutex_;
  mutable Tensor tied_lm_table_t_;
  mutable uint64_t tied_lm_version_ = 0;
  /// Int8 view of tied_lm_table_t_ for WeightDtype::kInt8 decodes, keyed
  /// on the same data_version (same mutex).
  mutable std::shared_ptr<const ops::QuantizedMatrix> tied_lm_q_;
  mutable uint64_t tied_lm_q_version_ = 0;
  std::unique_ptr<Linear> lm_head_;  // only when !tie_embeddings
  std::unique_ptr<RelativePositionBias> encoder_bias_;
  std::unique_ptr<RelativePositionBias> decoder_bias_;
  Tensor learned_positions_;      // [max_positions, d] when kLearned
  std::vector<float> sinusoidal_;  // precomputed when kSinusoidal
  std::vector<std::unique_ptr<EncoderLayer>> encoder_layers_;
  std::vector<std::unique_ptr<DecoderLayer>> decoder_layers_;
  std::unique_ptr<RmsNormLayer> encoder_final_norm_;
  std::unique_ptr<RmsNormLayer> decoder_final_norm_;
};

}  // namespace nn
}  // namespace vist5

#endif  // VIST5_NN_TRANSFORMER_H_
