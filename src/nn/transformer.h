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

/// The state of KV-cached incremental decoding (see docs/INFERENCE.md): a
/// list of rows, each with its own caches. Row b's self-attention keys and
/// values are written at that row's own positions, one span at a time; its
/// cross-attention keys and values are projected from the encoder memory
/// exactly once, at BeginDecode, and never copied or written after it.
/// Admitting, evicting and forking rows moves cache handles and copies no
/// K/V. Inference-only: all tensors are built under NoGradGuard and carry
/// no autograd history.
struct DecodeState {
  using LayerCache = nn::LayerCache;

  /// Each row's per-layer caches back to back: row b's decoder layer l at
  /// layers[b * L + l], L layers per row. Every tensor is [1, H, T_b, Dh],
  /// T_b being that row's own extent, so a batch-1 state holds L entries.
  std::vector<LayerCache> layers;
  std::vector<int> memory_lengths;
  int batch = 0;
  int step = 0;  ///< max decoder tokens consumed by any row

  /// Per-row decode progress: `steps[b]` tokens consumed by batch row b
  /// (= absolute position of its next token). Rows need not agree: in the
  /// continuous batch, requests admitted mid-flight start at 0 while older
  /// rows are many steps in. Self-attention entries at or past a row's
  /// position are never read.
  std::vector<int> steps;

  /// Reorders/expands the rows after beam pruning or batch eviction: row i
  /// of the new state is old row `parents[i]`. `parents` may repeat (a
  /// hypothesis forked) or drop indices (a hypothesis died / a request
  /// finished). Only handles move: forked rows share their parent's
  /// caches until a step writes one of them, which then copies that row
  /// alone (copy-on-write), and each row keeps its own capacity.
  void Reorder(const std::vector<int>& parents);

  /// Appends `other`'s rows to this state (continuous batching: freshly
  /// prefilled requests join the running decode batch at a step boundary).
  /// Only handles move, so every row keeps its own storage and extent, and
  /// a row spliced from a prefix-cache block keeps aliasing the block. Both
  /// states must come from the same Transformer.
  void MergeFrom(DecodeState&& other);

  /// DecodeStep's working memory: the step's row buffers and the relative
  /// bias bucket of each key distance. Grown on the first step and reused
  /// by the next, so a warmed step allocates only the Tensor it returns.
  /// It holds no decode state, and MergeFrom keeps this state's buffers.
  struct Scratch {
    std::vector<float> rows;     ///< the residual stream and layer rows
    std::vector<float> attn;     ///< StepRows::attn_work
    std::vector<int> buckets;    ///< StepRows::bias_buckets
  };
  Scratch scratch;

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

  /// Projects `memory` ([B*T_enc, d]) into cross-attention keys and
  /// values `*k` and `*v`, each [B, H, T_enc, Dh].
  void BeginDecode(const Tensor& memory, int batch, int enc_seq, Tensor* k,
                   Tensor* v) const;

  /// The decode step's pass through this block, decoder layer `layer`, on
  /// raw rows (Transformer::DecodeStep): the step's R = rows.rows()
  /// already-embedded rows `h` [R, d] (updated in place) run through the
  /// block, and their self-attention keys/values land in each row's cache
  /// rows.cache(b, layer) at that row's positions. `work` holds
  /// R·(2·d + 2·d_ff) floats. Forward's kernels, row functions and rounding
  /// points throughout, so each row equals Forward's row at that position.
  void ForwardStep(const StepRows& rows, int layer, float* h,
                   float* work) const;

  void EnableLora(int rank, float alpha, Rng* rng) {
    self_attn_.EnableLora(rank, alpha, rng);
    cross_attn_.EnableLora(rank, alpha, rng);
    ff_.EnableLora(rank, alpha, rng);
  }

 private:
  TransformerConfig::NormStyle norm_style_;
  int dim_;
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
  /// ([B*T_enc, d]): projects the cross-attention keys/values once, into
  /// B rows of per-layer caches with T_enc positions each. Must run under
  /// NoGradGuard.
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
  /// continuous-batching contract, docs/SERVING.md). The step runs on raw
  /// rows in `state->scratch`, calling the kernels and the Tensor ops' row
  /// functions directly on the calling thread. Each attention's rows are
  /// one pool region, two per decoder layer, and each weight product runs
  /// as StepSlices() column slices (docs/PARALLELISM.md). Once warmed it
  /// allocates only the returned Tensor (and whatever a cache's
  /// copy-on-write growth needs).
  Tensor DecodeStep(const std::vector<int>& next_ids, DecodeState* state,
                    int span = 1) const;

  /// Same as DecodeStep(next_ids, state). Kept only because the serving
  /// benchmark (perfbench/layers.cc) times the step under this name.
  Tensor DecodeStepRagged(const std::vector<int>& next_ids,
                          DecodeState* state) const {
    return DecodeStep(next_ids, state);
  }

  /// Column slices each of DecodeStep's weight products runs as
  /// (docs/PARALLELISM.md, "Column slices"): at float32, the fewest whose
  /// share of the step's weights (self q/k/v/o, cross q/o, FFN in/out of
  /// every decoder layer) fits in the per-core L2, capped at the pool
  /// width (rt::SlicesFor); 1 at int8. A function of the shapes, the
  /// active weight dtype, the pool width and the host's reported L2.
  int StepSlices() const;

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
  /// Token plus position embedding of `ids` ([B*seq] row-major); token t
  /// of every row sits at position t.
  Tensor Embed(const std::vector<int>& ids, int batch, int seq, bool train,
               Rng* rng) const;

  /// Embed's arithmetic for a decode step, into raw rows `h` [B*span, d]:
  /// token i of row b sits at position steps[b] + i.
  void EmbedStep(const std::vector<int>& ids, const std::vector<int>& steps,
                 int span, float* h) const;

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
