#ifndef VIST5_NN_ATTENTION_H_
#define VIST5_NN_ATTENTION_H_

#include <vector>

#include "nn/layers.h"
#include "nn/module.h"

namespace vist5 {
namespace nn {

/// T5 relative position bias. A learned [num_buckets, heads] table is
/// indexed by a log-bucketed relative distance between query and key
/// positions and added to raw attention scores.
class RelativePositionBias : public Module {
 public:
  RelativePositionBias(int num_buckets, int max_distance, int heads,
                       bool bidirectional, Rng* rng);

  /// Bias tensor of shape [heads, tq, tk] for queries and keys both
  /// starting at position 0 (Encode and the teacher-forced Decode).
  /// Differentiable: gradients flow into the table.
  Tensor Forward(int tq, int tk) const;

  /// Extends `buckets` to `n` entries, entry d holding the bucket of a key
  /// d positions before its query: the bucket Forward gathers for that
  /// (query, key) pair. The decode step reads its bias straight from
  /// table() through these, so it adds the same floats as Forward.
  void ExtendDistanceBuckets(int n, std::vector<int>* buckets) const;

  /// The learned [num_buckets, heads] bias table.
  const Tensor& table() const { return table_; }

  /// Maps a relative position (key_pos - query_pos) to a bucket index,
  /// following the T5 reference bucketing scheme.
  static int Bucket(int relative_position, bool bidirectional,
                    int num_buckets, int max_distance);

 private:
  int num_buckets_;
  int max_distance_;
  int heads_;
  bool bidirectional_;
  Tensor table_;
};

/// One decode row's caches for one decoder layer (DecodeState::LayerCache).
/// Each tensor is [1, H, T, Dh], where T is this row's own extent.
struct LayerCache {
  Tensor self_k;   ///< T >= the row's position; written by each decode step
  Tensor self_v;
  Tensor cross_k;  ///< T = the encoder length; never written after BeginDecode
  Tensor cross_v;
};

/// The rows of one decode step (Transformer::DecodeStep), as each decoder
/// layer and its attention read them. Row b consumes `span` tokens, the
/// first at absolute position positions[b].
struct StepRows {
  int batch = 0;
  int span = 1;
  const int* positions = nullptr;       ///< [batch]
  const int* memory_lengths = nullptr;  ///< [batch] encoder lengths
  /// The decode state's caches: row b's layer l at caches[b * layers + l].
  LayerCache* caches = nullptr;
  int layers = 0;
  /// Relative-bias configs: the decoder's [buckets, H] bias table, and the
  /// bucket of every key distance up to the step's last position
  /// (RelativePositionBias::ExtendDistanceBuckets). Null otherwise.
  const float* bias_table = nullptr;
  const int* bias_buckets = nullptr;
  /// The attention step's buffers, grown on first use and reused.
  std::vector<float>* attn_work = nullptr;
  /// Column slices each weight product runs as (Linear::ForwardRows); 1
  /// runs it whole on the calling thread.
  int slices = 1;

  int rows() const { return batch * span; }
  /// Row b's caches for decoder layer `layer`.
  LayerCache& cache(int b, int layer) const {
    return caches[static_cast<size_t>(b) * layers + layer];
  }
};

/// Multi-head scaled dot-product attention over padded batches.
///
/// Inputs are row-major token matrices ([B*T, d]); the attention core
/// reshapes to [B, H, T, dh] internally. Supports self- and cross-attention,
/// causal masking, and an additive [H, Tq, Tk] position bias.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int dim, int heads, bool bias, bool scale_scores,
                     Rng* rng);

  struct ForwardArgs {
    int batch = 1;
    int tq = 0;
    int tk = 0;
    /// Valid key length per batch element (padding mask).
    const std::vector<int>* key_lengths = nullptr;
    bool causal = false;
    /// Optional additive [H, Tq, Tk] bias, broadcast over the batch.
    const Tensor* position_bias = nullptr;
    float dropout_p = 0.0f;
    Rng* rng = nullptr;
  };

  /// query: [B*Tq, d]; memory: [B*Tk, d]. Returns [B*Tq, d].
  Tensor Forward(const Tensor& query, const Tensor& memory,
                 const ForwardArgs& args) const;

  /// Projects `memory` [B*Tk, d] through the key/value heads into cached
  /// form: `*k` and `*v` become [B, H, Tk, Dh]. Incremental decoding
  /// projects each token exactly once and reuses the result every step.
  void ProjectKv(const Tensor& memory, int batch, int tk, Tensor* k,
                 Tensor* v) const;

  /// The decode step's attention, on raw rows (DecoderLayer::ForwardStep).
  /// `x` holds the step's R = batch·span query rows [R, d]; row b's keys
  /// and values come from its own caches for decoder layer `layer`
  /// (rows.cache(b, layer)), self_k/self_v or cross_k/cross_v.
  ///  - Self-attention (`self`): the rows' own keys/values are projected
  ///    from `x` and written at time positions[b] .. positions[b] + span -
  ///    1 first, and query i of row b sees keys 0 .. positions[b] + i, plus
  ///    the relative bias when `rows` carries one. A row's cache that is
  ///    too short, or whose storage another handle shares (a forked beam
  ///    row, a copied DecodeState), is replaced by a grown copy before the
  ///    write, zero-padded past its old extent; the other rows are not
  ///    touched.
  ///  - Cross-attention: row b sees its memory_lengths[b] keys, and the
  ///    caches are only read.
  /// Writes the [R, d] output to `out`. Runs Forward's kernels, row
  /// functions and rounding points on the keys each query can see, so a
  /// step reproduces Forward's row for that query bit for bit
  /// (docs/INFERENCE.md, "Parity contract"). The projections run in
  /// rows.slices column slices; the (row, head, query) attention rows are
  /// one pool region, split only into 3 or more chunks
  /// (docs/PARALLELISM.md). Inference-only.
  void ForwardStep(const StepRows& rows, int layer, const float* x, bool self,
                   float* out) const;

  /// Attaches LoRA adapters to the query and value projections (the
  /// standard LoRA placement).
  void EnableLora(int rank, float alpha, Rng* rng) {
    wq_.EnableLora(rank, alpha, rng);
    wv_.EnableLora(rank, alpha, rng);
    wo_.EnableLora(rank, alpha, rng);
  }

  int heads() const { return heads_; }

 private:
  int dim_;
  int heads_;
  bool scale_scores_;
  float score_scale_;  ///< 1/sqrt(dh), shared by Forward and ForwardStep
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

}  // namespace nn
}  // namespace vist5

#endif  // VIST5_NN_ATTENTION_H_
