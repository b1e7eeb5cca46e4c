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

  /// Per-row bias for a decode step: row b holds the bias of `span` queries
  /// at absolute positions query_positions[b] .. query_positions[b] +
  /// span - 1 against keys 0..tk-1 — the same table floats Forward
  /// gathers, copied directly. Keys past a query's position are
  /// zero-filled; the causal mask drops them. Returns [B, heads, span, tk].
  /// Inference-only (reads the table without recording autograd history);
  /// must run under NoGradGuard.
  Tensor ForwardBatched(const std::vector<int>& query_positions, int span,
                        int tk) const;

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
    /// Optional additive bias: [H, Tq, Tk] broadcast over the batch, or
    /// [B, H, Tq, Tk] per row (decode steps, where each row sits at its own
    /// absolute position). The rank tells the two apart.
    const Tensor* position_bias = nullptr;
    /// Decode steps only: absolute position of each row's first query
    /// ([B]). Shifts the causal mask per row, and bounds the score and
    /// context products by each (row, query)'s visible-key count. Null for
    /// Encode and the teacher-forced Decode: queries start at 0 and the
    /// products run in full.
    const std::vector<int>* query_positions = nullptr;
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

  /// Attention against pre-projected key/value tensors ([B, H, Tk, Dh],
  /// from ProjectKv / a decode cache). Identical arithmetic to Forward —
  /// Forward is ProjectKv + ForwardCached — so cached decoding is
  /// bit-exact against re-running Forward over the whole prefix. args.tk
  /// must equal the cache time dimension.
  Tensor ForwardCached(const Tensor& query, const Tensor& k, const Tensor& v,
                       const ForwardArgs& args) const;

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
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

}  // namespace nn
}  // namespace vist5

#endif  // VIST5_NN_ATTENTION_H_
