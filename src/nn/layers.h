#ifndef VIST5_NN_LAYERS_H_
#define VIST5_NN_LAYERS_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"

namespace vist5 {
namespace nn {

/// Affine projection y = x W (+ b). Weight is stored [in, out] so the
/// forward pass is a plain MatMul over the trailing dimension.
///
/// Supports Low-Rank Adaptation (Hu et al., 2021): EnableLora attaches
/// trainable A [in, r] and B [r, out] factors so that
/// y = x W + b + (alpha/r) * (x A) B. The base weights are frozen by the
/// caller; merged weights are never materialized.
///
/// When the calling thread holds a WeightDtypeGuard(kInt8), grads are off,
/// and no LoRA adapter is attached, Forward reads the weight through a
/// cached int8 snapshot instead: per-output-channel codes and scales
/// (ops::QuantizeWeights), built at first use and rebuilt whenever the
/// weight's data_version moves, so optimizer steps and checkpoint reloads
/// invalidate it automatically (docs/KERNELS.md).
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, bool bias, Rng* rng);

  Tensor Forward(const Tensor& x) const;

  /// Forward on raw rows, for the decode step: y[rows, out] = x[rows, in] W
  /// (+ b) (+ LoRA), one kernel call over all rows on the calling thread.
  /// With `slices` > 1 a float32 product runs instead as that many column
  /// slices of a packed copy of W, slice s on pool thread s
  /// (rt::RunSlices; docs/PARALLELISM.md, "Column slices"), each writing
  /// its own columns of y; the bias and LoRA delta follow on the calling
  /// thread. It keeps Forward's weight choice (int8 under the same rule,
  /// never sliced), rounding points and weight-byte counters; each output
  /// element is one fma chain in any row block and any column slice, so it
  /// gives Forward's bits. Inference-only.
  void ForwardRows(const float* x, int rows, float* y, int slices = 1) const;

  /// One projection of ForwardRowsShared: `linear` writes y[rows, out].
  struct Projection {
    const Linear* linear;
    float* y;
  };
  static constexpr int kMaxShared = 3;

  /// ForwardRows of up to kMaxShared projections of the same rows `x`
  /// (self-attention's q, k and v). With `slices` > 1 the column slices of
  /// all of them run in one rt::RunSlices region, slice s of each on pool
  /// thread s, so the set costs one hand-off. Each projection gets the
  /// bits its own ForwardRows gives.
  static void ForwardRowsShared(const float* x, int rows,
                                std::initializer_list<Projection> projections,
                                int slices);

  const Tensor& weight() const { return weight_; }
  Tensor& weight() { return weight_; }
  bool has_bias() const { return has_bias_; }

  /// Freezes/unfreezes the base weights (used for LoRA fine-tuning).
  void SetTrainable(bool trainable);

  /// Attaches a LoRA adapter. B starts at zero so the adapter is initially
  /// a no-op. May only be called once.
  void EnableLora(int rank, float alpha, Rng* rng);
  bool lora_enabled() const { return lora_rank_ > 0; }

 private:
  /// weight_ [in, out] packed for column slices: slice s holds columns
  /// [cols[s], cols[s + 1]) as its own row-major [in, cols[s + 1] -
  /// cols[s]] block at data + in * cols[s]. Every boundary but the last
  /// falls on a 64-column block.
  struct ColumnSlices {
    std::vector<int> cols;
    std::vector<float> data;
    int slices() const { return static_cast<int>(cols.size()) - 1; }
  };

  /// The int8 snapshot of weight_, built lazily and cached per weight
  /// data_version. Thread-safe.
  std::shared_ptr<const ops::QuantizedMatrix> Quantized() const;

  /// weight_ packed as min(slices, its 64-column blocks) column slices,
  /// built lazily and cached per weight data_version and slice count
  /// under the int8 snapshot's mutex. Thread-safe.
  std::shared_ptr<const ColumnSlices> Sliced(int slices) const;

  /// ForwardRows after the product y = x W: adds the bias, then the LoRA
  /// delta, at Forward's rounding points.
  void AddBiasAndLora(const float* x, int rows, float* y) const;

  int in_features_;
  int out_features_;
  bool has_bias_;
  Tensor weight_;
  Tensor bias_;
  int lora_rank_ = 0;
  float lora_scale_ = 0.0f;
  Tensor lora_a_;
  Tensor lora_b_;
  mutable std::mutex quant_mutex_;
  mutable std::shared_ptr<const ops::QuantizedMatrix> quantized_;
  mutable uint64_t quant_version_ = 0;
  mutable std::shared_ptr<const ColumnSlices> sliced_;
  mutable int sliced_count_ = 0;  ///< the slice count sliced_ was packed for
  mutable uint64_t sliced_version_ = 0;
};

/// Token-embedding table with gather forward.
class EmbeddingLayer : public Module {
 public:
  EmbeddingLayer(int vocab_size, int dim, Rng* rng);

  /// [ids.size(), dim]
  Tensor Forward(const std::vector<int>& ids) const;

  const Tensor& table() const { return table_; }

 private:
  Tensor table_;
};

/// T5 RMSNorm layer (gain only, no bias, no mean subtraction).
class RmsNormLayer : public Module {
 public:
  explicit RmsNormLayer(int dim);
  Tensor Forward(const Tensor& x) const {
    return ops::RmsNorm(x, weight_, kEps);
  }
  /// Forward on raw rows [rows, dim] (decode step), one row at a time on
  /// the calling thread; `out` must not overlap `x`.
  void ForwardRows(const float* x, int rows, float* out) const;

 private:
  static constexpr float kEps = 1e-6f;
  Tensor weight_;
};

/// Classic LayerNorm layer (gain + bias) for post-norm baselines.
class LayerNormLayer : public Module {
 public:
  explicit LayerNormLayer(int dim);
  Tensor Forward(const Tensor& x) const {
    return ops::LayerNorm(x, gain_, bias_, kEps);
  }
  /// Forward on raw rows [rows, dim] (decode step), one row at a time on
  /// the calling thread; `out` must not overlap `x`.
  void ForwardRows(const float* x, int rows, float* out) const;

 private:
  static constexpr float kEps = 1e-5f;
  Tensor gain_;
  Tensor bias_;
};

/// Position-wise feed-forward block: Linear -> activation -> Linear.
class FeedForward : public Module {
 public:
  enum class Activation { kRelu, kGelu };

  FeedForward(int dim, int hidden_dim, Activation activation, bool bias,
              Rng* rng);

  Tensor Forward(const Tensor& x, float dropout_p, Rng* rng) const;

  /// Inference Forward on raw rows (decode step), on the calling thread:
  /// out[rows, dim] from x[rows, dim], each projection in `slices` column
  /// slices (Linear::ForwardRows). `work` holds 2 * rows * hidden_dim
  /// floats.
  void ForwardRows(const float* x, int rows, float* out, float* work,
                   int slices = 1) const;

  /// Attaches LoRA adapters to both projections.
  void EnableLora(int rank, float alpha, Rng* rng) {
    in_.EnableLora(rank, alpha, rng);
    out_.EnableLora(rank, alpha, rng);
  }

 private:
  Activation activation_;
  int hidden_dim_;
  Linear in_;
  Linear out_;
};

}  // namespace nn
}  // namespace vist5

#endif  // VIST5_NN_LAYERS_H_
