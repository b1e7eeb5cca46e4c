#ifndef VIST5_NN_LAYERS_H_
#define VIST5_NN_LAYERS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

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
  /// It keeps Forward's weight choice (int8 under the same rule), rounding
  /// points and weight-byte counters; each output element is one fma chain
  /// in any row block, so it gives Forward's bits. Inference-only.
  void ForwardRows(const float* x, int rows, float* y) const;

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
  /// The int8 snapshot of weight_, built lazily and cached per weight
  /// data_version. Thread-safe.
  std::shared_ptr<const ops::QuantizedMatrix> Quantized() const;

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
  /// out[rows, dim] from x[rows, dim]. `work` holds 2 * rows * hidden_dim
  /// floats.
  void ForwardRows(const float* x, int rows, float* out, float* work) const;

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
