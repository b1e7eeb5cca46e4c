#include "nn/layers.h"

#include <cmath>

#include "obs/metrics.h"
#include "rt/thread_pool.h"
#include "tensor/simd.h"

namespace vist5 {
namespace nn {
namespace {

/// One Linear::ForwardRows call. Each chunk of rows runs the whole
/// projection: the weight product, the bias, then the LoRA delta. Every
/// step is row-local, so the chunking never changes a bit.
struct ProjectionRows {
  const tensor::simd::KernelSet* ks = nullptr;
  const float* x = nullptr;  // [rows, k]
  float* y = nullptr;        // [rows, n]
  int k = 0;
  int n = 0;
  const float* w = nullptr;                 // float weight [k, n], or
  const ops::QuantizedMatrix* q = nullptr;  // its int8 view
  const float* bias = nullptr;              // [n], or null
  // LoRA: y += scale * (x A) B through the work rows xa [rows, rank] and
  // delta [rows, n]. rank 0 means no adapter.
  const float* lora_a = nullptr;
  const float* lora_b = nullptr;
  int rank = 0;
  float scale = 0.0f;
  float* xa = nullptr;
  float* delta = nullptr;

  void Run(int64_t lo, int64_t hi) const {
    const int m = static_cast<int>(hi - lo);
    const float* xr = x + lo * k;
    float* yr = y + lo * n;
    if (q != nullptr) {
      ks->gemm_nn_zero_i8(xr, q->data.data(), q->scales.data(), yr, m, k, n);
    } else {
      ks->gemm_nn_zero(xr, w, yr, m, k, n);
    }
    if (bias != nullptr) {
      for (int r = 0; r < m; ++r) {
        float* row = yr + static_cast<size_t>(r) * n;
        for (int j = 0; j < n; ++j) row[j] += bias[j];
      }
    }
    if (rank > 0) {
      // Forward's rounding points: delta * scale is rounded, then added.
      float* xar = xa + lo * rank;
      float* dr = delta + lo * n;
      ks->gemm_nn_zero(xr, lora_a, xar, m, k, rank);
      ks->gemm_nn_zero(xar, lora_b, dr, m, rank, n);
      const int64_t elems = static_cast<int64_t>(m) * n;
      for (int64_t e = 0; e < elems; ++e) dr[e] *= scale;
      for (int64_t e = 0; e < elems; ++e) yr[e] += dr[e];
    }
  }
};

}  // namespace

Linear::Linear(int in_features, int out_features, bool bias, Rng* rng)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias) {
  const float stddev = 1.0f / std::sqrt(static_cast<float>(in_features));
  weight_ = RegisterParameter(
      "weight", Tensor::Randn({in_features, out_features}, stddev, rng,
                              /*requires_grad=*/true));
  if (has_bias_) {
    bias_ = RegisterParameter(
        "bias", Tensor::Zeros({out_features}, /*requires_grad=*/true));
  }
}

QuantizedLinear::QuantizedLinear(const Tensor& weight, const Tensor& bias)
    : weight_(ops::QuantizeWeights(weight)), bias_(bias) {}

Tensor QuantizedLinear::Forward(const Tensor& x) const {
  Tensor y = ops::MatMulInt8(x, weight_);
  if (bias_.defined()) y = ops::AddBroadcast(y, bias_);
  return y;
}

std::shared_ptr<const QuantizedLinear> Linear::Quantized() const {
  std::lock_guard<std::mutex> lock(quant_mutex_);
  if (quantized_ == nullptr || quant_version_ != weight_.data_version()) {
    quantized_ = std::make_shared<const QuantizedLinear>(
        weight_, has_bias_ ? bias_ : Tensor());
    quant_version_ = weight_.data_version();
  }
  return quantized_;
}

Tensor Linear::Forward(const Tensor& x) const {
  // The int8 read path covers plain inference projections only: training
  // needs the float weights for autograd, and LoRA layers keep the float
  // path so the adapter delta composes with the exact base product.
  if (ActiveWeightDtype() == WeightDtype::kInt8 && !GradEnabled() &&
      lora_rank_ == 0) {
    return Quantized()->Forward(x);
  }
  Tensor y = ops::MatMul(x, weight_);
  if (has_bias_) y = ops::AddBroadcast(y, bias_);
  if (lora_rank_ > 0) {
    Tensor delta = ops::MatMul(ops::MatMul(x, lora_a_), lora_b_);
    y = ops::Add(y, ops::Scale(delta, lora_scale_));
  }
  return y;
}

void Linear::ForwardRows(const float* x, int rows, float* y) const {
  VIST5_CHECK(!GradEnabled()) << "ForwardRows is inference-only";
  static obs::Counter* f32_bytes = obs::GetCounter("gemm/weight_bytes_f32");
  static obs::Counter* i8_bytes = obs::GetCounter("gemm/weight_bytes_i8");
  ProjectionRows p;
  p.ks = &tensor::simd::ActiveKernels();
  p.x = x;
  p.y = y;
  p.k = in_features_;
  p.n = out_features_;
  if (has_bias_) p.bias = bias_.data().data();
  // Forward's rule: int8 only without LoRA (and without gradients).
  std::shared_ptr<const QuantizedLinear> quantized;
  std::vector<float> lora_rows;
  if (ActiveWeightDtype() == WeightDtype::kInt8 && lora_rank_ == 0) {
    quantized = Quantized();
    p.q = &quantized->matrix();
    i8_bytes->Add(p.q->WeightBytes());
  } else {
    p.w = weight_.data().data();
    f32_bytes->Add(static_cast<int64_t>(p.k) * p.n * sizeof(float));
    if (lora_rank_ > 0) {
      lora_rows.resize(static_cast<size_t>(rows) * (lora_rank_ + p.n));
      p.lora_a = lora_a_.data().data();
      p.lora_b = lora_b_.data().data();
      p.rank = lora_rank_;
      p.scale = lora_scale_;
      p.xa = lora_rows.data();
      p.delta = p.xa + static_cast<size_t>(rows) * lora_rank_;
      f32_bytes->Add(static_cast<int64_t>(p.k + p.n) * lora_rank_ *
                     sizeof(float));
    }
  }
  rt::ParallelFor(ops::GemmRowGrain(p.k, p.n), 0, rows,
                  [&p](int64_t lo, int64_t hi) { p.Run(lo, hi); });
}

void Linear::SetTrainable(bool trainable) {
  weight_.set_requires_grad(trainable);
  if (has_bias_) bias_.set_requires_grad(trainable);
}

void Linear::EnableLora(int rank, float alpha, Rng* rng) {
  VIST5_CHECK_EQ(lora_rank_, 0) << "LoRA already enabled";
  VIST5_CHECK_GT(rank, 0);
  lora_rank_ = rank;
  lora_scale_ = alpha / static_cast<float>(rank);
  const float stddev = 1.0f / std::sqrt(static_cast<float>(in_features_));
  lora_a_ = RegisterParameter(
      "lora_a", Tensor::Randn({in_features_, rank}, stddev, rng,
                              /*requires_grad=*/true));
  // B starts at zero so the adapter is a no-op before training.
  lora_b_ = RegisterParameter(
      "lora_b",
      Tensor::Zeros({rank, out_features_}, /*requires_grad=*/true));
}

EmbeddingLayer::EmbeddingLayer(int vocab_size, int dim, Rng* rng) {
  // T5 scales embeddings at initialization rather than in the forward pass.
  const float stddev = 1.0f / std::sqrt(static_cast<float>(dim));
  table_ = RegisterParameter(
      "table",
      Tensor::Randn({vocab_size, dim}, stddev, rng, /*requires_grad=*/true));
}

Tensor EmbeddingLayer::Forward(const std::vector<int>& ids) const {
  return ops::Embedding(table_, ids);
}

RmsNormLayer::RmsNormLayer(int dim) {
  weight_ = RegisterParameter(
      "weight", Tensor::Full({dim}, 1.0f, /*requires_grad=*/true));
}

void RmsNormLayer::ForwardRows(const float* x, int rows, float* out) const {
  struct Rows {
    const float* x;
    const float* w;
    float* out;
    int d;
  } p{x, weight_.data().data(), out, weight_.dim(0)};
  rt::ParallelFor(ops::RowOpGrain(p.d), 0, rows, [&p](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      ops::RmsNormRow(p.x + r * p.d, p.w, p.out + r * p.d, p.d, kEps);
    }
  });
}

LayerNormLayer::LayerNormLayer(int dim) {
  gain_ = RegisterParameter("gain",
                            Tensor::Full({dim}, 1.0f, /*requires_grad=*/true));
  bias_ = RegisterParameter("bias",
                            Tensor::Zeros({dim}, /*requires_grad=*/true));
}

void LayerNormLayer::ForwardRows(const float* x, int rows, float* out) const {
  struct Rows {
    const float* x;
    const float* gain;
    const float* bias;
    float* out;
    int d;
  } p{x, gain_.data().data(), bias_.data().data(), out, gain_.dim(0)};
  rt::ParallelFor(ops::RowOpGrain(p.d), 0, rows, [&p](int64_t lo, int64_t hi) {
    float mean = 0.0f;
    float inv = 0.0f;
    for (int64_t r = lo; r < hi; ++r) {
      ops::LayerNormRow(p.x + r * p.d, p.gain, p.bias, p.out + r * p.d, p.d,
                        kEps, &mean, &inv);
    }
  });
}

FeedForward::FeedForward(int dim, int hidden_dim, Activation activation,
                         bool bias, Rng* rng)
    : activation_(activation),
      hidden_dim_(hidden_dim),
      in_(dim, hidden_dim, bias, rng),
      out_(hidden_dim, dim, bias, rng) {
  RegisterModule("in", &in_);
  RegisterModule("out", &out_);
}

Tensor FeedForward::Forward(const Tensor& x, float dropout_p, Rng* rng) const {
  Tensor h = in_.Forward(x);
  h = activation_ == Activation::kRelu ? ops::Relu(h) : ops::Gelu(h);
  if (dropout_p > 0.0f) h = ops::Dropout(h, dropout_p, rng);
  return out_.Forward(h);
}

void FeedForward::ForwardRows(const float* x, int rows, float* out,
                              float* work) const {
  struct Act {
    float* h;    // [rows, hidden], the first projection
    float* act;  // its GELU (ReLU runs in place)
  } p{work, work + static_cast<size_t>(rows) * hidden_dim_};
  in_.ForwardRows(x, rows, p.h);
  // The activation ops' kElemGrain chunks: GELU must see the same extents
  // as ops::Gelu to round the same (ops.h, "Row bodies").
  const int64_t elems = static_cast<int64_t>(rows) * hidden_dim_;
  if (activation_ == Activation::kRelu) {
    rt::ParallelFor(ops::kElemGrain, 0, elems, [&p](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) p.h[i] = p.h[i] > 0.0f ? p.h[i] : 0.0f;
    });
    out_.ForwardRows(p.h, rows, out);
    return;
  }
  rt::ParallelFor(ops::kElemGrain, 0, elems, [&p](int64_t lo, int64_t hi) {
    ops::GeluElems(p.h + lo, p.act + lo, hi - lo);
  });
  out_.ForwardRows(p.act, rows, out);
}

}  // namespace nn
}  // namespace vist5
