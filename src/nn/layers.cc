#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.h"
#include "rt/thread_pool.h"
#include "tensor/simd.h"

namespace vist5 {
namespace nn {

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

std::shared_ptr<const ops::QuantizedMatrix> Linear::Quantized() const {
  std::lock_guard<std::mutex> lock(quant_mutex_);
  if (quantized_ == nullptr || quant_version_ != weight_.data_version()) {
    quantized_ = std::make_shared<const ops::QuantizedMatrix>(
        ops::QuantizeWeights(weight_));
    quant_version_ = weight_.data_version();
  }
  return quantized_;
}

std::shared_ptr<const Linear::ColumnSlices> Linear::Sliced(int slices) const {
  std::lock_guard<std::mutex> lock(quant_mutex_);
  if (sliced_ == nullptr || sliced_count_ != slices ||
      sliced_version_ != weight_.data_version()) {
    // 64-column blocks (one 8-strip pass of the AVX2 1-row walk), dealt
    // out so that the lower slices take the extra block.
    constexpr int kBlock = 64;
    const int k = in_features_;
    const int n = out_features_;
    const int blocks = (n + kBlock - 1) / kBlock;
    const int count = std::max(1, std::min(slices, blocks));
    auto packed = std::make_shared<ColumnSlices>();
    packed->cols.resize(static_cast<size_t>(count) + 1);
    for (int s = 0; s <= count; ++s) {
      packed->cols[s] =
          std::min(n, (s * blocks + count - 1) / count * kBlock);
    }
    packed->data.resize(static_cast<size_t>(k) * n);
    const float* w = weight_.data().data();
    for (int s = 0; s < count; ++s) {
      const int c0 = packed->cols[s];
      const int width = packed->cols[s + 1] - c0;
      float* block = packed->data.data() + static_cast<size_t>(k) * c0;
      for (int p = 0; p < k; ++p) {
        std::copy_n(w + static_cast<size_t>(p) * n + c0, width,
                    block + static_cast<size_t>(p) * width);
      }
    }
    sliced_ = std::move(packed);
    sliced_count_ = slices;
    sliced_version_ = weight_.data_version();
  }
  return sliced_;
}

Tensor Linear::Forward(const Tensor& x) const {
  // The int8 read path covers plain inference projections only: training
  // needs the float weights for autograd, and LoRA layers keep the float
  // path so the adapter delta composes with the exact base product.
  if (ActiveWeightDtype() == WeightDtype::kInt8 && !GradEnabled() &&
      lora_rank_ == 0) {
    Tensor y = ops::MatMulInt8(x, *Quantized());
    return has_bias_ ? ops::AddBroadcast(y, bias_) : y;
  }
  Tensor y = ops::MatMul(x, weight_);
  if (has_bias_) y = ops::AddBroadcast(y, bias_);
  if (lora_rank_ > 0) {
    Tensor delta = ops::MatMul(ops::MatMul(x, lora_a_), lora_b_);
    y = ops::Add(y, ops::Scale(delta, lora_scale_));
  }
  return y;
}

namespace {
/// The column slices of the products of one Linear::ForwardRowsShared call,
/// run as one region: slice s multiplies the rows by each product's packed
/// block s and writes that block's columns of the product's y.
struct SliceRegion {
  struct Product {
    const std::vector<int>* cols;
    const float* packed;
    float* y;
    int k;
    int n;
  };
  const tensor::simd::KernelSet* ks = nullptr;
  const float* x = nullptr;
  int rows = 0;
  int count = 0;
  Product products[Linear::kMaxShared] = {};

  void Run(int s) const {
    for (int i = 0; i < count; ++i) {
      const Product& p = products[i];
      if (s + 1 >= static_cast<int>(p.cols->size())) continue;  // no slice s
      const int c0 = (*p.cols)[s];
      const int width = (*p.cols)[s + 1] - c0;
      ks->gemm_nn_zero(x, p.packed + static_cast<size_t>(p.k) * c0,
                       p.y + c0, rows, p.k, width, width, p.n);
    }
  }
};
}  // namespace

void Linear::ForwardRows(const float* x, int rows, float* y,
                         int slices) const {
  ForwardRowsShared(x, rows, {{this, y}}, slices);
}

void Linear::ForwardRowsShared(const float* x, int rows,
                               std::initializer_list<Projection> projections,
                               int slices) {
  VIST5_CHECK(!GradEnabled()) << "ForwardRows is inference-only";
  VIST5_CHECK_LE(projections.size(), static_cast<size_t>(kMaxShared));
  static obs::Counter* f32_bytes = obs::GetCounter("gemm/weight_bytes_f32");
  static obs::Counter* i8_bytes = obs::GetCounter("gemm/weight_bytes_i8");
  const tensor::simd::KernelSet& ks = tensor::simd::ActiveKernels();
  SliceRegion region;
  region.ks = &ks;
  region.x = x;
  region.rows = rows;
  std::shared_ptr<const ColumnSlices> packed[kMaxShared];  // live through
                                                           // the region
  int region_slices = 1;
  for (const Projection& p : projections) {
    const Linear& l = *p.linear;
    const int k = l.in_features_;
    const int n = l.out_features_;
    // Forward's rule: int8 only without LoRA (and without gradients).
    if (ActiveWeightDtype() == WeightDtype::kInt8 && l.lora_rank_ == 0) {
      const std::shared_ptr<const ops::QuantizedMatrix> q = l.Quantized();
      i8_bytes->Add(q->WeightBytes());
      ks.gemm_nn_zero_i8(x, q->data.data(), q->scales.data(), p.y, rows, k,
                         n, n, n);
      continue;
    }
    f32_bytes->Add(static_cast<int64_t>(k) * n * sizeof(float));
    if (slices > 1) {
      const int i = region.count++;
      packed[i] = l.Sliced(slices);
      region.products[i] = {&packed[i]->cols, packed[i]->data.data(), p.y, k,
                            n};
      region_slices = std::max(region_slices, packed[i]->slices());
    } else {
      ks.gemm_nn_zero(x, l.weight_.data().data(), p.y, rows, k, n, n, n);
    }
  }
  if (region.count > 0) {
    rt::RunSlices(region_slices, [&region](int s) { region.Run(s); });
  }
  for (const Projection& p : projections) {
    p.linear->AddBiasAndLora(x, rows, p.y);
  }
}

void Linear::AddBiasAndLora(const float* x, int rows, float* y) const {
  static obs::Counter* f32_bytes = obs::GetCounter("gemm/weight_bytes_f32");
  const tensor::simd::KernelSet& ks = tensor::simd::ActiveKernels();
  const int k = in_features_;
  const int n = out_features_;
  if (has_bias_) {
    const float* bias = bias_.data().data();
    for (int r = 0; r < rows; ++r) {
      float* row = y + static_cast<size_t>(r) * n;
      for (int j = 0; j < n; ++j) row[j] += bias[j];
    }
  }
  if (lora_rank_ > 0) {
    // y += scale * (x A) B at Forward's rounding points: delta * scale is
    // rounded, then added.
    f32_bytes->Add(static_cast<int64_t>(k + n) * lora_rank_ * sizeof(float));
    const int64_t elems = static_cast<int64_t>(rows) * n;
    std::vector<float> work(static_cast<size_t>(rows) * lora_rank_ + elems);
    float* xa = work.data();                                     // [rows, rank]
    float* delta = xa + static_cast<size_t>(rows) * lora_rank_;  // [rows, n]
    ks.gemm_nn_zero(x, lora_a_.data().data(), xa, rows, k, lora_rank_,
                    lora_rank_, lora_rank_);
    ks.gemm_nn_zero(xa, lora_b_.data().data(), delta, rows, lora_rank_, n, n,
                    n);
    for (int64_t e = 0; e < elems; ++e) delta[e] *= lora_scale_;
    for (int64_t e = 0; e < elems; ++e) y[e] += delta[e];
  }
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
  const int d = weight_.dim(0);
  const float* w = weight_.data().data();
  for (int64_t r = 0; r < rows; ++r) {
    ops::RmsNormRow(x + r * d, w, out + r * d, d, kEps);
  }
}

LayerNormLayer::LayerNormLayer(int dim) {
  gain_ = RegisterParameter("gain",
                            Tensor::Full({dim}, 1.0f, /*requires_grad=*/true));
  bias_ = RegisterParameter("bias",
                            Tensor::Zeros({dim}, /*requires_grad=*/true));
}

void LayerNormLayer::ForwardRows(const float* x, int rows, float* out) const {
  const int d = gain_.dim(0);
  const float* gain = gain_.data().data();
  const float* bias = bias_.data().data();
  float mean = 0.0f;
  float inv = 0.0f;
  for (int64_t r = 0; r < rows; ++r) {
    ops::LayerNormRow(x + r * d, gain, bias, out + r * d, d, kEps, &mean,
                      &inv);
  }
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
                              float* work, int slices) const {
  float* h = work;  // [rows, hidden], the first projection
  in_.ForwardRows(x, rows, h, slices);
  const int64_t elems = static_cast<int64_t>(rows) * hidden_dim_;
  if (activation_ == Activation::kRelu) {
    for (int64_t i = 0; i < elems; ++i) h[i] = h[i] > 0.0f ? h[i] : 0.0f;
    out_.ForwardRows(h, rows, out, slices);
    return;
  }
  // GELU over ops::Gelu's kElemGrain chunks: it must see the same extents
  // to round the same (ops.h, "Row bodies").
  float* act = h + elems;
  for (int64_t lo = 0; lo < elems; lo += ops::kElemGrain) {
    ops::GeluElems(h + lo, act + lo, std::min(ops::kElemGrain, elems - lo));
  }
  out_.ForwardRows(act, rows, out, slices);
}

}  // namespace nn
}  // namespace vist5
