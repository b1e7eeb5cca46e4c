// Row bodies shared by the Tensor ops (ops.cc) and the decode step
// (nn::DecoderLayer::ForwardStep), declared in ops.h.
//
// They live in their own translation unit so that every caller runs the
// same compiled loop. Under the global -ffast-math the compiler vectorizes
// and reassociates these reductions, and it calls vector exp/tanh in the
// loop body and scalar ones in the remainder, so a copy of a loop compiled
// elsewhere can round differently at widths that are not a multiple of
// the vector width (docs/INFERENCE.md, "Parity contract"). Callers must
// also pass the same extents: one row, or for GeluElems the same element
// chunk.

#include <algorithm>
#include <cmath>

#include "tensor/ops.h"

namespace vist5 {
namespace ops {

float RmsNormRow(const float* x, const float* w, float* out, int d,
                 float eps) {
  float ss = 0.0f;
  for (int j = 0; j < d; ++j) ss += x[j] * x[j];
  const float inv = 1.0f / std::sqrt(ss / d + eps);
  for (int j = 0; j < d; ++j) out[j] = x[j] * inv * w[j];
  return inv;
}

void LayerNormRow(const float* x, const float* gain, const float* bias,
                  float* out, int d, float eps, float* mean_out,
                  float* inv_out) {
  float mean = 0.0f;
  for (int j = 0; j < d; ++j) mean += x[j];
  mean /= d;
  float var = 0.0f;
  for (int j = 0; j < d; ++j) var += (x[j] - mean) * (x[j] - mean);
  var /= d;
  const float inv = 1.0f / std::sqrt(var + eps);
  for (int j = 0; j < d; ++j) out[j] = (x[j] - mean) * inv * gain[j] + bias[j];
  *mean_out = mean;
  *inv_out = inv;
}

void SoftmaxRow(const float* x, float* out, int valid, int len) {
  float maxv = -1e30f;
  for (int j = 0; j < valid; ++j) maxv = std::max(maxv, x[j]);
  float sum = 0.0f;
  for (int j = 0; j < valid; ++j) {
    out[j] = std::exp(x[j] - maxv);
    sum += out[j];
  }
  for (int j = valid; j < len; ++j) out[j] = 0.0f;
  if (sum > 0.0f) {
    const float inv = 1.0f / sum;
    for (int j = 0; j < valid; ++j) out[j] *= inv;
  }
}

void GeluElems(const float* x, float* out, int64_t n) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float t = std::tanh(kC * (v + 0.044715f * v * v * v));
    out[i] = 0.5f * v * (1.0f + t);
  }
}

}  // namespace ops
}  // namespace vist5
