#ifndef VIST5_TENSOR_OPS_H_
#define VIST5_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace vist5 {
namespace ops {

/// Chunk sizing for the rt::ParallelFor-parallelized kernels. Grains are
/// pure functions of the operand shape — never of the thread count — so the
/// chunk partition (and with it every chunk-indexed reduction) is identical
/// for 1 and N threads; see docs/PARALLELISM.md for the full determinism
/// contract. Exposed so tests can build shapes that straddle chunk
/// boundaries (M = grain, M = threads * grain + 1, ...).
int GemmRowGrain(int k, int n);  ///< output rows per chunk, GEMM-family ops
int RowOpGrain(int width);       ///< rows per chunk, softmax/norm/CE ops
inline constexpr int64_t kElemGrain = 1 << 13;  ///< elements per chunk

/// Elementwise sum of two same-shaped tensors.
Tensor Add(const Tensor& a, const Tensor& b);

/// `a + b` where b's shape is a suffix of a's shape; b is broadcast over the
/// leading dimensions. Covers bias adds ([*, d] + [d]) and T5 relative
/// position bias ([B, H, Tq, Tk] + [H, Tq, Tk]).
Tensor AddBroadcast(const Tensor& a, const Tensor& b);

/// Elementwise product of two same-shaped tensors.
Tensor Mul(const Tensor& a, const Tensor& b);

/// Multiplies every element by `s`.
Tensor Scale(const Tensor& a, float s);

/// Adds scalar `s` to every element.
Tensor AddScalar(const Tensor& a, float s);

/// Matrix product. Supports:
///  - [M, K] x [K, N]
///  - [..., M, K] x [K, N]       (leading dims folded into rows)
///  - [B..., M, K] x [B..., K, N] (batched, equal leading dims)
Tensor MatMul(const Tensor& a, const Tensor& b);

/// `a · b^T` over the last two dims. Supports the same shape combinations as
/// MatMul with b given as [N, K] / [B..., N, K]. Used for attention scores
/// (Q·K^T) and tied-embedding output projections.
Tensor MatMulTransposeB(const Tensor& a, const Tensor& b);

/// Softmax over the last dimension.
Tensor Softmax(const Tensor& x);

/// Softmax over the last dim of attention scores [B, H, Tq, Tk] with
/// padding and causal masking. Key positions >= key_lengths[b] receive zero
/// probability; if `causal`, key position k > query position q is masked.
Tensor MaskedSoftmax(const Tensor& scores, const std::vector<int>& key_lengths,
                     bool causal);

/// T5-style RMS norm over the last dimension: x / rms(x) * weight.
Tensor RmsNorm(const Tensor& x, const Tensor& weight, float eps = 1e-6f);

/// Classic LayerNorm over the last dimension with learned gain and bias,
/// used by the vanilla-Transformer and BART baselines.
Tensor LayerNorm(const Tensor& x, const Tensor& gain, const Tensor& bias,
                 float eps = 1e-5f);

Tensor Sigmoid(const Tensor& x);
Tensor Tanh(const Tensor& x);

/// Transpose of a 2-D tensor.
Tensor Transpose2D(const Tensor& x);

Tensor Relu(const Tensor& x);

/// Tanh-approximation GELU.
Tensor Gelu(const Tensor& x);

/// Inverted dropout with keep-scale 1/(1-p); identity when grads are
/// disabled (inference) or p == 0.
Tensor Dropout(const Tensor& x, float p, Rng* rng);

/// Row gather: out[i, :] = table[ids[i], :]. Backward scatter-adds into the
/// table gradient.
Tensor Embedding(const Tensor& table, const std::vector<int>& ids);

/// Mean cross-entropy between `logits` [N, V] and integer `targets` (size
/// N). Rows whose target equals `ignore_index` contribute neither loss nor
/// gradient. Returns a scalar.
Tensor CrossEntropyLoss(const Tensor& logits, const std::vector<int>& targets,
                        int ignore_index = -100);

/// Copies into a tensor of `new_shape` (element count must match).
Tensor Reshape(const Tensor& x, std::vector<int> new_shape);

/// [B*T, H*Dh] -> [B, H, T, Dh] head split for attention.
Tensor SplitHeads(const Tensor& x, int batch, int seq, int heads);

/// [B, H, T, Dh] -> [B*T, H*Dh], inverse of SplitHeads.
Tensor MergeHeads(const Tensor& x);

/// Concatenates 2-D tensors [N_i, D] along dim 0.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Selects rows of a 2-D tensor: out[i, :] = x[rows[i], :]. Differentiable.
Tensor GatherRows(const Tensor& x, const std::vector<int>& rows);

/// Symmetric per-output-channel int8 quantization of a [K, N] weight
/// matrix (stored in the Linear layout: K = in features, N = out
/// features, so each scale covers one output channel — one row of the
/// logical [out, in] weight). Column j dequantizes as
/// float(data[p, j]) * scales[j]; zero-point is always 0.
struct QuantizedMatrix {
  int k = 0;                  ///< contraction (input) dimension
  int n = 0;                  ///< output dimension
  std::vector<int8_t> data;   ///< [k, n] row-major int8 codes
  std::vector<float> scales;  ///< [n] per-output-channel scales

  bool defined() const { return k > 0 && n > 0; }
  /// Bytes of weight traffic one full read of this matrix costs.
  int64_t WeightBytes() const {
    return static_cast<int64_t>(data.size()) +
           static_cast<int64_t>(scales.size() * sizeof(float));
  }
};

/// Quantizes a 2-D [K, N] float weight to int8 with per-column scales:
/// scale_j = max_p |w[p, j]| / 127, code = round-to-nearest(w / scale_j)
/// clamped to [-127, 127] (an all-zero column gets scale 0 and all-zero
/// codes). Round-to-nearest ties away from zero (std::lround semantics),
/// pinned so tests can reproduce the quantizer exactly.
QuantizedMatrix QuantizeWeights(const Tensor& w);

/// Materializes the float matrix a QuantizedMatrix represents:
/// out[p, j] = float(data[p, j]) * scales[j]. The quantize -> dequantize
/// round trip error per element is bounded by scales[j] / 2.
Tensor DequantizeWeights(const QuantizedMatrix& q);

/// `a` [.., K] times an int8-quantized weight [K, N] with per-column
/// scales: out[r, j] = scales[j] * sum_p a[r, p] * float(b[p, j]).
/// Leading dims of `a` fold into rows exactly like the unbatched MatMul.
/// Runs the same row space and grain as MatMul, and the accumulation is an
/// fma chain over p ascending in every backend, so results are
/// bit-identical across scalar/AVX2 *and* across thread counts and batch
/// groupings (docs/KERNELS.md). Inference-only.
Tensor MatMulInt8(const Tensor& a, const QuantizedMatrix& b);

/// Sum of all elements as a scalar.
Tensor Sum(const Tensor& x);

// ---------------------------------------------------------------------------
// Row bodies of RmsNorm, LayerNorm, the (masked) softmax and GELU, on raw
// floats. The Tensor ops above run them, and so does the decode step
// (nn::DecoderLayer::ForwardStep), which keeps its rows in reused buffers
// instead of Tensors. They are compiled once, in row_ops.cc, so both
// callers run the same loops and get the same bits when they pass the same
// extents: one row, or for GeluElems the same kElemGrain chunk. Input and
// output must not overlap.
// ---------------------------------------------------------------------------

/// out[j] = x[j] * inv * w[j] over one row of `d`, with inv = 1 / sqrt(
/// mean(x²) + eps). Returns inv.
float RmsNormRow(const float* x, const float* w, float* out, int d,
                 float eps);

/// out[j] = (x[j] - mean) * inv * gain[j] + bias[j] over one row of `d`,
/// with inv = 1 / sqrt(var + eps). Stores mean and inv.
void LayerNormRow(const float* x, const float* gain, const float* bias,
                  float* out, int d, float eps, float* mean, float* inv);

/// Softmax of x[0, valid) into out[0, valid), and zeros in out[valid, len).
/// A row with valid == 0 comes out all zero.
void SoftmaxRow(const float* x, float* out, int valid, int len);

/// Tanh-approximation GELU of `n` consecutive elements.
void GeluElems(const float* x, float* out, int64_t n);

}  // namespace ops
}  // namespace vist5

#endif  // VIST5_TENSOR_OPS_H_
