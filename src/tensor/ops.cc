#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "rt/thread_pool.h"
#include "tensor/simd.h"

namespace vist5 {
namespace ops {
namespace {

// ---------------------------------------------------------------------------
// Backward-only GEMM row kernels. Both accumulate into C.
//
// The forward-path kernels (the zero-init NN product, the NT dot) live in the
// runtime-dispatched tensor::simd backends (docs/KERNELS.md); these two
// stay here because they only run during training, where the gradient
// accumulation order — not raw kernel speed — is the binding constraint.
//
// Every kernel computes ONE output row, so the parallel dispatch can block
// across rows while each row's accumulation order stays exactly the serial
// order — the determinism contract of docs/PARALLELISM.md: thread count
// changes which thread computes a row, never the arithmetic inside it.
// ---------------------------------------------------------------------------

// crow[N] += arow[K] * B[K,N]
inline void GemmRowNN(const float* arow, const float* b, float* crow, int k,
                      int n) {
  for (int p = 0; p < k; ++p) {
    const float av = arow[p];
    const float* brow = b + static_cast<size_t>(p) * n;
    for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
  }
}

// crow[Q] += column `a` of X[M,P] dotted into Y[M,Q]: the row-`a` slice of
// C[P,Q] += X^T * Y. Accumulates over i ascending — the same per-element
// order as the classic i-outer GemmTN loop nest.
inline void GemmRowTN(const float* x, const float* y, float* crow, int m,
                      int p, int q, int a) {
  for (int i = 0; i < m; ++i) {
    const float xv = x[static_cast<size_t>(i) * p + a];
    const float* yrow = y + static_cast<size_t>(i) * q;
    for (int b = 0; b < q; ++b) crow[b] += xv * yrow[b];
  }
}

// ---------------------------------------------------------------------------
// Node construction helpers.
// ---------------------------------------------------------------------------

bool TracksGrad(const Tensor& t) {
  return GradEnabled() && t.requires_grad();
}

Tensor MakeResult(std::vector<int> shape, std::vector<float> data,
                  std::vector<Tensor> parents,
                  std::function<void()> backward_fn) {
  bool any_grad = false;
  for (const Tensor& p : parents) any_grad = any_grad || TracksGrad(p);
  Tensor out(std::move(shape), std::move(data), any_grad);
  if (any_grad) {
    for (const Tensor& p : parents) out.impl()->parents.push_back(p.impl());
    out.impl()->backward_fn = std::move(backward_fn);
  }
  return out;
}

int64_t Prod(const std::vector<int>& dims, size_t begin, size_t end) {
  int64_t p = 1;
  for (size_t i = begin; i < end; ++i) p *= dims[i];
  return p;
}

// Runs f(i) for every i in [0, n), split into kElemGrain chunks. Only for
// bodies whose writes are disjoint per index.
template <typename F>
void ParallelElems(int64_t n, F&& f) {
  rt::ParallelFor(kElemGrain, 0, n, [&f](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) f(i);
  });
}

}  // namespace

int GemmRowGrain(int k, int n) {
  // ~32k multiply-adds per chunk: coarse enough to amortize dispatch, fine
  // enough that attention-sized GEMMs still split across the pool. Floored
  // at the widest shared-B row block so batched decode-step row panels
  // reach it — a smaller grain would cap every run below the block and
  // silently disable the weight-reuse path that carries the serve
  // throughput contract (docs/SERVING.md).
  const int64_t row_flops = std::max<int64_t>(1, static_cast<int64_t>(k) * n);
  return static_cast<int>(
      std::max<int64_t>(tensor::simd::kTileRows, 32768 / row_flops));
}

int RowOpGrain(int width) {
  // ~1k elements per chunk for row ops (softmax, norms, cross-entropy).
  return static_cast<int>(
      std::max<int64_t>(1, 1024 / std::max(1, width)));
}

Tensor Add(const Tensor& a, const Tensor& b) {
  VIST5_CHECK(a.shape() == b.shape()) << a.ShapeString() << " vs "
                                      << b.ShapeString();
  std::vector<float> out(a.data().size());
  ParallelElems(static_cast<int64_t>(out.size()),
                [&](int64_t i) { out[i] = a.data()[i] + b.data()[i]; });
  auto ai = a.impl();
  auto bi = b.impl();
  Tensor result = MakeResult(a.shape(), std::move(out), {a, b}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [ai, bi, ri]() {
      if (ai->requires_grad) {
        ai->EnsureGrad();
        ParallelElems(static_cast<int64_t>(ri->grad.size()),
                      [&](int64_t i) { ai->grad[i] += ri->grad[i]; });
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        ParallelElems(static_cast<int64_t>(ri->grad.size()),
                      [&](int64_t i) { bi->grad[i] += ri->grad[i]; });
      }
    };
  }
  return result;
}

Tensor AddBroadcast(const Tensor& a, const Tensor& b) {
  const auto& as = a.shape();
  const auto& bs = b.shape();
  VIST5_CHECK_LE(bs.size(), as.size());
  for (size_t i = 0; i < bs.size(); ++i) {
    VIST5_CHECK_EQ(bs[bs.size() - 1 - i], as[as.size() - 1 - i]);
  }
  const int64_t inner = Prod(bs, 0, bs.size());
  const int64_t outer = a.NumElements() / inner;
  std::vector<float> out(a.data().size());
  ParallelElems(a.NumElements(), [&](int64_t idx) {
    out[idx] = a.data()[idx] + b.data()[idx % inner];
  });
  auto ai = a.impl();
  auto bi = b.impl();
  Tensor result = MakeResult(a.shape(), std::move(out), {a, b}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [ai, bi, ri, outer, inner]() {
      if (ai->requires_grad) {
        ai->EnsureGrad();
        ParallelElems(static_cast<int64_t>(ri->grad.size()),
                      [&](int64_t i) { ai->grad[i] += ri->grad[i]; });
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        // Parallel over the broadcast (inner) index: each thread owns one
        // dB element and folds the outer dim o-ascending, matching the
        // serial o-outer loop's per-element accumulation order.
        rt::ParallelFor(kElemGrain, 0, inner, [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            float acc = 0.0f;
            for (int64_t o = 0; o < outer; ++o)
              acc += ri->grad[o * inner + i];
            bi->grad[i] += acc;
          }
        });
      }
    };
  }
  return result;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  VIST5_CHECK(a.shape() == b.shape());
  std::vector<float> out(a.data().size());
  ParallelElems(static_cast<int64_t>(out.size()),
                [&](int64_t i) { out[i] = a.data()[i] * b.data()[i]; });
  auto ai = a.impl();
  auto bi = b.impl();
  Tensor result = MakeResult(a.shape(), std::move(out), {a, b}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [ai, bi, ri]() {
      if (ai->requires_grad) {
        ai->EnsureGrad();
        ParallelElems(static_cast<int64_t>(ri->grad.size()), [&](int64_t i) {
          ai->grad[i] += ri->grad[i] * bi->data[i];
        });
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        ParallelElems(static_cast<int64_t>(ri->grad.size()), [&](int64_t i) {
          bi->grad[i] += ri->grad[i] * ai->data[i];
        });
      }
    };
  }
  return result;
}

Tensor Scale(const Tensor& a, float s) {
  std::vector<float> out(a.data().size());
  ParallelElems(static_cast<int64_t>(out.size()),
                [&](int64_t i) { out[i] = a.data()[i] * s; });
  auto ai = a.impl();
  Tensor result = MakeResult(a.shape(), std::move(out), {a}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [ai, ri, s]() {
      ai->EnsureGrad();
      ParallelElems(static_cast<int64_t>(ri->grad.size()),
                    [&](int64_t i) { ai->grad[i] += ri->grad[i] * s; });
    };
  }
  return result;
}

Tensor AddScalar(const Tensor& a, float s) {
  std::vector<float> out(a.data().size());
  ParallelElems(static_cast<int64_t>(out.size()),
                [&](int64_t i) { out[i] = a.data()[i] + s; });
  auto ai = a.impl();
  Tensor result = MakeResult(a.shape(), std::move(out), {a}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [ai, ri]() {
      ai->EnsureGrad();
      ParallelElems(static_cast<int64_t>(ri->grad.size()),
                    [&](int64_t i) { ai->grad[i] += ri->grad[i]; });
    };
  }
  return result;
}

namespace {

// Shared implementation for MatMul / MatMulTransposeB. `transpose_b` selects
// whether b is [*, K, N] (false) or [*, N, K] (true).
Tensor MatMulImpl(const Tensor& a, const Tensor& b, bool transpose_b) {
  const auto& as = a.shape();
  const auto& bs = b.shape();
  VIST5_CHECK_GE(as.size(), 2u);
  VIST5_CHECK_GE(bs.size(), 2u);
  const int k = as.back();
  int n;
  if (transpose_b) {
    VIST5_CHECK_EQ(bs.back(), k);
    n = bs[bs.size() - 2];
  } else {
    VIST5_CHECK_EQ(bs[bs.size() - 2], k);
    n = bs.back();
  }

  const bool batched = bs.size() > 2;
  int64_t batch = 1;
  int m;
  if (batched) {
    VIST5_CHECK_EQ(as.size(), bs.size());
    for (size_t i = 0; i + 2 < as.size(); ++i) VIST5_CHECK_EQ(as[i], bs[i]);
    batch = Prod(as, 0, as.size() - 2);
    m = as[as.size() - 2];
  } else {
    // Fold every leading dim of `a` into rows. Computed from the shape, not
    // as NumElements()/k: a degenerate K=0 operand ([M, 0] x [0, N]) has
    // zero elements and would otherwise divide by zero.
    batch = 1;
    m = static_cast<int>(Prod(as, 0, as.size() - 1));
  }

  std::vector<int> out_shape = as;
  out_shape.back() = n;
  std::vector<float> out(static_cast<size_t>(batch) * m * n, 0.0f);

  if (!GradEnabled() && bs.size() == 2) {
    // Weight-traffic accounting for inference GEMMs against a shared 2-D
    // operand (the weight-matrix shape); the int8 path mirrors this with
    // gemm/weight_bytes_i8 so benches can report bytes-per-token.
    static obs::Counter* weight_bytes =
        obs::GetCounter("gemm/weight_bytes_f32");
    weight_bytes->Add(static_cast<int64_t>(k) * n *
                      static_cast<int64_t>(sizeof(float)));
  }

  const int64_t a_stride = static_cast<int64_t>(m) * k;
  const int64_t b_stride = batched ? static_cast<int64_t>(k) * n : 0;
  const int64_t c_stride = static_cast<int64_t>(m) * n;
  {
    // One flat row space across the whole batch, so small-M batched GEMMs
    // (per-head attention, single-token decode steps) still fan out.
    // Within a chunk, each run of rows that share one B matrix is one
    // kernel call; the backend walks the run (docs/KERNELS.md). An output
    // element's accumulation order never depends on the run, so results
    // stay bit-identical at any thread count.
    const float* adata = a.data().data();
    const float* bdata = b.data().data();
    float* cdata = out.data();
    const tensor::simd::KernelSet& ks = tensor::simd::ActiveKernels();
    rt::ParallelFor(
        GemmRowGrain(k, n), 0, batch * m, [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi;) {
            const int64_t bi = r / m;
            const int64_t i = r % m;
            const int rows =
                static_cast<int>(std::min(hi - r, static_cast<int64_t>(m - i)));
            const float* arow = adata + bi * a_stride + i * k;
            const float* bp = bdata + bi * b_stride;
            float* crow = cdata + bi * c_stride + i * n;
            if (transpose_b) {
              ks.gemm_nt(arow, bp, crow, rows, k, n);
            } else {
              ks.gemm_nn_zero(arow, bp, crow, rows, k, n, n, n);
            }
            r += rows;
          }
        });
  }

  auto ai = a.impl();
  auto bimpl = b.impl();
  Tensor result =
      MakeResult(std::move(out_shape), std::move(out), {a, b}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [ai, bimpl, ri, batch, m, k, n, a_stride,
                                  b_stride, c_stride, transpose_b]() {
      const bool need_a = ai->requires_grad;
      const bool need_b = bimpl->requires_grad;
      if (need_a) ai->EnsureGrad();
      if (need_b) bimpl->EnsureGrad();
      const float* gdata = ri->grad.data();
      const float* adata = ai->data.data();
      const float* bdata = bimpl->data.data();
      if (need_a) {
        // dA = dC * B^T (plain) or dC * B (transpose_b): one dA row per
        // dC row, disjoint across the flattened (batch, row) space.
        float* gadata = ai->grad.data();
        const tensor::simd::KernelSet& ks = tensor::simd::ActiveKernels();
        rt::ParallelFor(
            GemmRowGrain(n, k), 0, batch * m, [&](int64_t lo, int64_t hi) {
              for (int64_t r = lo; r < hi; ++r) {
                const int64_t bi = r / m;
                const int64_t i = r % m;
                const float* grow = gdata + bi * c_stride + i * n;
                const float* bp = bdata + bi * b_stride;
                float* garow = gadata + bi * a_stride + i * k;
                if (transpose_b) {
                  GemmRowNN(grow, bp, garow, n, k);
                } else {
                  ks.gemm_nt(grow, bp, garow, /*rows=*/1, n, k);
                }
              }
            });
      }
      if (need_b) {
        // dB = A^T * dC (plain, [k, n] rows) or dC^T * A (transpose_b,
        // [n, k] rows). In the batched case each bi owns a disjoint dB
        // slab; unbatched means batch == 1, so rows never collide and the
        // i-ascending accumulation order is thread-count independent.
        const int rows_b = transpose_b ? n : k;
        const int cols_b = transpose_b ? k : n;
        float* gbdata = bimpl->grad.data();
        rt::ParallelFor(
            GemmRowGrain(m, cols_b), 0, batch * rows_b,
            [&](int64_t lo, int64_t hi) {
              for (int64_t r = lo; r < hi; ++r) {
                const int64_t bi = r / rows_b;
                const int64_t row = r % rows_b;
                const float* grow = gdata + bi * c_stride;
                const float* ap = adata + bi * a_stride;
                float* gbrow =
                    gbdata + bi * b_stride + row * cols_b;
                if (transpose_b) {
                  GemmRowTN(grow, ap, gbrow, m, n, k,
                            static_cast<int>(row));
                } else {
                  GemmRowTN(ap, grow, gbrow, m, k, n,
                            static_cast<int>(row));
                }
              }
            });
      }
    };
  }
  return result;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  return MatMulImpl(a, b, /*transpose_b=*/false);
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  return MatMulImpl(a, b, /*transpose_b=*/true);
}

QuantizedMatrix QuantizeWeights(const Tensor& w) {
  VIST5_CHECK_EQ(w.ndim(), 2);
  QuantizedMatrix q;
  q.k = w.dim(0);
  q.n = w.dim(1);
  q.data.assign(static_cast<size_t>(q.k) * q.n, 0);
  q.scales.assign(static_cast<size_t>(q.n), 0.0f);
  const float* wd = w.data().data();
  for (int j = 0; j < q.n; ++j) {
    float amax = 0.0f;
    for (int p = 0; p < q.k; ++p) {
      amax = std::max(amax, std::fabs(wd[static_cast<size_t>(p) * q.n + j]));
    }
    if (amax == 0.0f) continue;  // all-zero channel: scale 0, codes 0
    const float scale = amax / 127.0f;
    q.scales[static_cast<size_t>(j)] = scale;
    for (int p = 0; p < q.k; ++p) {
      // Round-to-nearest, ties away from zero (std::lround), clamped to
      // the symmetric code range. Pinned here and replicated verbatim by
      // the reference quantizer in tests/tensor_test.cc.
      const long code =
          std::lround(wd[static_cast<size_t>(p) * q.n + j] / scale);
      q.data[static_cast<size_t>(p) * q.n + j] = static_cast<int8_t>(
          std::max<long>(-127, std::min<long>(127, code)));
    }
  }
  return q;
}

Tensor DequantizeWeights(const QuantizedMatrix& q) {
  VIST5_CHECK(q.defined());
  std::vector<float> out(static_cast<size_t>(q.k) * q.n);
  for (int p = 0; p < q.k; ++p) {
    for (int j = 0; j < q.n; ++j) {
      const size_t idx = static_cast<size_t>(p) * q.n + j;
      out[idx] = static_cast<float>(q.data[idx]) *
                 q.scales[static_cast<size_t>(j)];
    }
  }
  return Tensor({q.k, q.n}, std::move(out));
}

Tensor MatMulInt8(const Tensor& a, const QuantizedMatrix& b) {
  VIST5_CHECK(!GradEnabled()) << "MatMulInt8 is inference-only";
  VIST5_CHECK(b.defined());
  const auto& as = a.shape();
  VIST5_CHECK_GE(as.size(), 2u);
  const int k = as.back();
  VIST5_CHECK_EQ(k, b.k);
  const int n = b.n;
  const int64_t m = Prod(as, 0, as.size() - 1);
  std::vector<int> out_shape = as;
  out_shape.back() = n;
  std::vector<float> out(static_cast<size_t>(m) * n, 0.0f);
  static obs::Counter* weight_bytes =
      obs::GetCounter("gemm/weight_bytes_i8");
  weight_bytes->Add(b.WeightBytes());
  const float* adata = a.data().data();
  const int8_t* bdata = b.data.data();
  const float* sdata = b.scales.data();
  float* cdata = out.data();
  const tensor::simd::KernelSet& ks = tensor::simd::ActiveKernels();
  // Same flat row space and grain as the float MatMul; every row shares B,
  // so each chunk is one kernel call.
  rt::ParallelFor(GemmRowGrain(k, n), 0, m, [&](int64_t lo, int64_t hi) {
    ks.gemm_nn_zero_i8(adata + lo * k, bdata, sdata, cdata + lo * n,
                       static_cast<int>(hi - lo), k, n, n, n);
  });
  return Tensor(std::move(out_shape), std::move(out));
}

namespace {

// Softmax along the last dim with an optional mask predicate; rows where
// every entry is masked become all-zero distributions.
Tensor SoftmaxImpl(const Tensor& x,
                   const std::function<int(int64_t row)>& valid_cols,
                   int last) {
  const int64_t rows = last > 0 ? x.NumElements() / last : 0;
  std::vector<float> out(x.data().size());
  const float* xdata = x.data().data();
  float* odata = out.data();
  // Row-parallel: every row's max/exp/normalize runs start to finish inside
  // one chunk, so no reduction ever crosses a thread boundary. Masking is a
  // per-row valid prefix (`valid_cols`, null = whole row): every mask this
  // kernel serves — key-length padding and causal visibility — excludes a
  // contiguous suffix, so the hot loops carry no per-element predicate.
  rt::ParallelFor(RowOpGrain(last), 0, rows, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      SoftmaxRow(xdata + r * last, odata + r * last,
                 valid_cols ? valid_cols(r) : last, last);
    }
  });
  auto xi = x.impl();
  Tensor result = MakeResult(x.shape(), std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [xi, ri, rows, last]() {
      xi->EnsureGrad();
      rt::ParallelFor(
          RowOpGrain(last), 0, rows, [&](int64_t lo, int64_t hi) {
            for (int64_t r = lo; r < hi; ++r) {
              const float* y = ri->data.data() + r * last;
              const float* gy = ri->grad.data() + r * last;
              float* gx = xi->grad.data() + r * last;
              float dot = 0.0f;
              for (int j = 0; j < last; ++j) dot += y[j] * gy[j];
              for (int j = 0; j < last; ++j) gx[j] += y[j] * (gy[j] - dot);
            }
          });
    };
  }
  return result;
}

}  // namespace

Tensor Softmax(const Tensor& x) {
  return SoftmaxImpl(x, nullptr, x.dim(-1));
}

Tensor MaskedSoftmax(const Tensor& scores, const std::vector<int>& key_lengths,
                     bool causal) {
  VIST5_CHECK_EQ(scores.ndim(), 4);
  const int b = scores.dim(0);
  const int h = scores.dim(1);
  const int tq = scores.dim(2);
  const int tk = scores.dim(3);
  VIST5_CHECK_EQ(static_cast<int>(key_lengths.size()), b);
  auto valid_cols = [=, &key_lengths](int64_t row) {
    // row indexes [B, H, Tq] flattened. Both masks cut a suffix: keys at or
    // beyond the batch entry's length, and (causally) keys after the query.
    const int batch = static_cast<int>(row / (static_cast<int64_t>(h) * tq));
    int valid = std::min(key_lengths[batch], tk);
    if (causal) valid = std::min(valid, static_cast<int>(row % tq) + 1);
    return std::max(valid, 0);
  };
  return SoftmaxImpl(scores, valid_cols, tk);
}

Tensor RmsNorm(const Tensor& x, const Tensor& weight, float eps) {
  const int d = x.dim(-1);
  VIST5_CHECK_EQ(weight.NumElements(), d);
  const int64_t rows = x.NumElements() / d;
  std::vector<float> out(x.data().size());
  std::vector<float> inv_rms(static_cast<size_t>(rows));
  const float* xdata = x.data().data();
  const float* wdata = weight.data().data();
  rt::ParallelFor(RowOpGrain(d), 0, rows, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      inv_rms[static_cast<size_t>(r)] =
          RmsNormRow(xdata + r * d, wdata, out.data() + r * d, d, eps);
    }
  });
  auto xi = x.impl();
  auto wi = weight.impl();
  Tensor result = MakeResult(x.shape(), std::move(out), {x, weight}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [xi, wi, ri, rows, d,
                                  inv_rms = std::move(inv_rms)]() {
      const bool need_x = xi->requires_grad;
      const bool need_w = wi->requires_grad;
      if (need_x) xi->EnsureGrad();
      if (need_w) wi->EnsureGrad();
      // The weight gradient sums over every row, so it cannot be row-
      // parallel directly. Fixed-order reduction tree instead: each chunk
      // (whose boundaries depend only on the grain, not the thread count)
      // accumulates rows in ascending order into its own scratch slot, and
      // the chunks are folded serially in index order afterwards —
      // bit-identical for any thread count.
      const int64_t grain = RowOpGrain(d);
      const int64_t nchunks = rt::NumChunks(grain, 0, rows);
      std::vector<float> wpartial(
          need_w ? static_cast<size_t>(nchunks) * d : 0, 0.0f);
      rt::ParallelForChunked(
          grain, 0, rows, [&](int64_t chunk, int64_t lo, int64_t hi) {
            float* wp = need_w ? wpartial.data() + chunk * d : nullptr;
            for (int64_t r = lo; r < hi; ++r) {
              const float inv = inv_rms[static_cast<size_t>(r)];
              const float* xp = xi->data.data() + r * d;
              const float* gy = ri->grad.data() + r * d;
              if (need_w) {
                for (int j = 0; j < d; ++j) wp[j] += gy[j] * xp[j] * inv;
              }
              if (need_x) {
                float dot = 0.0f;  // sum_j gy_j * w_j * x_j
                for (int j = 0; j < d; ++j) dot += gy[j] * wi->data[j] * xp[j];
                const float scale = dot * inv * inv * inv / d;
                float* gx = xi->grad.data() + r * d;
                for (int j = 0; j < d; ++j) {
                  gx[j] += gy[j] * wi->data[j] * inv - xp[j] * scale;
                }
              }
            }
          });
      if (need_w) {
        for (int64_t c = 0; c < nchunks; ++c) {
          const float* wp = wpartial.data() + c * d;
          for (int j = 0; j < d; ++j) wi->grad[j] += wp[j];
        }
      }
    };
  }
  return result;
}

Tensor LayerNorm(const Tensor& x, const Tensor& gain, const Tensor& bias,
                 float eps) {
  const int d = x.dim(-1);
  VIST5_CHECK_EQ(gain.NumElements(), d);
  VIST5_CHECK_EQ(bias.NumElements(), d);
  const int64_t rows = x.NumElements() / d;
  std::vector<float> out(x.data().size());
  std::vector<float> inv_std(static_cast<size_t>(rows));
  std::vector<float> means(static_cast<size_t>(rows));
  const float* xdata = x.data().data();
  const float* gdata = gain.data().data();
  const float* bdata = bias.data().data();
  rt::ParallelFor(RowOpGrain(d), 0, rows, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      LayerNormRow(xdata + r * d, gdata, bdata, out.data() + r * d, d, eps,
                   &means[static_cast<size_t>(r)],
                   &inv_std[static_cast<size_t>(r)]);
    }
  });
  auto xi = x.impl();
  auto gi = gain.impl();
  auto bi = bias.impl();
  Tensor result =
      MakeResult(x.shape(), std::move(out), {x, gain, bias}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [xi, gi, bi, ri, rows, d,
                                  inv_std = std::move(inv_std),
                                  means = std::move(means)]() {
      const bool need_x = xi->requires_grad;
      const bool need_g = gi->requires_grad;
      const bool need_b = bi->requires_grad;
      if (need_x) xi->EnsureGrad();
      if (need_g) gi->EnsureGrad();
      if (need_b) bi->EnsureGrad();
      // Same fixed-order chunk-scratch reduction as RmsNorm's backward:
      // gain/bias grads sum over rows, so each chunk owns a scratch slot
      // and the slots fold serially in chunk order.
      const int64_t grain = RowOpGrain(d);
      const int64_t nchunks = rt::NumChunks(grain, 0, rows);
      std::vector<float> gpartial(
          need_g ? static_cast<size_t>(nchunks) * d : 0, 0.0f);
      std::vector<float> bpartial(
          need_b ? static_cast<size_t>(nchunks) * d : 0, 0.0f);
      rt::ParallelForChunked(
          grain, 0, rows, [&](int64_t chunk, int64_t lo, int64_t hi) {
            float* gp = need_g ? gpartial.data() + chunk * d : nullptr;
            float* bp = need_b ? bpartial.data() + chunk * d : nullptr;
            for (int64_t r = lo; r < hi; ++r) {
              const float inv = inv_std[static_cast<size_t>(r)];
              const float mean = means[static_cast<size_t>(r)];
              const float* xp = xi->data.data() + r * d;
              const float* gy = ri->grad.data() + r * d;
              if (need_g) {
                for (int j = 0; j < d; ++j)
                  gp[j] += gy[j] * (xp[j] - mean) * inv;
              }
              if (need_b) {
                for (int j = 0; j < d; ++j) bp[j] += gy[j];
              }
              if (need_x) {
                // Let xhat = (x - mean) * inv, dy' = gy * gain.
                float sum_dy = 0.0f;
                float sum_dy_xhat = 0.0f;
                for (int j = 0; j < d; ++j) {
                  const float dyj = gy[j] * gi->data[j];
                  const float xhat = (xp[j] - mean) * inv;
                  sum_dy += dyj;
                  sum_dy_xhat += dyj * xhat;
                }
                float* gx = xi->grad.data() + r * d;
                for (int j = 0; j < d; ++j) {
                  const float dyj = gy[j] * gi->data[j];
                  const float xhat = (xp[j] - mean) * inv;
                  gx[j] += inv * (dyj - sum_dy / d - xhat * sum_dy_xhat / d);
                }
              }
            }
          });
      for (int64_t c = 0; c < nchunks; ++c) {
        if (need_g) {
          const float* gp = gpartial.data() + c * d;
          for (int j = 0; j < d; ++j) gi->grad[j] += gp[j];
        }
        if (need_b) {
          const float* bp = bpartial.data() + c * d;
          for (int j = 0; j < d; ++j) bi->grad[j] += bp[j];
        }
      }
    };
  }
  return result;
}

Tensor Sigmoid(const Tensor& x) {
  std::vector<float> out(x.data().size());
  ParallelElems(static_cast<int64_t>(out.size()), [&](int64_t i) {
    out[i] = 1.0f / (1.0f + std::exp(-x.data()[i]));
  });
  auto xi = x.impl();
  Tensor result = MakeResult(x.shape(), std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [xi, ri]() {
      xi->EnsureGrad();
      ParallelElems(static_cast<int64_t>(ri->grad.size()), [&](int64_t i) {
        const float y = ri->data[i];
        xi->grad[i] += ri->grad[i] * y * (1.0f - y);
      });
    };
  }
  return result;
}

Tensor Tanh(const Tensor& x) {
  std::vector<float> out(x.data().size());
  ParallelElems(static_cast<int64_t>(out.size()),
                [&](int64_t i) { out[i] = std::tanh(x.data()[i]); });
  auto xi = x.impl();
  Tensor result = MakeResult(x.shape(), std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [xi, ri]() {
      xi->EnsureGrad();
      ParallelElems(static_cast<int64_t>(ri->grad.size()), [&](int64_t i) {
        const float y = ri->data[i];
        xi->grad[i] += ri->grad[i] * (1.0f - y * y);
      });
    };
  }
  return result;
}

Tensor Transpose2D(const Tensor& x) {
  VIST5_CHECK_EQ(x.ndim(), 2);
  const int m = x.dim(0);
  const int n = x.dim(1);
  std::vector<float> out(x.data().size());
  rt::ParallelFor(RowOpGrain(n), 0, m, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int j = 0; j < n; ++j) {
        out[static_cast<size_t>(j) * m + i] =
            x.data()[static_cast<size_t>(i) * n + j];
      }
    }
  });
  auto xi = x.impl();
  Tensor result = MakeResult({n, m}, std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [xi, ri, m, n]() {
      xi->EnsureGrad();
      rt::ParallelFor(RowOpGrain(n), 0, m, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          for (int j = 0; j < n; ++j) {
            xi->grad[static_cast<size_t>(i) * n + j] +=
                ri->grad[static_cast<size_t>(j) * m + i];
          }
        }
      });
    };
  }
  return result;
}

Tensor Relu(const Tensor& x) {
  std::vector<float> out(x.data().size());
  ParallelElems(static_cast<int64_t>(out.size()), [&](int64_t i) {
    out[i] = x.data()[i] > 0.0f ? x.data()[i] : 0.0f;
  });
  auto xi = x.impl();
  Tensor result = MakeResult(x.shape(), std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [xi, ri]() {
      xi->EnsureGrad();
      ParallelElems(static_cast<int64_t>(ri->grad.size()), [&](int64_t i) {
        if (xi->data[i] > 0.0f) xi->grad[i] += ri->grad[i];
      });
    };
  }
  return result;
}

Tensor Gelu(const Tensor& x) {
  std::vector<float> out(x.data().size());
  const float* xdata = x.data().data();
  float* odata = out.data();
  rt::ParallelFor(kElemGrain, 0, static_cast<int64_t>(out.size()),
                  [&](int64_t lo, int64_t hi) {
                    GeluElems(xdata + lo, odata + lo, hi - lo);
                  });
  auto xi = x.impl();
  Tensor result = MakeResult(x.shape(), std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [xi, ri]() {
      xi->EnsureGrad();
      constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
      ParallelElems(static_cast<int64_t>(ri->grad.size()), [&](int64_t i) {
        const float v = xi->data[i];
        const float u = kC * (v + 0.044715f * v * v * v);
        const float t = std::tanh(u);
        const float du = kC * (1.0f + 3.0f * 0.044715f * v * v);
        const float grad = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
        xi->grad[i] += ri->grad[i] * grad;
      });
    };
  }
  return result;
}

Tensor Dropout(const Tensor& x, float p, Rng* rng) {
  if (p <= 0.0f || !GradEnabled()) return x;
  VIST5_CHECK_LT(p, 1.0f);
  const float keep_scale = 1.0f / (1.0f - p);
  std::vector<float> mask(x.data().size());
  std::vector<float> out(x.data().size());
  for (size_t i = 0; i < out.size(); ++i) {
    mask[i] = rng->Bernoulli(p) ? 0.0f : keep_scale;
    out[i] = x.data()[i] * mask[i];
  }
  auto xi = x.impl();
  Tensor result = MakeResult(x.shape(), std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [xi, ri, mask = std::move(mask)]() {
      xi->EnsureGrad();
      for (size_t i = 0; i < ri->grad.size(); ++i)
        xi->grad[i] += ri->grad[i] * mask[i];
    };
  }
  return result;
}

Tensor Embedding(const Tensor& table, const std::vector<int>& ids) {
  VIST5_CHECK_EQ(table.ndim(), 2);
  const int vocab = table.dim(0);
  const int d = table.dim(1);
  const int n = static_cast<int>(ids.size());
  std::vector<float> out(static_cast<size_t>(n) * d);
  for (int i = 0; i < n; ++i) {
    VIST5_CHECK_GE(ids[i], 0);
    VIST5_CHECK_LT(ids[i], vocab);
  }
  rt::ParallelFor(RowOpGrain(d), 0, n, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      std::copy_n(
          table.data().data() + static_cast<size_t>(ids[i]) * d, d,
          out.data() + static_cast<size_t>(i) * d);
    }
  });
  auto ti = table.impl();
  Tensor result = MakeResult({n, d}, std::move(out), {table}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [ti, ri, ids, d]() {
      ti->EnsureGrad();
      // Scatter-add stays serial: repeated ids (padding, common tokens)
      // collide on the same table row, so a parallel version would need
      // atomics or a sort — and either breaks the fixed accumulation order.
      for (size_t i = 0; i < ids.size(); ++i) {
        float* dst = ti->grad.data() + static_cast<size_t>(ids[i]) * d;
        const float* src = ri->grad.data() + i * d;
        for (int j = 0; j < d; ++j) dst[j] += src[j];
      }
    };
  }
  return result;
}

Tensor CrossEntropyLoss(const Tensor& logits, const std::vector<int>& targets,
                        int ignore_index) {
  VIST5_CHECK_EQ(logits.ndim(), 2);
  const int n = logits.dim(0);
  const int v = logits.dim(1);
  VIST5_CHECK_EQ(static_cast<int>(targets.size()), n);
  // Forward: stable log-softmax + NLL; store softmax probabilities for the
  // backward pass. Rows are independent (parallel); the scalar loss is then
  // folded serially in row order, so the sum never depends on scheduling.
  std::vector<float> probs(logits.data().size());
  std::vector<float> nll(static_cast<size_t>(n), 0.0f);
  for (int i = 0; i < n; ++i) {
    if (targets[i] != ignore_index) {
      VIST5_CHECK_GE(targets[i], 0);
      VIST5_CHECK_LT(targets[i], v);
    }
  }
  const float* ldata = logits.data().data();
  rt::ParallelFor(RowOpGrain(v), 0, n, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* row = ldata + static_cast<size_t>(i) * v;
      float* prow = probs.data() + static_cast<size_t>(i) * v;
      float maxv = row[0];
      for (int j = 1; j < v; ++j) maxv = std::max(maxv, row[j]);
      float sum = 0.0f;
      for (int j = 0; j < v; ++j) {
        prow[j] = std::exp(row[j] - maxv);
        sum += prow[j];
      }
      const float inv = 1.0f / sum;
      for (int j = 0; j < v; ++j) prow[j] *= inv;
      if (targets[static_cast<size_t>(i)] != ignore_index) {
        nll[static_cast<size_t>(i)] = std::log(
            std::max(prow[targets[static_cast<size_t>(i)]], 1e-12f));
      }
    }
  });
  double loss = 0.0;
  int count = 0;
  for (int i = 0; i < n; ++i) {
    if (targets[i] != ignore_index) {
      loss -= nll[static_cast<size_t>(i)];
      ++count;
    }
  }
  const float mean = count > 0 ? static_cast<float>(loss / count) : 0.0f;
  auto li = logits.impl();
  Tensor result = MakeResult({1}, {mean}, {logits}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [li, ri, targets, ignore_index, n, v, count,
                                  probs = std::move(probs)]() {
      if (count == 0) return;
      li->EnsureGrad();
      const float gscale = ri->grad[0] / count;
      rt::ParallelFor(RowOpGrain(v), 0, n, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          if (targets[static_cast<size_t>(i)] == ignore_index) continue;
          const float* prow = probs.data() + static_cast<size_t>(i) * v;
          float* grow = li->grad.data() + static_cast<size_t>(i) * v;
          for (int j = 0; j < v; ++j) grow[j] += gscale * prow[j];
          grow[targets[static_cast<size_t>(i)]] -= gscale;
        }
      });
    };
  }
  return result;
}

Tensor Reshape(const Tensor& x, std::vector<int> new_shape) {
  int64_t n = 1;
  for (int d : new_shape) n *= d;
  VIST5_CHECK_EQ(n, x.NumElements());
  auto xi = x.impl();
  Tensor result =
      MakeResult(std::move(new_shape), x.data(), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [xi, ri]() {
      xi->EnsureGrad();
      for (size_t i = 0; i < ri->grad.size(); ++i)
        xi->grad[i] += ri->grad[i];
    };
  }
  return result;
}

Tensor SplitHeads(const Tensor& x, int batch, int seq, int heads) {
  VIST5_CHECK_EQ(x.ndim(), 2);
  VIST5_CHECK_EQ(x.dim(0), batch * seq);
  const int d = x.dim(1);
  VIST5_CHECK_EQ(d % heads, 0);
  const int dh = d / heads;
  std::vector<float> out(x.data().size());
  // [b, t, h, dh] -> [b, h, t, dh]; each flattened (b, t) row is disjoint in
  // both source and destination, so the copy parallelizes over rows.
  rt::ParallelFor(
      RowOpGrain(d), 0, static_cast<int64_t>(batch) * seq,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const int b = static_cast<int>(r / seq);
          const int t = static_cast<int>(r % seq);
          const float* src =
              x.data().data() + (static_cast<size_t>(b) * seq + t) * d;
          for (int h = 0; h < heads; ++h) {
            float* dst =
                out.data() +
                (((static_cast<size_t>(b) * heads + h) * seq) + t) * dh;
            std::copy_n(src + static_cast<size_t>(h) * dh, dh, dst);
          }
        }
      });
  auto xi = x.impl();
  Tensor result =
      MakeResult({batch, heads, seq, dh}, std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [xi, ri, batch, seq, heads, dh, d]() {
      xi->EnsureGrad();
      rt::ParallelFor(
          RowOpGrain(d), 0, static_cast<int64_t>(batch) * seq,
          [&](int64_t lo, int64_t hi) {
            for (int64_t r = lo; r < hi; ++r) {
              const int b = static_cast<int>(r / seq);
              const int t = static_cast<int>(r % seq);
              float* dst =
                  xi->grad.data() + (static_cast<size_t>(b) * seq + t) * d;
              for (int h = 0; h < heads; ++h) {
                const float* src =
                    ri->grad.data() +
                    (((static_cast<size_t>(b) * heads + h) * seq) + t) * dh;
                for (int j = 0; j < dh; ++j)
                  dst[static_cast<size_t>(h) * dh + j] += src[j];
              }
            }
          });
    };
  }
  return result;
}

Tensor MergeHeads(const Tensor& x) {
  VIST5_CHECK_EQ(x.ndim(), 4);
  const int batch = x.dim(0);
  const int heads = x.dim(1);
  const int seq = x.dim(2);
  const int dh = x.dim(3);
  const int d = heads * dh;
  std::vector<float> out(x.data().size());
  // Inverse layout shuffle of SplitHeads, parallel over the same (b, t) row
  // space — each flattened row gathers its `heads` source slices.
  rt::ParallelFor(
      RowOpGrain(d), 0, static_cast<int64_t>(batch) * seq,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const int b = static_cast<int>(r / seq);
          const int t = static_cast<int>(r % seq);
          for (int h = 0; h < heads; ++h) {
            const float* src =
                x.data().data() +
                (((static_cast<size_t>(b) * heads + h) * seq) + t) * dh;
            float* dst = out.data() + (static_cast<size_t>(b) * seq + t) * d +
                         static_cast<size_t>(h) * dh;
            std::copy_n(src, dh, dst);
          }
        }
      });
  auto xi = x.impl();
  Tensor result = MakeResult({batch * seq, d}, std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [xi, ri, batch, heads, seq, dh, d]() {
      xi->EnsureGrad();
      rt::ParallelFor(
          RowOpGrain(d), 0, static_cast<int64_t>(batch) * seq,
          [&](int64_t lo, int64_t hi) {
            for (int64_t r = lo; r < hi; ++r) {
              const int b = static_cast<int>(r / seq);
              const int t = static_cast<int>(r % seq);
              for (int h = 0; h < heads; ++h) {
                float* dst =
                    xi->grad.data() +
                    (((static_cast<size_t>(b) * heads + h) * seq) + t) * dh;
                const float* src = ri->grad.data() +
                                   (static_cast<size_t>(b) * seq + t) * d +
                                   static_cast<size_t>(h) * dh;
                for (int j = 0; j < dh; ++j) dst[j] += src[j];
              }
            }
          });
    };
  }
  return result;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  VIST5_CHECK(!parts.empty());
  const int d = parts[0].dim(1);
  int total = 0;
  for (const Tensor& p : parts) {
    VIST5_CHECK_EQ(p.ndim(), 2);
    VIST5_CHECK_EQ(p.dim(1), d);
    total += p.dim(0);
  }
  std::vector<float> out;
  out.reserve(static_cast<size_t>(total) * d);
  for (const Tensor& p : parts) {
    out.insert(out.end(), p.data().begin(), p.data().end());
  }
  Tensor result = MakeResult({total, d}, std::move(out), parts, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    std::vector<std::shared_ptr<TensorImpl>> impls;
    for (const Tensor& p : parts) impls.push_back(p.impl());
    result.impl()->backward_fn = [impls, ri]() {
      size_t offset = 0;
      for (auto& pi : impls) {
        if (pi->requires_grad) {
          pi->EnsureGrad();
          for (size_t i = 0; i < pi->data.size(); ++i)
            pi->grad[i] += ri->grad[offset + i];
        }
        offset += pi->data.size();
      }
    };
  }
  return result;
}

Tensor GatherRows(const Tensor& x, const std::vector<int>& rows) {
  VIST5_CHECK_EQ(x.ndim(), 2);
  const int d = x.dim(1);
  const int n = static_cast<int>(rows.size());
  std::vector<float> out(static_cast<size_t>(n) * d);
  for (int i = 0; i < n; ++i) {
    VIST5_CHECK_GE(rows[i], 0);
    VIST5_CHECK_LT(rows[i], x.dim(0));
    std::copy_n(x.data().data() + static_cast<size_t>(rows[i]) * d, d,
                out.data() + static_cast<size_t>(i) * d);
  }
  auto xi = x.impl();
  Tensor result = MakeResult({n, d}, std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [xi, ri, rows, d]() {
      xi->EnsureGrad();
      for (size_t i = 0; i < rows.size(); ++i) {
        float* dst = xi->grad.data() + static_cast<size_t>(rows[i]) * d;
        const float* src = ri->grad.data() + i * d;
        for (int j = 0; j < d; ++j) dst[j] += src[j];
      }
    };
  }
  return result;
}

Tensor Sum(const Tensor& x) {
  double total = 0.0;
  for (float v : x.data()) total += v;
  auto xi = x.impl();
  Tensor result =
      MakeResult({1}, {static_cast<float>(total)}, {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ri = result.impl().get();
    result.impl()->backward_fn = [xi, ri]() {
      xi->EnsureGrad();
      for (size_t i = 0; i < xi->grad.size(); ++i)
        xi->grad[i] += ri->grad[0];
    };
  }
  return result;
}

}  // namespace ops
}  // namespace vist5
