// Scalar reference backend for the GEMM row kernels (docs/KERNELS.md).
//
// This translation unit is compiled with strict IEEE flags — no fast-math,
// -ffp-contract=off, auto-vectorization disabled (see
// src/tensor/CMakeLists.txt) — so every loop below executes the literal
// source-order accumulation. That makes this backend the determinism
// *reference*: the AVX2 backend's NN kernels must reproduce these bits
// exactly (each output element is an explicit std::fma chain over p
// ascending, which vectorizing across j preserves), and its NT kernel must
// stay within the tolerance contract pinned in tests/determinism_test.cc.
//
// Every kernel computes whole output rows, so the parallel dispatch can
// block across rows while each row's accumulation order stays exactly the
// serial order — the determinism contract of docs/PARALLELISM.md: thread
// count changes which thread computes a row, never the arithmetic inside
// it.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "tensor/simd.h"

namespace vist5 {
namespace tensor {
namespace simd {
namespace {

// One NB-wide column block of one GemmNNZeroRows row: acc[j] accumulates
// over p ascending in registers, then stores (times the column scale for
// int8 weights, which convert to float exactly).
//
// Every accumulation is an explicit std::fma. The hard fma chain pins
// every output element to one rounding sequence, so the incremental,
// batched and full decode paths stay interchangeable (docs/SERVING.md) —
// and the AVX2 backend, which runs the same chain eight columns and up to
// eight rows at a time, matches it as well.
template <int NB, typename W>
inline int RowNNBlock(const float* arow, const W* b, const float* scales,
                      float* crow, int k, int n, int ldb, int j0) {
  for (; j0 + NB <= n; j0 += NB) {
    float acc[NB] = {};
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      const W* brow = b + static_cast<size_t>(p) * ldb + j0;
      for (int j = 0; j < NB; ++j) {
        acc[j] = std::fma(av, static_cast<float>(brow[j]), acc[j]);
      }
    }
    for (int j = 0; j < NB; ++j) {
      if constexpr (std::is_same_v<W, int8_t>) acc[j] *= scales[j0 + j];
      crow[j0 + j] = acc[j];
    }
  }
  return j0;
}

// c[rows,N] = a[rows,K] * B[K,N], one row at a time, each row
// register-blocked by columns. B and C rows sit `ldb` and `ldc` floats
// apart, so a column slice reads its packed block and writes its columns
// of a wider C. With auto-vectorization off, a multi-row register tile
// runs no faster than this loop (docs/KERNELS.md, "Measured").
template <typename W>
void GemmNNZeroRows(const float* a, const W* b, const float* scales,
                    float* c, int rows, int k, int n, int ldb, int ldc) {
  for (int r = 0; r < rows; ++r) {
    const float* arow = a + static_cast<size_t>(r) * k;
    float* crow = c + static_cast<size_t>(r) * ldc;
    int j0 = RowNNBlock<16>(arow, b, scales, crow, k, n, ldb, 0);
    j0 = RowNNBlock<8>(arow, b, scales, crow, k, n, ldb, j0);
    RowNNBlock<1>(arow, b, scales, crow, k, n, ldb, j0);
  }
}

void GemmNNZero(const float* a, const float* b, float* c, int rows, int k,
                int n, int ldb, int ldc) {
  GemmNNZeroRows(a, b, nullptr, c, rows, k, n, ldb, ldc);
}

// c[rows,N] += a[rows,K] * B[N,K]^T  (rows of B are the columns of the
// product)
//
// Deliberately one uniform loop body: giving the "same" dot product
// different bodies for different (n, m) would let the KV-cached decode
// paths — which call this with growing tk (sequential) vs preallocated tk
// (batched) — produce different bits for identical logical dots, breaking
// the serving parity contract (docs/SERVING.md). Keep every NT dot on this
// single body. Under this TU's strict flags the reduction is the exact
// left-to-right IEEE sum — the reference the AVX2 lane-split reduction is
// toleranced against (docs/KERNELS.md).
void GemmNT(const float* a, const float* b, float* c, int rows, int k,
            int n) {
  for (int r = 0; r < rows; ++r) {
    const float* arow = a + static_cast<size_t>(r) * k;
    float* crow = c + static_cast<size_t>(r) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<size_t>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

const KernelSet kScalarKernels = {
    &GemmNT,
    &GemmNNZero,
    &GemmNNZeroRows<int8_t>,
};

}  // namespace

namespace detail {
const KernelSet* ScalarKernelSet() { return &kScalarKernels; }
}  // namespace detail

}  // namespace simd
}  // namespace tensor
}  // namespace vist5
