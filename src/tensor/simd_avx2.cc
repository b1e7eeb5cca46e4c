// AVX2+FMA backend for the GEMM row kernels (docs/KERNELS.md).
//
// Compiled into every build via per-function target attributes — no
// -mavx2 global flag — and selected at runtime by CPUID dispatch
// (simd.cc), so one binary runs everywhere and picks the wide kernels
// only where they can execute.
//
// Parity model (pinned by tests/determinism_test.cc):
//  - NN kernels vectorize across *columns* while each output element keeps
//    the scalar backend's exact fma chain over p ascending, so their
//    results are BIT-IDENTICAL to the scalar reference.
//  - The NT dot product vectorizes across *k* (an 8-lane reduction plus a
//    fixed-shape horizontal sum), which reorders the additions; its
//    results carry a bounded rounding difference vs the scalar
//    left-to-right sum — the tolerance contract of docs/KERNELS.md.
//  - int8 kernels widen the int8 lanes to float (exact) and run the same
//    fma chain as the scalar int8 kernels: bit-identical.

#include "tensor/simd.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#define VIST5_AVX2 __attribute__((target("avx2,fma")))

namespace vist5 {
namespace tensor {
namespace simd {
namespace {

// Deterministic horizontal sum of one __m256: lane i adds to lane i+4,
// then the classic movehl/shuffle pairwise tree. Fixed shape, so the same
// k always reduces in the same order.
VIST5_AVX2 inline float HSum(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

// c[rows,N] += a[rows,K] · B[N,K]^T, one row at a time. Eight k-lanes
// accumulate in parallel per output column, then reduce; the scalar
// remainder accumulates separately and joins at the end. Single uniform
// body for every (k, n) — the same "one reduction shape per dot" rule the
// scalar backend follows, so growing-tk (sequential) and preallocated-tk
// (batched) decode paths see identical bits *within* this backend
// (docs/SERVING.md).
VIST5_AVX2 void GemmNT(const float* a, const float* b, float* c, int rows,
                       int k, int n) {
  for (int r = 0; r < rows; ++r) {
    const float* arow = a + static_cast<size_t>(r) * k;
    float* crow = c + static_cast<size_t>(r) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<size_t>(j) * k;
      __m256 acc = _mm256_setzero_ps();
      int p = 0;
      for (; p + 8 <= k; p += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p),
                              _mm256_loadu_ps(brow + p), acc);
      }
      float tail = 0.0f;
      for (; p < k; ++p) tail += arow[p] * brow[p];
      crow[j] += HSum(acc) + tail;
    }
  }
}

// Widens eight consecutive int8 weights to a float vector. The int8 range
// [-127, 127] converts exactly, so lane values equal the scalar kernels'
// static_cast<float>(int8).
VIST5_AVX2 inline __m256 LoadI8AsFloat(const int8_t* p) {
  const __m128i raw = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
}

// Eight consecutive weights of B as floats, for either weight dtype.
VIST5_AVX2 inline __m256 LoadB8(const float* p) { return _mm256_loadu_ps(p); }
VIST5_AVX2 inline __m256 LoadB8(const int8_t* p) { return LoadI8AsFloat(p); }

// Columns [j0, j0 + 8*S) of c[R,N] = a[R,K] · B[K,N]: R rows times S
// adjacent 8-column strips, R*S accumulators. One accumulator alone is
// latency-bound, since each fma waits for the previous one; R*S
// independent chains keep the FMA units busy (docs/KERNELS.md, "Small-M
// products"). Every lane still runs the scalar backend's exact chain
// acc = fma(a[r][p], b[p][j], acc) over p ascending from zero, so the
// result is bit-identical to it. int8 weights are widened exactly and
// their column scales multiply once at store, as in the scalar kernels.
template <int R, int S, typename W>
VIST5_AVX2 inline void NNBlock(const float* a, const W* b, const float* scales,
                               float* c, int k, int n, int j0) {
  __m256 acc[R][S];
  for (int r = 0; r < R; ++r) {
    for (int s = 0; s < S; ++s) acc[r][s] = _mm256_setzero_ps();
  }
  for (int p = 0; p < k; ++p) {
    const W* bp = b + static_cast<size_t>(p) * n + j0;
    __m256 bv[S];
    for (int s = 0; s < S; ++s) bv[s] = LoadB8(bp + 8 * s);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(a[static_cast<size_t>(r) * k + p]);
      for (int s = 0; s < S; ++s) {
        acc[r][s] = _mm256_fmadd_ps(av, bv[s], acc[r][s]);
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = c + static_cast<size_t>(r) * n + j0;
    for (int s = 0; s < S; ++s) {
      __m256 v = acc[r][s];
      if constexpr (std::is_same_v<W, int8_t>) {
        v = _mm256_mul_ps(v, _mm256_loadu_ps(scales + j0 + 8 * s));
      }
      _mm256_storeu_ps(crow + 8 * s, v);
    }
  }
}

// Columns [j0, N) of `rows` output rows, one scalar fma chain each.
template <typename W>
VIST5_AVX2 inline void NNTail(const float* a, const W* b, const float* scales,
                              float* c, int rows, int k, int n, int j0) {
  for (int r = 0; r < rows; ++r) {
    const float* arow = a + static_cast<size_t>(r) * k;
    float* crow = c + static_cast<size_t>(r) * n;
    for (int j = j0; j < n; ++j) {
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) {
        acc = std::fma(
            arow[p], static_cast<float>(b[static_cast<size_t>(p) * n + j]),
            acc);
      }
      if constexpr (std::is_same_v<W, int8_t>) acc *= scales[j];
      crow[j] = acc;
    }
  }
}

// Columns [j0, N) of R rows: S-strip blocks while they fit, then at most
// one block each of S/2, S/4, ..., 1 strips, then the scalar tail. With
// S = 8/R every full block runs eight fma chains at once.
template <int R, int S, typename W>
VIST5_AVX2 inline void NNStrips(const float* a, const W* b,
                                const float* scales, float* c, int k, int n,
                                int j0) {
  for (; j0 + 8 * S <= n; j0 += 8 * S) {
    NNBlock<R, S>(a, b, scales, c, k, n, j0);
  }
  if constexpr (S > 1) {
    NNStrips<R, S / 2>(a, b, scales, c, k, n, j0);
  } else {
    NNTail(a, b, scales, c, R, k, n, j0);
  }
}

// c[rows,N] = a[rows,K] · B[K,N]: blocks of 8 rows, then 4, then 1, each
// block sharing one B load across its rows (docs/KERNELS.md, "Small-M
// products"). Which block a row lands in never changes its bits.
template <typename W>
VIST5_AVX2 void NNRows(const float* a, const W* b, const float* scales,
                       float* c, int rows, int k, int n) {
  int r = 0;
  for (; r + kTileRows <= rows; r += kTileRows) {
    NNStrips<kTileRows, 1>(a + static_cast<size_t>(r) * k, b, scales,
                           c + static_cast<size_t>(r) * n, k, n, 0);
  }
  for (; r + 4 <= rows; r += 4) {
    NNStrips<4, 2>(a + static_cast<size_t>(r) * k, b, scales,
                   c + static_cast<size_t>(r) * n, k, n, 0);
  }
  for (; r < rows; ++r) {
    NNStrips<1, 8>(a + static_cast<size_t>(r) * k, b, scales,
                   c + static_cast<size_t>(r) * n, k, n, 0);
  }
}

VIST5_AVX2 void GemmNNZero(const float* a, const float* b, float* c, int rows,
                           int k, int n) {
  NNRows(a, b, nullptr, c, rows, k, n);
}

const KernelSet kAvx2Kernels = {
    &GemmNT,
    &GemmNNZero,
    &NNRows<int8_t>,
};

}  // namespace

namespace detail {
const KernelSet* Avx2KernelSet() { return &kAvx2Kernels; }
}  // namespace detail

}  // namespace simd
}  // namespace tensor
}  // namespace vist5

#else  // !x86

namespace vist5 {
namespace tensor {
namespace simd {
namespace detail {
const KernelSet* Avx2KernelSet() { return nullptr; }
}  // namespace detail
}  // namespace simd
}  // namespace tensor
}  // namespace vist5

#endif
