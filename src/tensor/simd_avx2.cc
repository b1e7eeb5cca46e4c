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

// Transposes eight vectors: afterwards lane c of v[i] holds what lane i of
// v[c] held.
VIST5_AVX2 inline void Transpose8(__m256 v[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
  const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
  const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
  const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
  const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
  const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
  const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
  const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  v[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  v[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  v[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  v[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  v[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  v[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  v[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  v[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

// c[rows,N] += a[rows,K] · B[N,K]^T, one row at a time. Each output column
// runs one dot: eight k-lanes accumulate in one fma chain, the scalar
// remainder accumulates separately, and HSum's fixed tree joins the lanes
// before the remainder joins them. Columns go eight per pass, sharing each
// load of the A row; the pass applies HSum's tree to all eight at once,
// vertically, after a transpose, so every column rounds exactly as the
// one-column body that runs the leftover columns does. A column's bits
// therefore depend only on its A row, its B row and k — never on n or on
// where the column falls — so growing-tk (sequential) and preallocated-tk
// (batched) decode paths see identical bits *within* this backend
// (docs/SERVING.md).
VIST5_AVX2 void GemmNT(const float* a, const float* b, float* c, int rows,
                       int k, int n) {
  const int k8 = k & ~7;
  for (int r = 0; r < rows; ++r) {
    const float* arow = a + static_cast<size_t>(r) * k;
    float* crow = c + static_cast<size_t>(r) * n;
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      const float* b0 = b + static_cast<size_t>(j) * k;
      __m256 acc[8];
      for (int s = 0; s < 8; ++s) acc[s] = _mm256_setzero_ps();
      for (int p = 0; p < k8; p += 8) {
        const __m256 av = _mm256_loadu_ps(arow + p);
        for (int s = 0; s < 8; ++s) {
          acc[s] = _mm256_fmadd_ps(
              av, _mm256_loadu_ps(b0 + static_cast<size_t>(s) * k + p),
              acc[s]);
        }
      }
      alignas(32) float tail[8];
      for (int s = 0; s < 8; ++s) {
        const float* brow = b0 + static_cast<size_t>(s) * k;
        float t = 0.0f;
        for (int p = k8; p < k; ++p) t += arow[p] * brow[p];
        tail[s] = t;
      }
      // HSum(v) = ((v0 + v4) + (v2 + v6)) + ((v1 + v5) + (v3 + v7)).
      Transpose8(acc);
      const __m256 sum = _mm256_add_ps(
          _mm256_add_ps(_mm256_add_ps(acc[0], acc[4]),
                        _mm256_add_ps(acc[2], acc[6])),
          _mm256_add_ps(_mm256_add_ps(acc[1], acc[5]),
                        _mm256_add_ps(acc[3], acc[7])));
      _mm256_storeu_ps(
          crow + j, _mm256_add_ps(_mm256_loadu_ps(crow + j),
                                  _mm256_add_ps(sum, _mm256_load_ps(tail))));
    }
    for (; j < n; ++j) {
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
                               float* c, int k, int ldb, int ldc, int j0) {
  __m256 acc[R][S];
  for (int r = 0; r < R; ++r) {
    for (int s = 0; s < S; ++s) acc[r][s] = _mm256_setzero_ps();
  }
  for (int p = 0; p < k; ++p) {
    const W* bp = b + static_cast<size_t>(p) * ldb + j0;
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
    float* crow = c + static_cast<size_t>(r) * ldc + j0;
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
                              float* c, int rows, int k, int n, int ldb,
                              int ldc, int j0) {
  for (int r = 0; r < rows; ++r) {
    const float* arow = a + static_cast<size_t>(r) * k;
    float* crow = c + static_cast<size_t>(r) * ldc;
    for (int j = j0; j < n; ++j) {
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) {
        acc = std::fma(
            arow[p], static_cast<float>(b[static_cast<size_t>(p) * ldb + j]),
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
                                int ldb, int ldc, int j0) {
  for (; j0 + 8 * S <= n; j0 += 8 * S) {
    NNBlock<R, S>(a, b, scales, c, k, ldb, ldc, j0);
  }
  if constexpr (S > 1) {
    NNStrips<R, S / 2>(a, b, scales, c, k, n, ldb, ldc, j0);
  } else {
    NNTail(a, b, scales, c, R, k, n, ldb, ldc, j0);
  }
}

// c[rows,N] = a[rows,K] · B[K,N]: blocks of 8 rows, then 4, then 1, each
// block sharing one B load across its rows (docs/KERNELS.md, "Small-M
// products"). B and C rows sit `ldb` and `ldc` elements apart, so a
// column slice reads its packed block and writes its columns of a wider C.
// Which block a row or column lands in never changes its bits.
template <typename W>
VIST5_AVX2 void NNRows(const float* a, const W* b, const float* scales,
                       float* c, int rows, int k, int n, int ldb, int ldc) {
  int r = 0;
  for (; r + kTileRows <= rows; r += kTileRows) {
    NNStrips<kTileRows, 1>(a + static_cast<size_t>(r) * k, b, scales,
                           c + static_cast<size_t>(r) * ldc, k, n, ldb, ldc,
                           0);
  }
  for (; r + 4 <= rows; r += 4) {
    NNStrips<4, 2>(a + static_cast<size_t>(r) * k, b, scales,
                   c + static_cast<size_t>(r) * ldc, k, n, ldb, ldc, 0);
  }
  for (; r < rows; ++r) {
    NNStrips<1, 8>(a + static_cast<size_t>(r) * k, b, scales,
                   c + static_cast<size_t>(r) * ldc, k, n, ldb, ldc, 0);
  }
}

VIST5_AVX2 void GemmNNZero(const float* a, const float* b, float* c, int rows,
                           int k, int n, int ldb, int ldc) {
  NNRows(a, b, nullptr, c, rows, k, n, ldb, ldc);
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
