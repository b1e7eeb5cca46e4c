// AddressSanitizer pass over the SIMD kernel backends (docs/KERNELS.md).
//
// The release tree compiles the kernels with -O3 and no sanitizer; this
// binary recompiles src/tensor/simd_{scalar,avx2}.cc under ASan (see
// tests/CMakeLists.txt) and drives every KernelSet entry point over
// exactly-sized heap allocations at shapes that straddle the shared-B
// tile width — so a vector tail that reads or writes one element past
// k or n surfaces as a hard heap-buffer-overflow report instead of a
// silent parity wobble. As a side check it re-verifies the cross-backend
// contract on the ASan build: NN and int8 kernels bit-identical,
// NT within the pinned bound.
//
// Plain main (no gtest): the binary must stay free of uninstrumented
// library code on the hot path so ASan interposes every allocation the
// kernels touch.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "tensor/simd.h"

namespace simd = vist5::tensor::simd;

namespace {

int g_failures = 0;

/// xorshift-based deterministic fill in [-1, 1); no <random> needed.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed * 2862933555777941757ULL + 1) {}
  float Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return static_cast<float>(static_cast<int64_t>(state_ % 2000) - 1000) /
           1000.0f;
  }

 private:
  uint64_t state_;
};

std::unique_ptr<float[]> RandomBuf(int64_t size, Lcg* rng) {
  auto buf = std::make_unique<float[]>(static_cast<size_t>(size));
  for (int64_t i = 0; i < size; ++i) buf[i] = rng->Next();
  return buf;
}

std::unique_ptr<int8_t[]> RandomI8Buf(int64_t size, Lcg* rng) {
  auto buf = std::make_unique<int8_t[]>(static_cast<size_t>(size));
  for (int64_t i = 0; i < size; ++i) {
    buf[i] = static_cast<int8_t>(static_cast<int>(rng->Next() * 127.0f));
  }
  return buf;
}

/// One backend's outputs for every kernel entry point at shape (k, n),
/// each in its own exactly-sized allocation.
struct KernelOutputs {
  std::unique_ptr<float[]> nt;      // [n]
  std::unique_ptr<float[]> nn1;     // [n]
  std::unique_ptr<float[]> nn4;     // [4, n]
  std::unique_ptr<float[]> nn8;     // [8, n]
  std::unique_ptr<float[]> i8_1;    // [n]
  std::unique_ptr<float[]> i8_4;    // [4, n]
  std::unique_ptr<float[]> i8_8;    // [8, n]
};

/// Shared operands for one shape, sized exactly so any out-of-bounds
/// kernel access trips ASan.
struct Operands {
  int k;
  int n;
  std::unique_ptr<float[]> a1;       // [1, k] — exact, so ASan sees a
  std::unique_ptr<float[]> a4;       // [4, k]   one-row overread too
  std::unique_ptr<float[]> a8;       // [8, k]
  std::unique_ptr<float[]> b_nn;     // [k, n]
  std::unique_ptr<float[]> b_nt;     // [n, k]
  std::unique_ptr<int8_t[]> b_i8;    // [k, n]
  std::unique_ptr<float[]> scales;   // [n]

  Operands(int k_in, int n_in, Lcg* rng) : k(k_in), n(n_in) {
    a1 = RandomBuf(k, rng);
    a4 = RandomBuf(4LL * k, rng);
    a8 = RandomBuf(8LL * k, rng);
    b_nn = RandomBuf(static_cast<int64_t>(k) * n, rng);
    b_nt = RandomBuf(static_cast<int64_t>(n) * k, rng);
    b_i8 = RandomI8Buf(static_cast<int64_t>(k) * n, rng);
    scales = RandomBuf(n, rng);
    for (int j = 0; j < n; ++j) scales[j] = std::fabs(scales[j]) / 64.0f;
  }
};

KernelOutputs Run(const simd::KernelSet& ks, const Operands& op) {
  const int k = op.k;
  const int n = op.n;
  KernelOutputs out;
  out.nt = std::make_unique<float[]>(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) out.nt[j] = 0.25f;  // NT accumulates
  ks.gemm_row_nt(op.a1.get(), op.b_nt.get(), out.nt.get(), k, n);

  out.nn1 = std::make_unique<float[]>(static_cast<size_t>(n));
  ks.gemm_row_nn_zero(op.a1.get(), op.b_nn.get(), out.nn1.get(), k, n);
  out.nn4 = std::make_unique<float[]>(static_cast<size_t>(4) * n);
  ks.gemm4_row_nn_zero(op.a4.get(), op.b_nn.get(), out.nn4.get(), k, n);
  out.nn8 = std::make_unique<float[]>(static_cast<size_t>(8) * n);
  ks.gemm8_row_nn_zero(op.a8.get(), op.b_nn.get(), out.nn8.get(), k, n);

  out.i8_1 = std::make_unique<float[]>(static_cast<size_t>(n));
  ks.gemm_row_nn_zero_i8(op.a1.get(), op.b_i8.get(), op.scales.get(),
                         out.i8_1.get(), k, n);
  out.i8_4 = std::make_unique<float[]>(static_cast<size_t>(4) * n);
  ks.gemm4_row_nn_zero_i8(op.a4.get(), op.b_i8.get(), op.scales.get(),
                          out.i8_4.get(), k, n);
  out.i8_8 = std::make_unique<float[]>(static_cast<size_t>(8) * n);
  ks.gemm8_row_nn_zero_i8(op.a8.get(), op.b_i8.get(), op.scales.get(),
                          out.i8_8.get(), k, n);
  return out;
}

void ExpectExact(const char* what, int k, int n, const float* ref,
                 const float* got, int64_t size) {
  for (int64_t i = 0; i < size; ++i) {
    if (ref[i] != got[i]) {
      std::fprintf(stderr,
                   "FAIL %s k=%d n=%d elem %lld: scalar %.9g avx2 %.9g "
                   "(expected bit-identical)\n",
                   what, k, n, static_cast<long long>(i),
                   static_cast<double>(ref[i]), static_cast<double>(got[i]));
      ++g_failures;
      return;
    }
  }
}

void ExpectNtBound(int k, int n, const float* ref, const float* got) {
  for (int j = 0; j < n; ++j) {
    const float bound = 1e-5f * (std::fabs(ref[j]) + 1.0f);
    if (!(std::fabs(ref[j] - got[j]) <= bound)) {
      std::fprintf(stderr,
                   "FAIL nt k=%d n=%d elem %d: scalar %.9g avx2 %.9g "
                   "exceeds pinned bound %.9g\n",
                   k, n, j, static_cast<double>(ref[j]),
                   static_cast<double>(got[j]), static_cast<double>(bound));
      ++g_failures;
      return;
    }
  }
}

}  // namespace

int main() {
  const simd::KernelSet* scalar = simd::detail::ScalarKernelSet();
  const simd::KernelSet* avx2 = simd::detail::Avx2KernelSet();
  const int tile = scalar->tile_width;
  std::printf("simd_asan_test: scalar tile_width=%d, avx2 %s\n", tile,
              avx2 != nullptr ? "available" : "unavailable on this host");

  Lcg rng(7);
  // k sweeps odd/even and sub-/super-lane lengths; n brackets the tile
  // width (tile - 1, tile, tile + 1), ragged multi-tile tails, and every
  // column block of the AVX2 1- and 4-row kernels (16, 32 and 64 wide; 128
  // is two 64-wide blocks) from one below to one above.
  const int ks[] = {1, 3, 8, 17, 64};
  const int ns[] = {1,  tile - 1, tile, tile + 1, 2 * tile, 2 * tile + 3,
                    15, 16,       17,   31,       32,       33,
                    63, 64,       65,   127,      128,      129};
  for (int k : ks) {
    for (int n : ns) {
      if (n <= 0) continue;
      Operands op(k, n, &rng);
      const KernelOutputs sc = Run(*scalar, op);
      if (avx2 == nullptr) continue;
      const KernelOutputs av = Run(*avx2, op);
      ExpectNtBound(k, n, sc.nt.get(), av.nt.get());
      ExpectExact("nn1", k, n, sc.nn1.get(), av.nn1.get(), n);
      ExpectExact("nn4", k, n, sc.nn4.get(), av.nn4.get(), 4LL * n);
      ExpectExact("nn8", k, n, sc.nn8.get(), av.nn8.get(), 8LL * n);
      ExpectExact("i8_1", k, n, sc.i8_1.get(), av.i8_1.get(), n);
      ExpectExact("i8_4", k, n, sc.i8_4.get(), av.i8_4.get(), 4LL * n);
      ExpectExact("i8_8", k, n, sc.i8_8.get(), av.i8_8.get(), 8LL * n);
    }
  }

  if (g_failures != 0) {
    std::fprintf(stderr, "simd_asan_test: %d parity failure(s)\n", g_failures);
    return 1;
  }
  std::printf("simd_asan_test: all kernels clean under ASan\n");
  return 0;
}
