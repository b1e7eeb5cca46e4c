// AddressSanitizer pass over the SIMD kernel backends (docs/KERNELS.md).
//
// The release tree compiles the kernels with -O3 and no sanitizer; this
// binary recompiles src/tensor/simd_{scalar,avx2}.cc under ASan, with the
// same pinned floating-point flags (see tests/CMakeLists.txt), and drives
// the three KernelSet entry points over exactly-sized [rows, k] and
// [rows, n] heap allocations. The row counts cover every step of the AVX2
// 8 -> 4 -> 1 row walk and the column counts every column block, so a
// block that reads or writes one element past its row, its k or its n
// surfaces as a hard heap-buffer-overflow report instead of a silent
// parity wobble. As a side check it re-verifies the cross-backend contract
// on the ASan build: NN and int8 kernels bit-identical, NT within the
// pinned bound. A seam check runs each backend's NT kernel over every
// column-count prefix of one product: a column must keep its bits whether
// the walk puts it in an 8-column block or among the leftover columns. A
// slice check drives the NN entries' row strides as column slices do
// (docs/PARALLELISM.md, "Column slices"): each 64-column slice of a wider
// product, and its odd tail, read from an exactly-sized packed [k, w]
// block and from the row-major weight in place, written into its columns
// of an exactly-sized C, must give the dense product's bits and leave the
// other columns alone.
//
// Plain main (no gtest): the binary must stay free of uninstrumented
// library code on the hot path so ASan interposes every allocation the
// kernels touch.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
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

/// Shared operands for one (rows, k, n), sized exactly so any
/// out-of-bounds kernel access trips ASan.
struct Operands {
  int rows;
  int k;
  int n;
  std::unique_ptr<float[]> a;        // [rows, k]
  std::unique_ptr<float[]> b_nn;     // [k, n]
  std::unique_ptr<float[]> b_nt;     // [n, k]
  std::unique_ptr<int8_t[]> b_i8;    // [k, n]
  std::unique_ptr<float[]> scales;   // [n]

  Operands(int rows_in, int k_in, int n_in, Lcg* rng)
      : rows(rows_in), k(k_in), n(n_in) {
    a = RandomBuf(static_cast<int64_t>(rows) * k, rng);
    b_nn = RandomBuf(static_cast<int64_t>(k) * n, rng);
    b_nt = RandomBuf(static_cast<int64_t>(n) * k, rng);
    b_i8 = RandomI8Buf(static_cast<int64_t>(k) * n, rng);
    scales = RandomBuf(n, rng);
    for (int j = 0; j < n; ++j) scales[j] = std::fabs(scales[j]) / 64.0f;
  }
};

/// One backend's [rows, n] output per entry point, each in its own
/// exactly-sized allocation.
struct KernelOutputs {
  std::unique_ptr<float[]> nt;
  std::unique_ptr<float[]> nn;
  std::unique_ptr<float[]> i8;
};

KernelOutputs Run(const simd::KernelSet& ks, const Operands& op) {
  const int64_t size = static_cast<int64_t>(op.rows) * op.n;
  KernelOutputs out;
  out.nt = std::make_unique<float[]>(static_cast<size_t>(size));
  for (int64_t i = 0; i < size; ++i) out.nt[i] = 0.25f;  // NT accumulates
  ks.gemm_nt(op.a.get(), op.b_nt.get(), out.nt.get(), op.rows, op.k, op.n);
  out.nn = std::make_unique<float[]>(static_cast<size_t>(size));
  ks.gemm_nn_zero(op.a.get(), op.b_nn.get(), out.nn.get(), op.rows, op.k,
                  op.n, op.n, op.n);
  out.i8 = std::make_unique<float[]>(static_cast<size_t>(size));
  ks.gemm_nn_zero_i8(op.a.get(), op.b_i8.get(), op.scales.get(),
                     out.i8.get(), op.rows, op.k, op.n, op.n, op.n);
  return out;
}

void ExpectExact(const char* what, const Operands& op, const float* ref,
                 const float* got) {
  const int64_t size = static_cast<int64_t>(op.rows) * op.n;
  for (int64_t i = 0; i < size; ++i) {
    if (ref[i] != got[i]) {
      std::fprintf(stderr,
                   "FAIL %s rows=%d k=%d n=%d elem %lld: scalar %.9g avx2 "
                   "%.9g (expected bit-identical)\n",
                   what, op.rows, op.k, op.n, static_cast<long long>(i),
                   static_cast<double>(ref[i]), static_cast<double>(got[i]));
      ++g_failures;
      return;
    }
  }
}

void ExpectNtBound(const Operands& op, const float* ref, const float* got) {
  const int64_t size = static_cast<int64_t>(op.rows) * op.n;
  for (int64_t i = 0; i < size; ++i) {
    const float bound = 1e-5f * (std::fabs(ref[i]) + 1.0f);
    if (!(std::fabs(ref[i] - got[i]) <= bound)) {
      std::fprintf(stderr,
                   "FAIL nt rows=%d k=%d n=%d elem %lld: scalar %.9g avx2 "
                   "%.9g exceeds pinned bound %.9g\n",
                   op.rows, op.k, op.n, static_cast<long long>(i),
                   static_cast<double>(ref[i]), static_cast<double>(got[i]),
                   static_cast<double>(bound));
      ++g_failures;
      return;
    }
  }
}

/// NT column seams: for every n' <= n, the NT product over the first n'
/// B rows must give each of its columns the bits that column has in the
/// product over all n rows. The decode step bounds each score row by its
/// visible keys while the teacher-forced decoder runs the full product, so
/// a column's bits may not depend on where the column falls in the walk.
/// C starts nonzero, as the kernel accumulates into it.
void CheckNtSeams(const char* backend, const simd::KernelSet& ks, Lcg* rng) {
  constexpr int kN = 41;  // five 8-column blocks and one leftover column
  const int rows_list[] = {1, 3};
  const int ks_list[] = {5, 8, 16, 17, 24, 32, 64};
  for (int rows : rows_list) {
    for (int k : ks_list) {
      const Operands op(rows, k, kN, rng);
      const int64_t size = static_cast<int64_t>(rows) * kN;
      const std::unique_ptr<float[]> c0 = RandomBuf(size, rng);
      auto full = std::make_unique<float[]>(static_cast<size_t>(size));
      std::memcpy(full.get(), c0.get(),
                  static_cast<size_t>(size) * sizeof(float));
      ks.gemm_nt(op.a.get(), op.b_nt.get(), full.get(), rows, k, kN);
      for (int np = 1; np <= kN; ++np) {
        auto part = std::make_unique<float[]>(static_cast<size_t>(rows) * np);
        for (int r = 0; r < rows; ++r) {
          std::memcpy(part.get() + static_cast<size_t>(r) * np,
                      c0.get() + static_cast<size_t>(r) * kN,
                      static_cast<size_t>(np) * sizeof(float));
        }
        ks.gemm_nt(op.a.get(), op.b_nt.get(), part.get(), rows, k, np);
        for (int r = 0; r < rows; ++r) {
          for (int j = 0; j < np; ++j) {
            const float got = part[static_cast<size_t>(r) * np + j];
            const float want = full[static_cast<size_t>(r) * kN + j];
            if (std::memcmp(&got, &want, sizeof(float)) != 0) {
              std::fprintf(stderr,
                           "FAIL %s nt seam rows=%d k=%d: column %d of row %d "
                           "is %.9g over %d columns but %.9g over %d\n",
                           backend, rows, k, j, r, static_cast<double>(got),
                           np, static_cast<double>(want), kN);
              ++g_failures;
              return;
            }
          }
        }
      }
    }
  }
}

/// Column slices through the strided NN entries: for every 64-column
/// slice [c0, c0 + w) of a [k, n] weight (the last one an odd tail when n
/// is not a multiple of 64), the float and int8 entries run once on a
/// packed [k, w] copy (ldb = w) and once in place (b + c0, ldb = n), each
/// writing c + c0 with ldc = n. Every run must equal the dense product on
/// its columns and leave a sentinel everywhere else.
void CheckColumnSlices(const char* backend, const simd::KernelSet& ks,
                       Lcg* rng) {
  constexpr float kSentinel = -3.25f;
  const int rows_list[] = {1, 4, 5, 9};
  const int ns[] = {64, 65, 127, 128, 129, 200, 512};
  for (int rows : rows_list) {
    for (int n : ns) {
      const int k = 33;
      const Operands op(rows, k, n, rng);
      const int64_t size = static_cast<int64_t>(rows) * n;
      auto dense = std::make_unique<float[]>(static_cast<size_t>(size));
      auto dense_i8 = std::make_unique<float[]>(static_cast<size_t>(size));
      ks.gemm_nn_zero(op.a.get(), op.b_nn.get(), dense.get(), rows, k, n, n,
                      n);
      ks.gemm_nn_zero_i8(op.a.get(), op.b_i8.get(), op.scales.get(),
                         dense_i8.get(), rows, k, n, n, n);
      for (int c0 = 0; c0 < n; c0 += 64) {
        const int w = n - c0 < 64 ? n - c0 : 64;
        auto packed = std::make_unique<float[]>(static_cast<size_t>(k) * w);
        auto packed_i8 =
            std::make_unique<int8_t[]>(static_cast<size_t>(k) * w);
        for (int p = 0; p < k; ++p) {
          for (int j = 0; j < w; ++j) {
            packed[static_cast<size_t>(p) * w + j] =
                op.b_nn[static_cast<size_t>(p) * n + c0 + j];
            packed_i8[static_cast<size_t>(p) * w + j] =
                op.b_i8[static_cast<size_t>(p) * n + c0 + j];
          }
        }
        struct Run {
          const char* what;
          const float* want;
          std::unique_ptr<float[]> c;
        };
        Run runs[4] = {{"packed", dense.get(), nullptr},
                       {"in place", dense.get(), nullptr},
                       {"packed i8", dense_i8.get(), nullptr},
                       {"in place i8", dense_i8.get(), nullptr}};
        for (Run& run : runs) {
          run.c = std::make_unique<float[]>(static_cast<size_t>(size));
          for (int64_t i = 0; i < size; ++i) run.c[i] = kSentinel;
        }
        ks.gemm_nn_zero(op.a.get(), packed.get(), runs[0].c.get() + c0, rows,
                        k, w, w, n);
        ks.gemm_nn_zero(op.a.get(), op.b_nn.get() + c0, runs[1].c.get() + c0,
                        rows, k, w, n, n);
        ks.gemm_nn_zero_i8(op.a.get(), packed_i8.get(), op.scales.get() + c0,
                           runs[2].c.get() + c0, rows, k, w, w, n);
        ks.gemm_nn_zero_i8(op.a.get(), op.b_i8.get() + c0,
                           op.scales.get() + c0, runs[3].c.get() + c0, rows, k,
                           w, n, n);
        for (const Run& run : runs) {
          for (int64_t i = 0; i < size; ++i) {
            const int j = static_cast<int>(i % n);
            const float want = j >= c0 && j < c0 + w ? run.want[i] : kSentinel;
            if (std::memcmp(&run.c[i], &want, sizeof(float)) != 0) {
              std::fprintf(stderr,
                           "FAIL %s slice %s rows=%d n=%d c0=%d w=%d elem "
                           "%lld: %.9g, want %.9g\n",
                           backend, run.what, rows, n, c0, w,
                           static_cast<long long>(i),
                           static_cast<double>(run.c[i]),
                           static_cast<double>(want));
              ++g_failures;
              return;
            }
          }
        }
      }
    }
  }
}

}  // namespace

int main() {
  const simd::KernelSet* scalar = simd::detail::ScalarKernelSet();
  const simd::KernelSet* avx2 = simd::detail::Avx2KernelSet();
  std::printf("simd_asan_test: avx2 %s\n",
              avx2 != nullptr ? "available" : "unavailable on this host");

  Lcg rng(7);
  // rows covers every step of the AVX2 row walk: 1-9 (each remainder of
  // 8 -> 4 -> 1), then 12 (8+4), 13 (8+4+1) and 17 (8+8+1). k sweeps
  // odd/even and sub-/super-lane lengths; n brackets the 8-lane strip
  // (7, 8, 9), a ragged multi-strip tail (19), and every column block of
  // the AVX2 1- and 4-row blocks (16, 32 and 64 wide; 128 is two 64-wide
  // blocks) from one below to one above.
  const int rows_list[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 17};
  const int ks[] = {1, 3, 8, 17, 64};
  const int ns[] = {1,  7,  8,  9,  15, 16,  17,  19, 31,
                    32, 33, 63, 64, 65, 127, 128, 129};
  for (int rows : rows_list) {
    for (int k : ks) {
      for (int n : ns) {
        Operands op(rows, k, n, &rng);
        const KernelOutputs sc = Run(*scalar, op);
        if (avx2 == nullptr) continue;
        const KernelOutputs av = Run(*avx2, op);
        ExpectNtBound(op, sc.nt.get(), av.nt.get());
        ExpectExact("nn", op, sc.nn.get(), av.nn.get());
        ExpectExact("i8", op, sc.i8.get(), av.i8.get());
      }
    }
  }

  CheckNtSeams("scalar", *scalar, &rng);
  if (avx2 != nullptr) CheckNtSeams("avx2", *avx2, &rng);
  CheckColumnSlices("scalar", *scalar, &rng);
  if (avx2 != nullptr) CheckColumnSlices("avx2", *avx2, &rng);

  if (g_failures != 0) {
    std::fprintf(stderr, "simd_asan_test: %d parity failure(s)\n", g_failures);
    return 1;
  }
  std::printf("simd_asan_test: all kernels clean under ASan\n");
  return 0;
}
