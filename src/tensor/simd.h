#ifndef VIST5_TENSOR_SIMD_H_
#define VIST5_TENSOR_SIMD_H_

#include <cstdint>

namespace vist5 {
namespace tensor {
namespace simd {

/// Instruction-set backends for the GEMM kernels (docs/KERNELS.md).
///
/// kScalar is the determinism reference: its translation unit is compiled
/// with strict IEEE flags (no fast-math, no contraction, no
/// auto-vectorization), so every accumulation is the literal source-order
/// sequence. kAvx2 is the AVX2+FMA backend. Both honor the same per-row
/// contracts — each output row depends only on its own A row, accumulated
/// over p ascending — so the rt-level determinism guarantees (bit-identical
/// at any thread count, batched ≡ sequential) hold within each backend;
/// cross-backend float parity is a bounded-tolerance contract, not
/// bit-exactness (the NT dot product uses a different reduction tree under
/// AVX2).
enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
};

/// Rows in the widest shared-B block a backend walks (AVX2's 8-row
/// NNBlock). ops::GemmRowGrain never cuts a chunk below this, so the
/// batched decode step's row panels reach that block at any thread count.
inline constexpr int kTileRows = 8;

/// One resolved set of kernel entry points. Each takes `rows` rows of a
/// row-major A [rows, K] and writes the same rows of C [rows, N]; the
/// backend decides how to walk them (AVX2 in blocks of 8, 4, then 1 rows
/// sharing each B load, scalar one row at a time):
///
///   gemm_nt:       c[rows,N] += a[rows,K] · B[N,K]^T   (accumulating)
///   gemm_nn_zero:  c[rows,N]  = a[rows,K] · B[K,N]     (overwrites c)
///
/// The NN entries take the row strides of B and C: B's row p starts at
/// b + p·ldb and C's row r at c + r·ldc (ldb, ldc >= N; N for a dense
/// product). A column slice of a wider product passes its packed [K, N]
/// block with ldb = N and the first of its columns of C with ldc = the
/// full width (docs/KERNELS.md, "Column slices").
///
/// gemm_nn_zero_i8 reads an int8 weight matrix B[K,N] with per-column
/// scales[N] (symmetric, zero-point 0) and computes
///   c[r, j] = scales[j] * sum_p fma(a[r, p], float(B[p, j]))
/// i.e. the accumulation runs in float over the raw int8 values and the
/// scale multiplies once at store. Because that per-element chain is the
/// same fma sequence in both backends, for every row walk and for every
/// column range, int8 and NN results are bit-identical across scalar and
/// AVX2 and across column slices (docs/KERNELS.md).
struct KernelSet {
  void (*gemm_nt)(const float* a, const float* b, float* c, int rows, int k,
                  int n);
  void (*gemm_nn_zero)(const float* a, const float* b, float* c, int rows,
                       int k, int n, int ldb, int ldc);
  void (*gemm_nn_zero_i8)(const float* a, const int8_t* b,
                          const float* scales, float* c, int rows, int k,
                          int n, int ldb, int ldc);
};

/// True when the running CPU can execute the AVX2+FMA backend.
bool CpuSupportsAvx2();

/// The backend currently in effect. Resolved once on first use: the
/// VIST5_ISA environment variable ("scalar" or "avx2") wins when set and
/// supported; otherwise the best supported backend (AVX2 where available).
/// An unsupported or unrecognized request logs a warning and falls back.
Isa ActiveIsa();

/// Kernel table for ActiveIsa(). Cheap (one atomic load after init).
const KernelSet& ActiveKernels();

/// Forces a backend, for tests and benchmarks. Returns false (and changes
/// nothing) when the host cannot run `isa`. Not meant to be called
/// concurrently with in-flight kernels — switch at a quiescent point.
bool SetIsa(Isa isa);

/// "scalar" / "avx2".
const char* IsaName(Isa isa);

namespace detail {
/// Backend factories. Scalar always exists; Avx2KernelSet() returns
/// nullptr on hosts (or builds) without x86 AVX2 support.
const KernelSet* ScalarKernelSet();
const KernelSet* Avx2KernelSet();
}  // namespace detail

}  // namespace simd
}  // namespace tensor
}  // namespace vist5

#endif  // VIST5_TENSOR_SIMD_H_
