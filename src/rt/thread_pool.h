#ifndef VIST5_RT_THREAD_POOL_H_
#define VIST5_RT_THREAD_POOL_H_

#include <cstdint>
#include <functional>

namespace vist5 {
namespace rt {

/// Number of threads parallel regions may use (>= 1). Initialized from the
/// VIST5_THREADS env var on first use; unset, empty, or invalid values fall
/// back to std::thread::hardware_concurrency(). 1 disables the pool: every
/// ParallelFor runs inline on the caller with no atomics and no worker
/// wake-ups.
int MaxThreads();

/// Resizes the pool (bench/test hook; VIST5_THREADS covers production).
/// Values < 1 clamp to 1. Must not be called from inside a parallel region.
/// Idempotent and cheap when the size does not change.
void SetThreads(int n);

/// True while the calling thread is executing a ParallelFor task (worker or
/// participating caller). Nested ParallelFor calls detect this and run
/// serially inline, preserving the chunk partition.
bool InParallelRegion();

/// Number of chunks ParallelFor splits [begin, end) into for `grain`.
/// The partition is a pure function of (grain, begin, end) — never of the
/// thread count — so per-chunk reductions are deterministic: see
/// docs/PARALLELISM.md.
int64_t NumChunks(int64_t grain, int64_t begin, int64_t end);

/// Runs fn(chunk_index, lo, hi) over [begin, end) split into chunks of at
/// most `grain` consecutive indices. Chunks are claimed dynamically by up
/// to MaxThreads() threads (the caller participates); chunk BOUNDARIES
/// depend only on `grain`, so any reduction keyed by chunk_index is
/// bit-identical for every thread count. Blocks until all chunks finish.
/// If any chunk throws, the first exception (in completion order) is
/// rethrown on the caller after the region drains; remaining unclaimed
/// chunks are skipped.
void ParallelForChunked(
    int64_t grain, int64_t begin, int64_t end,
    const std::function<void(int64_t chunk, int64_t lo, int64_t hi)>& fn);

/// ParallelForChunked without the chunk index, for kernels whose writes are
/// disjoint per index and need no per-chunk scratch.
void ParallelFor(int64_t grain, int64_t begin, int64_t end,
                 const std::function<void(int64_t lo, int64_t hi)>& fn);

/// Runs fn(s) for every slice s in [0, slices), slice s on pool thread s:
/// the caller runs slice 0 and worker s runs slice s, the same thread for
/// the same index in every region, so each thread keeps what its slice
/// reads in its own core's cache (docs/PARALLELISM.md, "Column slices").
/// Blocks until every slice has finished. The hand-off is a spin, not a
/// condvar wake: the caller spins until its slices finish, and after a
/// slice region the workers poll for the next one for a bounded time
/// before they park. Every slice runs inline on the caller, in index
/// order, when `slices` is 1 or exceeds MaxThreads(), inside a parallel
/// region, or while another thread's slice region holds the workers; the
/// slices must not depend on which thread runs them. If any slice throws,
/// the exception of the lowest failing slice reaches the caller once every
/// slice has finished, and the pool stays usable.
void RunSlices(int slices, const std::function<void(int slice)>& fn);

/// The per-core L2 cache size the host reports, in bytes; 0 when it
/// reports none.
int64_t L2CacheBytes();

/// The fewest slices whose share of `bytes` fits in L2CacheBytes(), capped
/// at MaxThreads(): 1 when `bytes` fits, or when the host reports no L2.
/// A function of its argument, the pool width and the host only.
int SlicesFor(int64_t bytes);

}  // namespace rt
}  // namespace vist5

#endif  // VIST5_RT_THREAD_POOL_H_
