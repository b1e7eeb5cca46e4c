#include "rt/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "util/logging.h"

namespace vist5 {
namespace rt {
namespace {

thread_local bool g_in_region = false;

using Clock = std::chrono::steady_clock;

/// How long a worker polls its slot for the next posting after it ran
/// one, before it parks on the condvar. It outlasts the gap between two
/// decode steps, so a decoding server hands every region off with a spin,
/// and it is short enough that an idle server's workers park within a
/// fraction of a millisecond of its last region (docs/PARALLELISM.md,
/// "The hand-off"). For the first kWorkerPause of it the worker polls
/// with a pause instruction; after that it yields its core between polls,
/// so a caller that shares the core (more threads than cores) can run.
constexpr auto kWorkerSpin = std::chrono::microseconds(500);
constexpr auto kWorkerPause = std::chrono::microseconds(50);

/// Pause iterations (about 30 µs) a region's caller spins on its workers
/// before it yields its core between polls: long past a slice's few µs,
/// so it yields only to a worker the host has not run.
constexpr int kCallerSpins = 1 << 11;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int DefaultThreads() {
  if (const char* env = std::getenv("VIST5_THREADS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && n >= 1) {
      return static_cast<int>(std::min<long>(n, 1024));
    }
    if (env[0] != '\0') {
      VIST5_LOG(Warning) << "ignoring invalid VIST5_THREADS=\"" << env << "\"";
    }
  }
  // The CPUs this process may run on: under taskset or a cpuset cgroup,
  // fewer than the host has.
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    return CPU_COUNT(&allowed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Worker w's slot: a region's caller posts work here and worker w
/// answers in it. The caller's half and the worker's half are separate
/// cache lines, so a hand-off moves each line once each way, and posting
/// to one worker never touches another's lines.
///
/// Posting t lives in `done`: 2t - 2 until worker w claims it, 2t - 1
/// while it runs, 2t once it finished or its caller withdrew it. The
/// worker claims it and the caller withdraws it with a compare-exchange
/// from 2t - 2, so exactly one of them does.
struct Slot {
  // Written by the region's caller.
  alignas(64) std::atomic<uint64_t> ticket{0};  ///< postings so far
  const std::function<void(int)>* fn = nullptr;
  // Written by worker w, and by a caller's withdraw.
  alignas(64) std::atomic<uint64_t> done{0};
  std::atomic<bool> parked{false};  ///< waiting on the condvar
  std::exception_ptr error;         ///< what its last posting threw
};

/// One pooled ParallelFor region, on its caller's stack. Its workers reach
/// it only through a posting they claimed, and the caller returns only
/// once every posting finished or was withdrawn.
struct Chunks {
  int64_t grain;
  int64_t begin;
  int64_t end;
  int64_t nchunks;
  const std::function<void(int64_t, int64_t, int64_t)>* fn;

  std::atomic<int64_t> next{0};        ///< next chunk index to claim
  std::atomic<bool> failed{false};     ///< set by the first exception;
                                       ///< later chunks are skipped
  std::exception_ptr error = nullptr;  ///< written by whoever set `failed`
  std::atomic<int64_t> busy_us{0};     ///< summed per-thread execution time
                                       ///< (latency sampling only)

  /// Claims and runs chunks until none is left.
  void Run() {
    const bool sampled = obs::LatencySamplingEnabled();
    const int64_t t0 = sampled ? NowMicros() : 0;
    for (;;) {
      const int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= nchunks) break;
      if (failed.load(std::memory_order_relaxed)) continue;
      try {
        const int64_t lo = begin + c * grain;
        (*fn)(c, lo, std::min(end, lo + grain));
      } catch (...) {
        if (!failed.exchange(true, std::memory_order_relaxed)) {
          error = std::current_exception();
        }
      }
    }
    if (sampled) {
      busy_us.fetch_add(NowMicros() - t0, std::memory_order_relaxed);
    }
  }
};

class Pool {
 public:
  static Pool& Global() {
    // Leaked: workers may still be parked in the condvar when the process
    // exits, and atexit-ordered destruction of the pool would race them.
    static Pool* pool = new Pool();
    return *pool;
  }

  int threads() const { return threads_.load(std::memory_order_relaxed); }

  void Resize(int n) {
    n = std::max(1, n);
    VIST5_CHECK(!g_in_region)
        << "rt::SetThreads must not be called from a parallel region";
    // Holding the team keeps a region from posting to a worker that is
    // about to stop.
    while (!TryClaimTeam()) std::this_thread::yield();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (n != threads_.load(std::memory_order_relaxed)) {
        StopWorkersLocked(&lock);
        threads_.store(n, std::memory_order_relaxed);
        slots_ = std::make_unique<Slot[]>(static_cast<size_t>(n));
        obs::GetGauge("rt/threads")->Set(n);
      }
    }
    ReleaseTeam();
  }

  void RunSlices(int slices, const std::function<void(int)>& fn) {
    static obs::Counter* handed = obs::GetCounter("rt/slice_regions");
    static obs::Counter* inline_regions =
        obs::GetCounter("rt/serial_slice_regions");
    if (!ClaimTeam(slices)) {
      inline_regions->Add();
      for (int s = 0; s < slices; ++s) fn(s);  // same slices, in index order
      return;
    }
    handed->Add();
    RunOnTeam(slices, fn, /*withdraw=*/false);
  }

  void Run(int64_t grain, int64_t begin, int64_t end,
           const std::function<void(int64_t, int64_t, int64_t)>& fn) {
    const int64_t nchunks = NumChunks(grain, begin, end);
    if (nchunks == 0) return;

    static obs::Counter* regions = obs::GetCounter("rt/regions");
    static obs::Counter* serial_regions = obs::GetCounter("rt/serial_regions");
    static obs::Counter* tasks = obs::GetCounter("rt/tasks");
    tasks->Add(nchunks);

    const int nthreads = threads();
    const int width = static_cast<int>(std::min<int64_t>(nchunks, nthreads));
    if (!ClaimTeam(width)) {
      // Serial path: same chunk partition, same execution order as one
      // pool thread — and zero pool traffic. Nested regions land here so
      // an inner ParallelFor never waits on the outer one's workers.
      serial_regions->Add();
      for (int64_t c = 0; c < nchunks; ++c) {
        const int64_t lo = begin + c * grain;
        fn(c, lo, std::min(end, lo + grain));
      }
      return;
    }
    regions->Add();
    Chunks chunks{grain, begin, end, nchunks, &fn};
    const bool sampled = obs::LatencySamplingEnabled();
    const int64_t t0 = sampled ? NowMicros() : 0;
    // Captures one pointer, so it fits std::function's own buffer and the
    // region allocates nothing.
    RunOnTeam(width, [&chunks](int) { chunks.Run(); }, /*withdraw=*/true);
    if (sampled) {
      const int64_t wall = NowMicros() - t0;
      const int64_t busy = chunks.busy_us.load(std::memory_order_relaxed);
      obs::GetCounter("rt/wall_us")->Add(wall);
      obs::GetCounter("rt/busy_us")->Add(busy);
      if (wall > 0) {
        obs::GetGauge("rt/pool_busy")
            ->Set(static_cast<double>(busy) /
                  (static_cast<double>(wall) * nthreads));
      }
    }
    if (chunks.error) std::rethrow_exception(chunks.error);
  }

 private:
  Pool() : threads_(DefaultThreads()) {
    slots_ = std::make_unique<Slot[]>(static_cast<size_t>(threads()));
    obs::GetGauge("rt/threads")->Set(threads());
  }

  bool TryClaimTeam() {
    bool expected = false;
    return team_busy_.compare_exchange_strong(expected, true,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed);
  }

  void ReleaseTeam() { team_busy_.store(false, std::memory_order_release); }

  /// Claims the team for a region on `width` threads, the caller included.
  /// False, with the team untouched, when the region runs inline instead:
  /// a width of 1, nested in a region, the team held by another thread's
  /// region, or a pool narrower than `width`.
  bool ClaimTeam(int width) {
    if (width <= 1 || g_in_region || !TryClaimTeam()) return false;
    if (width <= threads()) return true;
    ReleaseTeam();
    return false;
  }

  /// Runs fn(0) on the caller and fn(w), posted in worker w's slot, on
  /// workers 1 .. width - 1, then releases the team the caller holds, and
  /// rethrows the exception of the lowest index that threw. With
  /// `withdraw`, a posting whose worker has not started when fn(0) returns
  /// is taken back rather than waited for: ParallelFor's fn(0) returns only
  /// once every chunk is claimed, so that worker would find nothing to do.
  void RunOnTeam(int width, const std::function<void(int)>& fn,
                 bool withdraw) {
    if (!workers_ready_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mu_);
      EnsureWorkersLocked();
    }
    bool wake = false;
    for (int w = 1; w < width; ++w) {
      Slot& slot = slots_[static_cast<size_t>(w)];
      slot.fn = &fn;
      // Sequentially consistent, as is the `parked` read after it, so a
      // worker that parks after that read still sees this ticket before
      // it waits (WorkerLoop).
      slot.ticket.fetch_add(1, std::memory_order_seq_cst);
      wake = wake || slot.parked.load(std::memory_order_seq_cst);
    }
    if (wake) {
      std::lock_guard<std::mutex> lock(mu_);
      work_cv_.notify_all();
    }
    std::exception_ptr error;
    g_in_region = true;
    try {
      fn(0);
    } catch (...) {
      error = std::current_exception();
    }
    g_in_region = false;
    int spins = 0;
    for (int w = 1; w < width; ++w) {
      Slot& slot = slots_[static_cast<size_t>(w)];
      const uint64_t finished = 2 * slot.ticket.load(std::memory_order_relaxed);
      uint64_t unclaimed = finished - 2;
      if (withdraw && slot.done.compare_exchange_strong(
                          unclaimed, finished, std::memory_order_acq_rel,
                          std::memory_order_relaxed)) {
        continue;
      }
      while (slot.done.load(std::memory_order_acquire) != finished) {
        if (++spins < kCallerSpins) {
          CpuRelax();
        } else {
          std::this_thread::yield();
        }
      }
      if (!error) error = slot.error;
    }
    ReleaseTeam();
    if (error) std::rethrow_exception(error);
  }

  void EnsureWorkersLocked() {
    const int want = threads() - 1;
    while (static_cast<int>(workers_.size()) < want) {
      const int w = static_cast<int>(workers_.size()) + 1;
      workers_.emplace_back([this, w] { WorkerLoop(w); });
    }
    workers_ready_.store(true, std::memory_order_release);
  }

  void StopWorkersLocked(std::unique_lock<std::mutex>* lock) {
    if (workers_.empty()) return;
    workers_ready_.store(false, std::memory_order_relaxed);
    shutdown_.store(true, std::memory_order_relaxed);
    work_cv_.notify_all();
    std::vector<std::thread> workers = std::move(workers_);
    workers_.clear();
    lock->unlock();
    for (std::thread& t : workers) t.join();
    lock->lock();
    shutdown_.store(false, std::memory_order_relaxed);
  }

  /// Worker w: claims and runs what is posted to its slot. After a posting
  /// it polls the slot for kWorkerSpin, then parks on the condvar until a
  /// posting or shutdown wakes it.
  void WorkerLoop(int w) {
    Slot* slot = &slots_[static_cast<size_t>(w)];
    uint64_t seen = 0;
    Clock::time_point pause_until;
    Clock::time_point spin_until;
    for (;;) {
      const uint64_t ticket = slot->ticket.load(std::memory_order_acquire);
      if (ticket != seen) {
        seen = ticket;
        uint64_t unclaimed = 2 * ticket - 2;
        if (!slot->done.compare_exchange_strong(unclaimed, 2 * ticket - 1,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed)) {
          continue;  // withdrawn by its caller
        }
        slot->error = nullptr;
        g_in_region = true;
        try {
          (*slot->fn)(w);
        } catch (...) {
          slot->error = std::current_exception();
        }
        g_in_region = false;
        slot->done.store(2 * ticket, std::memory_order_release);
        pause_until = Clock::now() + kWorkerPause;
        spin_until = pause_until + (kWorkerSpin - kWorkerPause);
        continue;
      }
      if (shutdown_.load(std::memory_order_relaxed)) return;
      const Clock::time_point now = Clock::now();
      if (now < pause_until) {
        CpuRelax();
        continue;
      }
      if (now < spin_until) {
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lock(mu_);
      slot->parked.store(true, std::memory_order_seq_cst);
      work_cv_.wait(lock, [&] {
        return shutdown_.load(std::memory_order_relaxed) ||
               slot->ticket.load(std::memory_order_seq_cst) != seen;
      });
      slot->parked.store(false, std::memory_order_relaxed);
    }
  }

  /// Guards workers_ and the condvar, and every write to threads_, slots_
  /// and shutdown_ (which spinning workers read without it).
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::atomic<int> threads_;
  std::vector<std::thread> workers_;
  std::atomic<bool> workers_ready_{false};
  std::atomic<bool> shutdown_{false};

  /// Slot w belongs to worker w (slot 0, the caller's, is unused).
  std::unique_ptr<Slot[]> slots_;
  /// Admits one pooled region (or Resize) at a time. On a line of its own:
  /// each region writes it twice, and the spinning workers poll shutdown_.
  alignas(64) std::atomic<bool> team_busy_{false};
};

}  // namespace

int MaxThreads() { return Pool::Global().threads(); }

void SetThreads(int n) { Pool::Global().Resize(n); }

bool InParallelRegion() { return g_in_region; }

int64_t NumChunks(int64_t grain, int64_t begin, int64_t end) {
  if (end <= begin) return 0;
  grain = std::max<int64_t>(1, grain);
  return (end - begin + grain - 1) / grain;
}

void ParallelForChunked(
    int64_t grain, int64_t begin, int64_t end,
    const std::function<void(int64_t, int64_t, int64_t)>& fn) {
  Pool::Global().Run(std::max<int64_t>(1, grain), begin, end, fn);
}

void ParallelFor(int64_t grain, int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& fn) {
  Pool::Global().Run(
      std::max<int64_t>(1, grain), begin, end,
      [&fn](int64_t /*chunk*/, int64_t lo, int64_t hi) { fn(lo, hi); });
}

void RunSlices(int slices, const std::function<void(int)>& fn) {
  Pool::Global().RunSlices(slices, fn);
}

int64_t L2CacheBytes() {
  static const int64_t bytes = [] {
#ifdef _SC_LEVEL2_CACHE_SIZE
    const long reported = sysconf(_SC_LEVEL2_CACHE_SIZE);
    return reported > 0 ? static_cast<int64_t>(reported) : int64_t{0};
#else
    return int64_t{0};
#endif
  }();
  return bytes;
}

int SlicesFor(int64_t bytes) {
  const int64_t l2 = L2CacheBytes();
  if (l2 <= 0 || bytes <= l2) return 1;
  return static_cast<int>(std::min<int64_t>((bytes + l2 - 1) / l2,
                                            MaxThreads()));
}

}  // namespace rt
}  // namespace vist5
