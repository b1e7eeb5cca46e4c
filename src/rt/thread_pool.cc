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

#include <unistd.h>

#include "obs/metrics.h"
#include "util/logging.h"

namespace vist5 {
namespace rt {
namespace {

thread_local bool g_in_region = false;

using Clock = std::chrono::steady_clock;

/// How long a worker polls for the next slice region after running a
/// slice, before it parks on the condvar. It outlasts the gap between two
/// decode steps, so a decoding server hands every slice off with a spin,
/// and it is short enough that an idle server's workers park within a
/// fraction of a millisecond of its last step (docs/PARALLELISM.md,
/// "Column slices"). For the first kSlicePause of it the worker polls
/// with a pause instruction; after that it yields its core between polls,
/// so a caller that shares the core (more threads than cores) can run.
constexpr auto kSliceSpin = std::chrono::microseconds(500);
constexpr auto kSlicePause = std::chrono::microseconds(50);

/// Pause iterations (about 30 µs) a slice region's caller spins on its
/// slices before it yields its core between polls: long past a slice's
/// few µs, so it yields only to a worker the host has not run.
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
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// One parallel region in flight. Heap-allocated and shared with the
/// workers so a late-waking worker can only ever touch an exhausted chunk
/// counter, never the fields of a newer region.
struct Job {
  int64_t grain = 1;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t nchunks = 0;
  const std::function<void(int64_t, int64_t, int64_t)>* fn = nullptr;

  std::atomic<int64_t> next{0};      ///< next chunk index to claim
  std::atomic<bool> failed{false};   ///< set on first exception; later
                                     ///< chunks are skipped (still counted)
  std::atomic<int64_t> busy_us{0};   ///< summed per-thread execution time
                                     ///< (latency sampling only)
  std::mutex mu;                     ///< guards done/error
  std::condition_variable done_cv;
  int64_t done = 0;
  std::exception_ptr error;
};

/// Worker w's slot for slice regions: the region's caller posts slice w
/// here and worker w answers in it. The caller's half and the worker's
/// half are separate cache lines, so a hand-off moves each line once each
/// way, and posting to one worker never touches another's lines.
struct SliceSlot {
  // Written by the region's caller.
  alignas(64) std::atomic<uint64_t> ticket{0};  ///< bumped once per region
  const std::function<void(int)>* fn = nullptr;
  // Written by worker w.
  alignas(64) std::atomic<uint64_t> done{0};  ///< the last ticket it ran
  std::atomic<bool> parked{false};  ///< waiting on the condvar
  std::exception_ptr error;         ///< what its last slice threw
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
    // Holding the team keeps a slice region from posting to a worker
    // that is about to stop.
    while (!TryClaimTeam()) std::this_thread::yield();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (n != threads_.load(std::memory_order_relaxed)) {
        StopWorkersLocked(&lock);
        threads_.store(n, std::memory_order_relaxed);
        slots_ = std::make_unique<SliceSlot[]>(static_cast<size_t>(n));
        obs::GetGauge("rt/threads")->Set(n);
      }
    }
    ReleaseTeam();
  }

  void RunSlices(int slices, const std::function<void(int)>& fn) {
    static obs::Counter* handed = obs::GetCounter("rt/slice_regions");
    static obs::Counter* inline_regions =
        obs::GetCounter("rt/serial_slice_regions");
    if (slices > 1 && !g_in_region && TryClaimTeam()) {
      if (slices <= threads()) {
        handed->Add();
        RunSlicesOnTeam(slices, fn);  // releases the team
        return;
      }
      ReleaseTeam();
    }
    // Same slices, in index order, on this thread: nested in a region, one
    // slice, more slices than threads, or the workers busy with another
    // thread's slices.
    inline_regions->Add();
    for (int s = 0; s < slices; ++s) fn(s);
  }

  void Run(int64_t grain, int64_t begin, int64_t end,
           const std::function<void(int64_t, int64_t, int64_t)>& fn) {
    const int64_t nchunks = NumChunks(grain, begin, end);
    if (nchunks == 0) return;

    static obs::Counter* regions = obs::GetCounter("rt/regions");
    static obs::Counter* serial_regions = obs::GetCounter("rt/serial_regions");
    static obs::Counter* tasks = obs::GetCounter("rt/tasks");

    const int nthreads = threads();
    if (nthreads <= 1 || nchunks <= 1 || g_in_region) {
      // Serial path: same chunk partition, same execution order as one
      // pool thread — and zero pool traffic. Nested regions land here so
      // an inner ParallelFor never deadlocks on the outer one's workers.
      serial_regions->Add();
      tasks->Add(nchunks);
      for (int64_t c = 0; c < nchunks; ++c) {
        const int64_t lo = begin + c * grain;
        fn(c, lo, std::min(end, lo + grain));
      }
      return;
    }

    auto job = std::make_shared<Job>();
    job->grain = grain;
    job->begin = begin;
    job->end = end;
    job->nchunks = nchunks;
    job->fn = &fn;

    const bool sampled = obs::LatencySamplingEnabled();
    const int64_t t0 = sampled ? NowMicros() : 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      EnsureWorkersLocked();
      current_ = job;
      epoch_.fetch_add(1, std::memory_order_release);
    }
    work_cv_.notify_all();
    RunChunks(*job);  // the caller is worker 0
    {
      std::unique_lock<std::mutex> lock(job->mu);
      job->done_cv.wait(lock, [&] { return job->done == job->nchunks; });
    }
    regions->Add();
    tasks->Add(nchunks);
    if (sampled) {
      const int64_t wall = NowMicros() - t0;
      const int64_t busy = job->busy_us.load(std::memory_order_relaxed);
      obs::GetCounter("rt/wall_us")->Add(wall);
      obs::GetCounter("rt/busy_us")->Add(busy);
      if (wall > 0) {
        obs::GetGauge("rt/pool_busy")
            ->Set(static_cast<double>(busy) /
                  (static_cast<double>(wall) * nthreads));
      }
    }
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  Pool() : threads_(DefaultThreads()) {
    slots_ = std::make_unique<SliceSlot[]>(static_cast<size_t>(threads()));
    obs::GetGauge("rt/threads")->Set(threads());
  }

  bool TryClaimTeam() {
    bool expected = false;
    return team_busy_.compare_exchange_strong(expected, true,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed);
  }

  void ReleaseTeam() { team_busy_.store(false, std::memory_order_release); }

  /// A slice region on the workers; the caller holds the team, which this
  /// releases before it returns or rethrows.
  void RunSlicesOnTeam(int slices, const std::function<void(int)>& fn) {
    if (!workers_ready_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mu_);
      EnsureWorkersLocked();
    }
    bool wake = false;
    for (int w = 1; w < slices; ++w) {
      SliceSlot& slot = slots_[static_cast<size_t>(w)];
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
    for (int w = 1; w < slices; ++w) {
      SliceSlot& slot = slots_[static_cast<size_t>(w)];
      const uint64_t ticket = slot.ticket.load(std::memory_order_relaxed);
      while (slot.done.load(std::memory_order_acquire) != ticket) {
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

  /// Worker w: runs the slices posted to its slot and helps ParallelFor
  /// regions. After a slice it polls both for kSliceSpin, then parks on
  /// the condvar until a region or shutdown wakes it.
  void WorkerLoop(int w) {
    SliceSlot* slot = &slots_[static_cast<size_t>(w)];
    uint64_t seen_epoch = 0;
    uint64_t seen_ticket = 0;
    Clock::time_point pause_until;
    Clock::time_point spin_until;
    for (;;) {
      const uint64_t ticket = slot->ticket.load(std::memory_order_acquire);
      if (ticket != seen_ticket) {
        seen_ticket = ticket;
        std::exception_ptr error;
        g_in_region = true;
        try {
          (*slot->fn)(w);
        } catch (...) {
          error = std::current_exception();
        }
        g_in_region = false;
        slot->error = std::move(error);
        slot->done.store(ticket, std::memory_order_release);
        pause_until = Clock::now() + kSlicePause;
        spin_until = pause_until + (kSliceSpin - kSlicePause);
        continue;
      }
      if (epoch_.load(std::memory_order_acquire) != seen_epoch ||
          shutdown_.load(std::memory_order_relaxed)) {
        std::shared_ptr<Job> job;
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (shutdown_.load(std::memory_order_relaxed)) return;
          seen_epoch = epoch_.load(std::memory_order_relaxed);
          job = current_;
        }
        if (job) RunChunks(*job);
        continue;
      }
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
               epoch_.load(std::memory_order_relaxed) != seen_epoch ||
               slot->ticket.load(std::memory_order_seq_cst) != seen_ticket;
      });
      slot->parked.store(false, std::memory_order_relaxed);
    }
  }

  static void RunChunks(Job& job) {
    g_in_region = true;
    const bool sampled = obs::LatencySamplingEnabled();
    const int64_t t0 = sampled ? NowMicros() : 0;
    int64_t done_here = 0;
    std::exception_ptr err;
    for (;;) {
      const int64_t c = job.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.nchunks) break;
      if (!job.failed.load(std::memory_order_relaxed)) {
        try {
          const int64_t lo = job.begin + c * job.grain;
          (*job.fn)(c, lo, std::min(job.end, lo + job.grain));
        } catch (...) {
          if (!err) err = std::current_exception();
          job.failed.store(true, std::memory_order_relaxed);
        }
      }
      ++done_here;
    }
    g_in_region = false;
    if (sampled) {
      job.busy_us.fetch_add(NowMicros() - t0, std::memory_order_relaxed);
    }
    if (done_here > 0 || err) {
      std::lock_guard<std::mutex> lock(job.mu);
      if (err && !job.error) job.error = err;
      job.done += done_here;
      if (job.done == job.nchunks) job.done_cv.notify_all();
    }
  }

  /// Guards workers_ and current_, and every write to threads_, slots_,
  /// epoch_ and shutdown_ (which spinning workers read without it).
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::atomic<int> threads_;
  std::vector<std::thread> workers_;
  std::atomic<bool> workers_ready_{false};
  std::shared_ptr<Job> current_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<bool> shutdown_{false};

  /// Slice regions: slot w belongs to worker w (slot 0, to the caller, is
  /// unused). The team flag admits one slice region (or Resize) at a time.
  std::unique_ptr<SliceSlot[]> slots_;
  /// On a line of its own: each slice region writes it twice, and the
  /// spinning workers poll epoch_ and shutdown_.
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
