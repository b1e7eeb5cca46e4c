// Tests for the vist5::rt thread pool: coverage and partition invariants,
// exception propagation, nested-region behavior, degenerate ranges, pool
// reuse/resizing, concurrent callers and the default width, for
// ParallelFor and for slice regions (RunSlices).
// Everything here must also run clean under ThreadSanitizer
// (scripts/run_tsan.sh).

#include "rt/thread_pool.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace vist5 {
namespace rt {
namespace {

// With VIST5_THREADS unset the pool is as wide as the process's CPU
// affinity mask, not the host. It must run before anything resizes the
// pool, so it comes first in the file; its ctest entry
// `rt_default_width_pinned` runs it alone under `taskset -c 0`, where the
// width must be 1.
TEST(RtDefaultWidth, FollowsTheAffinityMask) {
  if (std::getenv("VIST5_THREADS") != nullptr) {
    GTEST_SKIP() << "VIST5_THREADS sets the width";
  }
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  EXPECT_EQ(MaxThreads(), CPU_COUNT(&allowed));
}

// Every index in [begin, end) is visited exactly once, for a grid of grains
// and ranges straddling the thread count.
TEST(RtTest, ParallelForCoversEveryIndexExactlyOnce) {
  SetThreads(4);
  const int64_t kGrains[] = {1, 3, 7, 64, 1 << 13};
  const int64_t kEnds[] = {0, 1, 2, 3, 4, 5, 63, 64, 65, 1000};
  for (int64_t grain : kGrains) {
    for (int64_t end : kEnds) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(end));
      for (auto& h : hits) h.store(0);
      ParallelFor(grain, 0, end, [&](int64_t lo, int64_t hi) {
        ASSERT_LE(lo, hi);
        ASSERT_LE(hi - lo, grain);
        for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
      });
      for (int64_t i = 0; i < end; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "grain=" << grain << " end=" << end << " i=" << i;
      }
    }
  }
}

TEST(RtTest, NonZeroBeginIsRespected) {
  SetThreads(4);
  std::atomic<int64_t> sum{0};
  ParallelFor(5, 10, 100, [&](int64_t lo, int64_t hi) {
    int64_t local = 0;
    for (int64_t i = lo; i < hi; ++i) local += i;
    sum += local;
  });
  int64_t expect = 0;
  for (int64_t i = 10; i < 100; ++i) expect += i;
  EXPECT_EQ(sum.load(), expect);
}

TEST(RtTest, EmptyAndReversedRangesRunNothing) {
  SetThreads(4);
  std::atomic<int> calls{0};
  ParallelFor(8, 0, 0, [&](int64_t, int64_t) { calls++; });
  ParallelFor(8, 5, 5, [&](int64_t, int64_t) { calls++; });
  ParallelFor(8, 7, 3, [&](int64_t, int64_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(NumChunks(8, 0, 0), 0);
  EXPECT_EQ(NumChunks(8, 7, 3), 0);
}

TEST(RtTest, RangeSmallerThanThreadCount) {
  SetThreads(4);
  std::atomic<int> calls{0};
  ParallelFor(1, 0, 2, [&](int64_t lo, int64_t hi) {
    EXPECT_EQ(hi, lo + 1);
    calls++;
  });
  EXPECT_EQ(calls.load(), 2);
}

TEST(RtTest, GrainLargerThanRangeRunsOneChunk) {
  SetThreads(4);
  std::atomic<int> calls{0};
  ParallelFor(1 << 20, 0, 37, [&](int64_t lo, int64_t hi) {
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 37);
    calls++;
  });
  EXPECT_EQ(calls.load(), 1);
}

// The chunk partition is a pure function of (grain, begin, end): identical
// for 1 and 4 threads. This is the invariant every chunk-scratch reduction
// in ops.cc leans on.
TEST(RtTest, ChunkPartitionIndependentOfThreadCount) {
  auto partition = [](int threads, int64_t grain, int64_t begin, int64_t end) {
    SetThreads(threads);
    std::mutex mu;
    std::set<std::vector<int64_t>> chunks;
    ParallelForChunked(grain, begin, end,
                       [&](int64_t chunk, int64_t lo, int64_t hi) {
                         std::lock_guard<std::mutex> lock(mu);
                         chunks.insert({chunk, lo, hi});
                       });
    return chunks;
  };
  const int64_t kCases[][3] = {
      {1, 0, 17}, {4, 0, 64}, {7, 3, 95}, {13, 0, 13}, {5, 0, 4}};
  for (const auto& c : kCases) {
    const auto serial = partition(1, c[0], c[1], c[2]);
    const auto parallel = partition(4, c[0], c[1], c[2]);
    EXPECT_EQ(serial, parallel)
        << "grain=" << c[0] << " range=[" << c[1] << "," << c[2] << ")";
    EXPECT_EQ(static_cast<int64_t>(serial.size()), NumChunks(c[0], c[1], c[2]));
  }
}

TEST(RtTest, ExceptionPropagatesAndPoolStaysUsable) {
  SetThreads(4);
  EXPECT_THROW(
      ParallelFor(1, 0, 64,
                  [&](int64_t lo, int64_t) {
                    if (lo == 13) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool must drain cleanly and accept new work afterwards.
  std::atomic<int64_t> sum{0};
  ParallelFor(4, 0, 100, [&](int64_t lo, int64_t hi) { sum += hi - lo; });
  EXPECT_EQ(sum.load(), 100);
}

TEST(RtTest, NestedParallelForRunsInlineWithSamePartition) {
  SetThreads(4);
  EXPECT_FALSE(InParallelRegion());
  std::atomic<int> inner_chunks{0};
  std::atomic<bool> saw_region{false};
  ParallelFor(8, 0, 32, [&](int64_t, int64_t) {
    if (InParallelRegion()) saw_region = true;
    // Nested call: must run serially inline without deadlock, still
    // producing the same chunk partition.
    ParallelForChunked(2, 0, 10, [&](int64_t chunk, int64_t lo, int64_t hi) {
      EXPECT_EQ(lo, chunk * 2);
      EXPECT_EQ(hi, std::min<int64_t>(10, lo + 2));
      inner_chunks++;
    });
  });
  EXPECT_TRUE(saw_region.load());
  EXPECT_FALSE(InParallelRegion());
  // 4 outer chunks x 5 inner chunks each.
  EXPECT_EQ(inner_chunks.load(), 20);
}

TEST(RtTest, SetThreadsResizesAndSingleThreadRunsInline) {
  SetThreads(1);
  EXPECT_EQ(MaxThreads(), 1);
  std::vector<int64_t> order;  // no mutex needed: serial path is inline
  ParallelFor(3, 0, 10, [&](int64_t lo, int64_t) { order.push_back(lo); });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 3, 6, 9}));

  SetThreads(0);  // clamps to 1
  EXPECT_EQ(MaxThreads(), 1);

  SetThreads(4);
  EXPECT_EQ(MaxThreads(), 4);
  std::atomic<int64_t> n{0};
  ParallelFor(1, 0, 256, [&](int64_t lo, int64_t hi) { n += hi - lo; });
  EXPECT_EQ(n.load(), 256);
}

TEST(RtTest, RegionMetricsAdvance) {
  SetThreads(4);
  obs::Counter* regions = obs::GetCounter("rt/regions");
  obs::Counter* tasks = obs::GetCounter("rt/tasks");
  const int64_t regions_before = regions->value();
  const int64_t tasks_before = tasks->value();
  ParallelFor(1, 0, 32, [](int64_t, int64_t) {});
  EXPECT_EQ(regions->value(), regions_before + 1);
  EXPECT_EQ(tasks->value(), tasks_before + 32);
}

/// Which thread ran each slice of one slice region, and how many times.
struct SliceRecord {
  std::array<std::thread::id, 8> thread{};
  std::array<std::atomic<int>, 8> runs{};
};

void RecordSlices(int slices, SliceRecord* record) {
  RunSlices(slices, [record](int s) {
    record->thread[static_cast<size_t>(s)] = std::this_thread::get_id();
    record->runs[static_cast<size_t>(s)]++;
  });
}

// Slice s runs once per region on pool thread s: the caller for slice 0,
// and the same worker for the same index in every region.
TEST(RtTest, SliceRegionRunsEachSliceOnceOnItsOwnThread) {
  SetThreads(4);
  std::array<std::thread::id, 4> owner{};
  for (int region = 0; region < 200; ++region) {
    const int slices = 2 + region % 3;
    SliceRecord record;
    RecordSlices(slices, &record);
    std::set<std::thread::id> distinct;
    for (int s = 0; s < slices; ++s) {
      ASSERT_EQ(record.runs[static_cast<size_t>(s)].load(), 1)
          << "slice " << s << " of region " << region;
      const std::thread::id id = record.thread[static_cast<size_t>(s)];
      distinct.insert(id);
      if (s == 0) {
        EXPECT_EQ(id, std::this_thread::get_id());
      } else if (owner[static_cast<size_t>(s)] == std::thread::id()) {
        owner[static_cast<size_t>(s)] = id;
      } else {
        EXPECT_EQ(id, owner[static_cast<size_t>(s)])
            << "slice " << s << " moved to another thread";
      }
    }
    EXPECT_EQ(static_cast<int>(distinct.size()), slices);
    for (size_t s = static_cast<size_t>(slices); s < record.runs.size(); ++s) {
      EXPECT_EQ(record.runs[s].load(), 0);
    }
  }
}

TEST(RtTest, SliceExceptionReachesCallerAndPoolStaysUsable) {
  SetThreads(4);
  for (int thrower = 0; thrower < 4; ++thrower) {
    std::atomic<int> ran{0};
    EXPECT_THROW(RunSlices(4,
                           [&](int s) {
                             ran++;
                             if (s == thrower) throw std::runtime_error("boom");
                           }),
                 std::runtime_error)
        << "thrower " << thrower;
    EXPECT_EQ(ran.load(), 4) << "every slice runs before the rethrow";
  }
  // Two slices throw: the lower one's exception reaches the caller.
  try {
    RunSlices(4, [](int s) {
      if (s == 1 || s == 3) throw std::runtime_error("slice " + std::to_string(s));
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "slice 1");
  }
  SliceRecord record;
  RecordSlices(4, &record);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(record.runs[static_cast<size_t>(s)].load(), 1);
  }
}

TEST(RtTest, NestedSliceRegionRunsInline) {
  SetThreads(4);
  std::array<std::atomic<int>, 4> inner_runs{};
  std::atomic<int> foreign{0};
  RunSlices(4, [&](int) {
    EXPECT_TRUE(InParallelRegion());
    const std::thread::id outer = std::this_thread::get_id();
    RunSlices(3, [&](int s) {
      if (std::this_thread::get_id() != outer) foreign++;
      inner_runs[static_cast<size_t>(s)]++;
    });
  });
  EXPECT_FALSE(InParallelRegion());
  EXPECT_EQ(foreign.load(), 0) << "a nested slice left its caller's thread";
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(inner_runs[static_cast<size_t>(s)].load(), 4);
  }
  EXPECT_EQ(inner_runs[3].load(), 0);
}

// Two threads open slice regions at once: one gets the workers, the other
// runs its slices inline, and both finish with every slice run once.
TEST(RtTest, ConcurrentSliceRegionsBothFinish) {
  SetThreads(4);
  constexpr int kRegions = 2000;
  std::atomic<int64_t> runs[2] = {{0}, {0}};
  std::atomic<int> missed{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      for (int region = 0; region < kRegions; ++region) {
        const int slices = 2 + (region + c) % 3;
        std::array<std::atomic<int>, 4> seen{};
        RunSlices(slices, [&](int s) {
          seen[static_cast<size_t>(s)]++;
          runs[c]++;
        });
        for (int s = 0; s < slices; ++s) {
          if (seen[static_cast<size_t>(s)].load() != 1) missed++;
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(missed.load(), 0);
  for (int c = 0; c < 2; ++c) {
    int64_t want = 0;
    for (int region = 0; region < kRegions; ++region) {
      want += 2 + (region + c) % 3;
    }
    EXPECT_EQ(runs[c].load(), want) << "caller " << c;
  }
}

TEST(RtTest, SetThreadsBetweenSliceRegions) {
  SetThreads(4);
  SliceRecord wide;
  RecordSlices(4, &wide);
  SetThreads(2);
  // More slices than threads: every slice runs inline on the caller.
  SliceRecord inline_record;
  RecordSlices(4, &inline_record);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(inline_record.runs[static_cast<size_t>(s)].load(), 1);
    EXPECT_EQ(inline_record.thread[static_cast<size_t>(s)],
              std::this_thread::get_id());
  }
  SliceRecord two;
  RecordSlices(2, &two);
  EXPECT_EQ(two.runs[0].load(), 1);
  EXPECT_EQ(two.runs[1].load(), 1);
  EXPECT_NE(two.thread[1], std::this_thread::get_id());
  SetThreads(1);
  SliceRecord one;
  RecordSlices(2, &one);
  EXPECT_EQ(one.thread[1], std::this_thread::get_id());
  SetThreads(3);
  SliceRecord three;
  RecordSlices(3, &three);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(three.runs[static_cast<size_t>(s)].load(), 1);
  }
  EXPECT_NE(three.thread[1], three.thread[2]);
}

TEST(RtTest, SliceRegionMetricsAdvance) {
  obs::Counter* handed = obs::GetCounter("rt/slice_regions");
  obs::Counter* inline_regions = obs::GetCounter("rt/serial_slice_regions");
  SetThreads(2);
  int64_t handed_before = handed->value();
  int64_t inline_before = inline_regions->value();
  RunSlices(2, [](int) {});
  EXPECT_EQ(handed->value(), handed_before + 1);
  RunSlices(1, [](int) {});
  RunSlices(3, [](int) {});  // more slices than threads
  EXPECT_EQ(inline_regions->value(), inline_before + 2);
  EXPECT_EQ(handed->value(), handed_before + 1);
}

/// Pooled plus inline regions of each kind, as the counters read them.
struct RegionCounts {
  int64_t pooled = 0;
  int64_t serial = 0;
  int64_t sliced = 0;
  int64_t serial_sliced = 0;

  static RegionCounts Now() {
    return {obs::GetCounter("rt/regions")->value(),
            obs::GetCounter("rt/serial_regions")->value(),
            obs::GetCounter("rt/slice_regions")->value(),
            obs::GetCounter("rt/serial_slice_regions")->value()};
  }
};

// Two threads interleave ParallelFor and slice regions. Each region holds
// the workers or, finding them busy, runs inline; either way every index
// and every slice runs exactly once, and every region is counted once.
TEST(RtTest, ConcurrentParallelForAndSliceRegionsEachRunOnce) {
  SetThreads(4);
  constexpr int kRegions = 3000;
  const RegionCounts before = RegionCounts::Now();
  std::atomic<int> missed{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&missed, c] {
      std::array<std::atomic<int>, 40> hits{};
      for (int region = 0; region < kRegions; ++region) {
        if ((region + c) % 2 == 0) {
          const int64_t end = 2 + (region * 7 + c) % 39;
          for (auto& h : hits) h.store(0, std::memory_order_relaxed);
          ParallelFor(1 + region % 3, 0, end, [&hits](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
          });
          for (int64_t i = 0; i < end; ++i) {
            if (hits[static_cast<size_t>(i)].load() != 1) missed++;
          }
        } else {
          const int slices = 2 + region % 3;
          std::array<std::atomic<int>, 4> seen{};
          RunSlices(slices, [&seen](int s) { seen[static_cast<size_t>(s)]++; });
          for (int s = 0; s < slices; ++s) {
            if (seen[static_cast<size_t>(s)].load() != 1) missed++;
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(missed.load(), 0);
  const RegionCounts after = RegionCounts::Now();
  EXPECT_EQ(after.pooled + after.serial - before.pooled - before.serial,
            kRegions);
  EXPECT_EQ(after.sliced + after.serial_sliced - before.sliced -
                before.serial_sliced,
            kRegions);
}

// While one thread's region (ParallelFor or slices) holds the workers, a
// second thread's regions of either kind run inline on that thread, in
// order, and count as inline regions. The holding chunk gives up after
// 10 s, so a pool that hands the second thread's work to the blocked
// worker fails the checks instead of hanging.
TEST(RtTest, RegionFindingTheTeamBusyRunsInline) {
  SetThreads(4);
  for (const bool hold_with_slices : {false, true}) {
    std::atomic<bool> holding{false};
    std::atomic<bool> release{false};
    const auto hold = [&] {
      holding = true;
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!release && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    };
    std::thread holder([&] {
      if (hold_with_slices) {
        RunSlices(2, [&](int s) {
          if (s == 0) hold();
        });
      } else {
        ParallelFor(1, 0, 2, [&](int64_t lo, int64_t) {
          if (lo == 0) hold();
        });
      }
    });
    while (!holding) std::this_thread::yield();
    const RegionCounts before = RegionCounts::Now();
    const std::thread::id self = std::this_thread::get_id();
    std::vector<int64_t> order;
    std::atomic<int> foreign{0};
    ParallelFor(1, 0, 6, [&](int64_t lo, int64_t) {
      if (std::this_thread::get_id() != self) foreign++;
      order.push_back(lo);
    });
    std::vector<int> slice_order;
    RunSlices(3, [&](int s) {
      if (std::this_thread::get_id() != self) foreign++;
      slice_order.push_back(s);
    });
    const RegionCounts after = RegionCounts::Now();
    release = true;
    holder.join();
    EXPECT_EQ(foreign.load(), 0) << "held with slices: " << hold_with_slices;
    EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(slice_order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(after.serial - before.serial, 1);
    EXPECT_EQ(after.serial_sliced - before.serial_sliced, 1);
    EXPECT_EQ(after.pooled - before.pooled, 0);
    EXPECT_EQ(after.sliced - before.sliced, 0);
  }
}

// Regions separated by idle gaps longer than the workers' 500 µs spin find
// them parked: the caller may claim every chunk before a woken worker
// starts, and then takes its posting back. Short and slow chunks alike
// still cover every index once, and the next region still finds the
// worker's slot usable.
TEST(RtTest, ParallelForAfterIdleGapsCoversEveryIndexOnce) {
  SetThreads(4);
  for (int region = 0; region < 30; ++region) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const int64_t end = 2 + region % 11;
    const bool slow = region % 3 == 0;
    std::array<std::atomic<int>, 12> hits{};
    ParallelFor(1, 0, end, [&](int64_t lo, int64_t hi) {
      if (slow) std::this_thread::sleep_for(std::chrono::microseconds(100));
      for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
    });
    for (int64_t i = 0; i < 12; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), i < end ? 1 : 0)
          << "region " << region << " index " << i;
    }
  }
}

TEST(RtTest, SlicesForFitsEachShareInL2) {
  SetThreads(4);
  const int64_t l2 = L2CacheBytes();
  EXPECT_GE(l2, 0);
  EXPECT_EQ(SlicesFor(0), 1);
  if (l2 == 0) {
    // A host that reports no L2 never splits.
    EXPECT_EQ(SlicesFor(int64_t{1} << 40), 1);
    return;
  }
  EXPECT_EQ(SlicesFor(l2), 1);
  EXPECT_EQ(SlicesFor(l2 + 1), 2);
  EXPECT_EQ(SlicesFor(2 * l2), 2);
  EXPECT_EQ(SlicesFor(2 * l2 + 1), 3);
  EXPECT_EQ(SlicesFor(100 * l2), 4);  // capped at the pool width
  SetThreads(2);
  EXPECT_EQ(SlicesFor(100 * l2), 2);
  SetThreads(1);
  EXPECT_EQ(SlicesFor(100 * l2), 1);
}

}  // namespace
}  // namespace rt
}  // namespace vist5
