// AddressSanitizer pass over the serve::PrefixCache exact-match table
// (docs/SERVING.md), the cache-side companion to simd_asan_test's kernel
// matrix. The release tree compiles the cache with -O3 and no sanitizer;
// this binary recompiles src/serve/prefix_cache.cc under ASan (see
// tests/CMakeLists.txt) and churns it with hundreds of thousands of
// insert / acquire / release / clear operations over a deliberately tiny
// token alphabet and byte budget, so same-key inserts while pinned, LRU
// evictions and reinserts of evicted keys are the common case. Stale
// handles get released too: after Clear, and after their entry was
// evicted and the same key reinserted as a new block — the identity check
// must make each a no-op. After every operation the resident bytes are
// checked against the budget: every block a live handle pins is resident,
// and the cache is over budget only when nothing unpinned is left. A freed
// entry touched again surfaces as a hard heap-use-after-free report.
//
// Plain main (no gtest), like simd_asan_test: the hot path stays inside
// the instrumented TU. Deterministic seed so any report reproduces.

#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "model/transformer_model.h"
#include "serve/prefix_cache.h"
#include "util/rng.h"

namespace vist5 {
namespace {

using Handle = serve::PrefixCache::Handle;

int Run() {
  Rng rng(20260807);
  const auto make_block = [&rng](std::vector<int> tokens) {
    auto block = std::make_shared<model::EncodedPrefix>();
    block->tokens = std::move(tokens);
    // Variable payload sizes keep the byte accounting honest under churn.
    nn::DecodeState::LayerCache layer;
    layer.cross_k = Tensor({rng.UniformRange(1, 32), 1});
    layer.cross_v = Tensor({rng.UniformRange(1, 32), 1});
    block->state.layers.push_back(std::move(layer));
    return block;
  };
  const auto random_seq = [&rng] {
    // 39 keys (alphabet of 3, lengths 1..3) against a budget of about
    // four blocks: same-key inserts and reinserts after eviction are the
    // common case.
    std::vector<int> seq(static_cast<size_t>(rng.UniformRange(1, 3)));
    for (int& t : seq) t = rng.UniformInt(3);
    return seq;
  };
  const auto pick = [&rng](const std::vector<Handle>& handles) {
    return static_cast<size_t>(
        rng.UniformInt(static_cast<int>(handles.size())));
  };
  const auto take = [](std::vector<Handle>* handles, size_t i) {
    Handle h = std::move((*handles)[i]);
    handles->erase(handles->begin() + static_cast<long>(i));
    return h;
  };

  const size_t one_block = make_block({1, 2, 3})->ByteSize();
  serve::PrefixCache cache({one_block * 4});

  // Live handles pin their block exactly once each; `pins` counts them per
  // block, and `pinned_bytes` sums the distinct pinned blocks' bytes.
  std::vector<Handle> live;
  std::map<const model::EncodedPrefix*, int> pins;
  size_t pinned_bytes = 0;
  // Handles already released (their entry may since be evicted and the
  // key reinserted), and handles that outlived a Clear.
  std::vector<Handle> retired;
  std::vector<Handle> cleared;
  uint64_t stale_releases = 0;
  uint64_t reinserted = 0;  ///< of those, the key was resident again

  const auto hold = [&](Handle h) {
    if (++pins[h.block.get()] == 1) pinned_bytes += h.block->ByteSize();
    live.push_back(std::move(h));
  };
  const auto release = [&](size_t i) {
    Handle h = take(&live, i);
    cache.Release(h);
    if (--pins[h.block.get()] == 0) {
      pins.erase(h.block.get());
      pinned_bytes -= h.block->ByteSize();
    }
    retired.push_back(std::move(h));
    if (retired.size() > 64) take(&retired, 0);
  };
  const auto within_budget = [&](const char* op, int i) {
    const serve::PrefixCacheStats stats = cache.stats();
    const bool ok = stats.bytes >= pinned_bytes &&
                    (stats.bytes <= cache.max_bytes() ||
                     stats.bytes == pinned_bytes);
    if (!ok) {
      std::fprintf(stderr,
                   "prefix_cache_asan: FAIL after %s (op %d) — %zu resident "
                   "bytes, %zu pinned, budget %zu\n",
                   op, i, static_cast<size_t>(stats.bytes), pinned_bytes,
                   cache.max_bytes());
    }
    return ok;
  };

  constexpr int kOps = 200000;
  constexpr size_t kMaxLive = 6;
  for (int i = 0; i < kOps; ++i) {
    const char* op = "";
    int choice = rng.UniformInt(10);
    if (live.size() >= kMaxLive && choice < 6) choice = 6;
    switch (choice) {
      case 0:
      case 1: {
        op = "Insert";
        hold(cache.Insert(make_block(random_seq())));
        break;
      }
      case 2: {
        // Same key as a pinned entry: the resident block must win.
        op = "same-key Insert";
        if (live.empty()) break;
        const Handle& pinned = live[pick(live)];
        Handle h = cache.Insert(make_block(pinned.block->tokens));
        if (h.block != pinned.block) {
          std::fprintf(stderr, "prefix_cache_asan: FAIL — a same-key "
                               "Insert replaced a pinned block\n");
          return 1;
        }
        hold(std::move(h));
        break;
      }
      case 3:
      case 4:
      case 5: {
        op = "Acquire";
        Handle h = cache.Acquire(random_seq(), WeightDtype::kFloat32);
        if (h.hit) hold(std::move(h));
        break;
      }
      case 6:
      case 7:
        op = "Release";
        if (!live.empty()) release(pick(live));
        break;
      case 8: {
        // A released handle whose entry is gone (evicted, maybe reinserted
        // as a new block) or that outlived a Clear: Release is a no-op.
        op = "stale Release";
        std::vector<Handle>* pool = !cleared.empty() && rng.UniformInt(2) == 0
                                        ? &cleared
                                        : &retired;
        if (pool->empty()) break;
        Handle stale = take(pool, pick(*pool));
        Handle now = cache.Acquire(stale.block->tokens, WeightDtype::kFloat32);
        if (now.hit) hold(now);
        if (now.block == stale.block) break;  // still resident: not stale
        cache.Release(stale);
        ++stale_releases;
        if (now.hit) ++reinserted;
        if (!within_budget(op, i)) return 1;
        break;
      }
      case 9:
        op = "Clear";
        if (rng.UniformInt(300) != 0) break;
        cache.Clear();
        for (Handle& h : live) cleared.push_back(std::move(h));
        live.clear();
        pins.clear();
        pinned_bytes = 0;
        break;
    }
    if (!within_budget(op, i)) return 1;
  }
  while (!live.empty()) release(0);
  for (const Handle& h : cleared) cache.Release(h);
  if (!within_budget("final Release", kOps)) return 1;

  const serve::PrefixCacheStats stats = cache.stats();
  std::printf(
      "prefix_cache_asan: %d ops ok (%llu insertions, %llu hits, %llu "
      "evictions, %llu stale releases, %llu of them over a reinserted key, "
      "%llu resident)\n",
      kOps, static_cast<unsigned long long>(stats.insertions),
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stale_releases),
      static_cast<unsigned long long>(reinserted),
      static_cast<unsigned long long>(stats.entries));
  return 0;
}

}  // namespace
}  // namespace vist5

int main() { return vist5::Run(); }
