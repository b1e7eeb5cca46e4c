#include "serve/prefix_cache.h"

#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace vist5 {
namespace serve {
namespace {

struct Metrics {
  obs::Counter* hits = obs::GetCounter("serve/prefix_cache/hits");
  obs::Counter* misses = obs::GetCounter("serve/prefix_cache/misses");
  obs::Counter* insertions =
      obs::GetCounter("serve/prefix_cache/insertions");
  obs::Counter* evictions = obs::GetCounter("serve/prefix_cache/evictions");
  obs::Counter* reuse_tokens =
      obs::GetCounter("serve/prefix_cache/reuse_tokens");
  obs::Gauge* bytes = obs::GetGauge("serve/prefix_cache/bytes");
  obs::Gauge* entries = obs::GetGauge("serve/prefix_cache/entries");
};

Metrics& GlobalMetrics() {
  static Metrics m;
  return m;
}

}  // namespace

PrefixCache::PrefixCache(const PrefixCacheOptions& options)
    : options_(options) {
  VIST5_CHECK(options.max_bytes > 0) << "a prefix cache needs a byte budget";
}

void PrefixCache::TrimLocked() {
  while (stats_.bytes > options_.max_bytes) {
    // Linear scan for the least-recently-used unpinned entry. Entry counts
    // are small (each holds every layer's cross K/V for its source, about
    // 93 KB for a 91-token t5_small source), so a scan beats maintaining an
    // LRU list beside the table.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.pins == 0 &&
          (victim == entries_.end() || it->second.lru < victim->second.lru)) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything resident is pinned
    stats_.bytes -= victim->second.bytes;
    entries_.erase(victim);
    ++stats_.evictions;
    GlobalMetrics().evictions->Add();
  }
}

void PrefixCache::UpdateGaugesLocked() {
  stats_.entries = entries_.size();
  GlobalMetrics().bytes->Set(static_cast<double>(stats_.bytes));
  GlobalMetrics().entries->Set(static_cast<double>(stats_.entries));
}

PrefixCache::Handle PrefixCache::Acquire(const std::vector<int>& tokens,
                                         WeightDtype dtype) {
  Handle handle;
  if (tokens.empty()) return handle;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(KeyRef{dtype, tokens});
  if (it == entries_.end()) {
    ++stats_.misses;
    GlobalMetrics().misses->Add();
    return handle;
  }
  handle.block = it->second.block;
  handle.hit = true;
  ++it->second.pins;
  it->second.lru = ++tick_;
  ++stats_.hits;
  stats_.reuse_tokens += tokens.size();
  GlobalMetrics().hits->Add();
  GlobalMetrics().reuse_tokens->Add(static_cast<int64_t>(tokens.size()));
  return handle;
}

PrefixCache::Handle PrefixCache::Insert(
    std::shared_ptr<const model::EncodedPrefix> block) {
  Handle handle;
  if (block == nullptr || block->tokens.empty()) return handle;
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      entries_.try_emplace(Key{block->dtype, block->tokens});
  Entry& entry = it->second;
  if (inserted) {
    entry.bytes = block->ByteSize();
    entry.block = std::move(block);
    stats_.bytes += entry.bytes;
    ++stats_.insertions;
    GlobalMetrics().insertions->Add();
  }
  // An entry may already exist (another donor won the race); the resident
  // block wins so every same-key consumer aliases one storage.
  handle.block = entry.block;
  ++entry.pins;
  entry.lru = ++tick_;
  TrimLocked();  // never touches this entry: it is pinned
  UpdateGaugesLocked();
  return handle;
}

void PrefixCache::Release(const Handle& handle) {
  if (handle.block == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it =
      entries_.find(KeyRef{handle.block->dtype, handle.block->tokens});
  // Identity check, not just key equality: after Clear (or an evict +
  // reinsert of the same sequence) the resident block is a different
  // object and this handle no longer holds a pin on it.
  if (it == entries_.end() || it->second.block != handle.block) return;
  if (it->second.pins > 0) --it->second.pins;
  it->second.lru = ++tick_;
  TrimLocked();
  UpdateGaugesLocked();
}

void PrefixCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  stats_.bytes = 0;
  UpdateGaugesLocked();
}

PrefixCacheStats PrefixCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace serve
}  // namespace vist5
