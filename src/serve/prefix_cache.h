#ifndef VIST5_SERVE_PREFIX_CACHE_H_
#define VIST5_SERVE_PREFIX_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "model/transformer_model.h"

namespace vist5 {
namespace serve {

struct PrefixCacheOptions {
  /// Byte budget for resident blocks; must be > 0. A scheduler with
  /// prefix_cache_bytes 0 builds no cache at all.
  size_t max_bytes = 0;
};

/// Point-in-time counters, all monotone except bytes/entries.
struct PrefixCacheStats {
  uint64_t hits = 0;          ///< Acquire found a block
  uint64_t misses = 0;        ///< Acquire found none
  uint64_t insertions = 0;    ///< blocks newly retained by Insert
  uint64_t evictions = 0;     ///< blocks dropped to stay under budget
  /// Encoder tokens whose prefill was skipped thanks to hits.
  uint64_t reuse_tokens = 0;
  size_t bytes = 0;           ///< resident block bytes right now
  size_t entries = 0;         ///< resident blocks right now
};

/// Exact-match, refcounted cache of encoder-side prefill blocks
/// (model::EncodedPrefix), shared across requests by the serve scheduler.
///
/// Keying: one table keyed on (weight dtype, full encoder token sequence)
/// — int8 and float32 encoder outputs differ numerically. Only an exact
/// match is reusable: the T5 encoder is bidirectional, so the hidden state
/// at every position depends on the whole input, and a block for any
/// other sequence, however long the shared prefix, could not reproduce
/// bit-exact tokens (docs/SERVING.md).
///
/// Lifetime: Acquire (on hit) and Insert pin the block — pinned entries
/// are never evicted, so a batch mid-decode can never lose the storage it
/// aliases. Release unpins and, together with Insert, trims unpinned
/// entries in LRU order until the byte budget holds. Clear drops every
/// entry (checkpoint reload: new weights invalidate every block); handles
/// still outstanding keep their block alive through the shared_ptr and
/// their Release becomes a no-op.
///
/// Thread-safe: one mutex guards the table. The scheduler loop is the only
/// mutator, but /admin/stats and /metrics scrape stats() from transport
/// threads concurrently.
class PrefixCache {
 public:
  /// One Acquire/Insert result. `block` is null on a miss from Acquire;
  /// `hit` distinguishes an Acquire hit from an Insert pin. Pass the
  /// handle back to Release exactly once when the request completes.
  struct Handle {
    std::shared_ptr<const model::EncodedPrefix> block;
    bool hit = false;
  };

  explicit PrefixCache(const PrefixCacheOptions& options);

  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  /// Looks up the exact sequence. On a hit the entry is pinned and its
  /// LRU clock touched; a miss returns an empty handle.
  Handle Acquire(const std::vector<int>& tokens, WeightDtype dtype);

  /// Donates a freshly computed block. Retains and pins it, then trims
  /// unpinned LRU entries to budget; if the sequence is already resident
  /// the existing block wins and the returned handle carries it.
  Handle Insert(std::shared_ptr<const model::EncodedPrefix> block);

  /// Unpins a handle from Acquire/Insert. Safe after Clear (the entry may
  /// be gone — identity is checked, not just the key). Triggers an LRU
  /// trim, since the newly unpinned entry may now be evictable.
  void Release(const Handle& handle);

  /// Drops every entry regardless of LRU state. Outstanding handles keep
  /// their blocks alive; callers use this when the model weights change
  /// (checkpoint reload) at a batch-empty boundary.
  void Clear();

  PrefixCacheStats stats() const;

  size_t max_bytes() const { return options_.max_bytes; }

 private:
  using Key = std::pair<WeightDtype, std::vector<int>>;
  /// A lookup key over the caller's tokens, so that Acquire and Release
  /// copy no tokens.
  using KeyRef = std::pair<WeightDtype, const std::vector<int>&>;
  /// Orders keys by dtype, then length, then raw token bytes. An exact-match
  /// table needs only some strict order, and memcmp compares a whole
  /// sequence at memory speed; an element-wise lexicographic compare made
  /// Acquire about 1.7x slower.
  struct KeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      if (a.first != b.first) return a.first < b.first;
      if (a.second.size() != b.second.size()) {
        return a.second.size() < b.second.size();
      }
      return std::memcmp(a.second.data(), b.second.data(),
                         a.second.size() * sizeof(int)) < 0;
    }
  };
  struct Entry {
    std::shared_ptr<const model::EncodedPrefix> block;
    int pins = 0;
    uint64_t lru = 0;
    size_t bytes = 0;
  };

  /// Evicts unpinned entries, least recently used first, until the
  /// resident bytes fit max_bytes (or only pinned entries remain).
  void TrimLocked();
  void UpdateGaugesLocked();

  const PrefixCacheOptions options_;
  mutable std::mutex mu_;
  std::map<Key, Entry, KeyLess> entries_;
  uint64_t tick_ = 0;  ///< LRU clock, bumped on every pin/unpin/touch
  PrefixCacheStats stats_;
};

}  // namespace serve
}  // namespace vist5

#endif  // VIST5_SERVE_PREFIX_CACHE_H_
