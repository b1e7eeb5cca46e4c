// serve::PrefixCache pins: the exact-match table itself (insert, exact
// lookup, refcount pins vs. LRU eviction under a byte budget, dtype keying,
// Clear) and — the part that actually matters — bit-exact parity between
// cache-on and cache-off decoding. A spliced encoder block must never move
// a single token: greedy, continuously batched, staggered warm/cold
// arrivals, and eviction-then-reinsert all decode token-for-token
// identical to a plain sequential Generate (docs/SERVING.md).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "full_prefix_oracle.h"
#include "model/batch_decoder.h"
#include "model/transformer_model.h"
#include "nn/transformer.h"
#include "serve/prefix_cache.h"
#include "serve/scheduler.h"
#include "spec/engine.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace vist5 {
namespace {

constexpr int kVocab = 48;
constexpr int kPad = 0;
constexpr int kEos = 1;

std::vector<int> RandomSeq(Rng* rng, int len) {
  std::vector<int> seq(static_cast<size_t>(len));
  for (int& t : seq) t = rng->UniformRange(2, kVocab - 1);
  return seq;
}

// ---------------------------------------------------------------------------
// Exact-match table unit tests. Blocks here are synthetic — a small cross
// K/V payload stands in for a real encode, so byte budgets can be set in
// units of "one block" without running a model.
// ---------------------------------------------------------------------------

std::shared_ptr<const model::EncodedPrefix> MakeBlock(
    std::vector<int> tokens, WeightDtype dtype = WeightDtype::kFloat32) {
  auto block = std::make_shared<model::EncodedPrefix>();
  block->tokens = std::move(tokens);
  block->dtype = dtype;
  nn::DecodeState::LayerCache layer;
  layer.cross_k = Tensor({128, 1});
  layer.cross_v = Tensor({128, 1});
  block->state.layers.push_back(std::move(layer));
  return block;
}

size_t OneBlockBytes() { return MakeBlock({1, 2, 3})->ByteSize(); }

TEST(PrefixCacheIndex, InsertExactLookupAndPartialMatch) {
  serve::PrefixCache cache({/*max_bytes=*/1 << 20});
  auto block = MakeBlock({1, 2, 3});
  serve::PrefixCache::Handle inserted = cache.Insert(block);
  EXPECT_EQ(inserted.block.get(), block.get());

  serve::PrefixCache::Handle hit =
      cache.Acquire({1, 2, 3}, WeightDtype::kFloat32);
  ASSERT_TRUE(hit.hit);
  EXPECT_EQ(hit.block.get(), block.get());

  // A strict prefix, a strict extension and a one-token change of the
  // resident key are all plain misses.
  for (const std::vector<int>& key :
       {std::vector<int>{1, 2}, {1, 2, 3, 4}, {1, 9, 3}}) {
    serve::PrefixCache::Handle miss = cache.Acquire(key, WeightDtype::kFloat32);
    EXPECT_FALSE(miss.hit) << "key size " << key.size();
    EXPECT_EQ(miss.block, nullptr) << "key size " << key.size();
  }

  const serve::PrefixCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.reuse_tokens, 3u);

  cache.Release(inserted);
  cache.Release(hit);
}

TEST(PrefixCacheIndex, EdgeSplittingKeepsAllEntriesReachable) {
  serve::PrefixCache cache({/*max_bytes=*/1 << 20});
  // Keys that are prefixes of one another are separate entries.
  cache.Release(cache.Insert(MakeBlock({1, 2, 3})));
  cache.Release(cache.Insert(MakeBlock({1, 2, 4})));
  cache.Release(cache.Insert(MakeBlock({1, 2})));
  EXPECT_EQ(cache.stats().entries, 3u);
  for (const std::vector<int>& key :
       {std::vector<int>{1, 2, 3}, {1, 2, 4}, {1, 2}}) {
    serve::PrefixCache::Handle h = cache.Acquire(key, WeightDtype::kFloat32);
    EXPECT_TRUE(h.hit) << "key size " << key.size();
    cache.Release(h);
  }
  EXPECT_FALSE(cache.Acquire({1}, WeightDtype::kFloat32).hit);
}

TEST(PrefixCacheIndex, LruEvictionSkipsPinnedEntries) {
  const size_t one = OneBlockBytes();
  serve::PrefixCache cache({/*max_bytes=*/2 * one + one / 2});
  serve::PrefixCache::Handle pinned_a = cache.Insert(MakeBlock({1, 1, 1}));
  cache.Release(cache.Insert(MakeBlock({2, 2, 2})));
  // Third insert exceeds the two-and-a-half-block budget. A is pinned and
  // C is pinned by its own insert, so B — the LRU unpinned entry — goes.
  serve::PrefixCache::Handle pinned_c = cache.Insert(MakeBlock({3, 3, 3}));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_FALSE(cache.Acquire({2, 2, 2}, WeightDtype::kFloat32).hit);
  serve::PrefixCache::Handle a = cache.Acquire({1, 1, 1}, WeightDtype::kFloat32);
  serve::PrefixCache::Handle c = cache.Acquire({3, 3, 3}, WeightDtype::kFloat32);
  EXPECT_TRUE(a.hit);
  EXPECT_TRUE(c.hit);
  cache.Release(a);
  cache.Release(c);
  cache.Release(pinned_a);
  cache.Release(pinned_c);
}

TEST(PrefixCacheIndex, EvictionNeverFreesAPinnedBlock) {
  const size_t one = OneBlockBytes();
  serve::PrefixCache cache({/*max_bytes=*/one});  // budget: one block
  serve::PrefixCache::Handle a = cache.Insert(MakeBlock({1, 1}));
  serve::PrefixCache::Handle b = cache.Insert(MakeBlock({2, 2}));
  // Twice over budget, but both entries are pinned: nothing may be freed.
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  // Unpinning B makes it the only legal victim even though A is older.
  cache.Release(b);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.Acquire({1, 1}, WeightDtype::kFloat32).hit);
  EXPECT_FALSE(cache.Acquire({2, 2}, WeightDtype::kFloat32).hit);
}

TEST(PrefixCacheIndex, LruOrderFollowsTouches) {
  const size_t one = OneBlockBytes();
  serve::PrefixCache cache({/*max_bytes=*/2 * one + one / 2});
  cache.Release(cache.Insert(MakeBlock({1, 1, 1})));
  cache.Release(cache.Insert(MakeBlock({2, 2, 2})));
  // Touch A: B becomes the least recently used entry.
  cache.Release(cache.Acquire({1, 1, 1}, WeightDtype::kFloat32));
  cache.Release(cache.Insert(MakeBlock({3, 3, 3})));
  EXPECT_TRUE(cache.Acquire({1, 1, 1}, WeightDtype::kFloat32).hit);
  EXPECT_FALSE(cache.Acquire({2, 2, 2}, WeightDtype::kFloat32).hit);
  EXPECT_TRUE(cache.Acquire({3, 3, 3}, WeightDtype::kFloat32).hit);
}

TEST(PrefixCacheIndex, DtypesKeySeparateTrees) {
  serve::PrefixCache cache({/*max_bytes=*/1 << 20});
  cache.Release(cache.Insert(MakeBlock({1, 2, 3}, WeightDtype::kFloat32)));
  EXPECT_FALSE(cache.Acquire({1, 2, 3}, WeightDtype::kInt8).hit);
  EXPECT_TRUE(cache.Acquire({1, 2, 3}, WeightDtype::kFloat32).hit);
}

TEST(PrefixCacheIndex, ClearInvalidatesAndOutstandingReleaseIsSafe) {
  serve::PrefixCache cache({/*max_bytes=*/1 << 20});
  serve::PrefixCache::Handle pinned = cache.Insert(MakeBlock({1, 2, 3}));
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_FALSE(cache.Acquire({1, 2, 3}, WeightDtype::kFloat32).hit);
  // The handle's block outlives the index through its shared_ptr, and
  // releasing it after Clear must not underflow a pin somewhere else.
  EXPECT_NE(pinned.block, nullptr);
  cache.Release(pinned);
  // Reinsert after Clear works as if from scratch.
  cache.Release(cache.Insert(MakeBlock({1, 2, 3})));
  EXPECT_TRUE(cache.Acquire({1, 2, 3}, WeightDtype::kFloat32).hit);
}

// ---------------------------------------------------------------------------
// Cached ≡ uncached decode parity, across both architecture presets and
// three seeds (the repo-wide parity matrix).
// ---------------------------------------------------------------------------

struct Preset {
  const char* name;
  nn::TransformerConfig (*make)(int vocab);
};

constexpr Preset kPresets[] = {
    {"t5_small", nn::TransformerConfig::T5Small},
    {"vanilla", nn::TransformerConfig::Vanilla},
};

class PrefixCacheParity
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {
 protected:
  const Preset& preset() const { return kPresets[std::get<0>(GetParam())]; }
  uint64_t seed() const { return std::get<1>(GetParam()); }

  nn::TransformerConfig Config() const {
    nn::TransformerConfig cfg = preset().make(kVocab);
    cfg.dropout = 0.0f;
    return cfg;
  }

  /// Request mix covering every cache temperature: a shared schema prefix
  /// with two questions (both cold: only exact repeats hit), exact repeats
  /// (warm), an unrelated sequence (cold), and the bare schema (an entry
  /// that is a proper prefix of another).
  std::vector<std::vector<int>> MakeSources() const {
    Rng data(seed() * 23 + 9);
    const std::vector<int> schema = RandomSeq(&data, 8);
    const std::vector<int> q1 = RandomSeq(&data, 3);
    const std::vector<int> q2 = RandomSeq(&data, 3);
    std::vector<int> s0 = schema;
    s0.insert(s0.end(), q1.begin(), q1.end());
    std::vector<int> s1 = schema;
    s1.insert(s1.end(), q2.begin(), q2.end());
    return {s0, s1, s0, RandomSeq(&data, 6), s0, schema};
  }
};

TEST_P(PrefixCacheParity, SplicedAdmitBitIdenticalToPlainAdmit) {
  model::TransformerSeq2Seq m(Config(), kPad, kEos, seed());
  const std::vector<std::vector<int>> srcs = MakeSources();
  model::GenerationOptions options;
  options.max_len = 12;

  std::vector<std::vector<int>> reference;
  for (const auto& src : srcs) reference.push_back(m.Generate(src, options));

  // Batched decode where every row's prefill came from a shared block.
  model::ContinuousDecoder decoder(&m);
  std::vector<std::shared_ptr<const model::EncodedPrefix>> blocks;
  for (size_t i = 0; i < srcs.size(); ++i) {
    blocks.push_back(m.EncodePrefix(srcs[i], options.weight_dtype));
    decoder.Admit(static_cast<uint64_t>(i), srcs[i], options,
                  model::ContinuousDecoder::Clock::time_point::max(),
                  blocks.back().get());
  }
  // A beam-3 request spliced from the first row's block: its range is
  // gathered by Reorder every step while the greedy row aliases the same
  // block, and the block must come out unchanged.
  model::GenerationOptions beam = options;
  beam.beam_size = 3;
  const std::vector<int> beam_reference =
      oracle::BeamDecodeFull(m, srcs[0], beam);
  const auto snapshot = [](const model::EncodedPrefix& block) {
    std::vector<float> out;
    for (const nn::DecodeState::LayerCache& layer : block.state.layers) {
      out.insert(out.end(), layer.cross_k.data().begin(),
                 layer.cross_k.data().end());
      out.insert(out.end(), layer.cross_v.data().begin(),
                 layer.cross_v.data().end());
    }
    return out;
  };
  const std::vector<float> block_before = snapshot(*blocks[0]);
  const uint64_t beam_id = srcs.size();
  decoder.Admit(beam_id, srcs[0], beam,
                model::ContinuousDecoder::Clock::time_point::max(),
                blocks[0].get());
  std::vector<std::vector<int>> spliced(srcs.size());
  std::vector<int> spliced_beam;
  while (decoder.active() > 0) {
    for (model::ContinuousDecoder::Finished& f : decoder.Step()) {
      if (f.id == beam_id) {
        spliced_beam = std::move(f.tokens);
      } else {
        spliced[static_cast<size_t>(f.id)] = std::move(f.tokens);
      }
    }
  }
  EXPECT_EQ(spliced, reference) << preset().name;
  EXPECT_EQ(spliced_beam, beam_reference) << preset().name;
  EXPECT_EQ(snapshot(*blocks[0]), block_before) << preset().name;
}

TEST_P(PrefixCacheParity, SchedulerCacheOnMatchesCacheOffStaggered) {
  model::TransformerSeq2Seq m(Config(), kPad, kEos, seed());
  const std::vector<std::vector<int>> srcs = MakeSources();
  model::GenerationOptions gen;
  gen.max_len = 12;

  std::vector<std::vector<int>> reference;
  for (const auto& src : srcs) reference.push_back(m.Generate(src, gen));

  for (const size_t cache_bytes : {size_t{0}, size_t{64} << 20}) {
    serve::SchedulerOptions options;
    options.max_batch = 3;  // forces joins and staggered admissions
    options.prefix_cache_bytes = cache_bytes;
    serve::BatchScheduler scheduler(&m, options);
    scheduler.Start();

    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::vector<int>> got(srcs.size());
    size_t done = 0;
    for (size_t i = 0; i < srcs.size(); ++i) {
      serve::Request req;
      req.tokens = srcs[i];
      req.options = gen;
      scheduler.Submit(std::move(req), [&, i](serve::Response r) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_EQ(r.status, serve::ResponseStatus::kOk);
        got[i] = std::move(r.tokens);
        if (++done == srcs.size()) cv.notify_all();
      });
      // Stagger arrivals so later requests join a running batch — warm
      // repeats land while their block is still pinned by an active row.
      if (i % 2 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == srcs.size(); });
    }
    scheduler.Shutdown(/*drain=*/true);

    EXPECT_EQ(got, reference)
        << preset().name << " cache_bytes=" << cache_bytes;
    if (cache_bytes > 0) {
      ASSERT_NE(scheduler.prefix_cache(), nullptr);
      const serve::PrefixCacheStats stats = scheduler.prefix_cache()->stats();
      // Three exact repeats of s0 → at least two warm hits.
      EXPECT_GE(stats.hits, 2u) << preset().name;
      EXPECT_GE(stats.insertions, 3u) << preset().name;
      EXPECT_GT(stats.reuse_tokens, 0u) << preset().name;
    } else {
      EXPECT_EQ(scheduler.prefix_cache(), nullptr);
    }
  }
}

TEST_P(PrefixCacheParity, HitAfterEvictionAndReinsertReproducesTokens) {
  model::TransformerSeq2Seq m(Config(), kPad, kEos, seed());
  Rng data(seed() * 29 + 3);
  const std::vector<int> src = RandomSeq(&data, 7);
  model::GenerationOptions options;
  options.max_len = 12;
  const std::vector<int> reference = m.Generate(src, options);

  auto decode_with = [&](const model::EncodedPrefix* block) {
    model::ContinuousDecoder decoder(&m);
    decoder.Admit(1, src, options,
                  model::ContinuousDecoder::Clock::time_point::max(), block);
    std::vector<int> out;
    while (decoder.active() > 0) {
      for (model::ContinuousDecoder::Finished& f : decoder.Step()) {
        out = std::move(f.tokens);
      }
    }
    return out;
  };

  auto first = m.EncodePrefix(src, options.weight_dtype);
  serve::PrefixCache cache({first->ByteSize() + first->ByteSize() / 2});
  cache.Release(cache.Insert(first));
  EXPECT_EQ(decode_with(first.get()), reference);

  // Force the entry out, then recompute and reinsert the same sequence.
  // The new block is a different object with the same contents; a hit on
  // it must reproduce the original tokens exactly.
  cache.Release(cache.Insert(m.EncodePrefix(RandomSeq(&data, 9),
                                            options.weight_dtype)));
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.Acquire(src, options.weight_dtype).hit);

  cache.Release(cache.Insert(m.EncodePrefix(src, options.weight_dtype)));
  serve::PrefixCache::Handle hit = cache.Acquire(src, options.weight_dtype);
  ASSERT_TRUE(hit.hit);
  EXPECT_NE(hit.block.get(), first.get());
  EXPECT_EQ(decode_with(hit.block.get()), reference) << preset().name;
  cache.Release(hit);
}

// TruncateTo on a state spliced from a cached block — the speculative
// rollback path (docs/SPECULATIVE.md): a DecodeState copied out of an
// EncodedPrefix aliases the block's immutable cross K/V while its self
// K/V grow fresh. Rolling rejected speculative positions back must leave
// the shared block byte-for-byte intact (it may be backing other live
// decodes) and leave the rolled-back state on the exact greedy path.
TEST_P(PrefixCacheParity, TruncateToOnSplicedStateLeavesBlockIntact) {
  model::TransformerSeq2Seq m(Config(), kPad, kEos, seed());
  Rng data(seed() * 31 + 17);
  const std::vector<int> src = RandomSeq(&data, 7);
  model::GenerationOptions options;
  options.max_len = 12;
  const std::vector<int> reference = m.Generate(src, options);

  auto block = m.EncodePrefix(src, options.weight_dtype);
  std::vector<std::vector<float>> cross_before;
  for (const nn::DecodeState::LayerCache& layer : block->state.layers) {
    cross_before.push_back(layer.cross_k.data());
    cross_before.push_back(layer.cross_v.data());
  }

  // Manual splice: feed [pad] plus three junk speculative tokens as one
  // span, reject all three, then walk greedily from the rolled-back state.
  NoGradGuard guard;
  const nn::Transformer& tf = m.transformer();
  nn::DecodeState state = block->state;
  Tensor hidden = tf.DecodeStep({kPad, 9, 11, 13}, &state, 4);
  ASSERT_EQ(state.step, 4);
  state.TruncateTo(1);  // keep only the [pad] position

  const auto argmax = [&](const Tensor& row_hidden) {
    Tensor logits = tf.Logits(row_hidden);
    return model::BestAllowedToken(logits.data().data(), logits.dim(1),
                                   nullptr);
  };
  std::vector<int> walked;
  // Row 0 of the span is the [pad] position — still valid after rollback.
  walked.push_back(argmax(ops::GatherRows(hidden, {0})));
  while (walked.size() < reference.size()) {
    walked.push_back(argmax(tf.DecodeStep({walked.back()}, &state, 1)));
  }
  EXPECT_EQ(walked, reference)
      << preset().name << ": rolled-back spliced state left the greedy path";

  // Engine-level splice: a differently-seeded draft forces real reject +
  // rollback traffic over the same block, and parity must still hold.
  model::TransformerSeq2Seq draft(Config(), kPad, kEos, seed() + 99);
  spec::DraftVerifyEngine engine(&m, &draft);
  model::GenerationOptions spec = options;
  spec.draft_k = 3;
  spec::SpecStats stats;
  EXPECT_EQ(engine.Generate(src, spec, block.get(), &stats), reference)
      << preset().name;
  EXPECT_GT(stats.steps, 0) << preset().name;

  // The shared block never moved a byte under either consumer.
  size_t slot = 0;
  for (const nn::DecodeState::LayerCache& layer : block->state.layers) {
    EXPECT_EQ(layer.cross_k.data(), cross_before[slot++])
        << preset().name << ": block cross_k mutated";
    EXPECT_EQ(layer.cross_v.data(), cross_before[slot++])
        << preset().name << ": block cross_v mutated";
  }
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndSeeds, PrefixCacheParity,
    ::testing::Combine(::testing::Range(0, 2),
                       ::testing::Values<uint64_t>(11, 42, 1234)),
    [](const ::testing::TestParamInfo<PrefixCacheParity::ParamType>& info) {
      return std::string(kPresets[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace vist5
