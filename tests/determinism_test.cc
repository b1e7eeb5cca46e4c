// Thread-count determinism pins: the whole point of the rt parallelization
// is that it NEVER changes numerics. Forward losses/logits, gradients after
// one AdamW step, and decoded token sequences must be bit-identical between
// rt::SetThreads(1) and rt::SetThreads(4) — across seeds and across two
// architecture presets (pre-RMS/relative-bias and post-LN/sinusoidal). See
// docs/PARALLELISM.md for why this holds even under -ffast-math: thread
// count only changes which thread runs a chunk, never the arithmetic or
// accumulation order inside any output element.

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "model/batch_decoder.h"
#include "model/trainer.h"
#include "model/transformer_model.h"
#include "nn/transformer.h"
#include "rt/thread_pool.h"
#include "serve/prefix_cache.h"
#include "spec/engine.h"
#include "tensor/optimizer.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace vist5 {
namespace {

struct Preset {
  const char* name;
  nn::TransformerConfig (*make)(int vocab);
};

constexpr Preset kPresets[] = {
    {"t5_small", nn::TransformerConfig::T5Small},  // pre-RMS, relative bias
    {"vanilla", nn::TransformerConfig::Vanilla},   // post-LN, sinusoidal
};

constexpr int kVocab = 48;
constexpr int kPad = 0;
constexpr int kEos = 1;

std::vector<int> RandomSeq(Rng* rng, int len) {
  std::vector<int> seq(static_cast<size_t>(len));
  for (int& t : seq) t = rng->UniformRange(2, kVocab - 1);
  return seq;
}

model::Batch MakeTestBatch(uint64_t seed) {
  Rng data(seed * 31 + 7);
  std::vector<model::SeqPair> pairs(3);
  std::vector<const model::SeqPair*> items;
  for (auto& p : pairs) {
    p.src = RandomSeq(&data, data.UniformRange(4, 8));
    p.tgt = RandomSeq(&data, data.UniformRange(3, 6));
    p.tgt.push_back(kEos);
    items.push_back(&p);
  }
  return model::MakeBatch(items, kPad, 16, 12);
}

class Determinism
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {
 protected:
  const Preset& preset() const { return kPresets[std::get<0>(GetParam())]; }
  uint64_t seed() const { return std::get<1>(GetParam()); }

  nn::TransformerConfig Config() const {
    nn::TransformerConfig cfg = preset().make(kVocab);
    cfg.dropout = 0.0f;  // dropout draws from the RNG serially by design,
                         // but zero keeps train-mode loss comparisons exact
    return cfg;
  }

  void TearDown() override { rt::SetThreads(1); }
};

// Runs fn at 1 thread and at 4 threads and returns both float buffers.
template <typename Fn>
std::pair<std::vector<float>, std::vector<float>> RunAtBothWidths(Fn fn) {
  rt::SetThreads(1);
  std::vector<float> serial = fn();
  rt::SetThreads(4);
  std::vector<float> parallel = fn();
  return {std::move(serial), std::move(parallel)};
}

void ExpectBitIdentical(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    // Exact equality on purpose: any reordering of float accumulation
    // would show up here.
    ASSERT_EQ(a[i], b[i]) << what << " element " << i;
  }
}

TEST_P(Determinism, ForwardLossAndLogitsBitIdentical) {
  const model::Batch batch = MakeTestBatch(seed());
  auto run = [&]() {
    model::TransformerSeq2Seq m(Config(), kPad, kEos, seed());
    Rng rng(seed());
    Tensor loss = m.BatchLoss(batch, /*train=*/true, &rng);
    std::vector<float> out = loss.data();
    // Also pin a full forward pass through encoder+decoder hidden states.
    NoGradGuard guard;
    const int src_len = batch.enc_seq;
    Tensor memory =
        m.transformer().Encode(batch.enc_ids, batch.batch, src_len,
                               batch.enc_lengths, /*train=*/false, nullptr);
    out.insert(out.end(), memory.data().begin(), memory.data().end());
    return out;
  };
  auto [serial, parallel] = RunAtBothWidths(run);
  ExpectBitIdentical(serial, parallel, "forward loss+memory");
}

TEST_P(Determinism, GradientsAndAdamWStepBitIdentical) {
  const model::Batch batch = MakeTestBatch(seed());
  auto run = [&]() {
    model::TransformerSeq2Seq m(Config(), kPad, kEos, seed());
    AdamW optimizer(m.TrainableParameters(), {});
    Rng rng(seed());
    optimizer.ZeroGrad();
    Tensor loss = m.BatchLoss(batch, /*train=*/true, &rng);
    loss.Backward();
    std::vector<float> out;
    // Gradients first (raw backward output), then the post-step weights
    // (catches any nondeterminism ClipGradNorm/Step could add on top).
    for (const Tensor& p : m.TrainableParameters()) {
      if (p.impl()->grad.empty()) continue;
      out.insert(out.end(), p.impl()->grad.begin(), p.impl()->grad.end());
    }
    optimizer.ClipGradNorm(1.0f);
    optimizer.Step();
    for (const Tensor& p : m.TrainableParameters()) {
      out.insert(out.end(), p.data().begin(), p.data().end());
    }
    loss.DetachGraph();
    return out;
  };
  auto [serial, parallel] = RunAtBothWidths(run);
  ExpectBitIdentical(serial, parallel, "gradients+post-step weights");
}

TEST_P(Determinism, ShardedGradAccumulationBitIdenticalAcrossThreads) {
  // grad_accum_shards exercises the trainer's fixed-order shard reduction:
  // one short training run per thread width must land on identical weights.
  std::vector<model::SeqPair> pairs(6);
  Rng data(seed() * 17 + 3);
  for (auto& p : pairs) {
    p.src = RandomSeq(&data, data.UniformRange(4, 8));
    p.tgt = RandomSeq(&data, data.UniformRange(3, 6));
    p.tgt.push_back(kEos);
  }
  auto run = [&]() {
    model::TransformerSeq2Seq m(Config(), kPad, kEos, seed());
    model::TrainOptions options;
    options.steps = 2;
    options.batch_size = 4;
    options.grad_accum_shards = 2;
    options.seed = seed();
    model::TrainSeq2Seq(&m, pairs, kPad, options);
    std::vector<float> out;
    for (const Tensor& p : m.TrainableParameters()) {
      out.insert(out.end(), p.data().begin(), p.data().end());
    }
    return out;
  };
  auto [serial, parallel] = RunAtBothWidths(run);
  ExpectBitIdentical(serial, parallel, "sharded-accum weights");
}

TEST_P(Determinism, GreedyAndBeamDecodeTokensIdentical) {
  Rng data(seed() * 7 + 1);
  const std::vector<int> src = RandomSeq(&data, 7);

  model::GenerationOptions greedy;
  greedy.max_len = 16;
  model::GenerationOptions beam;
  beam.max_len = 14;
  beam.beam_size = 3;

  rt::SetThreads(1);
  model::TransformerSeq2Seq m1(Config(), kPad, kEos, seed());
  const std::vector<int> greedy1 = m1.Generate(src, greedy);
  const std::vector<int> beam1 = m1.Generate(src, beam);

  rt::SetThreads(4);
  model::TransformerSeq2Seq m4(Config(), kPad, kEos, seed());
  EXPECT_EQ(m4.Generate(src, greedy), greedy1) << preset().name;
  EXPECT_EQ(m4.Generate(src, beam), beam1) << preset().name;
}

TEST_P(Determinism, BatchedDecodeTokensIdenticalAcrossThreads) {
  // The continuous-batching path (GenerateBatch → DecodeStep over a
  // preallocated batch) adds in-place ScatterTime writes, bounded
  // attention, and per-row bias at mixed positions on top of the
  // single-request decode. All of them chunk by shape, never by thread
  // count, so the emitted tokens must not move with SetThreads.
  Rng data(seed() * 19 + 5);
  std::vector<std::vector<int>> srcs;
  for (int len : {5, 8, 4, 7}) srcs.push_back(RandomSeq(&data, len));

  model::GenerationOptions options;
  options.max_len = 14;

  rt::SetThreads(1);
  model::TransformerSeq2Seq m1(Config(), kPad, kEos, seed());
  const std::vector<std::vector<int>> serial = m1.GenerateBatch(srcs, options);

  rt::SetThreads(4);
  model::TransformerSeq2Seq m4(Config(), kPad, kEos, seed());
  EXPECT_EQ(m4.GenerateBatch(srcs, options), serial) << preset().name;
}

/// Batched decode where every row's prefill was spliced from a shared
/// EncodedPrefix block (the serve prefix cache's reuse path) instead of
/// recomputed. Duplicate sources share one block, so the warm-hit case —
/// two live rows aliasing the same immutable tensors — is always present.
std::vector<std::vector<int>> SplicedBatchDecode(
    const model::TransformerSeq2Seq& m,
    const std::vector<std::vector<int>>& srcs,
    const model::GenerationOptions& options) {
  model::ContinuousDecoder decoder(&m);
  std::vector<std::shared_ptr<const model::EncodedPrefix>> blocks;
  for (size_t i = 0; i < srcs.size(); ++i) {
    const model::EncodedPrefix* block = nullptr;
    for (size_t j = 0; j < i; ++j) {
      if (srcs[j] == srcs[i]) {
        block = blocks[j].get();  // warm hit: reuse the earlier block
        blocks.push_back(blocks[j]);
        break;
      }
    }
    if (block == nullptr) {
      blocks.push_back(m.EncodePrefix(srcs[i], options.weight_dtype));
      block = blocks.back().get();
    }
    decoder.Admit(static_cast<uint64_t>(i), srcs[i], options,
                  model::ContinuousDecoder::Clock::time_point::max(), block);
  }
  std::vector<std::vector<int>> out(srcs.size());
  while (decoder.active() > 0) {
    for (model::ContinuousDecoder::Finished& f : decoder.Step()) {
      out[static_cast<size_t>(f.id)] = std::move(f.tokens);
    }
  }
  return out;
}

/// Single-request spliced decode (the one-row case of the above).
std::vector<int> SplicedBatchDecodeOne(const model::TransformerSeq2Seq& m,
                                       const std::vector<int>& src,
                                       const model::GenerationOptions& options,
                                       const model::EncodedPrefix* block) {
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
}

TEST_P(Determinism, CachedSplicedDecodeBitIdenticalAcrossThreads) {
  // Prefix-cache rows inherit every determinism contract: a decode whose
  // prefill came from a cached block must emit the same tokens as plain
  // sequential Generate, at every thread width — EncodePrefix itself is a
  // batch-of-one encode, so its output may not move with SetThreads either.
  Rng data(seed() * 37 + 11);
  std::vector<std::vector<int>> srcs;
  for (int len : {6, 9, 4}) srcs.push_back(RandomSeq(&data, len));
  srcs.push_back(srcs[0]);  // exact repeat -> two rows share one block

  model::GenerationOptions options;
  options.max_len = 14;

  rt::SetThreads(1);
  model::TransformerSeq2Seq m1(Config(), kPad, kEos, seed());
  std::vector<std::vector<int>> reference;
  for (const auto& src : srcs) reference.push_back(m1.Generate(src, options));
  EXPECT_EQ(SplicedBatchDecode(m1, srcs, options), reference)
      << preset().name << ": spliced != sequential at 1 thread";

  rt::SetThreads(4);
  model::TransformerSeq2Seq m4(Config(), kPad, kEos, seed());
  EXPECT_EQ(SplicedBatchDecode(m4, srcs, options), reference)
      << preset().name << ": spliced thread-count drift";
}

TEST_P(Determinism, CacheHitAfterEvictionReinsertBitIdenticalAcrossThreads) {
  // A block that was evicted under LRU pressure and later recomputed and
  // reinserted is a *different* object holding the same sequence. Decoding
  // from the reinserted block must reproduce the original tokens at both
  // thread widths — i.e. EncodePrefix is a pure function of (weights,
  // tokens, dtype), not of cache history or thread count.
  Rng data(seed() * 41 + 13);
  const std::vector<int> src = RandomSeq(&data, 7);
  const std::vector<int> filler = RandomSeq(&data, 9);
  model::GenerationOptions options;
  options.max_len = 14;

  auto decode_spliced = [&](const model::TransformerSeq2Seq& m,
                            const model::EncodedPrefix* block) {
    return SplicedBatchDecodeOne(m, src, options, block);
  };

  rt::SetThreads(1);
  model::TransformerSeq2Seq m1(Config(), kPad, kEos, seed());
  const std::vector<int> reference = m1.Generate(src, options);

  auto first = m1.EncodePrefix(src, options.weight_dtype);
  serve::PrefixCache cache({first->ByteSize() + first->ByteSize() / 2});
  cache.Release(cache.Insert(first));
  EXPECT_EQ(decode_spliced(m1, first.get()), reference) << preset().name;

  // Evict via budget pressure, then recompute + reinsert the same tokens.
  cache.Release(cache.Insert(m1.EncodePrefix(filler, options.weight_dtype)));
  ASSERT_GE(cache.stats().evictions, 1u) << preset().name;
  ASSERT_FALSE(cache.Acquire(src, options.weight_dtype).hit);
  cache.Release(cache.Insert(m1.EncodePrefix(src, options.weight_dtype)));

  serve::PrefixCache::Handle hit = cache.Acquire(src, options.weight_dtype);
  ASSERT_TRUE(hit.hit) << preset().name;
  ASSERT_NE(hit.block.get(), first.get());
  EXPECT_EQ(decode_spliced(m1, hit.block.get()), reference)
      << preset().name << ": reinserted block drifted at 1 thread";

  rt::SetThreads(4);
  EXPECT_EQ(decode_spliced(m1, hit.block.get()), reference)
      << preset().name << ": reinserted block drifted at 4 threads";
  cache.Release(hit);
}

TEST_P(Determinism, SpeculativeDecodeTokensIdenticalAcrossThreads) {
  // Speculative draft-verify decoding commits only tokens that are the base
  // model's greedy argmax, so its output is the plain greedy sequence no
  // matter what the draft proposes — and that equality must survive thread
  // widths exactly like every other decode path. The draft here is a
  // differently-seeded model (arbitrary proposals, realistic reject/rollback
  // traffic), and one leg splices the base prefill from an EncodePrefix
  // block to cover the cache-assisted speculative path too.
  Rng data(seed() * 43 + 9);
  const std::vector<int> src = RandomSeq(&data, 7);

  model::GenerationOptions greedy;
  greedy.max_len = 16;
  model::GenerationOptions spec = greedy;
  spec.draft_k = 3;

  rt::SetThreads(1);
  model::TransformerSeq2Seq base1(Config(), kPad, kEos, seed());
  model::TransformerSeq2Seq draft1(nn::TransformerConfig::T5Small(kVocab),
                                   kPad, kEos, seed() + 99);
  const std::vector<int> reference = base1.Generate(src, greedy);
  spec::DraftVerifyEngine engine1(&base1, &draft1);
  EXPECT_EQ(engine1.Generate(src, spec), reference)
      << preset().name << ": spec != greedy at 1 thread";
  auto block1 = base1.EncodePrefix(src, spec.weight_dtype);
  EXPECT_EQ(engine1.Generate(src, spec, block1.get()), reference)
      << preset().name << ": spliced spec != greedy at 1 thread";

  rt::SetThreads(4);
  model::TransformerSeq2Seq base4(Config(), kPad, kEos, seed());
  model::TransformerSeq2Seq draft4(nn::TransformerConfig::T5Small(kVocab),
                                   kPad, kEos, seed() + 99);
  spec::DraftVerifyEngine engine4(&base4, &draft4);
  EXPECT_EQ(engine4.Generate(src, spec), reference)
      << preset().name << ": spec thread-count drift";
  auto block4 = base4.EncodePrefix(src, spec.weight_dtype);
  EXPECT_EQ(engine4.Generate(src, spec, block4.get()), reference)
      << preset().name << ": spliced spec thread-count drift";
}

TEST_P(Determinism, Int8LogitsTrackFloatLogits) {
  // Quantize-at-load logit accuracy: the same prefill run with
  // weight_dtype=int8 must stay inside a pinned envelope of the float
  // logits. Per-output-channel symmetric quantization keeps each weight
  // within scale/2 = amax/254 of its float value, which for these model
  // scales compounds to well under 0.05 absolute-plus-relative logit
  // error. A widening here means the quantizer (not roundoff) regressed.
  Rng data(seed() * 13 + 5);
  const std::vector<int> src = RandomSeq(&data, 7);
  model::TransformerSeq2Seq m(Config(), kPad, kEos, seed());
  auto logits = [&](WeightDtype dtype) {
    NoGradGuard guard;
    WeightDtypeGuard dtype_guard(dtype);
    const int len = static_cast<int>(src.size());
    Tensor memory = m.transformer().Encode(src, 1, len, {len},
                                           /*train=*/false, nullptr);
    Tensor hidden = m.transformer().Decode({kPad}, 1, 1, memory, len, {len},
                                           {1}, /*train=*/false, nullptr);
    return m.transformer().Logits(hidden).data();
  };
  const std::vector<float> f32 = logits(WeightDtype::kFloat32);
  const std::vector<float> i8 = logits(WeightDtype::kInt8);
  ASSERT_EQ(f32.size(), i8.size());
  for (size_t i = 0; i < f32.size(); ++i) {
    const float tol = 0.05f * (std::fabs(f32[i]) + 1.0f);
    ASSERT_NEAR(f32[i], i8[i], tol) << preset().name << " logit " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndSeeds, Determinism,
    ::testing::Combine(::testing::Range(0, 2),
                       ::testing::Values<uint64_t>(11, 42, 1234)),
    [](const ::testing::TestParamInfo<Determinism::ParamType>& info) {
      return std::string(kPresets[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// ISA / weight-dtype parity (docs/KERNELS.md). The contract has three tiers:
//  1. NN-family kernels (plain MatMul, attention context, all int8 kernels)
//    are BIT-IDENTICAL between the scalar reference and AVX2: both run the
//    same per-element fma chain, AVX2 merely computes 8 columns at once.
//  2. NT (reduction) kernels — MatMulTransposeB, attention scores — may
//    differ by reassociation only; parity is pinned to the documented
//    relative bound below.
//  3. Within one (isa, dtype) configuration, every existing bit-exact
//    contract (thread count, batched ≡ sequential) still holds.
// ---------------------------------------------------------------------------

namespace simd = tensor::simd;

/// Restores the process-wide ISA selection on scope exit.
class IsaGuard {
 public:
  IsaGuard() : previous_(simd::ActiveIsa()) {}
  ~IsaGuard() { simd::SetIsa(previous_); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;

 private:
  simd::Isa previous_;
};

/// Pinned cross-ISA tolerance for reduction (NT) kernels: AVX2 folds the
/// k-long dot product into 8 partial sums, so the result may differ from
/// the strict left-to-right scalar sum by reassociation error only. For
/// the magnitudes these tests (and the model) produce, that is bounded by
/// a 1e-5 relative-plus-absolute envelope; widening it would mean a kernel
/// regression, not roundoff.
void ExpectWithinNtBound(const std::vector<float>& ref,
                         const std::vector<float>& alt, const char* what) {
  ASSERT_EQ(ref.size(), alt.size()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    const float tol = 1e-5f * (std::fabs(ref[i]) + 1.0f);
    ASSERT_NEAR(ref[i], alt[i], tol) << what << " element " << i;
  }
}

Tensor RandomTensor(std::vector<int> shape, Rng* rng) {
  return Tensor::Randn(std::move(shape), 1.0f, rng);
}

// Runs fn under the scalar ISA, then under AVX2, and returns both buffers.
// Callers must GTEST_SKIP when AVX2 is unsupported.
template <typename Fn>
std::pair<std::vector<float>, std::vector<float>> RunAtBothIsas(Fn fn) {
  IsaGuard restore;
  VIST5_CHECK(simd::SetIsa(simd::Isa::kScalar));
  std::vector<float> scalar = fn();
  VIST5_CHECK(simd::SetIsa(simd::Isa::kAvx2));
  std::vector<float> avx2 = fn();
  return {std::move(scalar), std::move(avx2)};
}

class SimdParity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::CpuSupportsAvx2()) {
      GTEST_SKIP() << "host has no AVX2+FMA; scalar is the only backend";
    }
  }
  void TearDown() override { rt::SetThreads(1); }
};

// Appends {m, k, n} shapes whose column counts bracket every column block
// of the AVX2 1- and 4-row kernels (8/16/32/64 wide) and their scalar
// tails, plus the vocab sizes of the tied logit projections, at row counts
// covering every remainder of the 8 -> 4 -> 1 row grouping in ops::MatMul.
std::vector<std::array<int, 3>> WithColumnBlockShapes(
    std::vector<std::array<int, 3>> shapes) {
  for (int n : {15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 303, 963}) {
    for (int m : {1, 2, 3, 4, 5, 7, 8, 9}) shapes.push_back({m, 37, n});
  }
  return shapes;
}

TEST_F(SimdParity, NNMatMulBitIdenticalAcrossIsas) {
  NoGradGuard inference;
  Rng rng(99);
  // Covers the 8-row panel, the 4-row panel, and the single-row kernel,
  // plus non-multiple-of-8 column counts that exercise the scalar tail.
  for (const auto& s : WithColumnBlockShapes(
           {{9, 33, 48}, {4, 17, 31}, {1, 7, 9}, {16, 64, 40}})) {
    Tensor a = RandomTensor({s[0], s[1]}, &rng);
    Tensor b = RandomTensor({s[1], s[2]}, &rng);
    auto [scalar, avx2] =
        RunAtBothIsas([&] { return ops::MatMul(a, b).data(); });
    ExpectBitIdentical(scalar, avx2, "NN MatMul");
  }
}

TEST_F(SimdParity, Int8MatMulBitIdenticalAcrossIsas) {
  NoGradGuard inference;
  Rng rng(100);
  for (const auto& s :
       WithColumnBlockShapes({{9, 33, 48}, {4, 17, 31}, {1, 7, 9}})) {
    Tensor a = RandomTensor({s[0], s[1]}, &rng);
    ops::QuantizedMatrix q = ops::QuantizeWeights(RandomTensor({s[1], s[2]},
                                                               &rng));
    auto [scalar, avx2] =
        RunAtBothIsas([&] { return ops::MatMulInt8(a, q).data(); });
    ExpectBitIdentical(scalar, avx2, "int8 MatMul");
  }
}

TEST_F(SimdParity, NTMatMulWithinPinnedBound) {
  NoGradGuard inference;
  Rng rng(101);
  const int shapes[][3] = {{9, 48, 33}, {3, 64, 16}, {1, 128, 5}};
  for (const auto& s : shapes) {
    Tensor a = RandomTensor({s[0], s[1]}, &rng);
    Tensor b = RandomTensor({s[2], s[1]}, &rng);  // [n, k]: dot-product rows
    auto [scalar, avx2] =
        RunAtBothIsas([&] { return ops::MatMulTransposeB(a, b).data(); });
    ExpectWithinNtBound(scalar, avx2, "NT MatMul");
  }
}

TEST_F(SimdParity, BoundaryShapesAroundTileWidth) {
  // Satellite regression: shapes straddling the dispatched tile width hit
  // the vector-loop/scalar-tail seam on both k (NT reduction) and n (NN
  // columns). tile-1 is all tail, tile is all vector, tile+1 is one lane
  // of tail after a full vector pass.
  NoGradGuard inference;
  IsaGuard restore;
  VIST5_CHECK(simd::SetIsa(simd::Isa::kAvx2));
  const int tile = simd::ActiveKernels().tile_width;
  ASSERT_GE(tile, 1);
  Rng rng(102);
  for (int delta : {-1, 0, 1}) {
    const int edge = tile + delta;
    Tensor a = RandomTensor({3, edge}, &rng);
    Tensor b_nn = RandomTensor({edge, edge}, &rng);
    Tensor b_nt = RandomTensor({edge, edge}, &rng);
    auto [nn_s, nn_v] =
        RunAtBothIsas([&] { return ops::MatMul(a, b_nn).data(); });
    ExpectBitIdentical(nn_s, nn_v, "NN boundary");
    auto [nt_s, nt_v] =
        RunAtBothIsas([&] { return ops::MatMulTransposeB(a, b_nt).data(); });
    ExpectWithinNtBound(nt_s, nt_v, "NT boundary");
  }
}

TEST_F(SimdParity, GemmRowGrainCoversDispatchedTile) {
  // The parallel-for grain must never split a chunk below the dispatched
  // tile width, even for absurdly expensive rows where the flops-derived
  // grain would round to 1.
  IsaGuard restore;
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    ASSERT_TRUE(simd::SetIsa(isa));
    const int tile = simd::ActiveKernels().tile_width;
    EXPECT_GE(ops::GemmRowGrain(4096, 4096), tile) << simd::IsaName(isa);
    EXPECT_GE(ops::GemmRowGrain(8, 8), tile) << simd::IsaName(isa);
  }
}

TEST_F(SimdParity, ModelLogitsWithinPinnedBoundAcrossIsas) {
  // End-to-end: one full greedy prefill + logits per ISA. Everything on
  // this path is NN (bit-identical) except attention scores and the NT
  // backward — so model logits inherit exactly the NT tolerance tier.
  Rng data(103);
  const std::vector<int> src = RandomSeq(&data, 7);
  for (const Preset& preset : kPresets) {
    nn::TransformerConfig cfg = preset.make(kVocab);
    cfg.dropout = 0.0f;
    model::TransformerSeq2Seq m(cfg, kPad, kEos, 42);
    auto logits = [&] {
      NoGradGuard guard;
      const int len = static_cast<int>(src.size());
      Tensor memory = m.transformer().Encode(src, 1, len, {len},
                                             /*train=*/false, nullptr);
      Tensor hidden = m.transformer().Decode({kPad}, 1, 1, memory, len, {len},
                                             {1}, /*train=*/false, nullptr);
      return m.transformer().Logits(hidden).data();
    };
    auto [scalar, avx2] = RunAtBothIsas(logits);
    ExpectWithinNtBound(scalar, avx2, preset.name);
  }
}

/// Decoded tokens for each (isa, dtype) configuration: thread-1, thread-4,
/// and batched (GenerateBatch) runs must all be bit-identical within the
/// configuration — the pre-existing determinism contracts do not weaken
/// when a non-default backend or dtype is selected.
TEST_F(SimdParity, PerConfigDecodeContractsHold) {
  Rng data(104);
  std::vector<std::vector<int>> srcs;
  for (int len : {5, 8, 4, 7}) srcs.push_back(RandomSeq(&data, len));

  IsaGuard restore;
  for (const Preset& preset : kPresets) {
    nn::TransformerConfig cfg = preset.make(kVocab);
    cfg.dropout = 0.0f;
    for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
      ASSERT_TRUE(simd::SetIsa(isa));
      for (WeightDtype dtype : {WeightDtype::kFloat32, WeightDtype::kInt8}) {
        model::GenerationOptions options;
        options.max_len = 14;
        options.weight_dtype = dtype;
        const std::string tag = std::string(preset.name) + "/" +
                                simd::IsaName(isa) + "/" +
                                WeightDtypeName(dtype);

        rt::SetThreads(1);
        model::TransformerSeq2Seq m1(cfg, kPad, kEos, 42);
        std::vector<std::vector<int>> sequential;
        for (const auto& src : srcs) {
          sequential.push_back(m1.Generate(src, options));
        }
        EXPECT_EQ(m1.GenerateBatch(srcs, options), sequential)
            << tag << ": batched != sequential";

        rt::SetThreads(4);
        model::TransformerSeq2Seq m4(cfg, kPad, kEos, 42);
        for (size_t i = 0; i < srcs.size(); ++i) {
          EXPECT_EQ(m4.Generate(srcs[i], options), sequential[i])
              << tag << ": thread-count drift on request " << i;
        }
        EXPECT_EQ(m4.GenerateBatch(srcs, options), sequential)
            << tag << ": batched thread-count drift";
        rt::SetThreads(1);
      }
    }
  }
}

/// Prefix-cache decode contract per (isa, dtype) configuration: splicing a
/// cached encoder block (including one shared between two rows) must stay
/// bit-identical to sequential Generate under the scalar and AVX2 backends
/// at both weight dtypes, at both thread widths. The cache key includes the
/// dtype precisely because int8 and float32 blocks differ — this pins that
/// a block decoded under the dtype it was encoded at never drifts.
TEST_F(SimdParity, CachedSplicedDecodeContractsHoldPerConfig) {
  Rng data(105);
  std::vector<std::vector<int>> srcs;
  for (int len : {5, 8, 4}) srcs.push_back(RandomSeq(&data, len));
  srcs.push_back(srcs[0]);  // warm-hit row sharing the first block

  IsaGuard restore;
  for (const Preset& preset : kPresets) {
    nn::TransformerConfig cfg = preset.make(kVocab);
    cfg.dropout = 0.0f;
    for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
      ASSERT_TRUE(simd::SetIsa(isa));
      for (WeightDtype dtype : {WeightDtype::kFloat32, WeightDtype::kInt8}) {
        model::GenerationOptions options;
        options.max_len = 14;
        options.weight_dtype = dtype;
        const std::string tag = std::string(preset.name) + "/" +
                                simd::IsaName(isa) + "/" +
                                WeightDtypeName(dtype);

        rt::SetThreads(1);
        model::TransformerSeq2Seq m1(cfg, kPad, kEos, 42);
        std::vector<std::vector<int>> sequential;
        for (const auto& src : srcs) {
          sequential.push_back(m1.Generate(src, options));
        }
        EXPECT_EQ(SplicedBatchDecode(m1, srcs, options), sequential)
            << tag << ": spliced != sequential";

        rt::SetThreads(4);
        model::TransformerSeq2Seq m4(cfg, kPad, kEos, 42);
        EXPECT_EQ(SplicedBatchDecode(m4, srcs, options), sequential)
            << tag << ": spliced thread-count drift";
        rt::SetThreads(1);
      }
    }
  }
}

/// Speculative parity per (isa, dtype) configuration: draft-verify decode
/// must emit exactly the plain greedy sequence under the scalar and AVX2
/// backends at both weight dtypes and both thread widths — the verify span
/// runs through the same dispatched kernels as everything else, and the
/// accept test is an argmax comparison on those kernels' logits, so any
/// backend drift would break parity here first. One leg per configuration
/// splices the base prefill from an EncodePrefix block (the serve prefix
/// cache + speculation composition), with adaptive k on for k churn.
TEST_F(SimdParity, SpeculativeDecodeContractsHoldPerConfig) {
  Rng data(106);
  const std::vector<int> src = RandomSeq(&data, 7);

  IsaGuard restore;
  for (const Preset& preset : kPresets) {
    nn::TransformerConfig cfg = preset.make(kVocab);
    cfg.dropout = 0.0f;
    for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
      ASSERT_TRUE(simd::SetIsa(isa));
      for (WeightDtype dtype : {WeightDtype::kFloat32, WeightDtype::kInt8}) {
        model::GenerationOptions greedy;
        greedy.max_len = 14;
        greedy.weight_dtype = dtype;
        model::GenerationOptions spec = greedy;
        spec.draft_k = 3;
        spec.draft_adaptive = true;
        const std::string tag = std::string(preset.name) + "/" +
                                simd::IsaName(isa) + "/" +
                                WeightDtypeName(dtype);

        rt::SetThreads(1);
        model::TransformerSeq2Seq base(cfg, kPad, kEos, 42);
        model::TransformerSeq2Seq draft(
            nn::TransformerConfig::T5Small(kVocab), kPad, kEos, 141);
        const std::vector<int> reference = base.Generate(src, greedy);
        spec::DraftVerifyEngine engine(&base, &draft);
        EXPECT_EQ(engine.Generate(src, spec), reference)
            << tag << ": spec != greedy";
        auto block = base.EncodePrefix(src, dtype);
        EXPECT_EQ(engine.Generate(src, spec, block.get()), reference)
            << tag << ": spliced spec != greedy";

        rt::SetThreads(4);
        EXPECT_EQ(engine.Generate(src, spec), reference)
            << tag << ": spec thread-count drift";
        EXPECT_EQ(engine.Generate(src, spec, block.get()), reference)
            << tag << ": spliced spec thread-count drift";
        rt::SetThreads(1);
      }
    }
  }
}

}  // namespace
}  // namespace vist5
