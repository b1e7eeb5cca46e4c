// Parity between KV-cached incremental decoding and the full-prefix
// reference (the test-tree oracle in full_prefix_oracle.h): for every
// TransformerConfig preset (covering relative-bias, sinusoidal, and learned
// positions in both norm styles), greedy and beam decoding must produce
// bit-identical token sequences, and DecodeStep must reproduce Decode's
// newest hidden row bit-for-bit, one request at a time and side by side in
// one ContinuousDecoder. See docs/INFERENCE.md for the contract.
// The int8 and LoRA legs run the same checks with int8 weights and with
// LoRA adapters attached. The span, ragged-span, TruncateTo and
// copied-state suites pin the shapes of the one decode step that
// speculative and batched decoding are built on, and the
// Speculative suite pins its end-to-end contract: draft-verify output is
// bit-identical to plain greedy regardless of the draft
// (docs/SPECULATIVE.md).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "full_prefix_oracle.h"
#include "model/batch_decoder.h"
#include "model/transformer_model.h"
#include "nn/transformer.h"
#include "spec/engine.h"
#include "tensor/ops.h"

namespace vist5 {
namespace {

struct Preset {
  const char* name;
  nn::TransformerConfig (*make)(int vocab);
};

constexpr Preset kPresets[] = {
    {"t5_small", nn::TransformerConfig::T5Small},    // pre-RMS, relative bias
    {"vanilla", nn::TransformerConfig::Vanilla},     // post-LN, sinusoidal
    {"bart_like", nn::TransformerConfig::BartLike},  // post-LN, learned
    {"llm_proxy", nn::TransformerConfig::LlmProxy},  // pre-RMS, relative, GELU
};

constexpr int kVocab = 48;
constexpr int kPad = 0;
constexpr int kEos = 1;

std::vector<int> RandomSrc(Rng* rng, int len) {
  std::vector<int> src(static_cast<size_t>(len));
  for (int& t : src) t = rng->UniformRange(2, kVocab - 1);
  return src;
}

class DecodeParity
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {
 protected:
  const Preset& preset() const { return kPresets[std::get<0>(GetParam())]; }
  uint64_t seed() const { return std::get<1>(GetParam()); }
};

/// DecodeStep must reproduce the newest row of the teacher-forced Decode
/// over the same prefix, bit for bit, at every step.
void ExpectHiddenStatesMatchFullDecode(const nn::Transformer& t, uint64_t seed,
                                       const char* name) {
  Rng data(seed * 101 + 3);
  const int src_len = data.UniformRange(5, 8);
  const std::vector<int> src = RandomSrc(&data, src_len);
  const std::vector<int> src_lengths = {src_len};

  NoGradGuard guard;
  Tensor memory =
      t.Encode(src, 1, src_len, src_lengths, /*train=*/false, nullptr);
  nn::DecodeState state = t.BeginDecode(memory, 1, src_len, src_lengths);

  std::vector<int> prefix = {kPad};
  for (int step = 0; step < 6; ++step) {
    Tensor incremental = t.DecodeStep({prefix.back()}, &state);  // [1, d]
    const std::vector<int> dec_lengths = {static_cast<int>(prefix.size())};
    Tensor full = t.Decode(prefix, 1, static_cast<int>(prefix.size()), memory,
                           src_len, src_lengths, dec_lengths,
                           /*train=*/false, nullptr);
    Tensor last = ops::GatherRows(
        full, {static_cast<int>(prefix.size()) - 1});
    ASSERT_EQ(incremental.shape(), last.shape());
    for (size_t i = 0; i < last.data().size(); ++i) {
      // Bit-identical, not approximately equal: the cached path reuses the
      // exact arithmetic of the full path.
      ASSERT_EQ(incremental.data()[i], last.data()[i])
          << name << " step " << step << " dim " << i;
    }
    prefix.push_back(2 + step % (kVocab - 2));
  }
}

TEST_P(DecodeParity, HiddenStatesMatchFullDecode) {
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  Rng init(seed());
  nn::Transformer t(cfg, &init);
  ExpectHiddenStatesMatchFullDecode(t, seed(), preset().name);
}

TEST(DecodeParityLora, HiddenStatesMatchFullDecodeLlmProxy) {
  // The LLM-proxy baselines decode with LoRA adapters on every attention
  // and feed-forward projection. A nonzero B makes each adapter's delta
  // reach the output, through its own rounding points.
  for (const uint64_t seed : {11, 42, 1234}) {
    nn::TransformerConfig cfg = nn::TransformerConfig::LlmProxy(kVocab);
    cfg.dropout = 0.0f;
    Rng init(seed);
    nn::Transformer t(cfg, &init);
    t.EnableLora(/*rank=*/4, /*alpha=*/8.0f, &init);
    int adapters = 0;
    for (auto& [name, param] : t.NamedParameters()) {
      if (name.find("lora_b") == std::string::npos) continue;
      Tensor b = param;
      for (float& v : b.mutable_data()) v = 0.2f * init.Normal();
      ++adapters;
    }
    ASSERT_GT(adapters, 0);
    ExpectHiddenStatesMatchFullDecode(t, seed, "llm_proxy+lora");
  }
}

TEST_P(DecodeParity, GreedyTokensMatch) {
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  model::TransformerSeq2Seq m(cfg, kPad, kEos, seed());
  Rng data(seed() * 7 + 1);
  const std::vector<int> src = RandomSrc(&data, 7);

  model::GenerationOptions cached;
  cached.max_len = 16;
  EXPECT_EQ(m.Generate(src, cached), oracle::GreedyDecodeFull(m, src, cached))
      << preset().name;
}

TEST_P(DecodeParity, GreedyInt8TokensMatch) {
  // Int8 weights: the cached step and the full-prefix oracle both read the
  // same quantized snapshots, so their tokens must agree too. EOS is
  // banned so that every case decodes its full length.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  model::TransformerSeq2Seq m(cfg, kPad, kEos, seed());
  Rng data(seed() * 89 + 59);
  const std::vector<int> src = RandomSrc(&data, 7);

  model::GenerationOptions int8;
  int8.max_len = 16;
  int8.weight_dtype = WeightDtype::kInt8;
  int8.allowed = [](int token) { return token != kEos; };
  const std::vector<int> cached = m.Generate(src, int8);
  EXPECT_EQ(cached.size(), 16u) << preset().name;
  EXPECT_EQ(cached, oracle::GreedyDecodeFull(m, src, int8)) << preset().name;
}

TEST_P(DecodeParity, GreedyConstrainedTokensMatch) {
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  model::TransformerSeq2Seq m(cfg, kPad, kEos, seed());
  Rng data(seed() * 13 + 5);
  const std::vector<int> src = RandomSrc(&data, 6);

  model::GenerationOptions cached;
  cached.max_len = 12;
  cached.allowed = [](int token) { return token % 3 != 0; };
  EXPECT_EQ(m.Generate(src, cached), oracle::GreedyDecodeFull(m, src, cached))
      << preset().name;
}

TEST_P(DecodeParity, BatchedGreedyTokensMatchSequential) {
  // The continuous-batching decode path (GenerateBatch → DecodeStep with
  // per-row positions over a shared, capacity-preallocated KV cache) must
  // emit the exact token sequence of one-at-a-time Generate for every row,
  // mixed lengths included. See docs/SERVING.md for why this holds
  // bit-for-bit.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  model::TransformerSeq2Seq m(cfg, kPad, kEos, seed());
  Rng data(seed() * 31 + 7);
  std::vector<std::vector<int>> srcs;
  for (int len : {4, 9, 6, 5, 8, 7}) srcs.push_back(RandomSrc(&data, len));

  model::GenerationOptions options;
  options.max_len = 16;
  const std::vector<std::vector<int>> batched = m.GenerateBatch(srcs, options);
  ASSERT_EQ(batched.size(), srcs.size());
  for (size_t i = 0; i < srcs.size(); ++i) {
    EXPECT_EQ(batched[i], m.Generate(srcs[i], options))
        << preset().name << " row " << i;
  }
}

TEST_P(DecodeParity, BeamTokensMatch) {
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  model::TransformerSeq2Seq m(cfg, kPad, kEos, seed());
  Rng data(seed() * 29 + 11);
  std::vector<std::vector<int>> srcs;
  for (int len : {7, 4, 9, 6}) srcs.push_back(RandomSrc(&data, len));

  model::GenerationOptions cached;
  cached.max_len = 14;
  cached.beam_size = 3;
  std::vector<std::vector<int>> want;
  for (const auto& src : srcs) {
    want.push_back(oracle::BeamDecodeFull(m, src, cached));
  }
  EXPECT_EQ(m.Generate(srcs[0], cached), want[0]) << preset().name;
  // Several beam ranges side by side in one batch, reordered by one
  // whole-batch Reorder per step.
  const std::vector<std::vector<int>> batched = m.GenerateBatch(srcs, cached);
  ASSERT_EQ(batched.size(), srcs.size());
  for (size_t i = 0; i < srcs.size(); ++i) {
    EXPECT_EQ(batched[i], want[i]) << preset().name << " row " << i;
  }
}

TEST_P(DecodeParity, GreedySampledAndBeamShareOneDecoder) {
  // One decoder holds a greedy, a sampled and a beam request at once; the
  // beam joins a step later, so its rows sit behind the others. Each
  // request must get its solo result, and the emitted stream must carry
  // exactly its tokens, none after the step that finishes it.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  model::TransformerSeq2Seq m(cfg, kPad, kEos, seed());
  Rng data(seed() * 79 + 47);
  const std::vector<int> greedy_src = RandomSrc(&data, 6);
  const std::vector<int> sampled_src = RandomSrc(&data, 8);
  const std::vector<int> beam_src = RandomSrc(&data, 5);

  model::GenerationOptions greedy;
  greedy.max_len = 12;
  model::GenerationOptions beam = greedy;
  beam.beam_size = 3;
  model::GenerationOptions sampled = greedy;
  sampled.temperature = 1.0f;
  sampled.top_k = 6;
  sampled.allowed = [](int token) { return token != kEos; };
  Rng solo_rng(seed() + 5);
  sampled.rng = &solo_rng;
  const std::vector<int> sampled_want = m.Generate(sampled_src, sampled);
  Rng batch_rng(seed() + 5);
  sampled.rng = &batch_rng;

  model::ContinuousDecoder decoder(&m);
  decoder.Admit(0, greedy_src, greedy);
  decoder.Admit(1, sampled_src, sampled);
  std::vector<std::vector<int>> got(3), streamed(3);
  std::vector<bool> finished(3, false);
  bool beam_admitted = false;
  while (decoder.active() > 0) {
    std::vector<model::ContinuousDecoder::Emitted> emitted;
    for (model::ContinuousDecoder::Finished& f : decoder.Step(&emitted)) {
      got[static_cast<size_t>(f.id)] = std::move(f.tokens);
      finished[static_cast<size_t>(f.id)] = true;
    }
    for (const model::ContinuousDecoder::Emitted& e : emitted) {
      streamed[static_cast<size_t>(e.id)].push_back(e.token);
    }
    for (size_t id = 0; id < 3; ++id) {
      if (finished[id]) {
        EXPECT_EQ(streamed[id], got[id]) << preset().name << " id " << id;
      }
    }
    if (!beam_admitted) {
      decoder.Admit(2, beam_src, beam);
      beam_admitted = true;
    }
  }
  EXPECT_EQ(got[0], oracle::GreedyDecodeFull(m, greedy_src, greedy))
      << preset().name;
  EXPECT_EQ(got[1], sampled_want) << preset().name;
  EXPECT_EQ(got[1].size(), 12u) << preset().name;
  // The oracle is greedy: a sample equal to it would mean nothing sampled.
  EXPECT_NE(got[1], oracle::GreedyDecodeFull(m, sampled_src, sampled))
      << preset().name;
  EXPECT_EQ(got[2], oracle::BeamDecodeFull(m, beam_src, beam))
      << preset().name;
}

TEST_P(DecodeParity, BeamExpiredBeforeFirstStepLeavesOthersIntact) {
  // A beam request whose deadline has passed leaves in the pre-step sweep,
  // before any step has written a self cache (beam rows get no slab); the
  // beam beside it must still decode exactly as it would alone.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  model::TransformerSeq2Seq m(cfg, kPad, kEos, seed());
  Rng data(seed() * 83 + 53);
  const std::vector<int> expired_src = RandomSrc(&data, 6);
  const std::vector<int> live_src = RandomSrc(&data, 8);
  model::GenerationOptions beam;
  beam.max_len = 10;
  beam.beam_size = 3;

  model::ContinuousDecoder decoder(&m);
  decoder.Admit(0, expired_src, beam,
                model::ContinuousDecoder::Clock::now());
  decoder.Admit(1, live_src, beam);
  std::vector<model::ContinuousDecoder::Finished> done;
  while (decoder.active() > 0) {
    for (model::ContinuousDecoder::Finished& f : decoder.Step()) {
      done.push_back(std::move(f));
    }
  }
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].id, 0u);
  EXPECT_TRUE(done[0].deadline_expired);
  EXPECT_TRUE(done[0].tokens.empty());
  EXPECT_FALSE(done[1].deadline_expired);
  EXPECT_EQ(done[1].tokens, oracle::BeamDecodeFull(m, live_src, beam))
      << preset().name;
}

TEST_P(DecodeParity, SpanDecodeStepMatchesSequential) {
  // Multi-token span decode (the speculative verify path) must reproduce
  // the hidden rows of one-at-a-time stepping bit-for-bit, and leave the
  // KV cache in a state that continues identically.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  Rng init(seed());
  nn::Transformer t(cfg, &init);

  Rng data(seed() * 37 + 9);
  const int src_len = data.UniformRange(5, 8);
  const std::vector<int> src = RandomSrc(&data, src_len);
  const std::vector<int> src_lengths = {src_len};
  const std::vector<int> feed = {kPad, 3, 7, 5};

  NoGradGuard guard;
  Tensor memory =
      t.Encode(src, 1, src_len, src_lengths, /*train=*/false, nullptr);
  nn::DecodeState sequential = t.BeginDecode(memory, 1, src_len, src_lengths);
  nn::DecodeState spanned = t.BeginDecode(memory, 1, src_len, src_lengths);

  std::vector<Tensor> rows;
  for (int id : feed) rows.push_back(t.DecodeStep({id}, &sequential));
  Tensor span = t.DecodeStep(feed, &spanned,
                             static_cast<int>(feed.size()));  // [4, d]
  ASSERT_EQ(span.dim(0), static_cast<int>(feed.size()));
  for (size_t i = 0; i < feed.size(); ++i) {
    Tensor row = ops::GatherRows(span, {static_cast<int>(i)});
    for (size_t d = 0; d < row.data().size(); ++d) {
      ASSERT_EQ(rows[i].data()[d], row.data()[d])
          << preset().name << " span row " << i << " dim " << d;
    }
  }
  // The caches must now be interchangeable: one more single step agrees.
  Tensor next_seq = t.DecodeStep({9}, &sequential);
  Tensor next_span = t.DecodeStep({9}, &spanned);
  for (size_t d = 0; d < next_seq.data().size(); ++d) {
    ASSERT_EQ(next_seq.data()[d], next_span.data()[d]) << preset().name;
  }
}

TEST_P(DecodeParity, TruncateToRestoresDecodePath) {
  // Rolling the cache back to a shorter prefix (speculative rejection)
  // must reproduce the untruncated decode bit-for-bit from that point on.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  Rng init(seed());
  nn::Transformer t(cfg, &init);

  Rng data(seed() * 41 + 13);
  const int src_len = data.UniformRange(5, 8);
  const std::vector<int> src = RandomSrc(&data, src_len);
  const std::vector<int> src_lengths = {src_len};

  NoGradGuard guard;
  Tensor memory =
      t.Encode(src, 1, src_len, src_lengths, /*train=*/false, nullptr);

  // Reference: feed [pad, 4, 6], then step on 8.
  nn::DecodeState reference = t.BeginDecode(memory, 1, src_len, src_lengths);
  for (int id : {kPad, 4, 6}) t.DecodeStep({id}, &reference);
  Tensor want = t.DecodeStep({8}, &reference);

  // Speculative-shaped history: same prefix plus two rejected tokens,
  // rolled back with TruncateTo before the corrective step.
  nn::DecodeState rolled = t.BeginDecode(memory, 1, src_len, src_lengths);
  for (int id : {kPad, 4, 6, 11, 13}) t.DecodeStep({id}, &rolled);
  rolled.TruncateTo(3);
  EXPECT_EQ(rolled.step, 3);
  Tensor got = t.DecodeStep({8}, &rolled);
  for (size_t d = 0; d < want.data().size(); ++d) {
    ASSERT_EQ(want.data()[d], got.data()[d]) << preset().name << " dim " << d;
  }

  // Truncate-to-zero resets the decode entirely: re-feeding the original
  // tokens reproduces the reference from scratch.
  rolled.TruncateTo(0);
  EXPECT_EQ(rolled.step, 0);
  for (int id : {kPad, 4, 6}) t.DecodeStep({id}, &rolled);
  Tensor again = t.DecodeStep({8}, &rolled);
  for (size_t d = 0; d < want.data().size(); ++d) {
    ASSERT_EQ(want.data()[d], again.data()[d]) << preset().name;
  }

  // Truncating to the current step is a no-op.
  const int step_before = rolled.step;
  rolled.TruncateTo(step_before);
  EXPECT_EQ(rolled.step, step_before);
}

TEST_P(DecodeParity, TruncateToAfterReorderCompaction) {
  // Reorder (beam pruning / batch eviction) compacts rows but keeps the
  // self-attention time capacity; TruncateTo after it must still land the
  // surviving row exactly where a fresh single-row decode would be.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  Rng init(seed());
  nn::Transformer t(cfg, &init);

  Rng data(seed() * 43 + 17);
  const int src_len = 6;
  const std::vector<int> s0 = RandomSrc(&data, src_len);
  const std::vector<int> s1 = RandomSrc(&data, src_len);
  std::vector<int> both = s0;
  both.insert(both.end(), s1.begin(), s1.end());

  NoGradGuard guard;
  // Reference: s1 alone, fed [pad, 5, 9], rolled back one, corrective 12.
  const std::vector<int> one_len = {src_len};
  Tensor memory1 = t.Encode(s1, 1, src_len, one_len, false, nullptr);
  nn::DecodeState reference = t.BeginDecode(memory1, 1, src_len, one_len);
  for (int id : {kPad, 5}) t.DecodeStep({id}, &reference);
  Tensor want = t.DecodeStep({12}, &reference);

  // Batched: both rows decode together, row 0 is evicted via Reorder, the
  // survivor speculates one token past the reference and rolls back.
  const std::vector<int> two_len = {src_len, src_len};
  Tensor memory2 = t.Encode(both, 2, src_len, two_len, false, nullptr);
  nn::DecodeState batched = t.BeginDecode(memory2, 2, src_len, two_len);
  t.DecodeStep({kPad, kPad}, &batched);
  t.DecodeStep({5, 5}, &batched);
  batched.Reorder({1});  // row 0 finished; survivor compacts to batch 1
  t.DecodeStep({9}, &batched);  // speculative token, then rejected:
  batched.TruncateTo(2);
  Tensor got = t.DecodeStep({12}, &batched);
  for (size_t d = 0; d < want.data().size(); ++d) {
    ASSERT_EQ(want.data()[d], got.data()[d]) << preset().name << " dim " << d;
  }
}

/// Gives a fresh batch-1 state the self-K/V capacity
/// ContinuousDecoder::Admit preallocates, so steps write in place.
void Preallocate(int capacity, nn::DecodeState* state) {
  for (nn::DecodeState::LayerCache& layer : state->layers) {
    layer.self_k = Tensor({1, layer.cross_k.dim(1), capacity,
                           layer.cross_k.dim(3)});
    layer.self_v = Tensor({1, layer.cross_k.dim(1), capacity,
                           layer.cross_k.dim(3)});
  }
}

void ExpectRowsEqual(const Tensor& got, int got_row, const Tensor& want,
                     const char* preset_name, const char* what) {
  const Tensor row = ops::GatherRows(got, {got_row});
  ASSERT_EQ(row.shape(), want.shape()) << preset_name << " " << what;
  for (size_t d = 0; d < want.data().size(); ++d) {
    ASSERT_EQ(row.data()[d], want.data()[d])
        << preset_name << " " << what << " dim " << d;
  }
}

TEST_P(DecodeParity, RaggedSpanMatchesPerRowSingleSteps) {
  // Two rows at different positions in one preallocated batch, stepped by
  // a span of 2: each row's hidden rows must equal that row's own batch-1
  // one-token steps, and the caches must continue identically.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  Rng init(seed());
  nn::Transformer t(cfg, &init);

  Rng data(seed() * 67 + 37);
  const std::vector<std::vector<int>> srcs = {RandomSrc(&data, 5),
                                              RandomSrc(&data, 8)};
  const std::vector<std::vector<int>> fed = {{kPad, 4, 6}, {kPad}};
  const std::vector<std::vector<int>> span = {{8, 10}, {5, 7}};
  const std::vector<int> after = {12, 9};

  NoGradGuard guard;
  nn::DecodeState merged;
  std::vector<nn::DecodeState> refs;
  for (size_t r = 0; r < srcs.size(); ++r) {
    const int len = static_cast<int>(srcs[r].size());
    const Tensor memory = t.Encode(srcs[r], 1, len, {len}, false, nullptr);
    nn::DecodeState row = t.BeginDecode(memory, 1, len, {len});
    refs.push_back(t.BeginDecode(memory, 1, len, {len}));
    Preallocate(16, &row);
    for (int id : fed[r]) {
      t.DecodeStep({id}, &row);
      t.DecodeStep({id}, &refs.back());
    }
    merged.MergeFrom(std::move(row));
  }
  ASSERT_EQ(merged.steps, (std::vector<int>{3, 1}));

  const Tensor got = t.DecodeStep({8, 10, 5, 7}, &merged, 2);  // [4, d]
  ASSERT_EQ(got.dim(0), 4);
  for (size_t r = 0; r < srcs.size(); ++r) {
    for (int i = 0; i < 2; ++i) {
      const Tensor want = t.DecodeStep({span[r][i]}, &refs[r]);
      ExpectRowsEqual(got, static_cast<int>(r) * 2 + i, want, preset().name,
                      "span row");
    }
  }
  EXPECT_EQ(merged.steps, (std::vector<int>{5, 3}));
  const Tensor next = t.DecodeStep(after, &merged);
  for (size_t r = 0; r < srcs.size(); ++r) {
    const Tensor want = t.DecodeStep({after[r]}, &refs[r]);
    ExpectRowsEqual(next, static_cast<int>(r), want, preset().name,
                    "next step");
  }
}

TEST_P(DecodeParity, TruncateInsidePreallocatedSlab) {
  // TruncateTo only moves the position back: the rejected tokens' K/V stay
  // in the preallocated slab past it. The corrective step must still equal
  // the untruncated reference, so that stale tail is never read.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  Rng init(seed());
  nn::Transformer t(cfg, &init);

  Rng data(seed() * 71 + 41);
  const int src_len = data.UniformRange(5, 8);
  const std::vector<int> src = RandomSrc(&data, src_len);
  const std::vector<int> src_lengths = {src_len};

  NoGradGuard guard;
  const Tensor memory =
      t.Encode(src, 1, src_len, src_lengths, /*train=*/false, nullptr);
  nn::DecodeState reference = t.BeginDecode(memory, 1, src_len, src_lengths);
  for (int id : {kPad, 4, 6}) t.DecodeStep({id}, &reference);
  const Tensor want = t.DecodeStep({8}, &reference);

  nn::DecodeState slab = t.BeginDecode(memory, 1, src_len, src_lengths);
  Preallocate(16, &slab);
  for (int id : {kPad, 4, 6, 11, 13}) t.DecodeStep({id}, &slab);
  slab.TruncateTo(3);
  EXPECT_EQ(slab.step, 3);
  EXPECT_EQ(slab.layers[0].self_k.dim(2), 16) << "capacity must be kept";
  const Tensor got = t.DecodeStep({8}, &slab);
  ExpectRowsEqual(got, 0, want, preset().name, "corrective step");
}

TEST_P(DecodeParity, CopiedStateStepsIndependently) {
  // A copy of a state shares its self caches until one side writes. The
  // copy's steps must not reach the original: stepping the original after
  // its copy has decoded other tokens must give the bits of a state that
  // was never copied. The copy first rolls back into the shared prefix, so
  // a write through the shared storage would change keys the original
  // still reads.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  Rng init(seed());
  nn::Transformer t(cfg, &init);

  Rng data(seed() * 97 + 61);
  const int src_len = data.UniformRange(5, 8);
  const std::vector<int> src = RandomSrc(&data, src_len);
  const std::vector<int> src_lengths = {src_len};

  NoGradGuard guard;
  const Tensor memory =
      t.Encode(src, 1, src_len, src_lengths, /*train=*/false, nullptr);
  nn::DecodeState never_copied =
      t.BeginDecode(memory, 1, src_len, src_lengths);
  nn::DecodeState original = t.BeginDecode(memory, 1, src_len, src_lengths);
  Preallocate(16, &never_copied);
  Preallocate(16, &original);
  for (int id : {kPad, 4, 6}) {
    t.DecodeStep({id}, &never_copied);
    t.DecodeStep({id}, &original);
  }

  nn::DecodeState copy = original;
  copy.TruncateTo(1);
  for (int id : {11, 13, 9}) t.DecodeStep({id}, &copy);
  EXPECT_EQ(copy.steps, (std::vector<int>{4}));

  for (int id : {8, 5}) {
    const Tensor want = t.DecodeStep({id}, &never_copied);
    const Tensor got = t.DecodeStep({id}, &original);
    ExpectRowsEqual(got, 0, want, preset().name, "original after copy");
  }
}

/// The storage of every cache tensor of every row of `state`, in layer
/// order: self_k, self_v, cross_k, cross_v per row and layer.
std::vector<const float*> CacheStorage(const nn::DecodeState& state) {
  std::vector<const float*> out;
  for (const nn::DecodeState::LayerCache& layer : state.layers) {
    for (const Tensor* t :
         {&layer.self_k, &layer.self_v, &layer.cross_k, &layer.cross_v}) {
      out.push_back(t->defined() ? t->data().data() : nullptr);
    }
  }
  return out;
}

TEST_P(DecodeParity, MergeAndEvictMoveHandlesOnly) {
  // Admit and evict move row handles and copy no K/V: after a stepped
  // state merges two rows spliced from EncodePrefix blocks, every row's
  // four cache tensors keep the storage they had, so the blocks stay
  // aliased, also through the next step. Evicting a row then leaves the
  // survivors' storage as it was.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  const model::TransformerSeq2Seq m(cfg, kPad, kEos, seed());
  const nn::Transformer& t = m.transformer();
  Rng data(seed() * 89 + 59);
  std::vector<std::shared_ptr<const model::EncodedPrefix>> blocks;
  for (int len : {6, 9, 4}) {
    blocks.push_back(
        m.EncodePrefix(RandomSrc(&data, len), WeightDtype::kFloat32));
  }

  NoGradGuard guard;
  const size_t per_row = blocks[0]->state.layers.size();
  nn::DecodeState state = blocks[0]->state;
  Preallocate(16, &state);
  for (int id : {kPad, 4, 6}) t.DecodeStep({id}, &state);
  std::vector<const float*> want = CacheStorage(state);
  for (size_t i = 1; i < blocks.size(); ++i) {
    nn::DecodeState row = blocks[i]->state;
    Preallocate(16, &row);
    const std::vector<const float*> row_storage = CacheStorage(row);
    want.insert(want.end(), row_storage.begin(), row_storage.end());
    state.MergeFrom(std::move(row));
  }
  ASSERT_EQ(state.layers.size(), 3 * per_row);
  EXPECT_EQ(CacheStorage(state), want) << preset().name << " after merge";
  t.DecodeStep({8, kPad, kPad}, &state);
  EXPECT_EQ(CacheStorage(state), want) << preset().name << " after a step";
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (size_t l = 0; l < per_row; ++l) {
      EXPECT_EQ(state.layers[b * per_row + l].cross_k.data().data(),
                blocks[b]->state.layers[l].cross_k.data().data())
          << preset().name << " row " << b << " no longer aliases its block";
    }
  }

  state.Reorder({0, 2});
  const auto row1 = want.begin() + static_cast<std::ptrdiff_t>(4 * per_row);
  want.erase(row1, row1 + static_cast<std::ptrdiff_t>(4 * per_row));
  EXPECT_EQ(CacheStorage(state), want) << preset().name << " after evict";
}

TEST_P(DecodeParity, MergedRowsKeepTheirOwnCapacity) {
  // A row preallocated to 4096 positions joins two rows that hold 16: the
  // rows keep their own extents, and the next steps still equal each
  // row's own batch-1 decode.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  Rng init(seed());
  nn::Transformer t(cfg, &init);

  Rng data(seed() * 103 + 67);
  NoGradGuard guard;
  nn::DecodeState merged;
  std::vector<nn::DecodeState> refs;
  for (const int capacity : {16, 16, 4096}) {
    const int len = data.UniformRange(4, 9);
    const std::vector<int> src = RandomSrc(&data, len);
    const Tensor memory = t.Encode(src, 1, len, {len}, false, nullptr);
    nn::DecodeState row = t.BeginDecode(memory, 1, len, {len});
    refs.push_back(t.BeginDecode(memory, 1, len, {len}));
    Preallocate(capacity, &row);
    t.DecodeStep({kPad}, &row);
    t.DecodeStep({kPad}, &refs.back());
    merged.MergeFrom(std::move(row));
  }
  const size_t per_row = refs[0].layers.size();
  ASSERT_EQ(merged.layers.size(), 3 * per_row);
  for (int step = 0; step < 2; ++step) {
    for (size_t l = 0; l < per_row; ++l) {
      EXPECT_EQ(merged.layers[l].self_k.dim(2), 16) << preset().name;
      EXPECT_EQ(merged.layers[per_row + l].self_k.dim(2), 16)
          << preset().name;
      EXPECT_EQ(merged.layers[2 * per_row + l].self_k.dim(2), 4096)
          << preset().name;
    }
    const std::vector<int> ids = {5 + step, 7 + step, 9 + step};
    const Tensor got = t.DecodeStep(ids, &merged);
    for (size_t r = 0; r < refs.size(); ++r) {
      const Tensor want = t.DecodeStep({ids[r]}, &refs[r]);
      ExpectRowsEqual(got, static_cast<int>(r), want, preset().name,
                      "merged row");
    }
  }
}

TEST_P(DecodeParity, ForkedRowsSplitOnWrite) {
  // Reorder({0, 0}) forks a stepped row: both copies share its caches
  // until the next step writes them. That step copies the first row's
  // caches only (the second is then their sole owner and writes in
  // place), and each copy's steps equal an independent batch-1 decode.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  Rng init(seed());
  nn::Transformer t(cfg, &init);

  Rng data(seed() * 107 + 71);
  const int src_len = data.UniformRange(5, 8);
  const std::vector<int> src = RandomSrc(&data, src_len);
  const std::vector<int> src_lengths = {src_len};

  NoGradGuard guard;
  const Tensor memory =
      t.Encode(src, 1, src_len, src_lengths, /*train=*/false, nullptr);
  nn::DecodeState forked = t.BeginDecode(memory, 1, src_len, src_lengths);
  std::vector<nn::DecodeState> refs = {
      t.BeginDecode(memory, 1, src_len, src_lengths),
      t.BeginDecode(memory, 1, src_len, src_lengths)};
  Preallocate(16, &forked);
  for (int id : {kPad, 4, 6}) {
    t.DecodeStep({id}, &forked);
    for (nn::DecodeState& ref : refs) t.DecodeStep({id}, &ref);
  }
  forked.Reorder({0, 0});
  const size_t per_row = refs[0].layers.size();
  ASSERT_EQ(forked.layers.size(), 2 * per_row);
  const std::vector<const float*> parent = CacheStorage(forked);
  for (size_t l = 0; l < per_row; ++l) {
    EXPECT_EQ(forked.layers[l].self_k.data().data(),
              forked.layers[per_row + l].self_k.data().data())
        << preset().name << " a fork shares its parent's storage";
  }

  const std::vector<std::vector<int>> feeds = {{11, 13}, {3, 9}};
  for (size_t i = 0; i < feeds[0].size(); ++i) {
    const Tensor got = t.DecodeStep({feeds[0][i], feeds[1][i]}, &forked);
    for (size_t r = 0; r < refs.size(); ++r) {
      const Tensor want = t.DecodeStep({feeds[r][i]}, &refs[r]);
      ExpectRowsEqual(got, static_cast<int>(r), want, preset().name,
                      "forked row");
    }
    if (i > 0) continue;
    const std::vector<const float*> split = CacheStorage(forked);
    for (size_t l = 0; l < per_row; ++l) {
      const size_t first = 4 * l;
      const size_t second = 4 * (per_row + l);
      EXPECT_NE(split[first], parent[first])
          << preset().name << " the first write copies row 0";
      EXPECT_EQ(split[second], parent[second])
          << preset().name << " row 1 writes its parent's storage in place";
      EXPECT_EQ(split[first + 2], parent[first + 2])
          << preset().name << " cross K/V are never copied";
    }
  }
}

TEST_P(DecodeParity, CachedGreedy64MatchesOracle) {
  // A long decode: 64 tokens with EOS disallowed, so positions run far past
  // the short suites above (and past the relative-bias exact buckets).
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  model::TransformerSeq2Seq m(cfg, kPad, kEos, seed());
  Rng data(seed() * 73 + 43);
  const std::vector<int> src = RandomSrc(&data, 9);

  model::GenerationOptions gen;
  gen.max_len = 64;
  gen.allowed = [](int token) { return token != kEos; };
  const std::vector<int> cached = m.Generate(src, gen);
  EXPECT_EQ(cached.size(), 64u) << preset().name;
  EXPECT_EQ(cached, oracle::GreedyDecodeFull(m, src, gen)) << preset().name;
}

// --- Speculative draft-verify parity (docs/SPECULATIVE.md) -----------------

TEST_P(DecodeParity, SpeculativeMatchesPlainGreedy) {
  // The parity contract: every committed token is the base's greedy choice,
  // so the output never depends on the draft — here an unrelated model
  // that happens to share the vocabulary.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  model::TransformerSeq2Seq base(cfg, kPad, kEos, seed());
  nn::TransformerConfig draft_cfg = nn::TransformerConfig::T5Small(kVocab);
  draft_cfg.dropout = 0.0f;
  model::TransformerSeq2Seq draft(draft_cfg, kPad, kEos, seed() + 99);
  const spec::DraftVerifyEngine engine(&base, &draft);

  Rng data(seed() * 47 + 19);
  model::GenerationOptions plain;
  plain.max_len = 16;
  for (int k : {1, 3}) {
    for (const bool adaptive : {true, false}) {
      const std::vector<int> src = RandomSrc(&data, 7);
      model::GenerationOptions spec_gen = plain;
      spec_gen.draft_k = k;
      spec_gen.draft_adaptive = adaptive;
      EXPECT_EQ(engine.Generate(src, spec_gen), base.Generate(src, plain))
          << preset().name << " k=" << k << " adaptive=" << adaptive;
    }
  }
}

TEST_P(DecodeParity, SpeculativeConstrainedMatchesPlainGreedy) {
  // Grammar-constrained decoding: both proposal and verify honor
  // options.allowed, and parity must survive it.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  model::TransformerSeq2Seq base(cfg, kPad, kEos, seed());
  nn::TransformerConfig draft_cfg = nn::TransformerConfig::T5Small(kVocab);
  draft_cfg.dropout = 0.0f;
  model::TransformerSeq2Seq draft(draft_cfg, kPad, kEos, seed() + 99);
  const spec::DraftVerifyEngine engine(&base, &draft);

  Rng data(seed() * 53 + 23);
  const std::vector<int> src = RandomSrc(&data, 6);
  model::GenerationOptions plain;
  plain.max_len = 12;
  plain.allowed = [](int token) { return token % 3 != 0; };
  model::GenerationOptions spec_gen = plain;
  spec_gen.draft_k = 3;
  EXPECT_EQ(engine.Generate(src, spec_gen), base.Generate(src, plain))
      << preset().name;
}

TEST_P(DecodeParity, SpeculativeSelfDraftAcceptsEverything) {
  // Draft == base pins the acceptance ceiling: identical weights mean the
  // draft argmax always matches the verify argmax, so nothing is rejected
  // and every round commits a full run.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  model::TransformerSeq2Seq base(cfg, kPad, kEos, seed());
  const spec::DraftVerifyEngine engine(&base, &base);

  Rng data(seed() * 59 + 29);
  const std::vector<int> src = RandomSrc(&data, 7);
  model::GenerationOptions plain;
  plain.max_len = 16;
  // Pin decode length so a short natural decode cannot mask acceptance.
  plain.allowed = [](int token) { return token != kEos; };
  model::GenerationOptions spec_gen = plain;
  spec_gen.draft_k = 4;
  spec::SpecStats stats;
  EXPECT_EQ(engine.Generate(src, spec_gen, nullptr, &stats),
            base.Generate(src, plain))
      << preset().name;
  EXPECT_EQ(stats.rejected, 0) << preset().name;
  EXPECT_GT(stats.proposed, 0) << preset().name;
  EXPECT_DOUBLE_EQ(stats.acceptance_rate(), 1.0) << preset().name;
  EXPECT_GT(stats.tokens_per_step(), 1.5) << preset().name;
}

TEST_P(DecodeParity, SpeculativeDeadlineYieldsGreedyPrefix) {
  // Deadline expiry mid-decode must return a PREFIX of the unbounded
  // greedy stream — committed tokens are never revised. deadline_ms = 1 on
  // these presets usually cuts the decode after the first verify rounds;
  // whatever survives must match token-for-token.
  nn::TransformerConfig cfg = preset().make(kVocab);
  cfg.dropout = 0.0f;
  model::TransformerSeq2Seq base(cfg, kPad, kEos, seed());
  nn::TransformerConfig draft_cfg = nn::TransformerConfig::T5Small(kVocab);
  draft_cfg.dropout = 0.0f;
  model::TransformerSeq2Seq draft(draft_cfg, kPad, kEos, seed() + 99);
  const spec::DraftVerifyEngine engine(&base, &draft);

  Rng data(seed() * 61 + 31);
  const std::vector<int> src = RandomSrc(&data, 7);
  model::GenerationOptions plain;
  plain.max_len = 24;
  plain.allowed = [](int token) { return token != kEos; };
  const std::vector<int> full = base.Generate(src, plain);

  model::GenerationOptions spec_gen = plain;
  spec_gen.draft_k = 2;
  spec_gen.deadline_ms = 1;
  const std::vector<int> cut = engine.Generate(src, spec_gen);
  ASSERT_LE(cut.size(), full.size()) << preset().name;
  EXPECT_TRUE(std::equal(cut.begin(), cut.end(), full.begin()))
      << preset().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, DecodeParity,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values<uint64_t>(11, 42, 1234)),
    [](const ::testing::TestParamInfo<DecodeParity::ParamType>& info) {
      return std::string(kPresets[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace vist5
