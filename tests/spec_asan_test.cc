// AddressSanitizer pass over the speculative draft-verify engine
// (docs/SPECULATIVE.md) and the continuous batch's row bookkeeping,
// companion to simd_asan_test and prefix_cache_asan_test. The release tree
// compiles vist5::spec and vist5::model with -O3 and no sanitizer; this
// binary recompiles src/spec/engine.cc and the decoder that runs its
// rounds (src/model/batch_decoder.cc), together with the decode step and
// the decode state under them (src/nn/transformer.cc, attention.cc and
// layers.cc, src/tensor/ops.cc and row_ops.cc), under ASan (see
// tests/CMakeLists.txt).
//
// The first phase churns Generate through every shape of round the
// decoder has: full accepts, full rejects, partial accepts with mid-span
// rollback, adaptive-k growth and collapse, constrained vocabularies,
// deadline cuts, prefix-spliced base prefills, and the self-draft
// ceiling. The hot path — span DecodeStep writing the KV cache in place
// or into a grown copy, bounded attention reads at span > 1 from its
// reused row buffers, TruncateTo moving the position back over a stale
// tail, the draft catch-up feed — runs inside instrumented TUs, so an
// off-by-one in any cache write or bounded read surfaces as a hard
// heap-buffer-overflow report instead of silent parity-breaking
// corruption.
//
// The second phase runs one ContinuousDecoder over 48 requests admitted a
// few at each step boundary, so rows join a batch that has already
// stepped: greedy rows of max_len 1-40, beam-3 requests whose rows fork
// and die, rows spliced from shared EncodePrefix blocks, and expired
// deadlines. Each admit appends a row's K/V handles, each evict or beam
// step moves them, and each forked row copies its caches on its first
// write; every result that finished before its deadline must equal the
// request decoded alone.
//
// Plain main (no gtest), deterministic seeds: any report reproduces.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "model/batch_decoder.h"
#include "model/transformer_model.h"
#include "spec/engine.h"
#include "util/rng.h"

namespace vist5 {
namespace {

constexpr int kVocab = 32;
constexpr int kPad = 0;
constexpr int kEos = 1;

/// The second phase: admit/evict/fork churn in one continuous batch.
int RunBatchChurn(const model::TransformerSeq2Seq& base) {
  using model::ContinuousDecoder;
  Rng rng(20261019);
  std::vector<std::vector<int>> srcs;
  std::vector<model::GenerationOptions> options;
  std::vector<bool> expired;
  for (int i = 0; i < 48; ++i) {
    model::GenerationOptions o;
    o.max_len = rng.UniformRange(1, 40);
    if (rng.UniformInt(4) == 0) {
      o.beam_size = 3;
      o.max_len = rng.UniformRange(2, 12);
    }
    // About a third of the requests repeat an earlier source, so spliced
    // rows can share a block with another row.
    if (i >= 3 && rng.UniformInt(3) == 0) {
      srcs.push_back(srcs[static_cast<size_t>(rng.UniformInt(i))]);
    } else {
      std::vector<int> src(static_cast<size_t>(rng.UniformRange(3, 12)));
      for (int& t : src) t = rng.UniformRange(2, kVocab - 1);
      srcs.push_back(std::move(src));
    }
    options.push_back(o);
    expired.push_back(rng.UniformInt(10) == 0);
  }
  std::map<std::vector<int>, std::shared_ptr<const model::EncodedPrefix>>
      cache;
  ContinuousDecoder decoder(&base);
  std::vector<std::vector<int>> got(srcs.size());
  std::vector<bool> cut(srcs.size(), false);
  size_t next = 0;
  int max_rows = 0;
  while (next < srcs.size() || decoder.active() > 0) {
    const size_t admits = static_cast<size_t>(rng.UniformRange(0, 3));
    for (size_t a = 0; a < admits && next < srcs.size(); ++a, ++next) {
      const model::EncodedPrefix* block = nullptr;
      if (rng.UniformInt(2) == 0) {
        auto& slot = cache[srcs[next]];
        if (slot == nullptr) {
          slot = base.EncodePrefix(srcs[next], WeightDtype::kFloat32);
        }
        block = slot.get();
      }
      const auto deadline = expired[next]
                                ? ContinuousDecoder::Clock::now()
                                : ContinuousDecoder::Clock::time_point::max();
      decoder.Admit(next, srcs[next], options[next], deadline, block);
    }
    max_rows = std::max(max_rows, decoder.active());
    for (ContinuousDecoder::Finished& f : decoder.Step()) {
      got[f.id] = std::move(f.tokens);
      cut[f.id] = f.deadline_expired;
    }
  }
  int checked = 0;
  for (size_t i = 0; i < srcs.size(); ++i) {
    if (cut[i]) continue;
    if (got[i] != base.Generate(srcs[i], options[i])) {
      std::fprintf(stderr,
                   "spec_asan: FAIL — batched request %zu (beam %d) drifted "
                   "from its solo decode\n",
                   i, options[i].beam_size);
      return 1;
    }
    ++checked;
  }
  std::printf("spec_asan: %d batched requests match their solo decodes "
              "(up to %d requests at once)\n",
              checked, max_rows);
  return 0;
}

int Run() {
  nn::TransformerConfig cfg = nn::TransformerConfig::T5Small(kVocab);
  cfg.dropout = 0.0f;
  const model::TransformerSeq2Seq base(cfg, kPad, kEos, 42);
  // A differently-seeded draft proposes near-arbitrary tokens, so most
  // rounds reject mid-span — the rollback-heavy regime.
  const model::TransformerSeq2Seq draft(cfg, kPad, kEos, 4242);
  const spec::DraftVerifyEngine engine(&base, &draft);
  // Same-weights self-draft accepts everything — the longest-span regime.
  const spec::DraftVerifyEngine self_engine(&base, &base);

  Rng rng(20260807);
  int decodes = 0;
  int64_t committed = 0;
  for (int i = 0; i < 48; ++i) {
    std::vector<int> src(static_cast<size_t>(rng.UniformRange(3, 9)));
    for (int& t : src) t = rng.UniformRange(2, kVocab - 1);

    model::GenerationOptions options;
    options.max_len = rng.UniformRange(4, 16);
    options.draft_k = rng.UniformRange(1, 4);
    options.draft_adaptive = rng.UniformInt(2) == 0;
    if (rng.UniformInt(3) == 0) {
      // Constraint churn: rejected-by-mask drafts and corrective tokens.
      const int forbidden = rng.UniformRange(2, kVocab - 1);
      options.allowed = [forbidden](int token) { return token != forbidden; };
    }
    if (rng.UniformInt(6) == 0) options.deadline_ms = 1;  // mid-round cut

    const spec::DraftVerifyEngine& e =
        rng.UniformInt(4) == 0 ? self_engine : engine;
    spec::SpecStats stats;
    std::vector<int> out;
    if (rng.UniformInt(3) == 0) {
      // Spliced base prefill: the engine's state copy aliases the block's
      // cross K/V; rollbacks must never write through them.
      auto block = base.EncodePrefix(src, options.weight_dtype);
      out = e.Generate(src, options, block.get(), &stats);
    } else {
      out = e.Generate(src, options, nullptr, &stats);
    }

    // Parity oracle: without a deadline the speculative output is exactly
    // plain greedy.
    if (options.deadline_ms == 0) {
      model::GenerationOptions plain = options;
      plain.draft_k = 0;
      plain.draft_adaptive = false;
      if (out != base.Generate(src, plain)) {
        std::fprintf(stderr,
                     "spec_asan: FAIL — decode %d drifted from plain "
                     "greedy\n",
                     i);
        return 1;
      }
    }
    ++decodes;
    committed += stats.committed;
  }

  std::printf("spec_asan: %d speculative decodes ok (%lld tokens committed)\n",
              decodes, static_cast<long long>(committed));
  return RunBatchChurn(base);
}

}  // namespace
}  // namespace vist5

int main() { return vist5::Run(); }
