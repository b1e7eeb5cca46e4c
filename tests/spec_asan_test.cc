// AddressSanitizer pass over the speculative draft-verify engine
// (docs/SPECULATIVE.md), companion to simd_asan_test and
// prefix_cache_asan_test. The release tree compiles vist5::spec and
// vist5::model with -O3 and no sanitizer; this binary recompiles
// src/spec/engine.cc and the decoder that runs its rounds
// (src/model/batch_decoder.cc), together with the decode step under them
// (src/nn/transformer.cc, attention.cc and layers.cc, src/tensor/ops.cc
// and row_ops.cc), under ASan (see
// tests/CMakeLists.txt) and churns Generate through every shape of round
// the decoder has: full accepts, full rejects, partial accepts with
// mid-span rollback, adaptive-k growth and collapse, constrained
// vocabularies, deadline cuts, prefix-spliced base prefills, and the
// self-draft ceiling. The hot path — span DecodeStep writing the
// KV cache in place or into a grown copy, bounded attention reads at
// span > 1 from its reused row buffers,
// TruncateTo moving the position back over a stale tail, the draft
// catch-up feed — runs inside instrumented TUs, so an off-by-one in any
// cache write or bounded read surfaces as a hard heap-buffer-overflow
// report instead of silent parity-breaking corruption.
//
// Plain main (no gtest), deterministic seeds: any report reproduces.

#include <cstdio>
#include <vector>

#include "model/transformer_model.h"
#include "spec/engine.h"
#include "util/rng.h"

namespace vist5 {
namespace {

constexpr int kVocab = 32;
constexpr int kPad = 0;
constexpr int kEos = 1;

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
  return 0;
}

}  // namespace
}  // namespace vist5

int main() { return vist5::Run(); }
