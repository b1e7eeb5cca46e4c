#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "model/transformer_model.h"
#include "spans.h"
#include "stats.h"
#include "text/tokenizer.h"

namespace perfbench {

/// What the layer walk replays: a seeded sample of one workload's own
/// requests, with the outputs the timed phase produced for them.
struct WalkRequest {
  std::string text;
  std::vector<int> src;
  vist5::model::GenerationOptions options;  ///< greedy, as the workload ran
  std::vector<int> output;
};

struct WalkInput {
  const vist5::model::TransformerSeq2Seq* model = nullptr;
  /// The draft of speculative requests; null when the workload has none.
  const vist5::model::TransformerSeq2Seq* draft = nullptr;
  const vist5::text::Tokenizer* tokenizer = nullptr;
  std::vector<WalkRequest> sample;
  /// Speculative requests of the sample (run through DraftVerifyEngine).
  std::vector<WalkRequest> spec_sample;
  /// A contiguous window of the workload's prompt sequence, replayed
  /// through a PrefixCache of `cache_bytes`; empty when the workload runs
  /// without the cache.
  std::vector<std::vector<int>> cache_window;
  size_t cache_bytes = 0;
  int max_batch = 8;
};

/// Times, single-threaded and from outside, the public entry points of
/// the text, prefix_cache, transformer_model, batch_decoder, nn, tensor
/// and spec layers on `input`, and returns their per-layer metrics
/// (text.*, prefix.acquire_us / insert_us, model.*, decoder.*, kv.*,
/// nn.*, tensor.*, spec.generate_p50_ms). Metrics of a layer the workload
/// does not use read 0. Every timed call is also recorded in `spans`.
MetricMap LayerWalk(const WalkInput& input, SpanLog* spans);

/// Weight bytes one decode step reads per output token at batch 1, in MB
/// (1e6 bytes): the decoder projections used after prefill, the norms and
/// the logits table. Computed from tensor sizes, not measured; int8
/// counts one byte per projection or logits weight plus a float scale per
/// output column.
double WeightMbPerToken(const vist5::model::TransformerSeq2Seq& model,
                        bool int8);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
