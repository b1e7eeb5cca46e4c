// Continuous-batching serving benchmark (docs/SERVING.md). First rechecks
// the batching determinism contract — GenerateBatch must be token-identical
// to per-request Generate, since throughput measured on divergent outputs
// would be meaningless — then drives the scheduler with the closed-loop
// load generator at batch widths 1, 4, and 8 and prints one `serve_loadgen`
// row per width: throughput (tokens/sec), p50/p99 request latency, p50/p99
// time-to-first-token, the fraction of requests missing a 500 ms latency
// SLO, and mean decode-batch occupancy. Width 8 additionally runs an int8
// weight-dtype row (parity-checked first, like the float path), measuring
// the quantized decode under continuous batching. Two speculative-decoding
// phases follow (docs/SPECULATIVE.md): a width-1 closed-loop A/B of plain
// greedy vs. draft-verify decoding (acceptance rate, effective tokens per
// verify step, tok/s speedup), and an open-loop phase replaying one frozen
// Poisson trace against both so the speedup shows up as latency and
// SLO-violation deltas at equal offered load. Rows are mirrored to
// VIST5_BENCH_JSON (scripts/run_all_benches.sh exports it into build/obs/).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/suite.h"
#include "data/corpus.h"
#include "data/db_gen.h"
#include "data/nvbench_gen.h"
#include "model/trainer.h"
#include "model/transformer_model.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "serve/loadgen.h"
#include "serve/scheduler.h"
#include "spec/engine.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/runtime.h"

namespace vist5 {
namespace {

struct Fixture {
  text::Tokenizer tokenizer;
  std::unique_ptr<model::TransformerSeq2Seq> model;
  std::vector<std::vector<int>> prompts;
  /// Question -> DV-query pairs for the speculative phase's quick
  /// fine-tune, and their encoded questions as the decode prompts.
  std::vector<model::SeqPair> pairs;
  std::vector<std::vector<int>> spec_prompts;

  Fixture() {
    TuneAllocatorForTraining();
    data::DbGenOptions db_options;
    db_options.num_databases = 12;
    const db::Catalog catalog = data::GenerateCatalog(db_options);
    const auto splits = data::AssignDatabaseSplits(catalog, 0.7, 0.1, 11);
    const auto nvbench = data::GenerateNvBench(catalog, splits, {});
    std::vector<std::string> corpus;
    for (const auto& ex : nvbench) {
      corpus.push_back(ex.question);
      corpus.push_back(ex.query);
    }
    tokenizer = text::Tokenizer::Build(corpus);
    model = std::make_unique<model::TransformerSeq2Seq>(
        nn::TransformerConfig::T5Small(tokenizer.vocab_size()),
        tokenizer.pad_id(), tokenizer.eos_id(), 7);
    for (const auto& ex : nvbench) {
      prompts.push_back(tokenizer.Encode(ex.question));
      if (prompts.size() >= 16) break;
    }
    for (const auto& ex : nvbench) {
      if (pairs.size() >= 12) break;
      model::SeqPair pair;
      pair.src = tokenizer.Encode(ex.question);
      pair.tgt = tokenizer.Encode(ex.query);
      spec_prompts.push_back(pair.src);
      pairs.push_back(std::move(pair));
    }
  }
};

/// Untrained models tend to emit EOS early; forcing a fixed-length decode
/// keeps the token count per request deterministic and comparable across
/// batch widths.
model::GenerationOptions FixedLengthDecode(int tokens, int eos_id) {
  model::GenerationOptions gen;
  gen.max_len = tokens;
  gen.allowed = [eos_id](int token) { return token != eos_id; };
  return gen;
}

void CheckBatchedParity(const Fixture& f, const model::GenerationOptions& gen,
                        const char* what) {
  std::vector<std::vector<int>> sequential;
  for (const auto& src : f.prompts) {
    sequential.push_back(f.model->Generate(src, gen));
  }
  const auto batched = f.model->GenerateBatch(f.prompts, gen);
  if (batched != sequential) {
    std::fprintf(stderr,
                 "serve_bench: PARITY FAILURE — continuous-batched %s decode "
                 "disagrees with sequential decode\n",
                 what);
    std::exit(1);
  }
}

int Main() {
  Fixture f;
  const model::GenerationOptions gen =
      FixedLengthDecode(64, f.tokenizer.eos_id());
  model::GenerationOptions gen_int8 = gen;
  gen_int8.weight_dtype = WeightDtype::kInt8;
  CheckBatchedParity(f, gen, "float32");
  CheckBatchedParity(f, gen_int8, "int8");

  // Every row streams: obs_ttft_* is the issue-to-first-streamed-token
  // time a streaming client actually observes, reported alongside the
  // timeline ttft_* (stamped inside the decode loop) so the callback and
  // delivery overhead between the two is visible per width.
  bench::PrintHeader("serve_loadgen",
                     {"tok_s", "p50_ms", "p99_ms", "ttft_p50", "ttft_p99",
                      "obs_ttft_p50", "obs_ttft_p99", "slo_viol",
                      "occupancy"});
  constexpr int kRequests = 48;
  // Latency target for the SLO-violation column. Generous for this CPU
  // fixture at width 1; contention at higher widths shows up as a nonzero
  // violation fraction rather than a bench failure.
  constexpr double kSloMs = 500;
  struct Config {
    int width;
    const model::GenerationOptions* gen;
  };
  // One int8 row at the widest batch: that is where the shared-weight
  // reads amortize best, so it brackets the quantization win end-to-end.
  const Config configs[] = {
      {1, &gen}, {4, &gen}, {8, &gen}, {8, &gen_int8}};
  for (const Config& config : configs) {
    serve::SchedulerOptions sched_options;
    sched_options.max_batch = config.width;
    sched_options.queue_capacity = kRequests + 16;
    serve::BatchScheduler scheduler(f.model.get(), sched_options);
    scheduler.Start();

    serve::LoadGenOptions load;
    load.concurrency = config.width;
    load.total_requests = kRequests;
    load.slo_ms = kSloMs;
    load.stream = true;
    load.gen = *config.gen;
    const serve::LoadGenReport report =
        serve::RunLoadGen(&scheduler, f.prompts, load);
    scheduler.Shutdown(/*drain=*/true);

    bench::PrintRow("t5_small_batch" + std::to_string(config.width) + "_" +
                        WeightDtypeName(config.gen->weight_dtype),
                    {report.tok_per_sec, report.p50_ms, report.p99_ms,
                     report.ttft_p50_ms, report.ttft_p99_ms,
                     report.observed_ttft_p50_ms, report.observed_ttft_p99_ms,
                     report.slo_violation_frac, report.mean_batch});
  }

  // Prefix-cache phase: schema-skewed (Zipf over schemas) traffic at batch
  // width 8, cache off vs. on. 64 requests drawn from 8 schemas x 3
  // questions means at most 24 distinct prompts, so the warm run repeats
  // most encoder inputs — the regime the cache exists for. The "on" row's
  // prefix_cache_hit_rate and prefill_tokens_saved columns land in
  // VIST5_BENCH_JSON alongside the throughput delta.
  serve::SchemaSkewOptions skew;
  skew.num_schemas = 8;
  skew.questions_per_schema = 3;
  skew.schema_tokens = 40;
  skew.question_tokens = 6;
  skew.total = 64;
  skew.vocab = f.tokenizer.vocab_size();
  const std::vector<std::vector<int>> skewed = serve::SchemaSkewedPrompts(skew);

  bench::PrintHeader("serve_prefix_cache",
                     {"tok_s", "ttft_p50", "prefix_cache_hit_rate",
                      "prefill_tokens_saved", "prefill_saved_frac"});
  for (const size_t cache_bytes : {size_t{0}, size_t{256} << 20}) {
    serve::SchedulerOptions sched_options;
    sched_options.max_batch = 8;
    sched_options.queue_capacity = static_cast<size_t>(skew.total) + 16;
    sched_options.prefix_cache_bytes = cache_bytes;
    serve::BatchScheduler scheduler(f.model.get(), sched_options);
    scheduler.Start();

    serve::LoadGenOptions load;
    load.concurrency = 8;
    load.total_requests = skew.total;
    load.slo_ms = kSloMs;
    load.gen = gen;
    const serve::LoadGenReport report =
        serve::RunLoadGen(&scheduler, skewed, load);
    scheduler.Shutdown(/*drain=*/true);

    const double saved_frac =
        report.prefill_tokens > 0
            ? static_cast<double>(report.prefill_tokens_saved) /
                  static_cast<double>(report.prefill_tokens)
            : 0.0;
    bench::PrintRow(cache_bytes == 0 ? "t5_small_skewed_cache_off"
                                     : "t5_small_skewed_cache_on",
                    {report.tok_per_sec, report.ttft_p50_ms,
                     report.prefix_hit_rate,
                     static_cast<double>(report.prefill_tokens_saved),
                     saved_frac});
  }

  // --- Speculative decoding phase (docs/SPECULATIVE.md). ---
  //
  // Draft-verify decoding is a single-stream latency optimization — the
  // scheduler decodes each speculative request alone — so the A/B compares
  // width-1 serving. Untrained models agree at chance (~1/vocab),
  // which would bench the rollback path rather than the win, so the base
  // and an ~8x-cheaper draft are first briefly fine-tuned on the same
  // question->query pairs (the regime the zoo's small/base checkpoints are
  // in) and the decode prompts are those same questions, where draft/base
  // agreement is high. A same-weights self-draft row pins the acceptance
  // ceiling — rate exactly 1.0, k+1 committed tokens per verify step — and
  // isolates the span-verify amortization with no cheap-draft advantage.
  //
  // The base is deliberately larger than the toy T5Small used above: at
  // d_model 64 a decode step is dispatch-overhead-bound, and speculation
  // cannot buy anything by saving weight reads that were never the cost.
  // At d_model 128 x 3 layers the step is weight-bound, which is the
  // regime the real 220M/770M checkpoints are in.
  nn::TransformerConfig base_config =
      nn::TransformerConfig::T5Small(f.tokenizer.vocab_size());
  base_config.d_model = 128;
  base_config.num_heads = 8;
  base_config.d_ff = 512;
  base_config.num_encoder_layers = 3;
  base_config.num_decoder_layers = 3;
  auto base = std::make_unique<model::TransformerSeq2Seq>(
      base_config, f.tokenizer.pad_id(), f.tokenizer.eos_id(), 7);
  nn::TransformerConfig draft_config =
      nn::TransformerConfig::T5Small(f.tokenizer.vocab_size());
  draft_config.d_model = 48;
  draft_config.num_heads = 4;
  draft_config.d_ff = 192;
  draft_config.num_encoder_layers = 1;
  draft_config.num_decoder_layers = 1;
  auto draft = std::make_unique<model::TransformerSeq2Seq>(
      draft_config, f.tokenizer.pad_id(), f.tokenizer.eos_id(), 11);
  model::TrainOptions train;
  train.steps = 240;
  train.batch_size = 8;
  model::TrainSeq2Seq(base.get(), f.pairs, f.tokenizer.pad_id(), train);
  // The draft is ~20x cheaper per step, so over-training it is nearly
  // free and buys acceptance directly.
  train.steps = 480;
  model::TrainSeq2Seq(draft.get(), f.pairs, f.tokenizer.pad_id(), train);

  // Natural-length greedy decodes: parity makes the plain and speculative
  // token streams identical, so the rows below compare equal work.
  model::GenerationOptions spec_gen;
  spec_gen.max_len = 64;
  spec_gen.draft_k = 4;
  model::GenerationOptions plain_gen = spec_gen;
  plain_gen.draft_k = 0;

  // Parity gate, mirroring CheckBatchedParity: speculative output must be
  // bit-identical to plain greedy or the A/B below is meaningless.
  {
    const spec::DraftVerifyEngine engine(base.get(), draft.get());
    for (const auto& src : f.spec_prompts) {
      if (engine.Generate(src, spec_gen) != base->Generate(src, plain_gen)) {
        std::fprintf(stderr,
                     "serve_bench: PARITY FAILURE — speculative decode "
                     "disagrees with plain greedy\n");
        std::exit(1);
      }
    }
  }

  obs::Counter* proposed_c = obs::GetCounter("spec/proposed");
  obs::Counter* accepted_c = obs::GetCounter("spec/accepted");
  obs::Counter* steps_c = obs::GetCounter("spec/steps");
  bench::PrintHeader("serve_speculative",
                     {"tok_s", "ttft_p50", "p50_ms", "accept_rate",
                      "tok_per_step", "speedup"});
  constexpr int kSpecRequests = 36;
  struct SpecConfig {
    const char* label;
    model::TransformerSeq2Seq* draft;  ///< null = plain greedy baseline
  };
  const SpecConfig spec_configs[] = {
      {"base128_plain_greedy", nullptr},
      {"base128_spec_k4_draft", draft.get()},
      {"base128_spec_k4_self", base.get()},
  };
  double plain_tok_s = 0;
  double plain_wall_s = 0;
  for (const SpecConfig& config : spec_configs) {
    const int64_t proposed0 = proposed_c->value();
    const int64_t accepted0 = accepted_c->value();
    const int64_t steps0 = steps_c->value();
    serve::SchedulerOptions sched_options;
    sched_options.max_batch = 1;
    sched_options.queue_capacity = kSpecRequests + 16;
    sched_options.draft_model = config.draft;
    serve::BatchScheduler scheduler(base.get(), sched_options);
    scheduler.Start();
    serve::LoadGenOptions load;
    load.concurrency = 1;
    load.total_requests = kSpecRequests;
    load.gen = config.draft != nullptr ? spec_gen : plain_gen;
    const serve::LoadGenReport report =
        serve::RunLoadGen(&scheduler, f.spec_prompts, load);
    scheduler.Shutdown(/*drain=*/true);

    const double proposed =
        static_cast<double>(proposed_c->value() - proposed0);
    const double accepted =
        static_cast<double>(accepted_c->value() - accepted0);
    const double steps = static_cast<double>(steps_c->value() - steps0);
    if (config.draft == nullptr) {
      plain_tok_s = report.tok_per_sec;
      plain_wall_s = report.wall_s;
    }
    bench::PrintRow(
        config.label,
        {report.tok_per_sec, report.ttft_p50_ms, report.p50_ms,
         proposed > 0 ? accepted / proposed : -1,
         steps > 0 ? static_cast<double>(report.tokens) / steps : -1,
         plain_tok_s > 0 ? report.tok_per_sec / plain_tok_s : -1});
  }

  // --- Open-loop phase: one frozen Poisson trace replayed against plain
  // and speculative width-1 serving. Open-loop arrivals never wait for
  // completions, so the offered load is identical across rows and the
  // speculative win shows up where production sees it: queueing latency
  // and the SLO-violation fraction. The rate is calibrated to ~70% of the
  // measured plain-greedy closed-loop service rate, so the baseline runs
  // loaded but feasible on any machine this bench lands on.
  const double open_rate =
      plain_wall_s > 0 ? 0.7 * kSpecRequests / plain_wall_s : 4.0;
  constexpr int kOpenRequests = 32;
  std::vector<serve::TraceEntry> trace;
  Rng arrivals(23);
  double at_ms = 0;
  for (int i = 0; i < kOpenRequests; ++i) {
    at_ms += -std::log(1.0 - arrivals.UniformDouble()) * 1000.0 / open_rate;
    serve::TraceEntry entry;
    entry.at_ms = at_ms;
    entry.tokens =
        f.spec_prompts[static_cast<size_t>(i) % f.spec_prompts.size()];
    trace.push_back(std::move(entry));
  }
  bench::PrintHeader("serve_open_loop", {"rate_rps", "tok_s", "p50_ms",
                                         "p99_ms", "ttft_p50", "slo_viol"});
  for (const bool speculative : {false, true}) {
    serve::SchedulerOptions sched_options;
    sched_options.max_batch = 1;
    sched_options.queue_capacity = kOpenRequests + 16;
    if (speculative) sched_options.draft_model = draft.get();
    serve::BatchScheduler scheduler(base.get(), sched_options);
    scheduler.Start();
    serve::LoadGenOptions load;
    load.slo_ms = kSloMs;
    load.trace = trace;
    load.gen = speculative ? spec_gen : plain_gen;
    const serve::LoadGenReport report =
        serve::RunLoadGen(&scheduler, f.spec_prompts, load);
    scheduler.Shutdown(/*drain=*/true);
    bench::PrintRow(speculative ? "base128_trace_spec_k4"
                                : "base128_trace_plain",
                    {open_rate, report.tok_per_sec, report.p50_ms,
                     report.p99_ms, report.ttft_p50_ms,
                     report.slo_violation_frac});
  }
  return 0;
}

}  // namespace
}  // namespace vist5

int main() { return vist5::Main(); }
