// vist5::serve — continuous-batching determinism and scheduler behavior.
//
// The central contract (docs/SERVING.md): a request decoded inside a shared
// continuous batch produces exactly the token sequence a sequential
// Generate call produces, regardless of batch composition, arrival order,
// or how often rows join and leave the batch. The tests here pin that
// contract at three levels — GenerateBatch (model layer), BatchScheduler
// with staggered arrivals (scheduler layer), and the TCP front end — plus
// the scheduler's failure modes: backpressure rejection, deadline expiry,
// and graceful drain.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dv/parser.h"
#include "full_prefix_oracle.h"
#include "model/checkpoint.h"
#include "model/transformer_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/loadgen.h"
#include "serve/request_queue.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "text/tokenizer.h"
#include "util/json.h"
#include "util/logging.h"

namespace vist5 {
namespace {

constexpr int kVocab = 48;
constexpr int kPad = 0;
constexpr int kEos = 1;

struct Preset {
  const char* name;
  nn::TransformerConfig (*make)(int vocab);
};

// Two presets exercise both norm styles and both position-bias flavors on
// the ragged decode path.
constexpr Preset kPresets[] = {
    {"t5_small", nn::TransformerConfig::T5Small},   // pre-RMS, relative bias
    {"vanilla", nn::TransformerConfig::Vanilla},    // post-LN, sinusoidal
};

std::vector<int> RandomSrc(Rng* rng, int len) {
  std::vector<int> src(static_cast<size_t>(len));
  for (int& t : src) t = rng->UniformRange(2, kVocab - 1);
  return src;
}

// Mixed-length sources so rows finish at different steps and the batch
// shrinks/evicts mid-flight.
std::vector<std::vector<int>> MixedSources(uint64_t seed, int count) {
  Rng rng(seed * 31 + 7);
  std::vector<std::vector<int>> srcs;
  srcs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    srcs.push_back(RandomSrc(&rng, 3 + i % 6));
  }
  return srcs;
}

class ServeParity : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {
 protected:
  const Preset& preset() const { return kPresets[std::get<0>(GetParam())]; }
  uint64_t seed() const { return std::get<1>(GetParam()); }

  model::TransformerSeq2Seq MakeModel() const {
    nn::TransformerConfig cfg = preset().make(kVocab);
    cfg.dropout = 0.0f;
    return model::TransformerSeq2Seq(cfg, kPad, kEos, seed());
  }
};

TEST_P(ServeParity, GenerateBatchMatchesSequential) {
  model::TransformerSeq2Seq m = MakeModel();
  const auto srcs = MixedSources(seed(), 9);  // not a multiple of the batch
  model::GenerationOptions options;
  options.max_len = 20;

  const auto batched = m.GenerateBatch(srcs, options);
  ASSERT_EQ(batched.size(), srcs.size());
  for (size_t i = 0; i < srcs.size(); ++i) {
    EXPECT_EQ(batched[i], m.Generate(srcs[i], options))
        << preset().name << " row " << i;
  }
}

TEST_P(ServeParity, GenerateBatchConstrainedMatchesSequential) {
  model::TransformerSeq2Seq m = MakeModel();
  const auto srcs = MixedSources(seed() + 1, 5);
  model::GenerationOptions options;
  options.max_len = 12;
  options.allowed = [](int token) { return token % 5 != 2; };

  const auto batched = m.GenerateBatch(srcs, options);
  for (size_t i = 0; i < srcs.size(); ++i) {
    EXPECT_EQ(batched[i], m.Generate(srcs[i], options))
        << preset().name << " row " << i;
  }
}

// Staggered arrivals: requests join a batch that is already mid-decode, so
// rows sit at different time steps inside one shared KV cache. Every
// response must still match its sequential reference exactly.
TEST_P(ServeParity, SchedulerStaggeredArrivalsMatchSequential) {
  model::TransformerSeq2Seq m = MakeModel();
  const int kRequests = 10;
  const auto srcs = MixedSources(seed() + 2, kRequests);
  model::GenerationOptions options;
  options.max_len = 24;

  serve::SchedulerOptions sched_options;
  sched_options.max_batch = 4;
  sched_options.queue_capacity = 64;
  serve::BatchScheduler scheduler(&m, sched_options);
  scheduler.Start();

  std::mutex mu;
  std::condition_variable cv;
  int outstanding = kRequests;
  std::vector<serve::Response> responses(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    serve::Request req;
    req.tokens = srcs[static_cast<size_t>(i)];
    req.options = options;
    ASSERT_TRUE(scheduler
                    .Submit(std::move(req),
                            [&, i](serve::Response r) {
                              std::lock_guard<std::mutex> lock(mu);
                              responses[static_cast<size_t>(i)] = std::move(r);
                              --outstanding;
                              cv.notify_one();
                            })
                    .ok());
    // Spread arrivals across decode steps so later requests join a live
    // batch rather than all being admitted at one boundary.
    std::this_thread::sleep_for(std::chrono::microseconds(300 * (i % 3)));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  scheduler.Shutdown(/*drain=*/true);

  for (int i = 0; i < kRequests; ++i) {
    const serve::Response& r = responses[static_cast<size_t>(i)];
    EXPECT_EQ(r.status, serve::ResponseStatus::kOk) << "request " << i;
    EXPECT_EQ(r.tokens, m.Generate(srcs[static_cast<size_t>(i)], options))
        << preset().name << " request " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ServeParity,
    ::testing::Combine(::testing::Range(0, 2),
                       ::testing::Values<uint64_t>(11, 1234)),
    [](const ::testing::TestParamInfo<ServeParity::ParamType>& info) {
      return std::string(kPresets[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

model::TransformerSeq2Seq MakeSmallModel(uint64_t seed = 11) {
  nn::TransformerConfig cfg = nn::TransformerConfig::T5Small(kVocab);
  cfg.dropout = 0.0f;
  return model::TransformerSeq2Seq(cfg, kPad, kEos, seed);
}

// Queue at capacity rejects instead of growing: submissions beyond
// queue_capacity before the scheduler starts must complete inline with
// kRejected and carry the configured retry-after hint.
TEST(BatchScheduler, BackpressureRejectsWithRetryAfter) {
  model::TransformerSeq2Seq m = MakeSmallModel();
  serve::SchedulerOptions options;
  options.max_batch = 2;
  options.queue_capacity = 2;
  options.retry_after_ms = 77;
  serve::BatchScheduler scheduler(&m, options);
  // Not started: nothing drains the queue, so capacity is deterministic.

  Rng rng(5);
  model::GenerationOptions gen;
  gen.max_len = 8;

  std::mutex mu;
  std::vector<serve::Response> accepted_responses;
  int rejected = 0;
  int retry_after = 0;
  for (int i = 0; i < 4; ++i) {
    serve::Request req;
    req.tokens = RandomSrc(&rng, 5);
    req.options = gen;
    const Status status = scheduler.Submit(
        std::move(req), [&](serve::Response r) {
          std::lock_guard<std::mutex> lock(mu);
          if (r.status == serve::ResponseStatus::kRejected) {
            ++rejected;
            retry_after = r.retry_after_ms;
          } else {
            accepted_responses.push_back(std::move(r));
          }
        });
    if (i < 2) {
      EXPECT_TRUE(status.ok()) << "submission " << i;
    } else {
      EXPECT_FALSE(status.ok()) << "submission " << i;
    }
  }
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(retry_after, 77);

  // The accepted requests drain once the loop starts.
  scheduler.Start();
  scheduler.Shutdown(/*drain=*/true);
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(accepted_responses.size(), 2u);
  for (const serve::Response& r : accepted_responses) {
    EXPECT_EQ(r.status, serve::ResponseStatus::kOk);
  }
}

// Token ids outside [0, vocab) would reach the embedding's VIST5_CHECK and
// abort the process, a source past kMaxRequestSrcTokens would make the
// encoder allocate [heads, n, n] scores (6.4 GB at 20,000 tokens), and a
// sampled request (temperature > 0) without an rng has nothing to draw
// from, so Submit answers each with a per-request error and the scheduler
// goes on serving valid requests.
TEST(BatchScheduler, OutOfVocabularyTokensFailOnlyThatRequest) {
  model::TransformerSeq2Seq m = MakeSmallModel();
  const int vocab = m.transformer().config().vocab_size;
  serve::BatchScheduler scheduler(&m, serve::SchedulerOptions{});
  scheduler.Start();
  const std::string oov = "outside the vocabulary";
  const std::string too_long =
      "the limit is " + std::to_string(serve::kMaxRequestSrcTokens);
  for (const auto& [tokens, temperature, error] :
       std::vector<std::tuple<std::vector<int>, float, std::string>>{
           {{99999999}, 0.0f, oov},
           {{-1}, 0.0f, oov},
           {{4, vocab, 5}, 0.0f, oov},
           {std::vector<int>(20000, 4), 0.0f, too_long},
           {{4, 5}, 0.8f, "options.rng"}}) {
    serve::Request req;
    req.tokens = tokens;
    req.options.temperature = temperature;
    const serve::Response r = scheduler.SubmitAndWait(std::move(req));
    EXPECT_EQ(r.status, serve::ResponseStatus::kError);
    EXPECT_NE(r.error.find(error), std::string::npos) << r.error;
  }
  serve::Request ok;
  ok.tokens = {4, vocab - 1, 5};
  ok.options.max_len = 4;
  EXPECT_EQ(scheduler.SubmitAndWait(std::move(ok)).status,
            serve::ResponseStatus::kOk);
  scheduler.Shutdown(/*drain=*/true);
}

// A request whose deadline expires mid-decode completes with
// kDeadlineExpired and returns the tokens decoded so far — a prefix of the
// sequence an unbounded request would produce.
TEST(BatchScheduler, DeadlineExpiryReturnsPrefix) {
  model::TransformerSeq2Seq m = MakeSmallModel();
  model::GenerationOptions gen;
  gen.max_len = 512;
  // Forbid EOS so the decode cannot finish early; only the deadline (or
  // the generous max_len) can end it.
  gen.allowed = [](int token) { return token != kEos; };

  model::TransformerSeq2Seq draft = MakeSmallModel(23);
  serve::SchedulerOptions options;
  options.max_batch = 2;
  options.draft_model = &draft;
  serve::BatchScheduler scheduler(&m, options);
  scheduler.Start();

  serve::Request req;
  Rng rng(9);
  const std::vector<int> src = RandomSrc(&rng, 6);
  req.tokens = src;
  req.options = gen;
  req.options.deadline_ms = 1;
  const serve::Response r = scheduler.SubmitAndWait(std::move(req));
  // A beam request cut by its deadline answers "deadline" too, with the
  // best hypothesis so far.
  serve::Request beam;
  beam.tokens = src;
  beam.options = gen;
  beam.options.beam_size = 3;
  beam.options.deadline_ms = 1;
  const serve::Response beam_r = scheduler.SubmitAndWait(std::move(beam));
  // So does a speculative request, with the tokens committed so far.
  serve::Request spec;
  spec.tokens = src;
  spec.options = gen;
  spec.options.draft_k = 3;
  spec.options.deadline_ms = 1;
  const serve::Response spec_r = scheduler.SubmitAndWait(std::move(spec));
  scheduler.Shutdown(/*drain=*/true);

  model::GenerationOptions unbounded = gen;
  const std::vector<int> full = m.Generate(src, unbounded);
  for (const serve::Response* cut : {&r, &spec_r}) {
    ASSERT_EQ(cut->status, serve::ResponseStatus::kDeadlineExpired);
    EXPECT_LT(cut->tokens.size(), 512u);
    ASSERT_LE(cut->tokens.size(), full.size());
    for (size_t i = 0; i < cut->tokens.size(); ++i) {
      EXPECT_EQ(cut->tokens[i], full[i]) << "prefix position " << i;
    }
  }
  EXPECT_EQ(beam_r.status, serve::ResponseStatus::kDeadlineExpired);
  EXPECT_LT(beam_r.tokens.size(), 512u);
}

// Shutdown(drain=true) completes every queued and in-flight request before
// the loop exits; nothing is dropped or aborted.
TEST(BatchScheduler, GracefulDrainCompletesAllRequests) {
  model::TransformerSeq2Seq m = MakeSmallModel();
  serve::SchedulerOptions options;
  options.max_batch = 3;
  serve::BatchScheduler scheduler(&m, options);
  scheduler.Start();

  Rng rng(21);
  model::GenerationOptions gen;
  gen.max_len = 16;
  const int kRequests = 7;
  std::vector<std::vector<int>> srcs;
  std::mutex mu;
  std::vector<serve::Response> responses;
  for (int i = 0; i < kRequests; ++i) {
    srcs.push_back(RandomSrc(&rng, 4 + i % 4));
    serve::Request req;
    req.tokens = srcs.back();
    req.options = gen;
    ASSERT_TRUE(scheduler
                    .Submit(std::move(req),
                            [&](serve::Response r) {
                              std::lock_guard<std::mutex> lock(mu);
                              responses.push_back(std::move(r));
                            })
                    .ok());
  }
  scheduler.Shutdown(/*drain=*/true);

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (const serve::Response& r : responses) {
    EXPECT_EQ(r.status, serve::ResponseStatus::kOk);
    EXPECT_FALSE(r.tokens.empty());
  }
}

// Shutdown without drain still fires every completion exactly once (as
// kShutdown for requests that never ran).
TEST(BatchScheduler, AbortShutdownCompletesEverything) {
  model::TransformerSeq2Seq m = MakeSmallModel();
  serve::SchedulerOptions options;
  options.max_batch = 1;
  serve::BatchScheduler scheduler(&m, options);
  // Never started: all queued requests must resolve as kShutdown.
  Rng rng(33);
  model::GenerationOptions gen;
  gen.max_len = 8;
  std::atomic<int> fired{0};
  std::atomic<int> shut_down{0};
  for (int i = 0; i < 3; ++i) {
    serve::Request req;
    req.tokens = RandomSrc(&rng, 5);
    req.options = gen;
    scheduler.Submit(std::move(req), [&](serve::Response r) {
      fired.fetch_add(1);
      if (r.status == serve::ResponseStatus::kShutdown) shut_down.fetch_add(1);
    });
  }
  scheduler.Shutdown(/*drain=*/false);
  EXPECT_EQ(fired.load(), 3);
  EXPECT_EQ(shut_down.load(), 3);
}

// Beam requests decode alone in the scheduler's decoder but still return
// the full-prefix oracle's beam result while greedy traffic batches around
// them.
TEST(BatchScheduler, BeamRequestsMatchSequentialBeam) {
  model::TransformerSeq2Seq m = MakeSmallModel();
  serve::SchedulerOptions options;
  options.max_batch = 4;
  serve::BatchScheduler scheduler(&m, options);
  scheduler.Start();

  Rng rng(17);
  const std::vector<int> greedy_src = RandomSrc(&rng, 6);
  const std::vector<int> beam_src = RandomSrc(&rng, 7);
  model::GenerationOptions greedy;
  greedy.max_len = 16;
  model::GenerationOptions beam = greedy;
  beam.beam_size = 3;

  serve::Request g;
  g.tokens = greedy_src;
  g.options = greedy;
  serve::Request b;
  b.tokens = beam_src;
  b.options = beam;
  std::mutex mu;
  std::vector<serve::Response> out(2);
  std::condition_variable cv;
  int outstanding = 2;
  auto submit = [&](serve::Request req, int slot) {
    ASSERT_TRUE(scheduler
                    .Submit(std::move(req),
                            [&, slot](serve::Response r) {
                              std::lock_guard<std::mutex> lock(mu);
                              out[static_cast<size_t>(slot)] = std::move(r);
                              --outstanding;
                              cv.notify_one();
                            })
                    .ok());
  };
  submit(std::move(g), 0);
  submit(std::move(b), 1);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  scheduler.Shutdown(/*drain=*/true);

  EXPECT_EQ(out[0].tokens, oracle::GreedyDecodeFull(m, greedy_src, greedy));
  EXPECT_EQ(out[1].tokens, oracle::BeamDecodeFull(m, beam_src, beam));
  EXPECT_GT(out[1].ttft_ms, 0.0);
}

// Sampled requests join the batch: each draws from its own Rng, so a
// sampled row beside greedy ones reproduces a solo Generate with the same
// seed, and serve/exclusive counts none of them.
TEST(BatchScheduler, SampledRequestJoinsBatchAndMatchesSoloGenerate) {
  model::TransformerSeq2Seq m = MakeSmallModel();
  Rng rng(23);
  std::vector<std::vector<int>> srcs;
  for (int i = 0; i < 4; ++i) srcs.push_back(RandomSrc(&rng, 4 + i));
  model::GenerationOptions greedy;
  greedy.max_len = 12;
  model::GenerationOptions sampled = greedy;
  sampled.temperature = 0.8f;
  sampled.top_k = 8;
  sampled.allowed = [](int token) { return token != kEos; };
  Rng solo_rng(77);
  sampled.rng = &solo_rng;
  const std::vector<int> sampled_want = m.Generate(srcs[2], sampled);
  Rng served_rng(77);
  sampled.rng = &served_rng;

  obs::Counter* exclusive = obs::GetCounter("serve/exclusive");
  obs::Counter* joined = obs::GetCounter("serve/joined");
  const int64_t exclusive_before = exclusive->value();
  const int64_t joined_before = joined->value();
  serve::SchedulerOptions options;
  options.max_batch = 4;
  serve::BatchScheduler scheduler(&m, options);
  // Queue everything before the loop starts, so all four are admitted at
  // the first step boundary and decode in one batch.
  std::mutex mu;
  std::vector<serve::Response> out(srcs.size());
  for (size_t i = 0; i < srcs.size(); ++i) {
    serve::Request req;
    req.tokens = srcs[i];
    req.options = i == 2 ? sampled : greedy;
    ASSERT_TRUE(scheduler
                    .Submit(std::move(req),
                            [&, i](serve::Response r) {
                              std::lock_guard<std::mutex> lock(mu);
                              out[i] = std::move(r);
                            })
                    .ok());
  }
  scheduler.Start();
  scheduler.Shutdown(/*drain=*/true);

  std::lock_guard<std::mutex> lock(mu);
  for (size_t i = 0; i < srcs.size(); ++i) {
    ASSERT_EQ(out[i].status, serve::ResponseStatus::kOk) << "request " << i;
    if (i != 2) {
      EXPECT_EQ(out[i].tokens, oracle::GreedyDecodeFull(m, srcs[i], greedy))
          << "request " << i;
    }
  }
  EXPECT_EQ(out[2].tokens, sampled_want);
  // The oracle is greedy: a sample equal to it would mean nothing sampled.
  EXPECT_NE(sampled_want, oracle::GreedyDecodeFull(m, srcs[2], sampled));
  EXPECT_EQ(exclusive->value(), exclusive_before);
  EXPECT_EQ(joined->value() - joined_before, 3);
}

// Serving populates the serve/* metrics in the global obs registry — the
// snapshot surface operators scrape (VIST5_METRICS_OUT).
TEST(BatchScheduler, MetricsVisibleInObsSnapshot) {
  model::TransformerSeq2Seq m = MakeSmallModel();
  serve::SchedulerOptions options;
  options.max_batch = 2;
  serve::BatchScheduler scheduler(&m, options);
  scheduler.Start();
  Rng rng(3);
  model::GenerationOptions gen;
  gen.max_len = 8;
  serve::Request req;
  req.tokens = RandomSrc(&rng, 5);
  req.options = gen;
  const serve::Response r = scheduler.SubmitAndWait(std::move(req));
  scheduler.Shutdown(/*drain=*/true);
  ASSERT_EQ(r.status, serve::ResponseStatus::kOk);

  const JsonValue snapshot = obs::MetricsRegistry::Global().Snapshot();
  const JsonValue* counters = snapshot.Find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* name :
       {"serve/requests", "serve/completed", "serve/steps", "serve/tokens"}) {
    const JsonValue* counter = counters->Find(name);
    ASSERT_NE(counter, nullptr) << name;
    EXPECT_GE(counter->number_value(), 1.0) << name;
  }
  const JsonValue* histograms = snapshot.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  for (const char* name : {"serve/latency_ms", "serve/batch_size"}) {
    EXPECT_NE(histograms->Find(name), nullptr) << name;
  }
}

// In-process load generator round trip (the bench-serve engine).
TEST(LoadGen, ReportsCompletionsAndThroughput) {
  model::TransformerSeq2Seq m = MakeSmallModel();
  serve::SchedulerOptions options;
  options.max_batch = 4;
  serve::BatchScheduler scheduler(&m, options);
  scheduler.Start();

  const auto prompts = MixedSources(77, 4);
  serve::LoadGenOptions lg;
  lg.concurrency = 4;
  lg.total_requests = 12;
  lg.gen.max_len = 12;
  const serve::LoadGenReport report =
      serve::RunLoadGen(&scheduler, prompts, lg);
  scheduler.Shutdown(/*drain=*/true);

  EXPECT_EQ(report.completed, 12);
  EXPECT_EQ(report.expired, 0);
  EXPECT_GT(report.tokens, 0);
  EXPECT_GT(report.tok_per_sec, 0.0);
  EXPECT_GE(report.p99_ms, report.p50_ms);
}

// Speculative admission guard (docs/SPECULATIVE.md): a request that cannot
// run speculatively must come back kError with a message naming the
// conflict — never silently decoded plain, never crashed on a missing
// draft. Submit answers these inline, so SubmitAndWait stays cheap.
TEST(Speculative, AdmissionGuardRejectsIncompatibleModes) {
  model::TransformerSeq2Seq base = MakeSmallModel();
  model::TransformerSeq2Seq draft = MakeSmallModel(23);
  serve::SchedulerOptions options;
  options.max_batch = 2;
  options.draft_model = &draft;
  serve::BatchScheduler scheduler(&base, options);
  scheduler.Start();

  Rng rng(13);
  const std::vector<int> src = RandomSrc(&rng, 5);
  auto spec_request = [&](void (*tweak)(model::GenerationOptions*)) {
    serve::Request req;
    req.tokens = src;
    req.options.max_len = 8;
    req.options.draft_k = 3;
    tweak(&req.options);
    return scheduler.SubmitAndWait(std::move(req));
  };

  serve::Response r =
      spec_request([](model::GenerationOptions* g) { g->beam_size = 2; });
  EXPECT_EQ(r.status, serve::ResponseStatus::kError);
  EXPECT_NE(r.error.find("greedy-only: beam_size"), std::string::npos)
      << r.error;

  r = spec_request([](model::GenerationOptions* g) { g->temperature = 0.7f; });
  EXPECT_EQ(r.status, serve::ResponseStatus::kError);
  EXPECT_NE(r.error.find("greedy-only: temperature"), std::string::npos)
      << r.error;

  // A plain greedy request through the same scheduler still works.
  serve::Request plain;
  plain.tokens = src;
  plain.options.max_len = 8;
  r = scheduler.SubmitAndWait(std::move(plain));
  EXPECT_EQ(r.status, serve::ResponseStatus::kOk);
  scheduler.Shutdown(/*drain=*/true);

  // Without a draft model configured, any draft_k request is unavailable.
  serve::SchedulerOptions no_draft;
  no_draft.max_batch = 2;
  serve::BatchScheduler bare(&base, no_draft);
  bare.Start();
  serve::Request req;
  req.tokens = src;
  req.options.max_len = 8;
  req.options.draft_k = 2;
  r = bare.SubmitAndWait(std::move(req));
  EXPECT_EQ(r.status, serve::ResponseStatus::kError);
  EXPECT_NE(r.error.find("no draft model loaded"), std::string::npos)
      << r.error;
  bare.Shutdown(/*drain=*/true);
}

// End-to-end speculative parity through the scheduler: spec requests decode
// alone in the scheduler's decoder, interleaved here with plain batched
// requests, and every response must equal the sequential plain-greedy
// reference at its dtype — the draft (different weights, arbitrary
// proposals) must be unobservable in the tokens. The last request verifies
// and drafts at int8. Each speculative response carries a time to first
// token from the step loop.
TEST(Speculative, SchedulerSpecRequestsMatchPlainGreedy) {
  model::TransformerSeq2Seq base = MakeSmallModel();
  model::TransformerSeq2Seq draft = MakeSmallModel(23);
  serve::SchedulerOptions options;
  options.max_batch = 4;
  options.draft_model = &draft;
  serve::BatchScheduler scheduler(&base, options);
  scheduler.Start();

  const auto srcs = MixedSources(91, 7);
  for (size_t i = 0; i < srcs.size(); ++i) {
    model::GenerationOptions plain;
    plain.max_len = 16;
    if (i == 6) plain.weight_dtype = WeightDtype::kInt8;
    const bool speculative = i % 2 == 0;
    serve::Request req;
    req.tokens = srcs[i];
    req.options = plain;
    if (speculative) {
      req.options.draft_k = 3;
      req.options.draft_adaptive = (i % 4 == 0);
    }
    const serve::Response r = scheduler.SubmitAndWait(std::move(req));
    ASSERT_EQ(r.status, serve::ResponseStatus::kOk) << "request " << i;
    EXPECT_EQ(r.tokens, base.Generate(srcs[i], plain))
        << (speculative ? "spec" : "plain") << " request " << i;
    if (speculative) {
      EXPECT_GT(r.ttft_ms, 0.0) << "request " << i;
      EXPECT_LE(r.ttft_ms, r.total_ms) << "request " << i;
    }
  }
  scheduler.Shutdown(/*drain=*/true);
}

// Shutdown without drain cuts a speculative request at the next step
// boundary: mid-decode, it answers "shutdown" like any other request in the
// decoder, instead of first running its whole decode.
TEST(Speculative, AbortShutdownCutsStreamingDecode) {
  model::TransformerSeq2Seq base = MakeSmallModel();
  model::TransformerSeq2Seq draft = MakeSmallModel(23);
  serve::SchedulerOptions options;
  options.draft_model = &draft;
  serve::BatchScheduler scheduler(&base, options);
  scheduler.Start();

  Rng rng(29);
  serve::Request req;
  req.tokens = RandomSrc(&rng, 6);
  req.options.max_len = 1024;
  req.options.draft_k = 3;
  // Forbid EOS so only the generous max_len could end the decode.
  req.options.allowed = [](int token) { return token != kEos; };
  std::mutex mu;
  std::condition_variable cv;
  bool streaming = false;
  bool answered = false;
  serve::Response response;
  req.on_token = [&](int, size_t) {
    std::lock_guard<std::mutex> lock(mu);
    streaming = true;
    cv.notify_all();
  };
  ASSERT_TRUE(scheduler
                  .Submit(std::move(req),
                          [&](serve::Response r) {
                            std::lock_guard<std::mutex> lock(mu);
                            response = std::move(r);
                            answered = true;
                            cv.notify_all();
                          })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return streaming; });
  }
  scheduler.Shutdown(/*drain=*/false);
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_TRUE(answered);
  EXPECT_EQ(response.status, serve::ResponseStatus::kShutdown);
}

// Open-loop Poisson arrivals: every issued request completes and the
// latency quantiles are populated — offered load is not throttled by
// completions, so overload shows up as latency, not fewer requests.
TEST(LoadGen, OpenLoopPoissonCompletesAllRequests) {
  model::TransformerSeq2Seq m = MakeSmallModel();
  serve::SchedulerOptions options;
  options.max_batch = 4;
  options.queue_capacity = 64;
  serve::BatchScheduler scheduler(&m, options);
  scheduler.Start();

  const auto prompts = MixedSources(78, 4);
  serve::LoadGenOptions lg;
  lg.total_requests = 10;
  lg.arrival_rate = 200.0;  // fast arrivals so the test stays quick
  lg.arrival_seed = 5;
  lg.slo_ms = 10000.0;
  lg.gen.max_len = 10;
  const serve::LoadGenReport report =
      serve::RunLoadGen(&scheduler, prompts, lg);
  scheduler.Shutdown(/*drain=*/true);

  EXPECT_EQ(report.completed, 10);
  EXPECT_EQ(report.expired, 0);
  EXPECT_GT(report.tokens, 0);
  EXPECT_GE(report.p99_ms, report.p50_ms);
  EXPECT_EQ(report.slo_violation_frac, 0.0);
}

// Trace replay: entry timestamps drive the arrivals and per-entry draft
// overrides select the speculative path per request; the trace length (not
// total_requests) decides how many requests run.
TEST(LoadGen, TraceReplayHonorsTimestampsAndDraftOverrides) {
  model::TransformerSeq2Seq base = MakeSmallModel();
  model::TransformerSeq2Seq draft = MakeSmallModel(23);
  serve::SchedulerOptions options;
  options.max_batch = 4;
  options.draft_model = &draft;
  serve::BatchScheduler scheduler(&base, options);
  scheduler.Start();

  Rng rng(61);
  std::vector<serve::TraceEntry> trace;
  for (int i = 0; i < 6; ++i) {
    serve::TraceEntry entry;
    entry.at_ms = 5.0 * i;
    entry.tokens = RandomSrc(&rng, 4 + i % 3);
    if (i % 2 == 1) entry.draft_k = 2;  // odd entries decode speculatively
    trace.push_back(std::move(entry));
  }

  obs::Counter* spec_requests = obs::GetCounter("spec/requests");
  const int64_t spec_before = spec_requests->value();
  serve::LoadGenOptions lg;
  lg.total_requests = 999;  // must be ignored: the trace length wins
  lg.trace = trace;
  lg.gen.max_len = 10;
  const serve::LoadGenReport report =
      serve::RunLoadGen(&scheduler, /*prompts=*/{}, lg);
  scheduler.Shutdown(/*drain=*/true);

  EXPECT_EQ(report.completed, 6);
  EXPECT_EQ(spec_requests->value() - spec_before, 3)
      << "odd trace entries carry draft_k=2 and must run speculatively";
}

// LoadTraceJsonl: well-formed lines parse with defaults and overrides;
// a malformed line fails the whole load and names its line number.
TEST(LoadGen, LoadTraceJsonlParsesAndRejects) {
  const std::string path = ::testing::TempDir() + "vist5_trace_test.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"at_ms\": 0, \"tokens\": [2, 3, 4]}\n";
    out << "\n";  // blank lines are skipped
    out << "{\"at_ms\": 12.5, \"tokens\": [5, 6], \"max_len\": 7, "
           "\"draft\": 3}\n";
    out << "{\"tokens\": [8, 9]}\n";  // no at_ms: inherits the previous
  }
  auto loaded = serve::LoadTraceJsonl(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const std::vector<serve::TraceEntry>& trace = *loaded;
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].at_ms, 0.0);
  EXPECT_EQ(trace[0].tokens, (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(trace[0].max_len, -1);
  EXPECT_EQ(trace[0].draft_k, -1);
  EXPECT_EQ(trace[1].at_ms, 12.5);
  EXPECT_EQ(trace[1].max_len, 7);
  EXPECT_EQ(trace[1].draft_k, 3);
  EXPECT_EQ(trace[2].at_ms, 12.5) << "missing at_ms inherits the previous";

  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"at_ms\": 0, \"tokens\": [2, 3]}\n";
    out << "{\"at_ms\": 1}\n";  // missing tokens
  }
  auto bad = serve::LoadTraceJsonl(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(std::string(bad.status().message()).find(":2:"),
            std::string::npos)
      << bad.status().message();

  // Fields the request wire rejects must fail the load too, not be ignored,
  // truncated, or cast out of range (the wire's ranges: max_len in
  // [1, 4096], draft in [0, 1024], tokens non-negative integers).
  for (const char* line : {
           R"({"tokens": [2], "max_len": "abc"})",
           R"({"tokens": [2], "max_len": 0})",
           R"({"tokens": [2.5]})",
           R"({"tokens": [-4]})",
           R"({"tokens": [2], "draft": -7})",
           R"({"tokens": [2], "draft": 1e30})",
       }) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << "{\"tokens\": [2, 3]}\n" << line << "\n";
    }
    auto rejected = serve::LoadTraceJsonl(path);
    ASSERT_FALSE(rejected.ok()) << line;
    EXPECT_NE(std::string(rejected.status().message()).find(":2:"),
              std::string::npos)
        << line << ": " << rejected.status().message();
  }
  std::remove(path.c_str());
}

// TCP front end: line-delimited JSON in, one response line per request,
// token parity with a direct Generate call.
TEST(Server, TcpEndToEndMatchesDirectGenerate) {
  // Tokenizer built from a toy corpus so "text" requests round-trip.
  const std::vector<std::string> corpus = {
      "show the total sales by region", "bar chart of count per year",
      "average price over time"};
  const text::Tokenizer tokenizer = text::Tokenizer::Build(corpus);
  nn::TransformerConfig cfg =
      nn::TransformerConfig::T5Small(tokenizer.vocab_size());
  cfg.dropout = 0.0f;
  model::TransformerSeq2Seq m(cfg, tokenizer.pad_id(), tokenizer.eos_id(), 7);

  serve::SchedulerOptions sched_options;
  sched_options.max_batch = 4;
  serve::BatchScheduler scheduler(&m, sched_options);
  scheduler.Start();
  serve::ServerOptions server_options;
  server_options.port = 0;  // ephemeral
  serve::Server server(&scheduler, &tokenizer, server_options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  serve::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Text request.
  JsonValue req = JsonValue::Object();
  req.Set("id", JsonValue::String("r1"));
  req.Set("text", JsonValue::String("show the total sales by region"));
  req.Set("max_len", JsonValue::Number(12));
  StatusOr<JsonValue> reply = client.Call(req);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const JsonValue* status = reply.value().Find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->string_value(), "ok");
  const JsonValue* id = reply.value().Find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->string_value(), "r1");

  model::GenerationOptions gen;
  gen.max_len = 12;
  // The server tokenizes "text" requests with plain Encode (no EOS).
  const std::vector<int> expected =
      m.Generate(tokenizer.Encode("show the total sales by region"), gen);
  const JsonValue* tokens = reply.value().Find("tokens");
  ASSERT_NE(tokens, nullptr);
  ASSERT_EQ(tokens->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(static_cast<int>(tokens->at(i).number_value()), expected[i]);
  }

  // Pre-tokenized request.
  JsonValue req2 = JsonValue::Object();
  req2.Set("id", JsonValue::String("r2"));
  JsonValue toks = JsonValue::Array();
  for (int t : tokenizer.EncodeWithEos("average price over time")) {
    toks.Append(JsonValue::Number(t));
  }
  req2.Set("tokens", std::move(toks));
  req2.Set("max_len", JsonValue::Number(10));
  StatusOr<JsonValue> reply2 = client.Call(req2);
  ASSERT_TRUE(reply2.ok());
  EXPECT_EQ(reply2.value().Find("status")->string_value(), "ok");

  // Malformed line maps to a protocol error, not a dropped connection.
  JsonValue bad = JsonValue::Object();
  bad.Set("id", JsonValue::String("r3"));
  StatusOr<JsonValue> reply3 = client.Call(bad);  // neither text nor tokens
  ASSERT_TRUE(reply3.ok());
  EXPECT_EQ(reply3.value().Find("status")->string_value(), "error");

  client.Close();
  server.Stop(/*drain=*/true);
  scheduler.Shutdown(/*drain=*/true);
}

// Shared fixture for the HTTP-side tests: model + scheduler + server over
// an ephemeral port, with pre-tokenized prompts to drive traffic.
struct HttpFixture {
  model::TransformerSeq2Seq model = MakeSmallModel();
  std::unique_ptr<serve::BatchScheduler> scheduler;
  std::unique_ptr<serve::Server> server;

  explicit HttpFixture(serve::ServerOptions server_options = {}) {
    serve::SchedulerOptions sched_options;
    sched_options.max_batch = 4;
    scheduler = std::make_unique<serve::BatchScheduler>(&model, sched_options);
    scheduler->Start();
    server_options.port = 0;
    server = std::make_unique<serve::Server>(scheduler.get(), nullptr,
                                             server_options);
    VIST5_CHECK(server->Start().ok());
  }
  ~HttpFixture() {
    server->Stop(/*drain=*/true);
    scheduler->Shutdown(/*drain=*/true);
  }

  int port() const { return server->port(); }

  /// One generation request over the line protocol; returns its status.
  std::string CallLine(const std::vector<int>& tokens, int max_len = 8) {
    serve::Client client;
    VIST5_CHECK(client.Connect("127.0.0.1", port()).ok());
    JsonValue req = JsonValue::Object();
    JsonValue toks = JsonValue::Array();
    for (int t : tokens) toks.Append(JsonValue::Number(t));
    req.Set("tokens", std::move(toks));
    req.Set("max_len", JsonValue::Number(max_len));
    StatusOr<JsonValue> reply = client.Call(req);
    VIST5_CHECK(reply.ok()) << reply.status().ToString();
    return reply.value().Find("status")->string_value();
  }
};

/// Cumulative counts of `<metric>_bucket{le="..."}` lines, in exposition
/// order, with the +Inf bucket last.
std::vector<double> BucketCounts(const std::string& text,
                                 const std::string& metric) {
  std::vector<double> counts;
  const std::string needle = metric + "_bucket{le=\"";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    const size_t sp = text.find(' ', pos);
    counts.push_back(std::atof(text.c_str() + sp + 1));
    pos = sp;
  }
  return counts;
}

double ScalarValue(const std::string& text, const std::string& line_prefix) {
  const size_t pos = text.find("\n" + line_prefix + " ");
  if (pos == std::string::npos) return -1;
  return std::atof(text.c_str() + pos + 1 + line_prefix.size() + 1);
}

// GET /metrics after traffic: well-formed exposition with the serve
// histograms populated, cumulative buckets monotone, +Inf == _count.
TEST(ServerHttp, MetricsScrapeAfterTraffic) {
  HttpFixture f;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(f.CallLine({4, 5, 6 + i}), "ok");
  }
  StatusOr<serve::HttpResponse> got =
      serve::HttpCall("127.0.0.1", f.port(), "GET", "/metrics");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().code, 200);
  const std::string& body = got.value().body;

  EXPECT_NE(body.find("# TYPE vist5_serve_requests_total counter"),
            std::string::npos);
  EXPECT_GE(ScalarValue(body, "vist5_serve_requests_total"), 3.0);
  EXPECT_NE(body.find("# TYPE vist5_serve_queue_depth gauge"),
            std::string::npos);

  for (const char* hist : {"vist5_serve_ttft_ms", "vist5_serve_queue_wait_ms",
                           "vist5_serve_latency_ms"}) {
    SCOPED_TRACE(hist);
    const std::vector<double> buckets = BucketCounts(body, hist);
    ASSERT_GT(buckets.size(), 2u);
    for (size_t i = 1; i < buckets.size(); ++i) {
      EXPECT_GE(buckets[i], buckets[i - 1]) << "bucket " << i;
    }
    // The registry is process-global, so at least this test's traffic
    // must be visible; other tests may have added more.
    EXPECT_GE(buckets.back(), 3.0);
    EXPECT_EQ(buckets.back(),
              ScalarValue(body, std::string(hist) + "_count"));
  }
}

TEST(ServerHttp, UnknownRouteIs404AndHealthzOk) {
  HttpFixture f;
  StatusOr<serve::HttpResponse> missing =
      serve::HttpCall("127.0.0.1", f.port(), "GET", "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().code, 404);

  StatusOr<serve::HttpResponse> health =
      serve::HttpCall("127.0.0.1", f.port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().code, 200);
  StatusOr<JsonValue> doc = JsonValue::Parse(health.value().body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().Find("status")->string_value(), "ok");
  ASSERT_NE(doc.value().Find("checks"), nullptr);
}

// A crit threshold below the already-observed p99 flips the instance to
// unhealthy (503). The latency histogram is process-global and cumulative,
// so one request guarantees p99 > 0.
TEST(ServerHttp, HealthzUnhealthyOnCritThreshold) {
  serve::ServerOptions options;
  options.health.p99_ms_crit = 1e-6;
  HttpFixture f(options);
  EXPECT_EQ(f.CallLine({7, 8, 9}), "ok");
  StatusOr<serve::HttpResponse> health =
      serve::HttpCall("127.0.0.1", f.port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().code, 503);
  StatusOr<JsonValue> doc = JsonValue::Parse(health.value().body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().Find("status")->string_value(), "unhealthy");
}

// POST /admin/drain: new generation requests bounce with "draining" while
// the ops plane stays reachable; /admin/resume restores service.
TEST(ServerHttp, DrainRejectsNewRequestsResumeRestores) {
  HttpFixture f;
  EXPECT_EQ(f.CallLine({4, 5, 6}), "ok");

  StatusOr<serve::HttpResponse> drain =
      serve::HttpCall("127.0.0.1", f.port(), "POST", "/admin/drain");
  ASSERT_TRUE(drain.ok());
  EXPECT_EQ(drain.value().code, 200);
  EXPECT_TRUE(f.server->draining());
  EXPECT_EQ(f.CallLine({4, 5, 6}), "rejected");

  // Metrics and health stay up while draining.
  StatusOr<serve::HttpResponse> metrics =
      serve::HttpCall("127.0.0.1", f.port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().code, 200);

  StatusOr<serve::HttpResponse> resume =
      serve::HttpCall("127.0.0.1", f.port(), "POST", "/admin/resume");
  ASSERT_TRUE(resume.ok());
  EXPECT_EQ(resume.value().code, 200);
  EXPECT_FALSE(f.server->draining());
  EXPECT_EQ(f.CallLine({4, 5, 6}), "ok");
}

// GET on a POST-only admin route is refused.
TEST(ServerHttp, AdminDrainRequiresPost) {
  HttpFixture f;
  StatusOr<serve::HttpResponse> got =
      serve::HttpCall("127.0.0.1", f.port(), "GET", "/admin/drain");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().code, 405);
  EXPECT_FALSE(f.server->draining());
}

TEST(ServerHttp, AdminStatsSnapshot) {
  HttpFixture f;
  EXPECT_EQ(f.CallLine({4, 5, 6}), "ok");
  StatusOr<serve::HttpResponse> got =
      serve::HttpCall("127.0.0.1", f.port(), "GET", "/admin/stats");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().code, 200);
  StatusOr<JsonValue> doc = JsonValue::Parse(got.value().body);
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc.value().Find("metrics"), nullptr);
  EXPECT_NE(doc.value().Find("queue_depth"), nullptr);
  EXPECT_EQ(doc.value().Find("draining")->bool_value(true), false);
}

// POST /admin/reload swaps a different checkpoint into the live model:
// afterwards the served tokens match the *other* model bit-exactly.
TEST(ServerHttp, AdminReloadSwapsWeights) {
  const std::string path =
      ::testing::TempDir() + "/vist5_reload_test.vt5c";
  model::TransformerSeq2Seq other = MakeSmallModel(/*seed=*/99);
  ASSERT_TRUE(
      model::SaveCheckpoint(*other.CheckpointModule(), path).ok());

  HttpFixture f;
  const std::vector<int> src = {5, 9, 13, 2};
  model::GenerationOptions gen;
  gen.max_len = 10;
  const std::vector<int> before = f.model.Generate(src, gen);
  const std::vector<int> expected = other.Generate(src, gen);

  JsonValue body = JsonValue::Object();
  body.Set("path", JsonValue::String(path));
  StatusOr<serve::HttpResponse> reload =
      serve::HttpCall("127.0.0.1", f.port(), "POST", "/admin/reload",
                      body.ToString(/*pretty=*/false));
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  EXPECT_EQ(reload.value().code, 200) << reload.value().body;

  serve::Request req;
  req.tokens = src;
  req.options = gen;
  const serve::Response r = f.scheduler->SubmitAndWait(std::move(req));
  EXPECT_EQ(r.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(r.tokens, expected);
  EXPECT_NE(r.tokens, before) << "reload did not change the weights";
}

TEST(ServerHttp, AdminReloadBadPathKeepsServing) {
  HttpFixture f;
  JsonValue body = JsonValue::Object();
  body.Set("path", JsonValue::String("/nonexistent/nowhere.vt5c"));
  StatusOr<serve::HttpResponse> reload =
      serve::HttpCall("127.0.0.1", f.port(), "POST", "/admin/reload",
                      body.ToString(/*pretty=*/false));
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload.value().code, 500);
  // The old weights are still in place and serving continues.
  EXPECT_EQ(f.CallLine({4, 5, 6}), "ok");
}

TEST(ServerHttp, AdminLoglevelSetsSeverity) {
  const LogSeverity saved = MinLogSeverity();
  HttpFixture f;
  JsonValue body = JsonValue::Object();
  body.Set("level", JsonValue::String("error"));
  StatusOr<serve::HttpResponse> got =
      serve::HttpCall("127.0.0.1", f.port(), "POST", "/admin/loglevel",
                      body.ToString(/*pretty=*/false));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().code, 200);
  EXPECT_EQ(MinLogSeverity(), LogSeverity::kError);

  StatusOr<serve::HttpResponse> bad =
      serve::HttpCall("127.0.0.1", f.port(), "POST", "/admin/loglevel",
                      "{\"level\":\"shout\"}");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().code, 400);
  EXPECT_EQ(MinLogSeverity(), LogSeverity::kError);  // unchanged
  SetMinLogSeverity(saved);
}

// Connections beyond max_connections get a one-line JSON rejection and a
// close instead of a handler thread.
TEST(ServerHttp, ConnectionLimitRejectsOverflow) {
  serve::ServerOptions options;
  options.max_connections = 1;
  HttpFixture f(options);

  serve::Client first;
  ASSERT_TRUE(first.Connect("127.0.0.1", f.port()).ok());
  // Round-trip one request so the first connection is registered as
  // active before the second one arrives.
  JsonValue req = JsonValue::Object();
  JsonValue toks = JsonValue::Array();
  for (int t : {4, 5, 6}) toks.Append(JsonValue::Number(t));
  req.Set("tokens", std::move(toks));
  req.Set("max_len", JsonValue::Number(6));
  ASSERT_TRUE(first.Call(req).ok());

  serve::Client second;
  ASSERT_TRUE(second.Connect("127.0.0.1", f.port()).ok());
  std::string raw;
  ASSERT_TRUE(second.RecvToEof(&raw).ok());
  StatusOr<JsonValue> doc = JsonValue::Parse(raw);
  ASSERT_TRUE(doc.ok()) << raw;
  EXPECT_EQ(doc.value().Find("status")->string_value(), "rejected");
  EXPECT_EQ(doc.value().Find("error")->string_value(),
            "too many connections");

  // Releasing the first connection frees the slot (after the server
  // reaps it on the next accept).
  first.Close();
  for (int attempt = 0;; ++attempt) {
    serve::Client retry;
    ASSERT_TRUE(retry.Connect("127.0.0.1", f.port()).ok());
    StatusOr<JsonValue> reply = retry.Call(req);
    ASSERT_TRUE(reply.ok());
    if (reply.value().Find("status")->string_value() == "ok") break;
    ASSERT_LT(attempt, 50) << "slot never freed";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// Regression (server.cc): ParseContentLength accumulated digits into a
// size_t with no overflow check, so "Content-Length: 18446744073709551616"
// wrapped to a small number, and an honest huge declared length made the
// body-read loop buffer without bound. Both shapes must now answer 413
// without reading a body; an in-range request on the same rules still
// works.
TEST(ServerHttp, OversizedContentLengthAnswers413) {
  serve::ServerOptions options;
  options.max_http_body_bytes = 1024;
  HttpFixture f(options);
  const char* lengths[] = {
      "18446744073709551615",  // SIZE_MAX: spins forever unchecked
      "18446744073709551616",  // SIZE_MAX + 1: wraps to 0 unchecked
      "1048576",               // honest but over the 1 KiB cap
  };
  for (const char* length : lengths) {
    SCOPED_TRACE(length);
    serve::Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", f.port()).ok());
    ASSERT_TRUE(client
                    .SendRaw("POST /admin/loglevel HTTP/1.1\r\nHost: "
                             "x\r\nContent-Length: " +
                             std::string(length) + "\r\n\r\n")
                    .ok());
    std::string raw;
    ASSERT_TRUE(client.RecvToEof(&raw).ok());
    EXPECT_EQ(raw.compare(0, 12, "HTTP/1.1 413"), 0) << raw;
  }
  // Within the cap the same route still round-trips.
  StatusOr<serve::HttpResponse> ok = serve::HttpCall(
      "127.0.0.1", f.port(), "GET", "/healthz");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().code, 200);
}

// Regression (server.cc): HandleLine coerced malformed numerics through
// number_value(fallback) — {"max_len": "abc"} silently decoded with the
// default 48, and out-of-range values (-5, beam 0, negative deadlines)
// passed straight into GenerationOptions. Every shape must now answer the
// one-line error form, and the connection must stay usable.
TEST(ServerHttp, MalformedNumericFieldsAnswerErrors) {
  HttpFixture f;
  const struct {
    const char* request;
    const char* error_substr;
  } cases[] = {
      {R"({"tokens":[4,5,6],"max_len":"abc"})", "\"max_len\" must be"},
      {R"({"tokens":[4,5,6],"max_len":-5})", "\"max_len\" must be"},
      {R"({"tokens":[4,5,6],"max_len":2.5})", "\"max_len\" must be"},
      {R"({"tokens":[4,5,6],"beam":0})", "\"beam\" must be"},
      {R"({"tokens":[4,5,6],"deadline_ms":-1})", "\"deadline_ms\" must be"},
      {R"({"tokens":[4,5,6],"priority":"high"})", "\"priority\" must be"},
      {R"({"tokens":[4,5,6],"draft":-1})", "\"draft\" must be"},
      {R"({"tokens":[4,5,6],"stream":"yes"})", "\"stream\" must be"},
      // Token ids: one outside the vocabulary would abort the process in
      // the embedding lookup, and casting 1e30 to int is undefined.
      {R"({"tokens":[99999999]})", "outside the vocabulary"},
      {R"({"tokens":[-1]})", "\"tokens\" must hold non-negative integers"},
      {R"({"tokens":[1e30]})", "\"tokens\" must hold non-negative integers"},
      {R"({"tokens":[2.5]})", "\"tokens\" must hold non-negative integers"},
  };
  serve::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", f.port()).ok());
  for (const auto& c : cases) {
    SCOPED_TRACE(c.request);
    StatusOr<JsonValue> reply =
        client.Call(JsonValue::Parse(c.request).value());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value().Find("status")->string_value(), "error");
    EXPECT_NE(reply.value().Find("error")->string_value().find(
                  c.error_substr),
              std::string::npos)
        << reply.value().ToString(false);
  }
  // The same connection still serves a valid request afterwards.
  JsonValue req = JsonValue::Object();
  JsonValue toks = JsonValue::Array();
  for (int t : {4, 5, 6}) toks.Append(JsonValue::Number(t));
  req.Set("tokens", std::move(toks));
  req.Set("max_len", JsonValue::Number(6));
  StatusOr<JsonValue> reply = client.Call(req);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().Find("status")->string_value(), "ok");
}

// An idle connection is closed once idle_timeout_ms passes with no bytes.
TEST(ServerHttp, IdleTimeoutClosesConnection) {
  serve::ServerOptions options;
  options.idle_timeout_ms = 50;
  HttpFixture f(options);
  serve::Client idle;
  ASSERT_TRUE(idle.Connect("127.0.0.1", f.port()).ok());
  std::string raw;
  const auto t0 = std::chrono::steady_clock::now();
  // The server closes its end, so the read drains to EOF with no data.
  ASSERT_TRUE(idle.RecvToEof(&raw).ok());
  EXPECT_TRUE(raw.empty());
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  EXPECT_LT(waited_ms, 5000.0);
}

// With tracing on, a completed request leaves the serve/req<id>/* span
// family in the trace buffer.
TEST(ServerHttp, RequestTimelineSpansEmitted) {
  HttpFixture f;
  obs::SetTraceEnabled(true);
  obs::ClearTrace();
  EXPECT_EQ(f.CallLine({4, 5, 6}), "ok");
  obs::SetTraceEnabled(false);
  const std::string json = obs::TraceJson();
  EXPECT_NE(json.find("/queue_wait"), std::string::npos) << json;
  EXPECT_NE(json.find("/decode"), std::string::npos);
  obs::ClearTrace();
}

// The per-request breakdown on the wire: durations are internally
// consistent (ttft >= queue wait, total >= decode, positive token rate).
TEST(ServerHttp, ResponseCarriesLatencyBreakdown) {
  HttpFixture f;
  serve::Request req;
  req.tokens = {4, 5, 6, 7};
  req.options.max_len = 8;
  const serve::Response r = f.scheduler->SubmitAndWait(std::move(req));
  ASSERT_EQ(r.status, serve::ResponseStatus::kOk);
  EXPECT_GT(r.total_ms, 0.0);
  EXPECT_GE(r.ttft_ms, r.queue_ms);
  EXPECT_GE(r.total_ms, r.decode_ms);
  EXPECT_GT(r.tokens_per_sec, 0.0);
  EXPECT_TRUE(r.timeline.admitted);
  EXPECT_TRUE(r.timeline.has_first_token);
  EXPECT_GT(r.timeline.decode_steps, 0);
}

// LoadGen surfaces the new TTFT quantiles and SLO accounting.
TEST(LoadGen, ReportsTtftAndSloViolations) {
  model::TransformerSeq2Seq m = MakeSmallModel();
  serve::SchedulerOptions options;
  options.max_batch = 4;
  serve::BatchScheduler scheduler(&m, options);
  scheduler.Start();

  serve::LoadGenOptions load;
  load.concurrency = 4;
  load.total_requests = 12;
  load.slo_ms = 1e-3;  // impossibly tight: every request violates it
  load.gen.max_len = 8;
  const serve::LoadGenReport report =
      serve::RunLoadGen(&scheduler, MixedSources(3, 4), load);
  scheduler.Shutdown(/*drain=*/true);

  EXPECT_EQ(report.completed, 12);
  EXPECT_GT(report.ttft_p50_ms, 0.0);
  EXPECT_GE(report.ttft_p99_ms, report.ttft_p50_ms);
  EXPECT_DOUBLE_EQ(report.slo_violation_frac, 1.0);
}

// ------------------------------------------------------- int8 weight dtype

// Int8 end-to-end through the scheduler: a weight_dtype=int8 request with a
// grammar constraint must come back as a valid, ParseDvQuery-parseable DV
// query. The constraint is a step script (one legal token per decode step,
// then EOS) built from a real query, so the test pins the whole pipeline —
// admission, int8 prefill + ragged steps, constrained argmax, detokenize —
// rather than hoping an untrained model emits grammar by luck.
TEST(ServeInt8, ConstrainedDecodeYieldsParseableDvQuery) {
  const std::string query = "visualize bar select region , sum ( sales ) "
                            "from sales group by region";
  const text::Tokenizer tokenizer = text::Tokenizer::Build({query});
  nn::TransformerConfig cfg =
      nn::TransformerConfig::T5Small(tokenizer.vocab_size());
  cfg.dropout = 0.0f;
  model::TransformerSeq2Seq m(cfg, tokenizer.pad_id(), tokenizer.eos_id(), 5);
  serve::BatchScheduler scheduler(&m, {});
  scheduler.Start();

  const std::vector<int> script = tokenizer.Encode(query);
  ASSERT_FALSE(script.empty());
  serve::Request req;
  req.tokens = tokenizer.Encode("show total sales per region");
  req.options.max_len = static_cast<int>(script.size()) + 4;
  req.options.weight_dtype = WeightDtype::kInt8;
  // BestAllowedToken probes every vocab id exactly once per step, so a
  // call counter recovers the step index inside the stateless-looking
  // callback. Past the script, only EOS is legal.
  auto calls = std::make_shared<int64_t>(0);
  const int vocab = tokenizer.vocab_size();
  const int eos = tokenizer.eos_id();
  req.options.allowed = [script, calls, vocab, eos](int token) {
    const auto step = static_cast<size_t>((*calls)++ / vocab);
    return step < script.size() ? token == script[step] : token == eos;
  };

  const serve::Response r = scheduler.SubmitAndWait(std::move(req));
  scheduler.Shutdown(/*drain=*/true);
  ASSERT_EQ(r.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(r.tokens, script);
  const std::string text = tokenizer.Decode(r.tokens);
  const StatusOr<dv::DvQuery> parsed = dv::ParseDvQuery(text);
  ASSERT_TRUE(parsed.ok()) << "not grammar-parseable: \"" << text << "\": "
                           << parsed.status().ToString();
  EXPECT_EQ(parsed.value().from_table, "sales");
}

// Mixed float32/int8 traffic: requests at different weight dtypes never
// share a batch (the mismatched one parks until the batch drains), and
// every response still matches its own-dtype sequential reference.
TEST(ServeInt8, MixedDtypeRequestsMatchSequentialPerDtype) {
  model::TransformerSeq2Seq m = MakeSmallModel();
  serve::SchedulerOptions options;
  options.max_batch = 4;
  serve::BatchScheduler scheduler(&m, options);
  scheduler.Start();

  const auto srcs = MixedSources(17, 8);
  std::mutex mu;
  std::condition_variable cv;
  int outstanding = static_cast<int>(srcs.size());
  std::vector<serve::Response> responses(srcs.size());
  std::vector<model::GenerationOptions> gens(srcs.size());
  for (size_t i = 0; i < srcs.size(); ++i) {
    gens[i].max_len = 12;
    gens[i].weight_dtype =
        i % 2 == 0 ? WeightDtype::kFloat32 : WeightDtype::kInt8;
    serve::Request req;
    req.tokens = srcs[i];
    req.options = gens[i];
    ASSERT_TRUE(scheduler
                    .Submit(std::move(req),
                            [&, i](serve::Response r) {
                              std::lock_guard<std::mutex> lock(mu);
                              responses[i] = std::move(r);
                              --outstanding;
                              cv.notify_one();
                            })
                    .ok());
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  scheduler.Shutdown(/*drain=*/true);
  for (size_t i = 0; i < srcs.size(); ++i) {
    ASSERT_EQ(responses[i].status, serve::ResponseStatus::kOk)
        << "request " << i;
    EXPECT_EQ(responses[i].tokens, m.Generate(srcs[i], gens[i]))
        << "request " << i << " ("
        << WeightDtypeName(gens[i].weight_dtype) << ")";
  }
}

// ------------------------------------------------ prefix cache concurrency

// TSan-targeted (scripts/run_tsan.sh runs this suite explicitly):
// same-prefix clients race admissions, warm hits, and LRU evictions — the
// byte budget is deliberately about one encoded block, so every insert
// churns the radix tree — while scrape threads hammer /admin/stats and
// /metrics and direct stats()/MatchLen calls, and the run ends in a
// graceful drain. Token correctness is still asserted (a race that
// corrupts a spliced block would surface as drift even without TSan), but
// the primary payload is the lock discipline of PrefixCache under
// admit/evict/scrape contention.
TEST(PrefixCacheConcurrency, SamePrefixClientsRaceEvictionsAndStatsScrapes) {
  model::TransformerSeq2Seq m = MakeSmallModel();
  model::GenerationOptions gen;
  gen.max_len = 10;

  // Prompt pool: two shared schema prefixes with two questions each, plus
  // unique cold prompts — warm hits, partial matches, and misses all occur.
  Rng rng(23);
  std::vector<std::vector<int>> prompts;
  for (int schema = 0; schema < 2; ++schema) {
    const std::vector<int> head = RandomSrc(&rng, 6);
    for (int question = 0; question < 2; ++question) {
      std::vector<int> prompt = head;
      const std::vector<int> tail = RandomSrc(&rng, 3);
      prompt.insert(prompt.end(), tail.begin(), tail.end());
      prompts.push_back(std::move(prompt));
    }
  }
  for (int i = 0; i < 2; ++i) prompts.push_back(RandomSrc(&rng, 5 + i));
  std::vector<std::vector<int>> reference;
  for (const auto& prompt : prompts) reference.push_back(m.Generate(prompt, gen));

  const auto probe = m.EncodePrefix(prompts[0], gen.weight_dtype);
  serve::SchedulerOptions sched_options;
  sched_options.max_batch = 4;
  sched_options.queue_capacity = 256;
  sched_options.prefix_cache_bytes = probe->ByteSize() * 3 / 2;
  serve::BatchScheduler scheduler(&m, sched_options);
  scheduler.Start();

  serve::ServerOptions server_options;
  server_options.port = 0;
  serve::Server server(&scheduler, nullptr, server_options);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  constexpr int kClients = 4;
  constexpr int kPerClient = 12;
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        // Skew toward the shared prompts so concurrent same-prefix
        // admissions are the common case, not a lucky interleaving.
        const size_t pick = static_cast<size_t>(
            (c + i) % 3 == 0 ? 4 + (c + i) % 2 : (c + i) % 4);
        serve::Request req;
        req.tokens = prompts[pick];
        req.options = gen;
        const serve::Response r = scheduler.SubmitAndWait(std::move(req));
        if (r.status != serve::ResponseStatus::kOk ||
            r.tokens != reference[pick]) {
          ++mismatches;
        }
      }
    });
  }
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s) {
    scrapers.emplace_back([&, s] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto reply = serve::HttpCall(
            "127.0.0.1", port, "GET", s == 0 ? "/admin/stats" : "/metrics");
        if (reply.ok() && s == 0) {
          EXPECT_NE(reply.value().body.find("prefix_cache"),
                    std::string::npos);
        }
        // Direct reads race the decode loop's inserts/evictions too.
        (void)scheduler.prefix_cache()->stats();
        (void)scheduler.prefix_cache()->MatchLen(prompts[0],
                                                 gen.weight_dtype);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : scrapers) t.join();
  server.Stop(/*drain=*/true);
  scheduler.Shutdown(/*drain=*/true);

  EXPECT_EQ(mismatches.load(), 0);
  ASSERT_NE(scheduler.prefix_cache(), nullptr);
  const serve::PrefixCacheStats stats = scheduler.prefix_cache()->stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kClients * kPerClient));
  // Six distinct prompts through a ~1.5-block budget: eviction pressure is
  // structural, not incidental.
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, sched_options.prefix_cache_bytes);
}

// The line protocol accepts "weight_dtype" and rejects unknown values
// without dropping the connection.
TEST(Server, WeightDtypeFieldParsedAndValidated) {
  HttpFixture f;
  serve::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", f.port()).ok());

  JsonValue req = JsonValue::Object();
  JsonValue toks = JsonValue::Array();
  for (int t : {4, 5, 6}) toks.Append(JsonValue::Number(t));
  req.Set("tokens", std::move(toks));
  req.Set("max_len", JsonValue::Number(6));
  req.Set("weight_dtype", JsonValue::String("int8"));
  StatusOr<JsonValue> ok_reply = client.Call(req);
  ASSERT_TRUE(ok_reply.ok());
  EXPECT_EQ(ok_reply.value().Find("status")->string_value(), "ok");

  req.Set("weight_dtype", JsonValue::String("fp4"));
  StatusOr<JsonValue> bad_reply = client.Call(req);
  ASSERT_TRUE(bad_reply.ok());
  EXPECT_EQ(bad_reply.value().Find("status")->string_value(), "error");
}

// --------------------------------------------------- serve bug regressions

// Regression (json.cc): a one-token generation can decode in under the
// clock's resolution; every timing field in the response line must still
// be finite and the line must parse as strict JSON.
TEST(Server, OneTokenResponseIsFiniteParseableJson) {
  HttpFixture f;
  serve::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", f.port()).ok());
  JsonValue req = JsonValue::Object();
  JsonValue toks = JsonValue::Array();
  for (int t : {4, 5, 6}) toks.Append(JsonValue::Number(t));
  req.Set("tokens", std::move(toks));
  req.Set("max_len", JsonValue::Number(1));
  // client.Call parses the reply line with the strict JsonValue parser, so
  // an "inf"/"nan" token in the line would fail right here.
  StatusOr<JsonValue> reply = client.Call(req);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().Find("status")->string_value(), "ok");
  for (const char* field : {"queue_ms", "ttft_ms", "decode_ms", "total_ms",
                            "tokens_per_sec"}) {
    const JsonValue* v = reply.value().Find(field);
    ASSERT_NE(v, nullptr) << field;
    EXPECT_TRUE(std::isfinite(v->number_value())) << field;
    EXPECT_GE(v->number_value(), 0.0) << field;
  }
}

// Serves one connection `raw` verbatim, then closes. Used to feed
// HttpCall responses no real server would produce.
int ServeRawOnce(const std::string& raw, std::thread* out_thread) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  VIST5_CHECK_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  VIST5_CHECK_EQ(
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  VIST5_CHECK_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  VIST5_CHECK_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  *out_thread = std::thread([listener, raw] {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn >= 0) {
      char buf[1024];
      // Swallow the request so the client's send never blocks.
      (void)::recv(conn, buf, sizeof(buf), 0);
      (void)::send(conn, raw.data(), raw.size(), MSG_NOSIGNAL);
      ::close(conn);
    }
    ::close(listener);
  });
  return port;
}

// Regression (client.cc): std::atoi on the status-line tail turned
// malformed responses ("HTTP/1.1 \r\n", "HTTP/1.1 abc") into status code
// 0 instead of a parse error. Each malformed shape must surface an
// IoError; a valid line must still parse.
TEST(HttpCall, MalformedStatusLineSurfacesParseError) {
  const std::string cases[] = {
      "HTTP/1.1 \r\n\r\n",            // nothing after the space
      "HTTP/1.1 abc\r\n\r\n",         // non-numeric code
      "HTTP/1.1 20\r\n\r\n",          // too short
      "HTTP/1.1 2000 OK\r\n\r\n",     // too long
      "HTTP/1.1 2x3 OK\r\n\r\n",      // digit-garbage-digit
  };
  for (const std::string& raw : cases) {
    SCOPED_TRACE(raw);
    std::thread server;
    const int port = ServeRawOnce(raw, &server);
    StatusOr<serve::HttpResponse> got =
        serve::HttpCall("127.0.0.1", port, "GET", "/x");
    server.join();
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kIoError);
  }
  std::thread server;
  const int port =
      ServeRawOnce("HTTP/1.1 204 No Content\r\n\r\n", &server);
  StatusOr<serve::HttpResponse> got =
      serve::HttpCall("127.0.0.1", port, "GET", "/x");
  server.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().code, 204);
}

// Regression (client.cc): CallStreaming cast each stream line's "token"
// and "seq" straight to int — undefined behaviour for 1e30, a truncated
// value for 2.5 — and handed the result to the callback. Such a line must
// fail the call with an error naming the field, and the callback must
// never see it, even though a well-formed final line follows.
TEST(ClientStreaming, MalformedStreamFieldsFailTheCall) {
  const struct {
    const char* line;
    const char* field;
  } cases[] = {
      {R"({"token": 1e30, "seq": 0})", "\"token\""},
      {R"({"token": 2.5, "seq": 0})", "\"token\""},
      {R"({"token": 7, "seq": -1e30})", "\"seq\""},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.line);
    std::thread server;
    const int port = ServeRawOnce(
        std::string(c.line) + "\n{\"status\": \"ok\", \"tokens\": [7]}\n",
        &server);
    serve::Client client;
    const Status connected = client.Connect("127.0.0.1", port);
    int callbacks = 0;
    StatusOr<JsonValue> got = client.CallStreaming(
        JsonValue::Object(), [&](int /*token*/, int /*seq*/) { ++callbacks; });
    server.join();
    ASSERT_TRUE(connected.ok()) << connected.ToString();
    EXPECT_EQ(callbacks, 0);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kIoError);
    EXPECT_NE(got.status().message().find(c.field), std::string::npos)
        << got.status().ToString();
  }
}

}  // namespace
}  // namespace vist5
