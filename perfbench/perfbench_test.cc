// Tests of the benchmark's own code: seeded inputs, the metric
// definitions, and failure accounting.

#include <gtest/gtest.h>

#include "inputs.h"
#include "nn/transformer.h"
#include "serve/scheduler.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

Clock::time_point At(double ms) {
  return Clock::time_point{} +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double, std::milli>(ms));
}

TEST(Inputs, SameSeedSameRequestsOtherSeedOtherRequests) {
  EXPECT_EQ(ZipfDraws(758, 1.0, 500, 7), ZipfDraws(758, 1.0, 500, 7));
  EXPECT_NE(ZipfDraws(758, 1.0, 500, 7), ZipfDraws(758, 1.0, 500, 8));
  EXPECT_EQ(PoissonArrivalsMs(150, 5, 7), PoissonArrivalsMs(150, 5, 7));
  EXPECT_NE(PoissonArrivalsMs(150, 5, 7), PoissonArrivalsMs(150, 5, 8));

  const auto same = [](const std::vector<BatchDecodeRequest>& a,
                       const std::vector<BatchDecodeRequest>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].question != b[i].question || a[i].database != b[i].database ||
          a[i].out_len != b[i].out_len) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(same(BatchDecodeSequence(600, 56, 400, 32, 160, 7),
                   BatchDecodeSequence(600, 56, 400, 32, 160, 7)));
  EXPECT_FALSE(same(BatchDecodeSequence(600, 56, 400, 32, 160, 7),
                    BatchDecodeSequence(600, 56, 400, 32, 160, 8)));

  const auto wire = [](uint64_t seed, int client) {
    std::vector<int> flat;
    for (const WireRequest& r : WireSequence(48, client, 200, seed)) {
      flat.push_back(r.question * 4 + static_cast<int>(r.mode));
    }
    return flat;
  };
  EXPECT_EQ(wire(7, 0), wire(7, 0));
  EXPECT_NE(wire(7, 0), wire(8, 0));
  EXPECT_NE(wire(7, 0), wire(7, 1));
}

TEST(Inputs, BatchDecodePromptsNeverRepeatWithinTheGrid) {
  const std::vector<BatchDecodeRequest> seq =
      BatchDecodeSequence(30, 7, 30 * 7, 32, 160, 3);
  std::vector<uint64_t> keys;
  for (const BatchDecodeRequest& r : seq) {
    keys.push_back(static_cast<uint64_t>(r.question) * 7 +
                   static_cast<uint64_t>(r.database));
    EXPECT_GE(r.out_len, 32);
    EXPECT_LE(r.out_len, 160);
  }
  EXPECT_EQ(RepeatShare(keys), 0.0);
}

TEST(Inputs, WireMixHasEveryModeOnceInEveryBlockOfFour) {
  const std::vector<WireRequest> seq = WireSequence(48, 2, 200, 5);
  for (size_t block = 0; block < seq.size(); block += 4) {
    int count[4] = {0, 0, 0, 0};
    for (size_t i = block; i < block + 4; ++i) {
      ++count[static_cast<int>(seq[i].mode)];
    }
    for (const int c : count) EXPECT_EQ(c, 1);
  }
}

TEST(Inputs, ZipfPopularityIsFixedAcrossSeeds) {
  // The most drawn item is the same whatever the seed.
  const auto top = [](uint64_t seed) {
    std::vector<int> count(100);
    for (const int d : ZipfDraws(100, 1.0, 5000, seed)) ++count[d];
    return std::max_element(count.begin(), count.end()) - count.begin();
  };
  EXPECT_EQ(top(1), top(2));
  EXPECT_EQ(top(1), top(3));
}

TEST(Stats, QuantileInterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({10, 20, 30, 40, 50}, 0.9), 46.0);
  EXPECT_DOUBLE_EQ(Quantile({10, 20, 30, 40, 50}, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile({10, 20, 30, 40, 50}, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(Quantile({7}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(Stats, TpotIsFirstToLastTokenOverGaps) {
  EXPECT_DOUBLE_EQ(TpotMs({At(0), At(2), At(4), At(6)}), 2.0);
  // A speculative burst commits several tokens at one instant; the
  // request still averages to its true pace, with no zero-length gaps.
  EXPECT_DOUBLE_EQ(TpotMs({At(0), At(0), At(0), At(6), At(6), At(6), At(12)}),
                   2.0);
  EXPECT_LT(TpotMs({At(5)}), 0.0);
  EXPECT_LT(TpotMs({}), 0.0);
}

RequestRecord Answered(double start, std::vector<double> token_ms,
                       double end) {
  RequestRecord r;
  r.start = r.sent = At(start);
  for (size_t i = 0; i < token_ms.size(); ++i) {
    r.token_times.push_back(At(token_ms[i]));
    r.streamed.push_back(static_cast<int>(i));
    r.tokens.push_back(static_cast<int>(i));
  }
  r.end = At(end);
  r.finals = 1;
  r.outcome = Outcome::kOk;
  return r;
}

TEST(Stats, SummarizeLeavesOneTokenRequestsOutOfTpot) {
  std::vector<RequestRecord> records = {
      Answered(0, {1, 3, 5}, 6),  // ttft 1, tpot 2, e2e 6
      Answered(10, {14}, 15),     // one token: ttft 4, no tpot, e2e 5
      Answered(20, {22, 26}, 27),  // ttft 2, tpot 4, e2e 7
  };
  for (RequestRecord& r : records) CheckRecord(&r);
  const PhaseSummary s = Summarize(records, At(0));
  EXPECT_EQ(s.attempted, 3);
  EXPECT_EQ(s.failed, 0);
  EXPECT_DOUBLE_EQ(s.ttft_p50_ms, 2.0);
  EXPECT_DOUBLE_EQ(s.tpot_p50_ms, 3.0);  // median of {2, 4}
  EXPECT_DOUBLE_EQ(s.e2e_p50_ms, 6.0);
  // 6 tokens from t0 to the last final response at 27 ms.
  EXPECT_NEAR(s.tok_s, 6 / 0.027, 1e-6);
}

TEST(Stats, SummarizeTakesQuantilesOverTheWholePhase) {
  // e2e 2, 50 (a stall), 3: the stall is one request of three and shows
  // in p90 and in tok_s, which runs to the stalled request's end.
  std::vector<RequestRecord> records = {Answered(0, {1, 2}, 2),
                                        Answered(10, {11, 12}, 60),
                                        Answered(20, {21, 22}, 23)};
  for (RequestRecord& r : records) CheckRecord(&r);
  const PhaseSummary s = Summarize(records, At(0));
  EXPECT_DOUBLE_EQ(s.e2e_p50_ms, 3.0);
  EXPECT_DOUBLE_EQ(s.e2e_p90_ms, 3.0 + 0.8 * 47.0);
  EXPECT_NEAR(s.tok_s, 6 / 0.060, 1e-6);
}

TEST(Stats, RepeatShareCountsPromptsSeenEarlier) {
  EXPECT_DOUBLE_EQ(RepeatShare({1, 2, 1, 3, 2, 1}), 0.5);
  EXPECT_DOUBLE_EQ(RepeatShare({1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(RepeatShare({5, 5, 5, 5}), 0.75);
  EXPECT_DOUBLE_EQ(RepeatShare({}), 0.0);
}

TEST(Stats, CheckRecordFailsBrokenStreamsAndDuplicateAnswers) {
  RequestRecord r = Answered(0, {1, 2, 3}, 4);
  r.streamed = {0, 2, 1};
  CheckRecord(&r);
  EXPECT_EQ(r.outcome, Outcome::kMismatch);

  RequestRecord twice = Answered(0, {1}, 2);
  twice.finals = 2;
  CheckRecord(&twice);
  EXPECT_EQ(twice.outcome, Outcome::kUnanswered);

  RequestRecord short_answer = Answered(0, {1, 2}, 3);
  short_answer.expected_tokens = 3;
  CheckRecord(&short_answer);
  EXPECT_EQ(short_answer.outcome, Outcome::kMismatch);
}

TEST(Driver, ForcedRejectionCountsInFailFrac) {
  // A one-slot queue on a scheduler that never starts: the first request
  // queues (and is answered "shutdown" at teardown), the rest are
  // rejected inline. Every one of them is a failure of the phase.
  vist5::model::TransformerSeq2Seq model(
      vist5::nn::TransformerConfig::T5Small(32), 0, 1, 7);
  vist5::serve::SchedulerOptions options;
  options.queue_capacity = 1;
  vist5::serve::BatchScheduler scheduler(&model, options);
  SpanLog spans(false);
  std::vector<RequestRecord> records(3);
  {
    InProcessDriver driver(&scheduler, &spans);
    for (RequestRecord& r : records) {
      vist5::serve::Request req;
      req.tokens = {5, 6, 7};
      req.options.max_len = 4;
      driver.Submit(std::move(req), Clock::now(), &r);
    }
    scheduler.Shutdown(/*drain=*/false);
    driver.WaitAll();
  }
  for (RequestRecord& r : records) CheckRecord(&r);
  const PhaseSummary s = Summarize(records, Clock::now());
  EXPECT_EQ(s.attempted, 3);
  EXPECT_EQ(s.failed, 3);
  EXPECT_DOUBLE_EQ(s.fail_frac(), 1.0);
  EXPECT_EQ(s.failures_by_outcome.at("rejected"), 2);
  EXPECT_EQ(s.failures_by_outcome.at("shutdown"), 1);
}

}  // namespace
}  // namespace perfbench
