#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <thread>

#include "core/task_format.h"
#include "inputs.h"
#include "layers.h"
#include "obs/metrics.h"
#include "rt/thread_pool.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {

namespace model = vist5::model;
namespace serve = vist5::serve;
using vist5::JsonValue;
using vist5::Rng;
using vist5::WeightDtype;

// ---------------------------------------------------------------------------
// Fixed workload parameters. Rates are constants, never derived from a
// measurement taken in the same run, so a faster build gets the same load.

/// dv_mix offered load: well under half of the mix's capacity with the
/// prefix cache on (about 530 req/s when overloaded, 4-vCPU host), where
/// run-to-run spread stays small.
constexpr double kDvMixRatePerS = 150;
/// dv_mix prefix-cache budget, below the mix's distinct working set (a few
/// hundred blocks of ~0.1 MB), so inserts evict.
constexpr size_t kDvMixCacheBytes = size_t{24} << 20;
constexpr double kDvMixZipf = 1.0;
/// The open-loop generator sleeps until this long before a request is due
/// and spins the rest of the way. Requests are timed from their due time,
/// so a timer wake-up that comes late on a halted virtual CPU would count
/// as the server's latency.
constexpr auto kDvMixSpinLead = std::chrono::microseconds(1000);
constexpr int kMaxBatch = 8;
constexpr int kBatchDecodeInFlight = 8;
constexpr int kBatchDecodeMinLen = 32;
constexpr int kBatchDecodeMaxLen = 160;
constexpr int kWireClients = 4;
constexpr int kWireMaxLen = 64;
constexpr int kWireDraftK = 4;
constexpr int kWireBeam = 4;
/// Requests the correctness gate sends before timing, and timed requests
/// re-checked against sequential Generate afterwards.
constexpr int kGateRequests = 16;
constexpr int kVerifySample = 24;
/// Requests the layer walk replays.
constexpr int kWalkSample = 24;
constexpr int kWalkCacheWindow = 256;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"dv_mix", "batch_decode",
                                                 "mixed_wire"};
  return names;
}

namespace {

Outcome OutcomeOf(serve::ResponseStatus status) {
  switch (status) {
    case serve::ResponseStatus::kOk: return Outcome::kOk;
    case serve::ResponseStatus::kDeadlineExpired: return Outcome::kDeadline;
    case serve::ResponseStatus::kRejected: return Outcome::kRejected;
    case serve::ResponseStatus::kShutdown: return Outcome::kShutdown;
    case serve::ResponseStatus::kError: return Outcome::kError;
  }
  return Outcome::kError;
}

}  // namespace

void InProcessDriver::Submit(serve::Request request, Clock::time_point start,
                             RequestRecord* record) {
  record->start = start;
  record->src_tokens = static_cast<int>(request.tokens.size());
  request.on_token = [record](int token, size_t) {
    record->token_times.push_back(Clock::now());
    record->streamed.push_back(token);
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++submitted_;
  }
  SpanLog* spans = spans_;
  const uint64_t span_id = spans->NextId();
  record->sent = Clock::now();
  scheduler_->Submit(
      std::move(request),
      [this, record, spans, span_id](serve::Response response) {
        record->end = Clock::now();
        ++record->finals;
        record->outcome = OutcomeOf(response.status);
        record->tokens = std::move(response.tokens);
        record->server_queue_ms = response.queue_ms;
        record->server_ttft_ms = response.ttft_ms;
        record->server_total_ms = response.total_ms;
        spans->AddWithId(span_id, "serve.request", record->sent, record->end,
                         0, span_id);
        std::lock_guard<std::mutex> lock(mu_);
        ++answered_;
        cv_.notify_all();
      });
}

void InProcessDriver::WaitInFlightBelow(int limit) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return submitted_ - answered_ < limit; });
}

namespace {

/// Counters and histogram state the program already keeps, read around a
/// timed phase so per-layer ratios come from deltas.
struct CounterSnapshot {
  std::map<std::string, int64_t> counters;
  std::vector<uint64_t> step_buckets;
  double batch_sum = 0;
  uint64_t batch_count = 0;
  serve::PrefixCacheStats prefix;

  int64_t operator[](const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

CounterSnapshot TakeSnapshot(const serve::PrefixCache* cache) {
  CounterSnapshot s;
  vist5::obs::MetricsRegistry::Global().VisitCounters(
      [&s](const std::string& name, const vist5::obs::Counter& c) {
        s.counters[name] = c.value();
      });
  s.step_buckets = vist5::obs::GetHistogram("serve/step_ms")->BucketCounts();
  const vist5::obs::Histogram* batch =
      vist5::obs::GetHistogram("serve/batch_size");
  s.batch_sum = batch->sum();
  s.batch_count = batch->count();
  if (cache != nullptr) s.prefix = cache->stats();
  return s;
}

/// Median of the observations a histogram gained between two snapshots,
/// interpolated geometrically inside the log-scale bucket it lands in.
double DeltaMedian(const std::vector<uint64_t>& before,
                   const std::vector<uint64_t>& after) {
  uint64_t total = 0;
  for (size_t i = 0; i < after.size(); ++i) total += after[i] - before[i];
  if (total == 0) return 0;
  const double target = 0.5 * static_cast<double>(total);
  double cum = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    const double n = static_cast<double>(after[i] - before[i]);
    if (n > 0 && cum + n >= target) {
      const double lo =
          i == 0 ? vist5::obs::Histogram::kMin
                 : vist5::obs::Histogram::BucketUpperBound(static_cast<int>(i) - 1);
      const double hi =
          vist5::obs::Histogram::BucketUpperBound(static_cast<int>(i));
      return lo * std::pow(hi / lo, (target - cum) / n);
    }
    cum += n;
  }
  return 0;
}

/// Result of one timed phase.
struct Phase {
  std::vector<RequestRecord> records;
  Clock::time_point t0{};
  CounterSnapshot before, after;
};

model::GenerationOptions ExactLength(int tokens, int eos_id) {
  model::GenerationOptions options;
  options.max_len = tokens;
  options.allowed = [eos_id](int token) { return token != eos_id; };
  return options;
}

/// One iteration of a busy-wait loop.
inline void SpinPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// A seeded sample of `k` distinct indices of [0, n), in increasing order.
std::vector<size_t> SampleIndices(size_t n, size_t k, uint64_t seed) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  Rng rng(seed);
  k = std::min(k, n);
  for (size_t i = 0; i < k; ++i) {
    std::swap(idx[i], idx[i + static_cast<size_t>(rng.UniformInt(
                                      static_cast<int>(n - i)))]);
  }
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// One workload: what it sets up, how it drives the program, and how it
/// checks the answers.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Inputs, weights, and a started scheduler (and server).
  virtual bool Setup() = 0;
  /// Replaces the scheduler (and server) with fresh ones, so two phases
  /// start from the same state.
  virtual void RestartServing() = 0;
  virtual void StopServing() = 0;
  /// Sends a seeded sample of the workload's requests as one burst and
  /// returns their records, checked against sequential Generate.
  virtual std::vector<RequestRecord> Gate(uint64_t seed) = 0;
  virtual Phase RunPhase(SpanLog* spans) = 0;
  /// Re-checks a seeded sample of the phase's answers against sequential
  /// Generate; marks mismatches.
  virtual void VerifySample(Phase* phase, uint64_t seed) = 0;
  virtual WalkInput MakeWalkInput(const Phase& phase, uint64_t seed) = 0;
  virtual const serve::PrefixCache* cache() const { return nullptr; }
};

// ---------------------------------------------------------------------------
// In-process workloads: dv_mix (open loop) and batch_decode (closed loop).

class InProcessWorkload : public Workload {
 public:
  InProcessWorkload(const RunOptions& options, bool prefix_cache)
      : options_(options), prefix_cache_(prefix_cache) {}

  void RestartServing() override {
    StopServing();
    serve::SchedulerOptions sched;
    sched.max_batch = kMaxBatch;
    sched.queue_capacity = 1 << 16;
    sched.prefix_cache_bytes = prefix_cache_ ? kDvMixCacheBytes : 0;
    scheduler_ = std::make_unique<serve::BatchScheduler>(model_.get(), sched);
    scheduler_->Start();
  }

  void StopServing() override {
    if (scheduler_ != nullptr) scheduler_->Shutdown(/*drain=*/true);
    scheduler_.reset();
  }

  const serve::PrefixCache* cache() const override {
    return scheduler_ != nullptr ? scheduler_->prefix_cache() : nullptr;
  }

  std::vector<RequestRecord> Gate(uint64_t seed) override {
    const std::vector<size_t> pick =
        SampleIndices(NumRequests(), kGateRequests, seed);
    std::vector<RequestRecord> records(pick.size());
    SpanLog off(false);
    InProcessDriver driver(scheduler_.get(), &off);
    for (size_t i = 0; i < pick.size(); ++i) {
      Fill(pick[i], &records[i]);
      driver.Submit(MakeRequest(pick[i]), Clock::now(), &records[i]);
    }
    driver.WaitAll();
    for (size_t i = 0; i < pick.size(); ++i) {
      CheckAgainstSequential(pick[i], &records[i]);
    }
    return records;
  }

  void VerifySample(Phase* phase, uint64_t seed) override {
    for (const size_t i :
         SampleIndices(phase->records.size(), kVerifySample, seed)) {
      CheckAgainstSequential(i, &phase->records[i]);
    }
  }

  WalkInput MakeWalkInput(const Phase& phase, uint64_t seed) override {
    WalkInput in;
    in.model = model_.get();
    in.tokenizer = &tokenizer();
    in.max_batch = kMaxBatch;
    for (const size_t i :
         SampleIndices(phase.records.size(), kWalkSample, seed)) {
      const serve::Request req = MakeRequest(i);
      in.sample.push_back(
          {Text(i), req.tokens, req.options, phase.records[i].tokens});
    }
    if (prefix_cache_) {
      in.cache_bytes = kDvMixCacheBytes;
      const size_t n = phase.records.size();
      const size_t window = std::min<size_t>(kWalkCacheWindow, n);
      const size_t first = static_cast<size_t>(
          Rng(seed + 1).UniformInt(static_cast<int>(n - window + 1)));
      for (size_t i = first; i < first + window; ++i) {
        in.cache_window.push_back(MakeRequest(i).tokens);
      }
    }
    return in;
  }

 protected:
  virtual const vist5::text::Tokenizer& tokenizer() const = 0;
  /// Requests the phase's input sequence holds.
  virtual size_t NumRequests() const = 0;
  virtual serve::Request MakeRequest(size_t i) const = 0;
  virtual std::string Text(size_t i) const = 0;
  virtual uint64_t Key(size_t i) const = 0;

  void Fill(size_t i, RequestRecord* record) const {
    record->key = Key(i);
    record->expected_tokens = MakeRequest(i).options.max_len;
  }

  void CheckAgainstSequential(size_t i, RequestRecord* record) const {
    CheckRecord(record);
    if (record->outcome != Outcome::kOk) return;
    const serve::Request req = MakeRequest(i);
    if (model_->Generate(req.tokens, req.options) != record->tokens) {
      record->outcome = Outcome::kMismatch;
    }
  }

  const RunOptions options_;
  const bool prefix_cache_;
  std::unique_ptr<model::TransformerSeq2Seq> model_;
  std::unique_ptr<serve::BatchScheduler> scheduler_;
};

/// dv_mix: Zipf draws over the test split of all four tasks, Poisson
/// arrivals at a fixed rate, prefix cache on.
class DvMixWorkload : public InProcessWorkload {
 public:
  explicit DvMixWorkload(const RunOptions& options)
      : InProcessWorkload(options, /*prefix_cache=*/true) {}

  bool Setup() override {
    corpus_ = BuildDvCorpus();
    pool_ = DvMixPool(*corpus_);
    model_ = SeededT5Small(corpus_->tokenizer);
    arrivals_ms_ =
        PoissonArrivalsMs(kDvMixRatePerS, options_.seconds, options_.seed);
    draws_ = ZipfDraws(static_cast<int>(pool_.size()), kDvMixZipf,
                       static_cast<int>(arrivals_ms_.size()), options_.seed);
    RestartServing();
    return !pool_.empty() && !draws_.empty();
  }

  Phase RunPhase(SpanLog* spans) override {
    Phase phase;
    phase.records.resize(draws_.size());
    for (size_t i = 0; i < draws_.size(); ++i) Fill(i, &phase.records[i]);
    std::vector<serve::Request> requests;
    requests.reserve(draws_.size());
    for (size_t i = 0; i < draws_.size(); ++i) {
      requests.push_back(MakeRequest(i));
    }
    phase.before = TakeSnapshot(cache());
    InProcessDriver driver(scheduler_.get(), spans);
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    for (size_t i = 0; i < draws_.size(); ++i) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(arrivals_ms_[i]));
      std::this_thread::sleep_until(due - kDvMixSpinLead);
      while (Clock::now() < due) SpinPause();
      driver.Submit(std::move(requests[i]), due, &phase.records[i]);
    }
    driver.WaitAll();
    phase.t0 = t0;
    phase.after = TakeSnapshot(cache());
    return phase;
  }

 protected:
  const vist5::text::Tokenizer& tokenizer() const override {
    return corpus_->tokenizer;
  }
  size_t NumRequests() const override { return draws_.size(); }
  serve::Request MakeRequest(size_t i) const override {
    const Prompt& p = pool_[static_cast<size_t>(draws_[i])];
    serve::Request req;
    req.tokens = p.tokens;
    req.options = ExactLength(p.out_len, corpus_->tokenizer.eos_id());
    return req;
  }
  std::string Text(size_t i) const override {
    return pool_[static_cast<size_t>(draws_[i])].text;
  }
  uint64_t Key(size_t i) const override {
    return static_cast<uint64_t>(draws_[i]);
  }

 private:
  std::unique_ptr<DvCorpus> corpus_;
  std::vector<Prompt> pool_;
  std::vector<double> arrivals_ms_;
  std::vector<int> draws_;
};

/// batch_decode: unique text-to-vis prompts, long seeded output lengths,
/// eight requests in flight, prefix cache off.
class BatchDecodeWorkload : public InProcessWorkload {
 public:
  explicit BatchDecodeWorkload(const RunOptions& options)
      : InProcessWorkload(options, /*prefix_cache=*/false) {}

  bool Setup() override {
    corpus_ = BuildDvCorpus();
    for (const auto& ex : corpus_->bundle.nvbench) {
      questions_.push_back(ex.question);
    }
    model_ = SeededT5Small(corpus_->tokenizer);
    // Enough requests for the closed loop at several times its capacity;
    // the loop stops at the deadline, not at the end of the list.
    const int count = static_cast<int>(options_.seconds * 2000) + 64;
    sequence_ = BatchDecodeSequence(
        static_cast<int>(questions_.size()), corpus_->catalog.size(), count,
        kBatchDecodeMinLen, kBatchDecodeMaxLen, options_.seed);
    prompts_.resize(sequence_.size());
    RestartServing();
    return !questions_.empty();
  }

  Phase RunPhase(SpanLog* spans) override {
    Phase phase;
    // Tokenize ahead of the deadline so the loop only submits.
    const size_t ahead = std::min<size_t>(sequence_.size(), 4096);
    for (size_t i = 0; i < ahead; ++i) Materialize(i);
    std::deque<RequestRecord> records;
    phase.before = TakeSnapshot(cache());
    InProcessDriver driver(scheduler_.get(), spans);
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(options_.seconds));
    for (size_t i = 0; i < sequence_.size(); ++i) {
      driver.WaitInFlightBelow(kBatchDecodeInFlight);
      const Clock::time_point now = Clock::now();
      if (now >= deadline) break;
      records.emplace_back();
      Fill(i, &records.back());
      driver.Submit(MakeRequest(i), now, &records.back());
      if (i + 1 < sequence_.size()) Materialize(i + 1);
    }
    driver.WaitAll();
    phase.t0 = t0;
    phase.after = TakeSnapshot(cache());
    phase.records.assign(std::make_move_iterator(records.begin()),
                         std::make_move_iterator(records.end()));
    return phase;
  }

 protected:
  const vist5::text::Tokenizer& tokenizer() const override {
    return corpus_->tokenizer;
  }
  size_t NumRequests() const override { return sequence_.size(); }
  serve::Request MakeRequest(size_t i) const override {
    Materialize(i);
    serve::Request req;
    req.tokens = prompts_[i].tokens;
    req.options =
        ExactLength(sequence_[i].out_len, corpus_->tokenizer.eos_id());
    return req;
  }
  std::string Text(size_t i) const override {
    Materialize(i);
    return prompts_[i].text;
  }
  uint64_t Key(size_t i) const override {
    return static_cast<uint64_t>(sequence_[i].question) *
               static_cast<uint64_t>(corpus_->catalog.size()) +
           static_cast<uint64_t>(sequence_[i].database);
  }

 private:
  /// The question asked against the database's schema, in the text-to-vis
  /// source format, tokenized once.
  void Materialize(size_t i) const {
    Prompt& p = prompts_[i];
    if (!p.tokens.empty()) return;
    const BatchDecodeRequest& r = sequence_[i];
    const std::string& q = questions_[static_cast<size_t>(r.question)];
    p.text = vist5::core::TextToVisSource(
        q, vist5::core::SchemaForQuestion(
               q, corpus_->catalog.databases()[static_cast<size_t>(
                      r.database)]));
    p.tokens = corpus_->tokenizer.Encode(p.text);
  }

  std::unique_ptr<DvCorpus> corpus_;
  std::vector<std::string> questions_;
  std::vector<BatchDecodeRequest> sequence_;
  mutable std::vector<Prompt> prompts_;
};

// ---------------------------------------------------------------------------
// mixed_wire: four line-JSON client connections to serve::Server.

class MixedWireWorkload : public Workload {
 public:
  explicit MixedWireWorkload(const RunOptions& options) : options_(options) {}
  ~MixedWireWorkload() override { StopServing(); }

  bool Setup() override {
    fixture_ = LoadWireFixture(options_.cache_dir);
    if (fixture_ == nullptr) return false;
    const int count = static_cast<int>(options_.seconds * 2000) + 64;
    for (int c = 0; c < kWireClients; ++c) {
      sequences_.push_back(WireSequence(
          static_cast<int>(fixture_->questions.size()), c, count,
          options_.seed));
    }
    RestartServing();
    return server_ != nullptr;
  }

  void RestartServing() override {
    StopServing();
    serve::SchedulerOptions sched;
    sched.max_batch = kMaxBatch;
    sched.draft_model = fixture_->draft.get();
    scheduler_ =
        std::make_unique<serve::BatchScheduler>(fixture_->base.get(), sched);
    scheduler_->Start();
    server_ = std::make_unique<serve::Server>(
        scheduler_.get(), &fixture_->tokenizer, serve::ServerOptions{});
    const vist5::Status st = server_->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: server start failed: %s\n",
                   std::string(st.message()).c_str());
      server_.reset();
    }
  }

  void StopServing() override {
    if (server_ != nullptr) server_->Stop(/*drain=*/true);
    server_.reset();
    if (scheduler_ != nullptr) scheduler_->Shutdown(/*drain=*/true);
    scheduler_.reset();
  }

  std::vector<RequestRecord> Gate(uint64_t seed) override {
    // Two requests of every mode, spread over the client connections so
    // they batch (and park) as timed traffic does.
    Rng rng(seed);
    std::vector<std::vector<WireRequest>> per_client(kWireClients);
    std::vector<WireRequest> all;
    for (int i = 0; i < 8; ++i) {
      WireRequest r;
      r.question = rng.UniformInt(static_cast<int>(fixture_->questions.size()));
      r.mode = static_cast<WireMode>(i % 4);
      per_client[static_cast<size_t>(i % kWireClients)].push_back(r);
    }
    std::vector<std::deque<RequestRecord>> recs(kWireClients);
    SpanLog off(false);
    std::vector<std::thread> threads;
    for (int c = 0; c < kWireClients; ++c) {
      threads.emplace_back([&, c] {
        RunClient(per_client[static_cast<size_t>(c)], c,
                  Clock::time_point::max(), &off,
                  &recs[static_cast<size_t>(c)]);
      });
    }
    for (std::thread& t : threads) t.join();
    std::vector<RequestRecord> out;
    for (int c = 0; c < kWireClients; ++c) {
      for (RequestRecord& r : recs[static_cast<size_t>(c)]) {
        CheckAgainstSequential(&r);
        out.push_back(std::move(r));
      }
    }
    return out;
  }

  Phase RunPhase(SpanLog* spans) override {
    Phase phase;
    std::vector<std::deque<RequestRecord>> recs(kWireClients);
    phase.before = TakeSnapshot(nullptr);
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(options_.seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < kWireClients; ++c) {
      threads.emplace_back([&, c] {
        RunClient(sequences_[static_cast<size_t>(c)], c, deadline, spans,
                  &recs[static_cast<size_t>(c)]);
      });
    }
    for (std::thread& t : threads) t.join();
    for (auto& client : recs) {
      for (RequestRecord& r : client) phase.records.push_back(std::move(r));
    }
    phase.t0 = t0;
    phase.after = TakeSnapshot(nullptr);
    return phase;
  }

  void VerifySample(Phase* phase, uint64_t seed) override {
    for (const size_t i :
         SampleIndices(phase->records.size(), kVerifySample, seed)) {
      CheckAgainstSequential(&phase->records[i]);
    }
  }

  WalkInput MakeWalkInput(const Phase& phase, uint64_t seed) override {
    WalkInput in;
    in.model = fixture_->base.get();
    in.draft = fixture_->draft.get();
    in.tokenizer = &fixture_->tokenizer;
    in.max_batch = kMaxBatch;
    for (const size_t i :
         SampleIndices(phase.records.size(), 4 * kWalkSample, seed)) {
      const RequestRecord& rec = phase.records[i];
      const WireRequest r = Decode(rec.key);
      const std::string& text =
          fixture_->questions[static_cast<size_t>(r.question)];
      // Every mode's prompt joins the batched-decoder sample as the float
      // greedy row the continuous batch runs; speculative ones also go
      // through the draft-verify engine.
      WalkRequest w{text, fixture_->tokenizer.Encode(text),
                    Reference(WireMode::kGreedy), rec.tokens};
      if (r.mode == WireMode::kSpeculative &&
          static_cast<int>(in.spec_sample.size()) < kWalkSample) {
        WalkRequest s = w;
        s.options.draft_k = kWireDraftK;
        in.spec_sample.push_back(std::move(s));
      }
      if (static_cast<int>(in.sample.size()) < kWalkSample) {
        in.sample.push_back(std::move(w));
      }
    }
    return in;
  }

 private:
  /// Records carry their request as key = question * 4 + mode.
  static uint64_t Encode(const WireRequest& r) {
    return static_cast<uint64_t>(r.question) * 4 +
           static_cast<uint64_t>(r.mode);
  }
  static WireRequest Decode(uint64_t key) {
    WireRequest r;
    r.question = static_cast<int>(key / 4);
    r.mode = static_cast<WireMode>(key % 4);
    return r;
  }

  /// Options of the sequential Generate call the mode must equal.
  /// Speculative requests must equal plain greedy.
  static model::GenerationOptions Reference(WireMode mode) {
    model::GenerationOptions o;
    o.max_len = kWireMaxLen;
    if (mode == WireMode::kInt8) o.weight_dtype = WeightDtype::kInt8;
    if (mode == WireMode::kBeam) o.beam_size = kWireBeam;
    return o;
  }

  void CheckAgainstSequential(RequestRecord* record) const {
    CheckRecord(record);
    if (record->outcome != Outcome::kOk) return;
    const WireRequest r = Decode(record->key);
    const std::vector<int> src = fixture_->tokenizer.Encode(
        fixture_->questions[static_cast<size_t>(r.question)]);
    if (fixture_->base->Generate(src, Reference(r.mode)) != record->tokens) {
      record->outcome = Outcome::kMismatch;
    }
  }

  /// One closed-loop client: sends `seq` in order over one connection
  /// until `deadline`, streaming every request.
  void RunClient(const std::vector<WireRequest>& seq, int client,
                 Clock::time_point deadline, SpanLog* spans,
                 std::deque<RequestRecord>* out) const {
    serve::Client conn;
    const vist5::Status st = conn.Connect("127.0.0.1", server_->port());
    for (size_t i = 0; i < seq.size(); ++i) {
      const Clock::time_point now = Clock::now();
      if (now >= deadline) break;
      const WireRequest& r = seq[i];
      out->emplace_back();
      RequestRecord& rec = out->back();
      rec.key = Encode(r);
      rec.start = rec.sent = now;
      if (!st.ok()) {
        rec.end = now;
        rec.finals = 1;
        rec.outcome = Outcome::kError;
        continue;
      }
      JsonValue req = JsonValue::Object();
      req.Set("id", JsonValue::String("c" + std::to_string(client) + "-" +
                                      std::to_string(i)));
      req.Set("text", JsonValue::String(
                          fixture_->questions[static_cast<size_t>(r.question)]));
      req.Set("max_len", JsonValue::Number(kWireMaxLen));
      req.Set("stream", JsonValue::Bool(true));
      if (r.mode == WireMode::kSpeculative) {
        req.Set("draft", JsonValue::Number(kWireDraftK));
      } else if (r.mode == WireMode::kInt8) {
        req.Set("weight_dtype", JsonValue::String("int8"));
      } else if (r.mode == WireMode::kBeam) {
        req.Set("beam", JsonValue::Number(kWireBeam));
      }
      vist5::StatusOr<JsonValue> resp =
          conn.CallStreaming(req, [&rec](int token, int) {
            rec.token_times.push_back(Clock::now());
            rec.streamed.push_back(token);
          });
      rec.end = Clock::now();
      spans->Add("wire.call", rec.sent, rec.end, 0, 0, client + 1);
      if (!resp.ok()) {
        rec.finals = 1;
        rec.outcome = Outcome::kError;
        continue;
      }
      const JsonValue& v = resp.value();
      ++rec.finals;
      const JsonValue* status = v.Find("status");
      const std::string s =
          status != nullptr && status->is_string() ? status->string_value()
                                                   : "";
      rec.outcome = s == "ok"         ? Outcome::kOk
                    : s == "rejected" ? Outcome::kRejected
                    : s == "deadline" ? Outcome::kDeadline
                    : s == "shutdown" ? Outcome::kShutdown
                                      : Outcome::kError;
      if (const JsonValue* toks = v.Find("tokens");
          toks != nullptr && toks->is_array()) {
        for (size_t k = 0; k < toks->size(); ++k) {
          rec.tokens.push_back(static_cast<int>(toks->at(k).number_value()));
        }
      }
      const auto num = [&v](const char* key) {
        const JsonValue* f = v.Find(key);
        return f != nullptr ? f->number_value() : 0.0;
      };
      rec.server_queue_ms = num("queue_ms");
      rec.server_ttft_ms = num("ttft_ms");
      rec.server_total_ms = num("total_ms");
    }
  }

  const RunOptions options_;
  std::unique_ptr<WireFixture> fixture_;
  std::vector<std::vector<WireRequest>> sequences_;
  std::unique_ptr<serve::BatchScheduler> scheduler_;
  std::unique_ptr<serve::Server> server_;
};

std::unique_ptr<Workload> MakeWorkload(const RunOptions& options) {
  if (options.workload == "dv_mix") {
    return std::make_unique<DvMixWorkload>(options);
  }
  if (options.workload == "batch_decode") {
    return std::make_unique<BatchDecodeWorkload>(options);
  }
  if (options.workload == "mixed_wire") {
    return std::make_unique<MixedWireWorkload>(options);
  }
  return nullptr;
}

void ReportPhase(const char* name, const PhaseSummary& s) {
  std::fprintf(stderr,
               "perfbench: %s: sent %lld, succeeded %lld, failed %lld",
               name, static_cast<long long>(s.attempted),
               static_cast<long long>(s.attempted - s.failed),
               static_cast<long long>(s.failed));
  for (const auto& [outcome, n] : s.failures_by_outcome) {
    std::fprintf(stderr, " (%s %lld)", outcome.c_str(),
                 static_cast<long long>(n));
  }
  std::fprintf(stderr, "\n");
}

/// The gated end-to-end metrics: those whose run-to-run spread on the
/// benchmark's host stays inside their bound (README.md, "End-to-end
/// metrics").
MetricMap EndToEnd(const PhaseSummary& s, double setup_s) {
  MetricMap m;
  m["setup_s"] = {setup_s, "s"};
  m["peak_rss_mb"] = {
      static_cast<double>(vist5::obs::PeakRssBytes()) / (1024.0 * 1024.0),
      "MiB"};
  m["tok_s"] = {s.tok_s, "tokens/s"};
  m["tpot_p50_ms"] = {s.tpot_p50_ms, "ms"};
  m["e2e_p50_ms"] = {s.e2e_p50_ms, "ms"};
  return m;
}

/// The client's other timings of the same untraced phase. Their spread on
/// the benchmark's host reaches the widest bound a gated metric may have,
/// so they are reported without one.
MetricMap ClientTimings(const PhaseSummary& s) {
  MetricMap m;
  m["client.ttft_p50_ms"] = {s.ttft_p50_ms, "ms"};
  m["client.ttft_p90_ms"] = {s.ttft_p90_ms, "ms"};
  m["client.tpot_p90_ms"] = {s.tpot_p90_ms, "ms"};
  m["client.e2e_p90_ms"] = {s.e2e_p90_ms, "ms"};
  return m;
}

/// Per-layer rows read from the traced phase: response timelines, counter
/// deltas, the client's own clocks.
MetricMap PhaseLayers(const Phase& phase, const PhaseSummary& s,
                      bool wire) {
  MetricMap m;
  const auto put = [&m](const char* name, double value, const char* unit) {
    m[name] = Metric{value, unit};
  };
  std::vector<double> queue, prefill, overhead, lag;
  std::vector<uint64_t> keys;
  int64_t src_tokens = 0;
  for (const RequestRecord& r : phase.records) {
    keys.push_back(r.key);
    if (r.outcome != Outcome::kOk) continue;
    src_tokens += r.src_tokens;
    queue.push_back(r.server_queue_ms);
    prefill.push_back(r.server_ttft_ms - r.server_queue_ms);
    if (wire) {
      overhead.push_back(MsBetween(r.sent, r.end) - r.server_total_ms);
      if (!r.token_times.empty()) {
        lag.push_back(MsBetween(r.sent, r.token_times.front()) -
                      r.server_ttft_ms);
      }
    }
  }
  const CounterSnapshot& a = phase.before;
  const CounterSnapshot& b = phase.after;
  const auto delta = [&](const char* name) {
    return static_cast<double>(b[name] - a[name]);
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  put("wire.overhead_p50_ms", Quantile(overhead, 0.5), "ms");
  put("wire.stream_lag_p50_ms", Quantile(lag, 0.5), "ms");
  put("sched.queue_wait_p50_ms", Quantile(queue, 0.5), "ms");
  put("sched.queue_wait_p90_ms", Quantile(queue, 0.9), "ms");
  put("sched.prefill_p50_ms", Quantile(prefill, 0.5), "ms");
  put("sched.step_p50_ms", DeltaMedian(a.step_buckets, b.step_buckets), "ms");
  put("sched.batch_occupancy",
      ratio(b.batch_sum - a.batch_sum,
            static_cast<double>(b.batch_count - a.batch_count)),
      "rows");
  const double requests = delta("serve/requests");
  const double exclusive = delta("serve/exclusive");
  const double out_tokens = delta("serve/tokens");
  put("sched.exclusive_frac", ratio(exclusive, requests), "fraction");
  put("sched.admits_per_1k_tok",
      ratio(requests - exclusive, out_tokens / 1000.0), "count");
  put("loadgen.late_p99_ms", s.late_p99_ms, "ms");
  put("prefix.repeat_share", RepeatShare(keys), "fraction");
  const double hits = static_cast<double>(b.prefix.hits - a.prefix.hits);
  const double misses = static_cast<double>(b.prefix.misses - a.prefix.misses);
  put("prefix.hit_rate", ratio(hits, hits + misses), "fraction");
  put("prefix.prefill_saved_frac",
      ratio(static_cast<double>(b.prefix.reuse_tokens - a.prefix.reuse_tokens),
            static_cast<double>(src_tokens)),
      "fraction");
  put("prefix.evictions",
      static_cast<double>(b.prefix.evictions - a.prefix.evictions), "count");
  const double regions = delta("rt/regions");
  const double serial = delta("rt/serial_regions");
  put("rt.regions_per_tok", ratio(regions + serial, out_tokens), "count");
  put("rt.serial_frac", ratio(serial, regions + serial), "fraction");
  put("rt.pool_busy_frac",
      ratio(delta("rt/busy_us"),
            delta("rt/wall_us") * vist5::rt::MaxThreads()),
      "fraction");
  put("spec.accept_rate", ratio(delta("spec/accepted"), delta("spec/proposed")),
      "fraction");
  int64_t spec_tokens = 0;
  for (const RequestRecord& r : phase.records) {
    if (wire && r.outcome == Outcome::kOk &&
        static_cast<WireMode>(r.key % 4) == WireMode::kSpeculative) {
      spec_tokens += static_cast<int64_t>(r.tokens.size());
    }
  }
  put("spec.tokens_per_step",
      ratio(static_cast<double>(spec_tokens), delta("spec/steps")), "tokens");
  return m;
}

}  // namespace

int RunBenchmark(const RunOptions& options) {
  if (options.prepare) {
    // Training runs in its own process, so it shows in neither set-up
    // time nor the measured run's peak RSS.
    return options.workload != "mixed_wire" ||
                   TrainWireModelsIfMissing(options.cache_dir)
               ? 0
               : 1;
  }

  // Set-up: inputs, weights, and a started scheduler (and server), timed
  // from process start until the first request can be sent.
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr || !workload->Setup()) {
    std::fprintf(stderr, "perfbench: set-up of %s failed\n",
                 options.workload.c_str());
    return 1;
  }
  const double setup_s = MsBetween(options.process_start, Clock::now()) / 1e3;
  if (options.setup_only) {
    workload.reset();
    std::printf("setup_s %.17g\n", setup_s);
    std::fflush(stdout);
    return 0;
  }

  // Correctness gate, before anything is timed. `total` counts every
  // request of every phase, gates included.
  PhaseSummary total;
  const auto gate = [&](const char* name, uint64_t seed) {
    const std::vector<RequestRecord> records = workload->Gate(seed);
    const PhaseSummary s = Summarize(records, Clock::now());
    ReportPhase(name, s);
    total.attempted += s.attempted;
    total.failed += s.failed;
    return s.failed == 0 && s.attempted > 0;
  };
  bool correct = gate("gate", options.seed + 1000);

  const auto run_phase = [&](const char* name, SpanLog* spans,
                             PhaseSummary* summary) {
    Phase phase = workload->RunPhase(spans);
    workload->VerifySample(&phase, options.seed + 2000);
    for (RequestRecord& r : phase.records) CheckRecord(&r);
    *summary = Summarize(phase.records, phase.t0);
    ReportPhase(name, *summary);
    total.attempted += summary->attempted;
    total.failed += summary->failed;
    return phase;
  };

  MetricMap metrics;
  SpanLog untraced(false);
  PhaseSummary timed;
  if (correct) {
    run_phase("timed", &untraced, &timed);
    correct = timed.failed == 0 && timed.attempted > 0;
  }
  if (correct && !options.trace) {
    metrics = EndToEnd(timed, setup_s);
  }
  if (correct && options.trace) {
    // The traced phase starts from the same state as the untraced one:
    // fresh scheduler, same gate, same inputs.
    SpanLog spans(true);
    vist5::obs::SetLatencySamplingEnabled(true);
    workload->RestartServing();
    correct = gate("gate (traced run)", options.seed + 1000);
    PhaseSummary traced;
    Phase phase;
    if (correct) {
      ScopedSpan root(&spans, "traced_phase");
      phase = run_phase("traced", &spans, &traced);
      correct = traced.failed == 0;
    }
    workload->StopServing();
    if (correct) {
      metrics = PhaseLayers(phase, traced,
                            options.workload == "mixed_wire");
      const MetricMap walk =
          LayerWalk(workload->MakeWalkInput(phase, options.seed + 3000),
                    &spans);
      metrics.insert(walk.begin(), walk.end());
      const MetricMap client = ClientTimings(timed);
      metrics.insert(client.begin(), client.end());
      metrics["obs.trace_overhead_frac"] = {
          timed.e2e_p50_ms > 0 ? traced.e2e_p50_ms / timed.e2e_p50_ms - 1
                               : 0,
          "fraction"};
      for (const auto& [name, r] : spans.Rollups()) {
        std::fprintf(stderr,
                     "perfbench: span %-24s n=%-7lld total %10.2f ms  "
                     "self %10.2f ms\n",
                     name.c_str(), static_cast<long long>(r.count),
                     r.total_ms, r.self_ms);
      }
      if (!options.trace_out.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(options.trace_out).parent_path(), ec);
        if (!spans.WriteChromeTrace(options.trace_out)) {
          std::fprintf(stderr, "perfbench: cannot write %s\n",
                       options.trace_out.c_str());
        }
      }
    }
  }
  workload.reset();

  if (!correct) {
    std::fprintf(stderr,
                 "perfbench: %s FAILED the correctness gate (%lld of %lld "
                 "requests failed)\n",
                 options.workload.c_str(),
                 static_cast<long long>(total.failed),
                 static_cast<long long>(total.attempted));
  } else {
    std::fprintf(stderr, "perfbench: fail_frac = %.6f fraction\n",
                 total.fail_frac());
    for (const auto& [name, metric] : metrics) {
      std::fprintf(stderr, "perfbench: %-32s %14.6f %s\n", name.c_str(),
                   metric.value, metric.unit.c_str());
    }
    if (!options.trace) {
      for (const auto& [name, metric] : ClientTimings(timed)) {
        std::fprintf(stderr, "perfbench: %-32s %14.6f %s (not gated)\n",
                     name.c_str(), metric.value, metric.unit.c_str());
      }
    }
  }
  std::printf("%s\n",
              ResultLine(correct, std::max<int64_t>(total.attempted, 1),
                         total.failed, metrics)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
