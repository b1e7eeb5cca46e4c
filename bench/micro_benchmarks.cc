// Component micro-benchmarks (google-benchmark): tokenizer, DV-query
// parser, standardizer, relational executor, schema filtration, GEMM,
// attention forward, transformer training step, and KV-cached greedy
// decoding. The GEMM and decode benchmarks sweep threads x isa x dtype
// (docs/KERNELS.md) so the vectorization and quantization wins are
// measured, not asserted. After the google-benchmark run, summary rows
// are printed and, when VIST5_BENCH_JSON is set, appended as JSON lines
// (scripts/run_all_benches.sh exports them into build/obs/):
// `gemm_isa_dtype` (single-thread GEMM throughput per backend/dtype),
// `gemm_decode_shapes` (the 1- and 4-row kernels at decode weight shapes),
// `decode_weight_bytes` (weight traffic per generated token per dtype),
// and `checkpoint_save_load` (checkpoint latency and size).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include <benchmark/benchmark.h>

#include "bench/suite.h"
#include "core/datavist5.h"
#include "data/db_gen.h"
#include "data/nvbench_gen.h"
#include "dv/chart.h"
#include "dv/encoding.h"
#include "dv/parser.h"
#include "dv/standardize.h"
#include "model/checkpoint.h"
#include "model/trainer.h"
#include "nn/attention.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "rt/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/runtime.h"

namespace vist5 {
namespace {

namespace simd = tensor::simd;

const char* kQuery =
    "visualize bar select artist.country , count ( artist.country ) from "
    "artist where artist.age > 30 group by artist.country order by count ( "
    "artist.country ) desc";

struct Fixture {
  db::Catalog catalog;
  std::vector<data::NvBenchExample> nvbench;
  text::Tokenizer tokenizer;

  Fixture() {
    TuneAllocatorForTraining();
    data::DbGenOptions options;
    options.num_databases = 12;
    catalog = data::GenerateCatalog(options);
    const auto splits = data::AssignDatabaseSplits(catalog, 0.7, 0.1, 11);
    nvbench = data::GenerateNvBench(catalog, splits, {});
    std::vector<std::string> corpus;
    for (const auto& ex : nvbench) {
      corpus.push_back(ex.question);
      corpus.push_back(ex.query);
    }
    tokenizer = text::Tokenizer::Build(corpus);
  }
};

Fixture& Shared() {
  static Fixture* f = new Fixture();
  return *f;
}

void BM_TokenizerEncode(benchmark::State& state) {
  Fixture& f = Shared();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tokenizer.Encode(kQuery));
  }
}
BENCHMARK(BM_TokenizerEncode);

void BM_ParseDvQuery(benchmark::State& state) {
  for (auto _ : state) {
    auto q = dv::ParseDvQuery(kQuery);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_ParseDvQuery);

void BM_Standardize(benchmark::State& state) {
  Fixture& f = Shared();
  const auto& ex = f.nvbench.front();
  const db::Database* database = f.catalog.Find(ex.database);
  for (auto _ : state) {
    auto s = dv::StandardizeString(ex.raw_query, *database);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Standardize);

void BM_SchemaFiltration(benchmark::State& state) {
  Fixture& f = Shared();
  const auto& ex = f.nvbench.front();
  const db::Database* database = f.catalog.Find(ex.database);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dv::FilterSchema(ex.question, *database));
  }
}
BENCHMARK(BM_SchemaFiltration);

void BM_RenderChart(benchmark::State& state) {
  Fixture& f = Shared();
  const auto& ex = f.nvbench.front();
  const db::Database* database = f.catalog.Find(ex.database);
  auto q = dv::ParseDvQuery(ex.query);
  for (auto _ : state) {
    auto chart = dv::RenderChart(*q, *database);
    benchmark::DoNotOptimize(chart);
  }
}
BENCHMARK(BM_RenderChart);

// Pins the rt pool width for one benchmark run and restores the default
// afterwards. Benchmarks take the thread count as their last Args() value
// so the 1/2/4-thread rows land in the same report.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(int threads) { rt::SetThreads(threads); }
  ~ThreadsGuard() { rt::SetThreads(1); }
};

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ThreadsGuard threads(static_cast<int>(state.range(1)));
  Rng rng(1);
  Tensor a = Tensor::Randn({256, n}, 1.0f, &rng);
  Tensor b = Tensor::Randn({n, n}, 1.0f, &rng);
  NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 256 * n * n);
}
BENCHMARK(BM_MatMul)->ArgsProduct({{64, 128, 256}, {1, 2, 4}})
    ->ArgNames({"n", "threads"});

/// Forces a kernel backend for one benchmark run and restores the previous
/// one afterwards. ok() is false when the host cannot run the requested
/// ISA (the row should SkipWithError, not silently measure the fallback).
class IsaGuard {
 public:
  explicit IsaGuard(simd::Isa isa)
      : prev_(simd::ActiveIsa()), ok_(simd::SetIsa(isa)) {}
  ~IsaGuard() { simd::SetIsa(prev_); }
  bool ok() const { return ok_; }

 private:
  simd::Isa prev_;
  bool ok_;
};

/// threads x isa x dtype GEMM sweep (docs/KERNELS.md). The float rows run
/// ops::MatMul under the forced backend; the int8 rows run ops::MatMulInt8
/// against a pre-quantized weight so only the kernel (not the quantizer)
/// is on the clock. items_processed counts MACs, so the per-row rate
/// column is directly comparable across backends and dtypes.
void BM_GemmIsaDtype(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ThreadsGuard threads(static_cast<int>(state.range(1)));
  const auto isa = static_cast<simd::Isa>(state.range(2));
  const bool int8 = state.range(3) != 0;
  IsaGuard isa_guard(isa);
  if (!isa_guard.ok()) {
    state.SkipWithError("isa unsupported on this host");
    return;
  }
  Rng rng(1);
  Tensor a = Tensor::Randn({256, n}, 1.0f, &rng);
  Tensor b = Tensor::Randn({n, n}, 1.0f, &rng);
  const ops::QuantizedMatrix q =
      int8 ? ops::QuantizeWeights(b) : ops::QuantizedMatrix{};
  NoGradGuard guard;
  if (int8) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(ops::MatMulInt8(a, q));
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(ops::MatMul(a, b));
    }
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 256 * n * n);
  state.SetLabel(std::string(simd::IsaName(isa)) + "/" +
                 (int8 ? "int8" : "float32"));
}
BENCHMARK(BM_GemmIsaDtype)
    ->ArgsProduct({{256}, {1, 2, 4}, {0, 1}, {0, 1}})
    ->ArgNames({"n", "threads", "isa", "dtype"});

void BM_AttentionForward(benchmark::State& state) {
  ThreadsGuard threads(static_cast<int>(state.range(0)));
  Rng rng(2);
  nn::MultiHeadAttention attn(64, 4, /*bias=*/false, /*scale=*/true, &rng);
  Tensor x = Tensor::Randn({8 * 64, 64}, 1.0f, &rng);
  std::vector<int> lengths(8, 64);
  nn::MultiHeadAttention::ForwardArgs args;
  args.batch = 8;
  args.tq = 64;
  args.tk = 64;
  args.key_lengths = &lengths;
  NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.Forward(x, x, args));
  }
}
BENCHMARK(BM_AttentionForward)->Arg(1)->Arg(2)->Arg(4)
    ->ArgNames({"threads"});

void BM_EncoderForward(benchmark::State& state) {
  Fixture& f = Shared();
  ThreadsGuard threads(static_cast<int>(state.range(0)));
  nn::TransformerConfig cfg =
      nn::TransformerConfig::T5Small(f.tokenizer.vocab_size());
  Rng init(7);
  nn::Transformer t(cfg, &init);
  constexpr int kBatch = 8;
  constexpr int kSeq = 64;
  Rng data(5);
  std::vector<int> ids(static_cast<size_t>(kBatch) * kSeq);
  for (int& id : ids) id = data.UniformRange(2, f.tokenizer.vocab_size() - 1);
  std::vector<int> lengths(kBatch, kSeq);
  NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t.Encode(ids, kBatch, kSeq, lengths, /*train=*/false, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * kBatch * kSeq);  // tokens
}
BENCHMARK(BM_EncoderForward)->Arg(1)->Arg(2)->Arg(4)
    ->ArgNames({"threads"})->Unit(benchmark::kMillisecond);

void BM_TrainStep(benchmark::State& state) {
  Fixture& f = Shared();
  ThreadsGuard threads(static_cast<int>(state.range(0)));
  nn::TransformerConfig cfg =
      nn::TransformerConfig::T5Small(f.tokenizer.vocab_size());
  model::TransformerSeq2Seq m(cfg, f.tokenizer.pad_id(), f.tokenizer.eos_id(),
                              7);
  std::vector<model::SeqPair> pairs;
  for (const auto& ex : f.nvbench) {
    model::SeqPair p;
    p.src = f.tokenizer.Encode(ex.question);
    p.tgt = f.tokenizer.EncodeWithEos(ex.query);
    pairs.push_back(std::move(p));
  }
  AdamW optimizer(m.TrainableParameters(), {});
  Rng rng(3);
  size_t cursor = 0;
  for (auto _ : state) {
    std::vector<const model::SeqPair*> items;
    for (int i = 0; i < 8; ++i) {
      items.push_back(&pairs[cursor++ % pairs.size()]);
    }
    model::Batch batch = model::MakeBatch(items, f.tokenizer.pad_id(), 96, 48);
    optimizer.ZeroGrad();
    Tensor loss = m.BatchLoss(batch, /*train=*/true, &rng);
    loss.Backward();
    loss.DetachGraph();
    optimizer.Step();
  }
}
BENCHMARK(BM_TrainStep)->Arg(1)->Arg(2)->Arg(4)
    ->ArgNames({"threads"})->Unit(benchmark::kMillisecond);

/// Forces a full `tokens`-long output: EOS is never allowed, so decoding
/// runs to max_len regardless of the (untrained) weights.
model::GenerationOptions FixedLengthDecode(int tokens, int eos_id) {
  model::GenerationOptions gen;
  gen.max_len = tokens;
  gen.allowed = [eos_id](int t) { return t != eos_id; };
  return gen;
}

void BM_GreedyDecode(benchmark::State& state) {
  Fixture& f = Shared();
  ThreadsGuard threads(static_cast<int>(state.range(0)));
  nn::TransformerConfig cfg =
      nn::TransformerConfig::T5Small(f.tokenizer.vocab_size());
  model::TransformerSeq2Seq m(cfg, f.tokenizer.pad_id(), f.tokenizer.eos_id(),
                              7);
  const std::vector<int> src = f.tokenizer.Encode(f.nvbench.front().question);
  const model::GenerationOptions gen =
      FixedLengthDecode(64, f.tokenizer.eos_id());
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Generate(src, gen));
  }
  state.SetItemsProcessed(state.iterations() * 64);  // tokens
}
BENCHMARK(BM_GreedyDecode)
    ->Arg(1)->Arg(2)->Arg(4)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

/// threads x isa x dtype rows for the KV-cached greedy decode: the
/// end-to-end view of the BM_GemmIsaDtype sweep, where the weight GEMMs
/// dominate the per-token cost. One model per run keeps the int8 rows
/// honest: the quantize-at-load cost is paid once in the first (untimed)
/// warm-up iteration and the cached QuantizedLinear is reused after.
void BM_GreedyDecodeIsaDtype(benchmark::State& state) {
  Fixture& f = Shared();
  ThreadsGuard threads(static_cast<int>(state.range(0)));
  const auto isa = static_cast<simd::Isa>(state.range(1));
  const bool int8 = state.range(2) != 0;
  IsaGuard isa_guard(isa);
  if (!isa_guard.ok()) {
    state.SkipWithError("isa unsupported on this host");
    return;
  }
  nn::TransformerConfig cfg =
      nn::TransformerConfig::T5Small(f.tokenizer.vocab_size());
  model::TransformerSeq2Seq m(cfg, f.tokenizer.pad_id(), f.tokenizer.eos_id(),
                              7);
  const std::vector<int> src = f.tokenizer.Encode(f.nvbench.front().question);
  model::GenerationOptions gen = FixedLengthDecode(64, f.tokenizer.eos_id());
  gen.weight_dtype = int8 ? WeightDtype::kInt8 : WeightDtype::kFloat32;
  m.Generate(src, gen);  // warm-up: quantize-at-load lands here
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Generate(src, gen));
  }
  state.SetItemsProcessed(state.iterations() * 64);  // tokens
  state.SetLabel(std::string(simd::IsaName(isa)) + "/" +
                 WeightDtypeName(gen.weight_dtype));
}
BENCHMARK(BM_GreedyDecodeIsaDtype)
    ->ArgsProduct({{1, 2, 4}, {0, 1}, {0, 1}})
    ->ArgNames({"threads", "isa", "dtype"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

/// Best wall time of `reps` timed calls of fn, after one untimed warm-up.
template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  fn();
  double best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    best = std::min(best, secs);
  }
  return best;
}

/// Times the single-thread 256x512x512 GEMM under every backend x weight
/// dtype and prints `gemm_isa_dtype` rows: GFLOP/s plus the speedup over
/// the strict-IEEE scalar float32 baseline (mirrored to VIST5_BENCH_JSON).
/// This is the headline number behind the AVX2 kernels: on an AVX2+FMA
/// host the avx2_float32 row is expected to run well over 2x the scalar
/// reference. Hosts without AVX2 print the scalar rows only.
void ReportGemmIsaDtype() {
  constexpr int kM = 256;
  constexpr int kK = 512;
  constexpr int kN = 512;
  constexpr int kReps = 3;
  Rng rng(9);
  Tensor a = Tensor::Randn({kM, kK}, 1.0f, &rng);
  Tensor b = Tensor::Randn({kK, kN}, 1.0f, &rng);
  const ops::QuantizedMatrix q = ops::QuantizeWeights(b);
  NoGradGuard guard;
  rt::SetThreads(1);
  const double flops = 2.0 * kM * kK * kN;

  bench::PrintHeader("gemm_isa_dtype", {"gflops", "vs_scalar_f32"});
  double scalar_f32_secs = -1.0;
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    IsaGuard isa_guard(isa);
    if (!isa_guard.ok()) {
      std::fprintf(stderr,
                   "gemm_isa_dtype: skipping %s rows (unsupported host)\n",
                   simd::IsaName(isa));
      continue;
    }
    const double f32_secs = BestSeconds(
        kReps, [&] { benchmark::DoNotOptimize(ops::MatMul(a, b)); });
    const double i8_secs = BestSeconds(
        kReps, [&] { benchmark::DoNotOptimize(ops::MatMulInt8(a, q)); });
    if (isa == simd::Isa::kScalar) scalar_f32_secs = f32_secs;
    const std::string name = simd::IsaName(isa);
    bench::PrintRow(name + "_float32",
                    {flops / f32_secs / 1e9,
                     scalar_f32_secs > 0 ? scalar_f32_secs / f32_secs : -1.0});
    bench::PrintRow(name + "_int8",
                    {flops / i8_secs / 1e9,
                     scalar_f32_secs > 0 ? scalar_f32_secs / i8_secs : -1.0});
  }
}

/// Weight shapes [K, N] of one decode step's products: t5_small's
/// attention projections, FFN in/out and tied logits (vocab 963), then
/// the d128 model's (perfbench mixed_wire, serve_bench's base model).
struct DecodeGemmShape {
  const char* name;
  int k;
  int n;
};
constexpr DecodeGemmShape kDecodeGemmShapes[] = {
    {"t5_small_64x64", 64, 64},    {"t5_small_64x256", 64, 256},
    {"t5_small_256x64", 256, 64},  {"t5_small_64x963", 64, 963},
    {"base128_128x128", 128, 128}, {"base128_128x512", 128, 512},
    {"base128_512x128", 512, 128},
};

/// One decode-shaped product: 1 or 4 activation rows (greedy, or beam 4
/// and the 4-row group of a 5-row verify) against a [K, N] weight, in
/// float32 or int8. Run() calls the dispatched kernel ops::MatMul would
/// pick for that row group directly, so the rate is the kernel's, without
/// the per-op allocation around it.
class DecodeGemm {
 public:
  DecodeGemm(const DecodeGemmShape& shape, int rows, bool int8)
      : k_(shape.k), n_(shape.n), rows_(rows), int8_(int8) {
    Rng rng(3);
    a_ = Tensor::Randn({rows, k_}, 1.0f, &rng).data();
    const Tensor b = Tensor::Randn({k_, n_}, 1.0f, &rng);
    b_ = b.data();
    q_ = ops::QuantizeWeights(b);
    c_.resize(static_cast<size_t>(rows) * n_);
  }
  double flops() const { return 2.0 * rows_ * k_ * n_; }
  void Run() {
    const simd::KernelSet& ks = simd::ActiveKernels();
    if (int8_) {
      (rows_ == 4 ? ks.gemm4_row_nn_zero_i8 : ks.gemm_row_nn_zero_i8)(
          a_.data(), q_.data.data(), q_.scales.data(), c_.data(), k_, n_);
    } else {
      (rows_ == 4 ? ks.gemm4_row_nn_zero : ks.gemm_row_nn_zero)(
          a_.data(), b_.data(), c_.data(), k_, n_);
    }
    benchmark::DoNotOptimize(c_.data());
    benchmark::ClobberMemory();
  }

 private:
  int k_, n_, rows_;
  bool int8_;
  std::vector<float> a_, b_, c_;
  ops::QuantizedMatrix q_;
};

/// Prints `gemm_decode_shapes` rows (mirrored to VIST5_BENCH_JSON): the
/// single-thread GFLOP/s of the 1- and 4-row kernels at each decode weight
/// shape, per backend and dtype, each the best of five batches of about
/// 40 MFLOP. The weight stays cache-resident across calls; a decode step
/// reads every layer's weights between two uses of one, so it can run
/// below these rates. Backends the host cannot run print "-".
void ReportGemmDecodeShapes() {
  constexpr double kBatchFlops = 4e7;
  constexpr int kReps = 5;
  rt::SetThreads(1);
  bench::PrintHeader("gemm_decode_shapes",
                     {"scalar_f32", "scalar_i8", "avx2_f32", "avx2_i8"});
  for (const DecodeGemmShape& shape : kDecodeGemmShapes) {
    for (const int rows : {1, 4}) {
      std::vector<double> gflops;
      for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
        IsaGuard isa_guard(isa);
        for (const bool int8 : {false, true}) {
          if (!isa_guard.ok()) {
            gflops.push_back(-1.0);
            continue;
          }
          DecodeGemm gemm(shape, rows, int8);
          const int calls =
              std::max(1, static_cast<int>(kBatchFlops / gemm.flops()));
          const double secs = BestSeconds(kReps, [&] {
            for (int i = 0; i < calls; ++i) gemm.Run();
          });
          gflops.push_back(gemm.flops() * calls / secs / 1e9);
        }
      }
      bench::PrintRow(std::string(shape.name) + "_m" + std::to_string(rows),
                      gflops);
    }
  }
}

/// Decodes the same 64-token output under float32 and int8 weights and
/// prints a `decode_weight_bytes` row: weight-matrix megabytes streamed
/// per generated token for each dtype (from the gemm/weight_bytes_{f32,i8}
/// counters, which the GEMM paths bump by the B-operand footprint on
/// every call) and the float32/int8 traffic ratio. The int8 column is the
/// "reduced weight-bytes per token" claim in docs/KERNELS.md, measured.
void ReportDecodeWeightBytes() {
  Fixture& f = Shared();
  nn::TransformerConfig cfg =
      nn::TransformerConfig::T5Small(f.tokenizer.vocab_size());
  model::TransformerSeq2Seq m(cfg, f.tokenizer.pad_id(), f.tokenizer.eos_id(),
                              7);
  const std::vector<int> src = f.tokenizer.Encode(f.nvbench.front().question);
  obs::Counter* f32_bytes = obs::GetCounter("gemm/weight_bytes_f32");
  obs::Counter* i8_bytes = obs::GetCounter("gemm/weight_bytes_i8");
  constexpr int kTokens = 64;

  auto bytes_per_token = [&](WeightDtype dtype) {
    model::GenerationOptions gen =
        FixedLengthDecode(kTokens, f.tokenizer.eos_id());
    gen.weight_dtype = dtype;
    m.Generate(src, gen);  // warm-up: quantize-at-load lands here
    const int64_t f0 = f32_bytes->value();
    const int64_t i0 = i8_bytes->value();
    const std::vector<int> out = m.Generate(src, gen);
    const int64_t total =
        (f32_bytes->value() - f0) + (i8_bytes->value() - i0);
    return static_cast<double>(total) / static_cast<double>(out.size());
  };

  const double f32_tok = bytes_per_token(WeightDtype::kFloat32);
  const double i8_tok = bytes_per_token(WeightDtype::kInt8);
  bench::PrintHeader("decode_weight_bytes",
                     {"f32_mb_tok", "i8_mb_tok", "ratio"});
  bench::PrintRow("t5_small_greedy64",
                  {f32_tok / 1e6, i8_tok / 1e6, f32_tok / i8_tok});
}

/// Times one rotation-managed training-state checkpoint save (atomic
/// write + LATEST update) and one resume-load for the T5-small fixture
/// model carrying a full AdamW moment payload, and prints a
/// `checkpoint_save_load` row (mirrored to VIST5_BENCH_JSON). Guards the
/// checkpoint_every cadence cost quoted in docs/CHECKPOINTING.md.
void ReportCheckpointSaveLoad() {
  Fixture& f = Shared();
  nn::TransformerConfig cfg =
      nn::TransformerConfig::T5Small(f.tokenizer.vocab_size());
  model::TransformerSeq2Seq m(cfg, f.tokenizer.pad_id(), f.tokenizer.eos_id(),
                              7);
  nn::Module* module = m.CheckpointModule();

  model::TrainState state;
  state.next_step = 100;
  state.total_steps = 300;
  state.opt_step = 100;
  for (const Tensor& p : m.TrainableParameters()) {
    state.opt_m.emplace_back(p.data().size(), 0.01f);
    state.opt_v.emplace_back(p.data().size(), 0.001f);
  }

  const std::string dir = "/tmp/vist5_bench_checkpoint";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  constexpr int kReps = 3;
  double save_secs = 1e30;
  double load_secs = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const Status saved =
        model::SaveTrainCheckpoint(*module, state, dir, /*keep_last=*/2);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    if (!saved.ok()) {
      std::fprintf(stderr, "checkpoint_save_load: save failed: %s\n",
                   saved.ToString().c_str());
      std::exit(1);
    }
    save_secs = std::min(save_secs, secs);
  }
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(
      model::TrainCheckpointPath(dir, state.next_step), ec);
  for (int rep = 0; rep < kReps; ++rep) {
    model::TrainState restored;
    const auto t0 = std::chrono::steady_clock::now();
    const Status loaded = model::ResumeTrainState(module, &restored, dir);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    if (!loaded.ok()) {
      std::fprintf(stderr, "checkpoint_save_load: load failed: %s\n",
                   loaded.ToString().c_str());
      std::exit(1);
    }
    load_secs = std::min(load_secs, secs);
  }
  std::filesystem::remove_all(dir);

  bench::PrintHeader("checkpoint_save_load",
                     {"save_ms", "load_ms", "mbytes"});
  bench::PrintRow("t5_small_train_state",
                  {save_secs * 1e3, load_secs * 1e3,
                   static_cast<double>(bytes) / 1e6});
}

}  // namespace vist5

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  vist5::ReportGemmIsaDtype();
  vist5::ReportGemmDecodeShapes();
  vist5::ReportDecodeWeightBytes();
  vist5::ReportCheckpointSaveLoad();
  return 0;
}
