// Heap allocations and pool regions per decode step.
// Transformer::DecodeStep runs on row buffers that its DecodeState keeps
// from step to step, so once warmed a step allocates only the Tensor it
// returns (docs/INFERENCE.md, "One decode step"). This binary replaces the
// global operator new with a counting one and checks a warmed t5_small
// step at batch 1, at batch 4 and in a span-5 verify, at float32 and int8,
// on one and two threads. The step's only row-chunk regions are its
// attention rows, so it opens exactly two pool regions per decoder layer,
// the self- and the cross-attention rows (docs/PARALLELISM.md); that count
// is pinned at batch 1, at batch 8 (at both dtypes) and in a span-5
// verify. The base shape (mixed_wire's d128
// x 3 model), whose float32 step weights outgrow a 2 MiB L2, runs its
// weight products as column slices at 2 threads: its warmed step is held
// to the same allocation bound, and its slice hand-offs per step are
// pinned. It also counts the bytes that admitting a row
// (DecodeState::MergeFrom) and evicting one (Reorder) allocate: both move
// row handles, so each stays below one row's self-K/V slab.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/transformer.h"
#include "obs/metrics.h"
#include "rt/thread_pool.h"

namespace {
std::atomic<int64_t> g_allocations{0};
std::atomic<int64_t> g_bytes{0};
}  // namespace

// The replacements stay out of line: once GCC inlines a std::free body
// into a delete-expression, it pairs that free with the new-expression's
// operator new and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace vist5 {
namespace {

constexpr int kVocab = 48;
constexpr int kCapacity = 64;  // self-K/V slab, as ContinuousDecoder sizes it
constexpr int64_t kMaxAllocations = 8;

struct Case {
  const char* name;
  int batch;
  int span;
  WeightDtype dtype;
};

constexpr int kSrcLen = 9;

/// A `batch`-row state over distinct sources, each row with a [1, H,
/// kCapacity, Dh] self-K/V slab per layer, as ContinuousDecoder::Admit
/// gives it.
nn::DecodeState SlabState(const nn::Transformer& t, int batch) {
  std::vector<int> src;
  std::vector<int> lengths;
  for (int b = 0; b < batch; ++b) {
    for (int i = 0; i < kSrcLen; ++i) src.push_back(2 + (b * 5 + i) % 40);
    lengths.push_back(kSrcLen - b % 3);
  }
  const Tensor memory =
      t.Encode(src, batch, kSrcLen, lengths, /*train=*/false, nullptr);
  nn::DecodeState state = t.BeginDecode(memory, batch, kSrcLen, lengths);
  for (nn::DecodeState::LayerCache& layer : state.layers) {
    layer.self_k = Tensor({1, layer.cross_k.dim(1), kCapacity,
                           layer.cross_k.dim(3)});
    layer.self_v = Tensor({1, layer.cross_k.dim(1), kCapacity,
                           layer.cross_k.dim(3)});
  }
  return state;
}

/// Pool regions opened so far, pooled or run serially.
int64_t Regions() {
  static const obs::Counter* pooled = obs::GetCounter("rt/regions");
  static const obs::Counter* serial = obs::GetCounter("rt/serial_regions");
  return pooled->value() + serial->value();
}

/// Slice regions handed to the pool's threads so far.
int64_t Handoffs() {
  static const obs::Counter* handed = obs::GetCounter("rt/slice_regions");
  return handed->value();
}

/// What one warmed DecodeStep call cost.
struct StepCost {
  int64_t allocations = 0;
  int64_t regions = 0;
  int64_t handoffs = 0;
};

/// mixed_wire's base model (perfbench/inputs.cc).
nn::TransformerConfig BaseConfig() {
  nn::TransformerConfig c = nn::TransformerConfig::T5Small(kVocab);
  c.d_model = 128;
  c.num_heads = 8;
  c.d_ff = 512;
  c.num_encoder_layers = 3;
  c.num_decoder_layers = 3;
  return c;
}

/// The costs of several warmed DecodeStep calls, one per call.
std::vector<StepCost> WarmedStepCosts(
    const Case& c,
    const nn::TransformerConfig& config =
        nn::TransformerConfig::T5Small(kVocab)) {
  Rng init(7);
  nn::Transformer t(config, &init);
  NoGradGuard no_grad;
  WeightDtypeGuard dtype(c.dtype);
  nn::DecodeState state = SlabState(t, c.batch);
  std::vector<int> ids(static_cast<size_t>(c.batch) * c.span);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = 3 + static_cast<int>(i);
  // Warm-up: the first steps grow the scratch buffers and build the int8
  // weight snapshots and the packed column slices.
  for (int i = 0; i < 2; ++i) t.DecodeStep(ids, &state, c.span);
  std::vector<StepCost> costs;
  for (int i = 0; i < 6; ++i) {
    const int64_t allocations = g_allocations.load(std::memory_order_relaxed);
    const int64_t regions = Regions();
    const int64_t handoffs = Handoffs();
    const Tensor hidden = t.DecodeStep(ids, &state, c.span);
    costs.push_back(
        {g_allocations.load(std::memory_order_relaxed) - allocations,
         Regions() - regions, Handoffs() - handoffs});
    EXPECT_EQ(hidden.dim(0), c.batch * c.span);
  }
  return costs;
}

class DecodeAlloc : public ::testing::TestWithParam<int> {};

TEST_P(DecodeAlloc, WarmedStepAllocatesOnlyItsResult) {
  const int threads = GetParam();
  const int previous = rt::MaxThreads();
  rt::SetThreads(threads);
  const Case cases[] = {
      {"batch1_f32", 1, 1, WeightDtype::kFloat32},
      {"batch4_f32", 4, 1, WeightDtype::kFloat32},
      {"span5_f32", 1, 5, WeightDtype::kFloat32},
      {"batch1_i8", 1, 1, WeightDtype::kInt8},
      {"batch4_i8", 4, 1, WeightDtype::kInt8},
      {"span5_i8", 1, 5, WeightDtype::kInt8},
  };
  for (const Case& c : cases) {
    int64_t worst = 0;
    for (const StepCost& cost : WarmedStepCosts(c)) {
      worst = std::max(worst, cost.allocations);
    }
    EXPECT_LE(worst, kMaxAllocations)
        << c.name << " at " << threads << " thread(s)";
    RecordProperty(std::string(c.name) + "_allocations",
                   static_cast<int>(worst));
  }
  rt::SetThreads(previous);
}

// Only the attention rows split at a served shape (at most 8 rows): a
// projection's grain is at least 8 rows, a norm's at least 8 rows for
// d <= 128, and a residual add or activation stays under kElemGrain. So
// every other part of the step runs as a plain call, and a step opens one
// region per attention, two per decoder layer, at any thread count.
TEST_P(DecodeAlloc, WarmedStepOpensTwoRegionsPerDecoderLayer) {
  const int threads = GetParam();
  const int previous = rt::MaxThreads();
  rt::SetThreads(threads);
  const int64_t expected =
      2 * nn::TransformerConfig::T5Small(kVocab).num_decoder_layers;
  const Case cases[] = {
      {"batch1_f32", 1, 1, WeightDtype::kFloat32},
      {"batch8_f32", 8, 1, WeightDtype::kFloat32},
      {"span5_f32", 1, 5, WeightDtype::kFloat32},
      {"batch8_i8", 8, 1, WeightDtype::kInt8},
  };
  for (const Case& c : cases) {
    for (const StepCost& cost : WarmedStepCosts(c)) {
      EXPECT_EQ(cost.regions, expected)
          << c.name << " at " << threads << " thread(s)";
    }
  }
  rt::SetThreads(previous);
}

// At 2 threads the base shape's weight products run as two column slices
// each (docs/PARALLELISM.md, "Column slices"). The slices are packed on the
// first step, so a warmed step still allocates only its result. It hands
// off one slice region per product set: self q/k/v together, self out,
// cross q, cross out, FFN in and FFN out, 6 per decoder layer. int8 steps
// and 1-thread steps hand off none.
TEST(DecodeAllocSliced, WarmedBaseStepAllocatesOnlyItsResultAndHandsOffSix) {
  const int previous = rt::MaxThreads();
  const nn::TransformerConfig base = BaseConfig();
  const int64_t step_bytes =
      static_cast<int64_t>(base.num_decoder_layers) *
      (6 * base.d_model * base.d_model + 2 * base.d_model * base.d_ff) *
      static_cast<int64_t>(sizeof(float));
  rt::SetThreads(2);
  if (rt::SlicesFor(step_bytes) < 2) {
    rt::SetThreads(previous);
    GTEST_SKIP() << "this host's L2 (" << rt::L2CacheBytes()
                 << " bytes) holds the base step's " << step_bytes
                 << " bytes of weights, so nothing slices";
  }
  const int64_t per_step = 6 * base.num_decoder_layers;
  const Case cases[] = {
      {"batch1_f32", 1, 1, WeightDtype::kFloat32},
      {"batch4_f32", 4, 1, WeightDtype::kFloat32},
      {"span5_f32", 1, 5, WeightDtype::kFloat32},
      {"batch1_i8", 1, 1, WeightDtype::kInt8},
  };
  for (const Case& c : cases) {
    const bool sliced = c.dtype == WeightDtype::kFloat32;
    for (const StepCost& cost : WarmedStepCosts(c, base)) {
      EXPECT_LE(cost.allocations, kMaxAllocations) << c.name;
      EXPECT_EQ(cost.handoffs, sliced ? per_step : 0) << c.name;
      EXPECT_EQ(cost.regions, 2 * base.num_decoder_layers) << c.name;
    }
  }
  rt::SetThreads(1);
  for (const StepCost& cost : WarmedStepCosts(cases[0], base)) {
    EXPECT_EQ(cost.handoffs, 0) << "at 1 thread";
  }
  rt::SetThreads(previous);
}

TEST(DecodeStateAlloc, MergeAndEvictAllocateLessThanOneSlab) {
  Rng init(7);
  nn::Transformer t(nn::TransformerConfig::T5Small(kVocab), &init);
  NoGradGuard no_grad;
  const nn::TransformerConfig& cfg = t.config();
  const int64_t slab_bytes = static_cast<int64_t>(kCapacity) * cfg.d_model *
                             static_cast<int64_t>(sizeof(float));

  nn::DecodeState seven = SlabState(t, 7);
  const std::vector<int> ids(7, 3);
  for (int i = 0; i < 2; ++i) t.DecodeStep(ids, &seven);
  nn::DecodeState one = SlabState(t, 1);
  int64_t before = g_bytes.load(std::memory_order_relaxed);
  seven.MergeFrom(std::move(one));
  const int64_t merge_bytes = g_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(seven.batch, 8);
  EXPECT_LT(merge_bytes, slab_bytes) << "MergeFrom copied K/V";

  nn::DecodeState eight = SlabState(t, 8);
  for (int i = 0; i < 2; ++i) t.DecodeStep(std::vector<int>(8, 3), &eight);
  const std::vector<int> survivors = {0, 1, 2, 4, 5, 6, 7};
  before = g_bytes.load(std::memory_order_relaxed);
  eight.Reorder(survivors);
  const int64_t reorder_bytes =
      g_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(eight.batch, 7);
  EXPECT_LT(reorder_bytes, slab_bytes) << "Reorder copied K/V";
  RecordProperty("merge_bytes", static_cast<int>(merge_bytes));
  RecordProperty("reorder_bytes", static_cast<int>(reorder_bytes));
}

INSTANTIATE_TEST_SUITE_P(Threads, DecodeAlloc, ::testing::Values(1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace vist5
