#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rt/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

namespace vist5 {
namespace {

// Evaluates `fn` and releases the graph it recorded. Dropping `loss` alone
// would free it too (a backward closure reaches its own node by raw
// pointer, so a graph holds no cycle); DetachGraph frees it at once.
float EvalAndRelease(const std::function<Tensor()>& fn) {
  Tensor loss = fn();
  const float value = loss.item();
  loss.DetachGraph();
  return value;
}

// Numerically checks d(loss)/d(param) against autograd for a scalar-valued
// function of `params`.
void CheckGradients(const std::vector<Tensor>& params,
                    const std::function<Tensor()>& fn, float eps = 1e-3f,
                    float tol = 2e-2f) {
  for (const Tensor& p : params) {
    Tensor copy = p;
    std::fill(copy.mutable_grad().begin(), copy.mutable_grad().end(), 0.0f);
  }
  Tensor loss = fn();
  ASSERT_EQ(loss.NumElements(), 1);
  loss.Backward();
  loss.DetachGraph();
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Tensor p = params[pi];
    ASSERT_FALSE(p.grad().empty()) << "param " << pi << " has no grad";
    for (size_t i = 0; i < p.data().size(); ++i) {
      const float orig = p.data()[i];
      p.mutable_data()[i] = orig + eps;
      const float up = EvalAndRelease(fn);
      p.mutable_data()[i] = orig - eps;
      const float down = EvalAndRelease(fn);
      p.mutable_data()[i] = orig;
      const float numeric = (up - down) / (2 * eps);
      const float analytic = p.grad()[i];
      EXPECT_NEAR(analytic, numeric, tol * std::max(1.0f, std::fabs(numeric)))
          << "param " << pi << " element " << i;
    }
  }
}

Tensor RandomParam(std::vector<int> shape, Rng* rng) {
  return Tensor::Randn(std::move(shape), 0.5f, rng, /*requires_grad=*/true);
}

TEST(TensorTest, ConstructionAndShape) {
  Tensor t({2, 3});
  EXPECT_EQ(t.NumElements(), 6);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(-1), 3);
  EXPECT_EQ(t.ShapeString(), "Tensor[2, 3]");
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorTest, FullAndScalar) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (float v : t.data()) EXPECT_EQ(v, 2.5f);
  EXPECT_EQ(Tensor::Scalar(3.0f).item(), 3.0f);
}

TEST(TensorTest, AddForward) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {10, 20});
  Tensor c = ops::Add(a, b);
  EXPECT_EQ(c.data()[0], 11);
  EXPECT_EQ(c.data()[1], 22);
}

TEST(TensorGradTest, AddGrad) {
  Rng rng(1);
  Tensor a = RandomParam({3}, &rng);
  Tensor b = RandomParam({3}, &rng);
  CheckGradients({a, b}, [&] { return ops::Sum(ops::Add(a, b)); });
}

TEST(TensorGradTest, MulGrad) {
  Rng rng(2);
  Tensor a = RandomParam({4}, &rng);
  Tensor b = RandomParam({4}, &rng);
  CheckGradients({a, b}, [&] { return ops::Sum(ops::Mul(a, b)); });
}

TEST(TensorGradTest, ScaleAndAddScalarGrad) {
  Rng rng(3);
  Tensor a = RandomParam({5}, &rng);
  CheckGradients({a}, [&] {
    return ops::Sum(ops::AddScalar(ops::Scale(a, 2.5f), 1.0f));
  });
}

TEST(TensorGradTest, AddBroadcastGrad) {
  Rng rng(4);
  Tensor a = RandomParam({2, 3}, &rng);
  Tensor b = RandomParam({3}, &rng);
  CheckGradients({a, b}, [&] { return ops::Sum(ops::AddBroadcast(a, b)); });
}

TEST(TensorTest, MatMul2D) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor c = ops::MatMul(a, b);
  EXPECT_EQ(c.data()[0], 19);
  EXPECT_EQ(c.data()[1], 22);
  EXPECT_EQ(c.data()[2], 43);
  EXPECT_EQ(c.data()[3], 50);
}

TEST(TensorTest, MatMulTransposeBMatchesManual) {
  Tensor a({1, 3}, {1, 2, 3});
  Tensor b({2, 3}, {4, 5, 6, 7, 8, 9});
  Tensor c = ops::MatMulTransposeB(a, b);
  EXPECT_EQ(c.dim(1), 2);
  EXPECT_FLOAT_EQ(c.data()[0], 32);
  EXPECT_FLOAT_EQ(c.data()[1], 50);
}

TEST(TensorGradTest, MatMulGrad) {
  Rng rng(5);
  Tensor a = RandomParam({2, 3}, &rng);
  Tensor b = RandomParam({3, 2}, &rng);
  CheckGradients({a, b}, [&] { return ops::Sum(ops::MatMul(a, b)); });
}

TEST(TensorGradTest, MatMulFoldedLeadingDimsGrad) {
  Rng rng(6);
  Tensor a = RandomParam({2, 2, 3}, &rng);
  Tensor b = RandomParam({3, 2}, &rng);
  CheckGradients({a, b}, [&] { return ops::Sum(ops::MatMul(a, b)); });
}

TEST(TensorGradTest, BatchedMatMulGrad) {
  Rng rng(7);
  Tensor a = RandomParam({2, 2, 3}, &rng);
  Tensor b = RandomParam({2, 3, 2}, &rng);
  CheckGradients({a, b}, [&] { return ops::Sum(ops::MatMul(a, b)); });
}

TEST(TensorGradTest, MatMulTransposeBGrad) {
  Rng rng(8);
  Tensor a = RandomParam({2, 3}, &rng);
  Tensor b = RandomParam({4, 3}, &rng);
  CheckGradients({a, b}, [&] {
    return ops::Sum(ops::MatMulTransposeB(a, b));
  });
}

TEST(TensorGradTest, BatchedMatMulTransposeBGrad) {
  Rng rng(9);
  Tensor a = RandomParam({2, 2, 3}, &rng);
  Tensor b = RandomParam({2, 4, 3}, &rng);
  CheckGradients({a, b}, [&] {
    return ops::Sum(ops::MatMulTransposeB(a, b));
  });
}

TEST(TensorTest, SoftmaxRowsSumToOne) {
  Rng rng(10);
  Tensor x = Tensor::Randn({3, 5}, 2.0f, &rng);
  Tensor y = ops::Softmax(x);
  for (int r = 0; r < 3; ++r) {
    float sum = 0;
    for (int c = 0; c < 5; ++c) sum += y.data()[static_cast<size_t>(r) * 5 + c];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(TensorGradTest, SoftmaxGrad) {
  Rng rng(11);
  Tensor x = RandomParam({2, 4}, &rng);
  Tensor w = RandomParam({2, 4}, &rng);
  // Weighted sum makes the gradient non-trivial.
  CheckGradients({x}, [&] { return ops::Sum(ops::Mul(ops::Softmax(x), w)); });
}

TEST(TensorTest, MaskedSoftmaxMasksPaddingAndFuture) {
  Tensor scores = Tensor::Zeros({1, 1, 2, 3});
  std::vector<int> key_lengths = {2};
  Tensor y = ops::MaskedSoftmax(scores, key_lengths, /*causal=*/true);
  // Query 0 attends only key 0.
  EXPECT_NEAR(y.data()[0], 1.0f, 1e-6f);
  EXPECT_EQ(y.data()[1], 0.0f);
  EXPECT_EQ(y.data()[2], 0.0f);
  // Query 1 attends keys 0,1 (key 2 padded).
  EXPECT_NEAR(y.data()[3], 0.5f, 1e-6f);
  EXPECT_NEAR(y.data()[4], 0.5f, 1e-6f);
  EXPECT_EQ(y.data()[5], 0.0f);
}

TEST(TensorGradTest, MaskedSoftmaxGrad) {
  Rng rng(12);
  Tensor x = RandomParam({1, 2, 2, 3}, &rng);
  Tensor w = RandomParam({1, 2, 2, 3}, &rng);
  std::vector<int> lens = {3};
  CheckGradients({x}, [&] {
    return ops::Sum(ops::Mul(ops::MaskedSoftmax(x, lens, true), w));
  });
}

TEST(TensorGradTest, RmsNormGrad) {
  Rng rng(13);
  Tensor x = RandomParam({2, 4}, &rng);
  Tensor w = RandomParam({4}, &rng);
  CheckGradients({x, w}, [&] { return ops::Sum(ops::RmsNorm(x, w)); });
}

TEST(TensorGradTest, LayerNormGrad) {
  Rng rng(14);
  Tensor x = RandomParam({2, 4}, &rng);
  Tensor g = RandomParam({4}, &rng);
  Tensor b = RandomParam({4}, &rng);
  Tensor w = RandomParam({2, 4}, &rng);
  CheckGradients({x, g, b}, [&] {
    return ops::Sum(ops::Mul(ops::LayerNorm(x, g, b), w));
  });
}

TEST(TensorGradTest, ActivationGrads) {
  Rng rng(15);
  Tensor x = RandomParam({6}, &rng);
  CheckGradients({x}, [&] { return ops::Sum(ops::Relu(x)); }, 1e-3f, 5e-2f);
  CheckGradients({x}, [&] { return ops::Sum(ops::Gelu(x)); });
  CheckGradients({x}, [&] { return ops::Sum(ops::Sigmoid(x)); });
  CheckGradients({x}, [&] { return ops::Sum(ops::Tanh(x)); });
}

TEST(TensorGradTest, EmbeddingGrad) {
  Rng rng(16);
  Tensor table = RandomParam({5, 3}, &rng);
  std::vector<int> ids = {1, 3, 1};
  CheckGradients({table}, [&] { return ops::Sum(ops::Embedding(table, ids)); });
}

TEST(TensorTest, EmbeddingGathersRows) {
  Tensor table({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor out = ops::Embedding(table, {2, 0});
  EXPECT_EQ(out.data()[0], 5);
  EXPECT_EQ(out.data()[1], 6);
  EXPECT_EQ(out.data()[2], 1);
  EXPECT_EQ(out.data()[3], 2);
}

TEST(TensorGradTest, CrossEntropyGrad) {
  Rng rng(17);
  Tensor logits = RandomParam({3, 4}, &rng);
  std::vector<int> targets = {0, -100, 2};  // middle row ignored
  CheckGradients({logits}, [&] {
    return ops::CrossEntropyLoss(logits, targets, -100);
  });
}

TEST(TensorTest, CrossEntropyIgnoresMaskedRows) {
  Tensor logits({2, 2}, {10, 0, 0, 10});
  Tensor loss1 = ops::CrossEntropyLoss(logits, {0, -100}, -100);
  Tensor loss2 = ops::CrossEntropyLoss(logits, {0, 0}, -100);
  EXPECT_LT(loss1.item(), loss2.item());
}

TEST(TensorGradTest, ReshapeSplitMergeHeadsGrad) {
  Rng rng(18);
  Tensor x = RandomParam({4, 6}, &rng);  // batch 2, seq 2, d=6, heads 3
  Tensor w = RandomParam({4, 6}, &rng);
  CheckGradients({x}, [&] {
    Tensor split = ops::SplitHeads(x, 2, 2, 3);
    Tensor merged = ops::MergeHeads(split);
    return ops::Sum(ops::Mul(merged, w));
  });
}

TEST(TensorTest, SplitMergeHeadsRoundTrip) {
  Rng rng(19);
  Tensor x = Tensor::Randn({6, 4}, 1.0f, &rng);  // batch 2, seq 3, heads 2
  Tensor round = ops::MergeHeads(ops::SplitHeads(x, 2, 3, 2));
  for (size_t i = 0; i < x.data().size(); ++i) {
    EXPECT_FLOAT_EQ(round.data()[i], x.data()[i]);
  }
}

TEST(TensorGradTest, ConcatGatherTransposeGrad) {
  Rng rng(20);
  Tensor a = RandomParam({2, 3}, &rng);
  Tensor b = RandomParam({1, 3}, &rng);
  CheckGradients({a, b}, [&] {
    Tensor cat = ops::ConcatRows({a, b});
    Tensor picked = ops::GatherRows(cat, {2, 0, 0});
    return ops::Sum(ops::Transpose2D(picked));
  });
}

TEST(TensorTest, DropoutInferenceIsIdentity) {
  Rng rng(21);
  NoGradGuard guard;
  Tensor x = Tensor::Randn({10}, 1.0f, &rng);
  Tensor y = ops::Dropout(x, 0.5f, &rng);
  for (size_t i = 0; i < x.data().size(); ++i) {
    EXPECT_EQ(y.data()[i], x.data()[i]);
  }
}

TEST(TensorTest, DropoutTrainScalesKeptUnits) {
  Rng rng(22);
  Tensor x = Tensor::Full({1000}, 1.0f, /*requires_grad=*/true);
  Tensor y = ops::Dropout(x, 0.25f, &rng);
  int zeros = 0;
  for (float v : y.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.75f, 1e-5f);
    }
  }
  EXPECT_GT(zeros, 150);
  EXPECT_LT(zeros, 350);
}

TEST(TensorTest, NoGradGuardSuppressesGraph) {
  Tensor a = Tensor::Full({2}, 1.0f, /*requires_grad=*/true);
  NoGradGuard guard;
  Tensor b = ops::Scale(a, 2.0f);
  EXPECT_FALSE(b.requires_grad());
}

TEST(TensorTest, BackwardAccumulatesThroughSharedNode) {
  Tensor a = Tensor::Full({1}, 3.0f, /*requires_grad=*/true);
  Tensor b = ops::Add(a, a);  // d/da = 2
  Tensor loss = ops::Sum(b);
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
}

TEST(TensorTest, DetachGraphReleasesHistory) {
  Tensor a = Tensor::Full({2}, 1.0f, /*requires_grad=*/true);
  Tensor b = ops::Scale(ops::Add(a, a), 2.0f);
  Tensor loss = ops::Sum(b);
  EXPECT_FALSE(loss.impl()->parents.empty());
  loss.DetachGraph();
  EXPECT_TRUE(loss.impl()->parents.empty());
  EXPECT_TRUE(b.impl()->parents.empty());
  EXPECT_FALSE(static_cast<bool>(b.impl()->backward_fn));
}

// A graph dropped without Backward or DetachGraph frees every node it
// holds, parameters included once their last handle goes.
TEST(TensorTest, DroppedGraphIsFreedWithoutDetach) {
  std::weak_ptr<TensorImpl> output;
  std::weak_ptr<TensorImpl> intermediate;
  std::weak_ptr<TensorImpl> parameter;
  {
    Rng rng(5);
    Tensor table = RandomParam({6, 4}, &rng);
    Tensor gain = RandomParam({4}, &rng);
    Tensor w = RandomParam({4, 6}, &rng);
    Tensor hidden = ops::RmsNorm(ops::Embedding(table, {1, 3, 5}), gain);
    Tensor loss = ops::CrossEntropyLoss(ops::MatMul(ops::Gelu(hidden), w),
                                        {2, 0, 4});
    output = loss.impl();
    intermediate = hidden.impl();
    parameter = table.impl();
  }
  EXPECT_TRUE(output.expired());
  EXPECT_TRUE(intermediate.expired());
  EXPECT_TRUE(parameter.expired());
}

// ---------------------------------------------------------------------------
// Chunk-boundary gradient checks. The rt-parallel kernels split their row
// space into grain-sized chunks; these shapes put the row count exactly at
// the boundaries the partition produces (one row, one chunk per thread, and
// threads*grain+1 so one chunk holds a single straggler row) and verify the
// gradients still match finite differences.
// ---------------------------------------------------------------------------

class BlockingBoundaryGradTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { rt::SetThreads(4); }
  void TearDown() override { rt::SetThreads(1); }
  static constexpr int kThreads = 4;
};

TEST_P(BlockingBoundaryGradTest, MatMulAtBoundaryRows) {
  const int k = 3, n = 2;
  const int grain = ops::GemmRowGrain(k, n);
  const int ms[] = {1, kThreads, kThreads * grain + 1};
  const int m = ms[GetParam()];
  Rng rng(7 + m);
  Tensor a = RandomParam({m, k}, &rng);
  Tensor b = RandomParam({k, n}, &rng);
  CheckGradients({a, b}, [&] { return ops::Sum(ops::MatMul(a, b)); });
}

TEST_P(BlockingBoundaryGradTest, MatMulTransposeBAtBoundaryRows) {
  const int k = 3, n = 2;
  const int grain = ops::GemmRowGrain(k, n);
  const int ms[] = {1, kThreads, kThreads * grain + 1};
  const int m = ms[GetParam()];
  Rng rng(11 + m);
  Tensor a = RandomParam({m, k}, &rng);
  Tensor b = RandomParam({n, k}, &rng);
  CheckGradients({a, b},
                 [&] { return ops::Sum(ops::MatMulTransposeB(a, b)); });
}

TEST_P(BlockingBoundaryGradTest, SoftmaxAtBoundaryRows) {
  const int d = 4;
  const int grain = ops::RowOpGrain(d);
  const int ms[] = {1, kThreads, kThreads * grain + 1};
  const int m = ms[GetParam()];
  Rng rng(13 + m);
  Tensor x = RandomParam({m, d}, &rng);
  Tensor w = RandomParam({m, d}, &rng);
  w.set_requires_grad(false);
  CheckGradients({x}, [&] { return ops::Sum(ops::Mul(ops::Softmax(x), w)); });
}

TEST_P(BlockingBoundaryGradTest, RmsNormAtBoundaryRows) {
  const int d = 4;
  const int grain = ops::RowOpGrain(d);
  const int ms[] = {1, kThreads, kThreads * grain + 1};
  const int m = ms[GetParam()];
  Rng rng(17 + m);
  Tensor x = RandomParam({m, d}, &rng);
  Tensor w = RandomParam({d}, &rng);
  // The weight gradient crosses chunk boundaries — exactly the path that
  // uses the fixed-order chunk-scratch reduction.
  CheckGradients({x, w}, [&] { return ops::Sum(ops::RmsNorm(x, w)); });
}

INSTANTIATE_TEST_SUITE_P(Shapes, BlockingBoundaryGradTest,
                         ::testing::Range(0, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           if (info.param == 0) return std::string("one_row");
                           if (info.param == 1)
                             return std::string("threads_rows");
                           return std::string("straggler_chunk");
                         });

// ---------------------------------------------------------------------------
// Zero-sized GEMM regressions. [M, 0] x [0, N] is a legitimate degenerate
// contraction (empty inner dim -> all-zero [M, N] output); the row count
// used to be derived as NumElements()/K, which divided by zero here.
// ---------------------------------------------------------------------------

TEST(TensorTest, MatMulZeroInnerDimGivesZeros) {
  Tensor a({2, 0}, std::vector<float>{});
  Tensor b({0, 3}, std::vector<float>{});
  Tensor c = ops::MatMul(a, b);
  EXPECT_EQ(c.shape(), (std::vector<int>{2, 3}));
  for (float v : c.data()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorTest, MatMulTransposeBZeroInnerDimGivesZeros) {
  Tensor a({2, 0}, std::vector<float>{});
  Tensor b({3, 0}, std::vector<float>{});
  Tensor c = ops::MatMulTransposeB(a, b);
  EXPECT_EQ(c.shape(), (std::vector<int>{2, 3}));
  for (float v : c.data()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorTest, MatMulZeroRowsAndZeroCols) {
  {
    Tensor a({0, 3}, std::vector<float>{});
    Tensor b = Tensor::Full({3, 2}, 1.0f);
    Tensor c = ops::MatMul(a, b);
    EXPECT_EQ(c.shape(), (std::vector<int>{0, 2}));
    EXPECT_EQ(c.NumElements(), 0);
  }
  {
    Tensor a = Tensor::Full({2, 3}, 1.0f);
    Tensor b({3, 0}, std::vector<float>{});
    Tensor c = ops::MatMul(a, b);
    EXPECT_EQ(c.shape(), (std::vector<int>{2, 0}));
    EXPECT_EQ(c.NumElements(), 0);
  }
}

TEST(TensorGradTest, MatMulZeroInnerDimBackwardIsSafe) {
  Tensor a({2, 0}, std::vector<float>{}, /*requires_grad=*/true);
  Tensor b({0, 3}, std::vector<float>{}, /*requires_grad=*/true);
  Tensor loss = ops::Sum(ops::MatMul(a, b));
  loss.Backward();
  EXPECT_EQ(loss.item(), 0.0f);
  EXPECT_TRUE(a.grad().empty());
  EXPECT_TRUE(b.grad().empty());
}

TEST(OptimizerTest, AdamWReducesQuadraticLoss) {
  Tensor w = Tensor::Full({3}, 5.0f, /*requires_grad=*/true);
  AdamW::Options opts;
  opts.lr = 0.1f;
  opts.weight_decay = 0.0f;
  AdamW optimizer({w}, opts);
  float first_loss = 0;
  float last_loss = 0;
  for (int step = 0; step < 200; ++step) {
    optimizer.ZeroGrad();
    Tensor loss = ops::Sum(ops::Mul(w, w));
    if (step == 0) first_loss = loss.item();
    last_loss = loss.item();
    loss.Backward();
    optimizer.Step();
  }
  EXPECT_LT(last_loss, first_loss * 0.01f);
}

TEST(OptimizerTest, ClipGradNormRescales) {
  Tensor w = Tensor::Full({4}, 1.0f, /*requires_grad=*/true);
  w.mutable_grad().assign(4, 3.0f);  // norm 6
  AdamW optimizer({w}, {});
  const float norm = optimizer.ClipGradNorm(1.0f);
  EXPECT_NEAR(norm, 6.0f, 1e-4f);
  float new_norm = 0;
  for (float g : w.grad()) new_norm += g * g;
  EXPECT_NEAR(std::sqrt(new_norm), 1.0f, 1e-4f);
}

TEST(OptimizerTest, LinearWarmupSchedule) {
  LinearWarmupSchedule sched(1.0f, 10, 110);
  EXPECT_NEAR(sched.LrAt(0), 0.1f, 1e-6f);
  EXPECT_NEAR(sched.LrAt(9), 1.0f, 1e-6f);
  EXPECT_NEAR(sched.LrAt(60), 0.5f, 1e-6f);
  EXPECT_EQ(sched.LrAt(110), 0.0f);
}

// warmup == total (warmup_fraction = 1.0) used to divide by zero in the
// decay branch, handing the optimizer an inf/NaN learning rate for every
// post-warmup step.
TEST(OptimizerTest, LinearWarmupScheduleFullWarmupStaysFinite) {
  LinearWarmupSchedule all_warmup(0.5f, 100, 100);
  for (int64_t step : {int64_t{0}, int64_t{50}, int64_t{99}}) {
    const float lr = all_warmup.LrAt(step);
    EXPECT_TRUE(std::isfinite(lr)) << "step " << step;
    EXPECT_GT(lr, 0.0f) << "step " << step;
  }
  EXPECT_EQ(all_warmup.LrAt(99), 0.5f);   // final warmup step hits the peak
  EXPECT_EQ(all_warmup.LrAt(100), 0.0f);  // past the end stays zero
  // warmup > total (rounding artifacts upstream) must also stay finite.
  LinearWarmupSchedule over(0.5f, 7, 5);
  EXPECT_TRUE(std::isfinite(over.LrAt(4)));
  EXPECT_GT(over.LrAt(4), 0.0f);
}

// Export/import of the AdamW moments and step count continues a run
// bit-exactly: an optimizer rebuilt from exported state must take the same
// next step as the original (bias correction depends on the step count).
TEST(OptimizerTest, ImportStateContinuesBitExactly) {
  AdamW::Options opts;
  opts.lr = 0.05f;
  Tensor wa = Tensor::Full({3}, 2.0f, /*requires_grad=*/true);
  AdamW a({wa}, opts);
  for (int step = 0; step < 3; ++step) {
    a.ZeroGrad();
    Tensor loss = ops::Sum(ops::Mul(wa, wa));
    loss.Backward();
    a.Step();
  }

  // Fresh parameter + optimizer, rebuilt purely from exported state.
  Tensor wb = Tensor::Full({3}, 0.0f, /*requires_grad=*/true);
  wb.mutable_data() = wa.data();
  AdamW b({wb}, opts);
  ASSERT_TRUE(b.ImportState(a.step_count(), a.moments_m(), a.moments_v()).ok());
  EXPECT_EQ(b.step_count(), a.step_count());

  auto advance = [](AdamW* opt, Tensor* w) {
    opt->ZeroGrad();
    Tensor loss = ops::Sum(ops::Mul(*w, *w));
    loss.Backward();
    opt->Step();
  };
  advance(&a, &wa);
  advance(&b, &wb);
  ASSERT_EQ(wa.data().size(), wb.data().size());
  for (size_t i = 0; i < wa.data().size(); ++i) {
    EXPECT_EQ(wa.data()[i], wb.data()[i]) << "element " << i;
  }
}

TEST(OptimizerTest, ImportStateRejectsMismatchedState) {
  Tensor w = Tensor::Full({3}, 1.0f, /*requires_grad=*/true);
  AdamW opt({w}, {});
  // Wrong tensor count.
  EXPECT_FALSE(opt.ImportState(1, {}, {}).ok());
  // Wrong per-tensor size.
  EXPECT_FALSE(opt.ImportState(1, {{0.f, 0.f}}, {{0.f, 0.f}}).ok());
  // Negative step count.
  EXPECT_FALSE(
      opt.ImportState(-1, {{0.f, 0.f, 0.f}}, {{0.f, 0.f, 0.f}}).ok());
  // A rejected import leaves the optimizer untouched.
  EXPECT_EQ(opt.step_count(), 0);
  EXPECT_TRUE(
      opt.ImportState(2, {{1.f, 2.f, 3.f}}, {{4.f, 5.f, 6.f}}).ok());
  EXPECT_EQ(opt.step_count(), 2);
  EXPECT_EQ(opt.moments_m()[0], (std::vector<float>{1.f, 2.f, 3.f}));
}

// ------------------------------------------------------- int8 quantization

// Reference replica of the documented quantizer semantics: per-output-column
// symmetric amax/127 scale, round-to-nearest with ties away from zero.
// QuantizeWeights must match it code-for-code — any drift silently changes
// every int8 decode.
std::pair<std::vector<int8_t>, std::vector<float>> ReferenceQuantize(
    const Tensor& w) {
  const int k = w.dim(0), n = w.dim(1);
  std::vector<int8_t> codes(static_cast<size_t>(k) * n);
  std::vector<float> scales(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    float amax = 0.0f;
    for (int p = 0; p < k; ++p) {
      amax = std::max(amax, std::fabs(w.data()[p * n + j]));
    }
    scales[static_cast<size_t>(j)] = amax > 0 ? amax / 127.0f : 0.0f;
    for (int p = 0; p < k; ++p) {
      const float s = scales[static_cast<size_t>(j)];
      long code = s > 0 ? std::lround(w.data()[p * n + j] / s) : 0;
      code = std::min<long>(127, std::max<long>(-127, code));
      codes[static_cast<size_t>(p) * n + j] = static_cast<int8_t>(code);
    }
  }
  return {std::move(codes), std::move(scales)};
}

TEST(QuantizeWeights, MatchesReferenceQuantizerExactly) {
  Rng rng(7);
  Tensor w = Tensor::Randn({13, 9}, 0.5f, &rng);
  // Edge columns: all-zero (scale 0) and a single dominant entry.
  for (int p = 0; p < 13; ++p) w.mutable_data()[p * 9 + 4] = 0.0f;
  w.mutable_data()[3 * 9 + 7] = 100.0f;
  const ops::QuantizedMatrix q = ops::QuantizeWeights(w);
  auto [codes, scales] = ReferenceQuantize(w);
  ASSERT_EQ(q.k, 13);
  ASSERT_EQ(q.n, 9);
  EXPECT_EQ(q.data, codes);
  EXPECT_EQ(q.scales, scales);
}

TEST(QuantizeWeights, RoundTripErrorBoundedByHalfScale) {
  Rng rng(8);
  Tensor w = Tensor::Randn({24, 16}, 1.0f, &rng);
  const ops::QuantizedMatrix q = ops::QuantizeWeights(w);
  Tensor back = ops::DequantizeWeights(q);
  ASSERT_EQ(back.shape(), w.shape());
  for (int p = 0; p < 24; ++p) {
    for (int j = 0; j < 16; ++j) {
      const float err = std::fabs(back.data()[p * 16 + j] -
                                  w.data()[p * 16 + j]);
      // Round-to-nearest puts every entry within half a step of its code.
      EXPECT_LE(err, q.scales[static_cast<size_t>(j)] * 0.5f + 1e-7f)
          << "(" << p << ", " << j << ")";
    }
  }
}

TEST(QuantizeWeights, ZeroColumnQuantizesToExactZero) {
  Tensor w = Tensor::Zeros({5, 3});
  w.mutable_data()[0 * 3 + 1] = 2.0f;  // column 1 non-zero, 0 and 2 all-zero
  const ops::QuantizedMatrix q = ops::QuantizeWeights(w);
  EXPECT_EQ(q.scales[0], 0.0f);
  EXPECT_EQ(q.scales[2], 0.0f);
  Tensor back = ops::DequantizeWeights(q);
  for (int p = 0; p < 5; ++p) {
    EXPECT_EQ(back.data()[p * 3 + 0], 0.0f);
    EXPECT_EQ(back.data()[p * 3 + 2], 0.0f);
  }
  EXPECT_EQ(back.data()[0 * 3 + 1], 2.0f);
}

TEST(MatMulInt8, MatchesFloatMatMulOverDequantizedWeights) {
  // MatMulInt8 fuses the scale into the store; the unfused reference is a
  // float MatMul against the dequantized matrix. They run the same fma
  // chains over values that are exactly representable either way, so the
  // outputs must agree to within one rounding of the final scale multiply.
  NoGradGuard inference;
  Rng rng(9);
  Tensor a = Tensor::Randn({6, 24}, 1.0f, &rng);
  Tensor w = Tensor::Randn({24, 16}, 0.3f, &rng);
  const ops::QuantizedMatrix q = ops::QuantizeWeights(w);
  Tensor fused = ops::MatMulInt8(a, q);
  Tensor unfused = ops::MatMul(a, ops::DequantizeWeights(q));
  ASSERT_EQ(fused.shape(), unfused.shape());
  for (size_t i = 0; i < fused.data().size(); ++i) {
    const float tol = 1e-5f * (std::fabs(unfused.data()[i]) + 1.0f);
    EXPECT_NEAR(fused.data()[i], unfused.data()[i], tol) << "element " << i;
  }
}

TEST(MatMulInt8, BitIdenticalAcrossThreadCountsAndGroupings) {
  NoGradGuard inference;
  Rng rng(10);
  // 9 rows: one 8-row panel + a single-row tail at width 4; row-at-a-time
  // when the grain splits differently at width 1.
  Tensor a = Tensor::Randn({9, 32}, 1.0f, &rng);
  const ops::QuantizedMatrix q =
      ops::QuantizeWeights(Tensor::Randn({32, 24}, 0.5f, &rng));
  rt::SetThreads(1);
  const std::vector<float> serial = ops::MatMulInt8(a, q).data();
  rt::SetThreads(4);
  const std::vector<float> parallel = ops::MatMulInt8(a, q).data();
  rt::SetThreads(1);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace vist5
