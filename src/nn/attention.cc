#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "rt/thread_pool.h"
#include "tensor/simd.h"

namespace vist5 {
namespace nn {

RelativePositionBias::RelativePositionBias(int num_buckets, int max_distance,
                                           int heads, bool bidirectional,
                                           Rng* rng)
    : num_buckets_(num_buckets),
      max_distance_(max_distance),
      heads_(heads),
      bidirectional_(bidirectional) {
  table_ = RegisterParameter(
      "table", Tensor::Randn({num_buckets, heads}, 0.02f, rng,
                             /*requires_grad=*/true));
}

int RelativePositionBias::Bucket(int relative_position, bool bidirectional,
                                 int num_buckets, int max_distance) {
  int bucket = 0;
  int n = relative_position;
  if (bidirectional) {
    num_buckets /= 2;
    if (n > 0) bucket += num_buckets;
    n = std::abs(n);
  } else {
    // Unidirectional (decoder): positive relative positions (future keys)
    // are clamped to zero; only the past is distinguished.
    n = -std::min(n, 0);
  }
  const int max_exact = num_buckets / 2;
  if (n < max_exact) {
    bucket += n;
  } else {
    // Larger distances share log-spaced buckets.
    const float ratio = std::log(static_cast<float>(n) / max_exact) /
                        std::log(static_cast<float>(max_distance) / max_exact);
    int large = max_exact + static_cast<int>(ratio * (num_buckets - max_exact));
    large = std::min(large, num_buckets - 1);
    bucket += large;
  }
  return bucket;
}

Tensor RelativePositionBias::Forward(int tq, int tk) const {
  std::vector<int> buckets(static_cast<size_t>(tq) * tk);
  rt::ParallelFor(ops::RowOpGrain(tk), 0, tq, [&](int64_t lo, int64_t hi) {
    for (int64_t q = lo; q < hi; ++q) {
      for (int k = 0; k < tk; ++k) {
        const int rel = k - static_cast<int>(q);
        buckets[static_cast<size_t>(q) * tk + k] =
            Bucket(rel, bidirectional_, num_buckets_, max_distance_);
      }
    }
  });
  // [tq*tk, H] -> [H, tq*tk] -> [H, tq, tk]
  Tensor gathered = ops::Embedding(table_, buckets);
  Tensor transposed = ops::Transpose2D(gathered);
  return ops::Reshape(transposed, {heads_, tq, tk});
}

void RelativePositionBias::ExtendDistanceBuckets(
    int n, std::vector<int>* buckets) const {
  for (int d = static_cast<int>(buckets->size()); d < n; ++d) {
    buckets->push_back(
        Bucket(-d, bidirectional_, num_buckets_, max_distance_));
  }
}

MultiHeadAttention::MultiHeadAttention(int dim, int heads, bool bias,
                                       bool scale_scores, Rng* rng)
    : dim_(dim),
      heads_(heads),
      scale_scores_(scale_scores),
      score_scale_(1.0f / std::sqrt(static_cast<float>(dim / heads))),
      wq_(dim, dim, bias, rng),
      wk_(dim, dim, bias, rng),
      wv_(dim, dim, bias, rng),
      wo_(dim, dim, bias, rng) {
  VIST5_CHECK_EQ(dim % heads, 0);
  RegisterModule("wq", &wq_);
  RegisterModule("wk", &wk_);
  RegisterModule("wv", &wv_);
  RegisterModule("wo", &wo_);
}

Tensor MultiHeadAttention::Forward(const Tensor& query, const Tensor& memory,
                                   const ForwardArgs& args) const {
  VIST5_TRACE_SPAN("nn/attention");
  VIST5_CHECK(args.key_lengths != nullptr);
  VIST5_CHECK_EQ(static_cast<int>(args.key_lengths->size()), args.batch);
  Tensor k, v;
  ProjectKv(memory, args.batch, args.tk, &k, &v);
  Tensor q = ops::SplitHeads(wq_.Forward(query), args.batch, args.tq, heads_);
  Tensor scores = ops::MatMulTransposeB(q, k);  // [B, H, Tq, Tk]
  if (scale_scores_) scores = ops::Scale(scores, score_scale_);
  if (args.position_bias != nullptr) {
    scores = ops::AddBroadcast(scores, *args.position_bias);
  }
  Tensor attn = ops::MaskedSoftmax(scores, *args.key_lengths, args.causal);
  if (args.dropout_p > 0.0f && args.rng != nullptr) {
    attn = ops::Dropout(attn, args.dropout_p, args.rng);
  }
  Tensor context = ops::MatMul(attn, v);     // [B, H, Tq, dh]
  Tensor merged = ops::MergeHeads(context);  // [B*Tq, d]
  return wo_.Forward(merged);
}

void MultiHeadAttention::ProjectKv(const Tensor& memory, int batch, int tk,
                                   Tensor* k, Tensor* v) const {
  *k = ops::SplitHeads(wk_.Forward(memory), batch, tk, heads_);
  *v = ops::SplitHeads(wv_.Forward(memory), batch, tk, heads_);
}

namespace {

/// Makes `*cache` a [1, heads, >= needed, dh] tensor that the step may
/// write in place. An undefined cache, one shorter than `needed`, or one
/// whose storage another handle shares is replaced by a copy grown to
/// max(T, needed), zero past its old extent.
void EnsureWritableCache(Tensor* cache, int heads, int needed, int dh) {
  int t = 0;
  if (cache->defined()) {
    VIST5_CHECK_EQ(cache->ndim(), 4);
    VIST5_CHECK_EQ(cache->dim(0), 1);
    VIST5_CHECK_EQ(cache->dim(1), heads);
    VIST5_CHECK_EQ(cache->dim(3), dh);
    t = cache->dim(2);
  }
  if (t >= needed && cache->impl().use_count() == 1) return;
  const int t_new = std::max(t, needed);
  std::vector<float> grown(static_cast<size_t>(heads) * t_new * dh, 0.0f);
  for (int h = 0; t > 0 && h < heads; ++h) {
    std::copy_n(cache->data().data() + static_cast<size_t>(h) * t * dh,
                static_cast<size_t>(t) * dh,
                grown.data() + static_cast<size_t>(h) * t_new * dh);
  }
  *cache = Tensor({1, heads, t_new, dh}, std::move(grown));
}

/// Writes row b's projected step rows `x` [span, d] into its `cache`
/// [1, H, T, dh] at time position + i for query i: the head split and the
/// time scatter in one copy.
void WriteStepRows(const float* x, int span, int position, int heads, int dh,
                   Tensor* cache) {
  const int t = cache->dim(2);
  const int d = heads * dh;
  float* data = cache->mutable_data().data();
  for (int i = 0; i < span; ++i) {
    const float* src = x + static_cast<size_t>(i) * d;
    for (int h = 0; h < heads; ++h) {
      std::copy_n(src + static_cast<size_t>(h) * dh, dh,
                  data + (static_cast<size_t>(h) * t + position + i) * dh);
    }
  }
}

/// The attention rows of one ForwardStep, one per (row, head, query). Each
/// runs Forward's sequence on the keys its query can see in its own row's
/// caches: the score row (the NT kernel accumulating into zeros, as
/// MatMulTransposeB does), the 1/sqrt(dh) scale, then the bias, each
/// rounded on its own, the softmax row, and the context product.
struct AttentionRows {
  const tensor::simd::KernelSet* ks = nullptr;
  const float* q = nullptr;  // [R, d]
  float* ctx = nullptr;      // [R, d]
  float* scores = nullptr;   // [B * H * span, t]
  float* probs = nullptr;    // [B * H * span, t]
  const StepRows* rows = nullptr;
  int layer = 0;
  bool causal = false;
  const float* bias_table = nullptr;  // self-attention with relative bias
  float scale = 1.0f;
  bool scaled = false;
  int heads = 0;
  int t = 0;  // the score rows' stride: the largest row extent
  int dh = 0;

  void Run(int64_t lo, int64_t hi) const {
    const int span = rows->span;
    const int d = heads * dh;
    for (int64_t r = lo; r < hi; ++r) {
      const int b = static_cast<int>(r / (static_cast<int64_t>(heads) * span));
      const int h = static_cast<int>(r / span % heads);
      const int i = static_cast<int>(r % span);
      const LayerCache& cache = rows->cache(b, layer);
      const Tensor& k = causal ? cache.self_k : cache.cross_k;
      const Tensor& v = causal ? cache.self_v : cache.cross_v;
      const int t_row = k.shape()[2];
      const int pos = rows->positions[b] + i;
      const int n = std::clamp(causal ? pos + 1 : rows->memory_lengths[b], 0,
                               t_row);
      const size_t plane = static_cast<size_t>(h) * t_row * dh;
      const size_t qrow =
          (static_cast<size_t>(b) * span + i) * d + static_cast<size_t>(h) * dh;
      float* srow = scores + r * t;
      float* prow = probs + r * t;
      std::fill_n(srow, n, 0.0f);
      ks->gemm_nt(q + qrow, k.data().data() + plane, srow, /*rows=*/1, dh, n);
      if (scaled) {
        for (int j = 0; j < n; ++j) srow[j] *= scale;
      }
      if (bias_table != nullptr) {
        const int* buckets = rows->bias_buckets;
        for (int j = 0; j < n; ++j) {
          srow[j] += bias_table[static_cast<size_t>(buckets[pos - j]) * heads +
                                h];
        }
      }
      ops::SoftmaxRow(srow, prow, n, n);
      ks->gemm_nn_zero(prow, v.data().data() + plane, ctx + qrow, /*rows=*/1,
                       n, dh, dh, dh);
    }
  }
};

}  // namespace

void MultiHeadAttention::ForwardStep(const StepRows& rows, int layer,
                                     const float* x, bool self,
                                     float* out) const {
  VIST5_CHECK(!GradEnabled()) << "ForwardStep is inference-only";
  const int dh = dim_ / heads_;
  const int r = rows.rows();
  int t = 0;
  for (int b = 0; b < rows.batch; ++b) {
    LayerCache& cache = rows.cache(b, layer);
    if (self) {
      VIST5_CHECK_GE(rows.positions[b], 0);
      const int needed = rows.positions[b] + rows.span;
      EnsureWritableCache(&cache.self_k, heads_, needed, dh);
      EnsureWritableCache(&cache.self_v, heads_, needed, dh);
    }
    const Tensor& k = self ? cache.self_k : cache.cross_k;
    VIST5_CHECK(k.shape() == (self ? cache.self_v : cache.cross_v).shape());
    t = std::max(t, k.dim(2));
  }
  const int64_t rd = static_cast<int64_t>(r) * dim_;
  const int64_t attn_rows =
      static_cast<int64_t>(rows.batch) * heads_ * rows.span;
  std::vector<float>& work = *rows.attn_work;
  const size_t need =
      static_cast<size_t>((self ? 4 : 2) * rd + 2 * attn_rows * t);
  if (work.size() < need) work.resize(need);

  AttentionRows a;
  a.ks = &tensor::simd::ActiveKernels();
  float* q = work.data();
  a.q = q;
  a.ctx = q + rd;
  a.scores = a.ctx + rd;
  a.probs = a.scores + attn_rows * t;
  if (self) {
    float* k_rows = a.probs + attn_rows * t;
    float* v_rows = k_rows + rd;
    Linear::ForwardRowsShared(x, r, {{&wq_, q}, {&wk_, k_rows}, {&wv_, v_rows}},
                              rows.slices);
    const int64_t row_floats = static_cast<int64_t>(rows.span) * dim_;
    for (int b = 0; b < rows.batch; ++b) {
      LayerCache& cache = rows.cache(b, layer);
      WriteStepRows(k_rows + b * row_floats, rows.span, rows.positions[b],
                    heads_, dh, &cache.self_k);
      WriteStepRows(v_rows + b * row_floats, rows.span, rows.positions[b],
                    heads_, dh, &cache.self_v);
    }
    a.bias_table = rows.bias_table;
  } else {
    wq_.ForwardRows(x, r, q, rows.slices);
  }
  a.rows = &rows;
  a.layer = layer;
  a.causal = self;
  a.scale = score_scale_;
  a.scaled = scale_scores_;
  a.heads = heads_;
  a.t = t;
  a.dh = dh;
  // A split into 2 chunks costs more hand-off than it saves, so those rows
  // run as one chunk; 3 or more keep their split (docs/PARALLELISM.md).
  const int64_t grain = ops::GemmRowGrain(dh, t);
  rt::ParallelFor(rt::NumChunks(grain, 0, attn_rows) > 2 ? grain : attn_rows,
                  0, attn_rows,
                  [&a](int64_t lo, int64_t hi) { a.Run(lo, hi); });
  wo_.ForwardRows(a.ctx, r, out, rows.slices);
}

}  // namespace nn
}  // namespace vist5
