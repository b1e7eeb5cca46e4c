#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "rt/thread_pool.h"

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

Tensor RelativePositionBias::ForwardBatched(
    const std::vector<int>& query_positions, int span, int tk) const {
  VIST5_CHECK(!GradEnabled()) << "ForwardBatched is inference-only";
  const int b = static_cast<int>(query_positions.size());
  const float* table = table_.data().data();
  // Bias values are copied straight out of the learned table — the same
  // floats Forward() would gather — so every decode step sees exactly the
  // bias the teacher-forced Decode adds at those positions.
  std::vector<float> out(static_cast<size_t>(b) * heads_ * span * tk, 0.0f);
  const size_t row_elems = static_cast<size_t>(heads_) * span * tk;
  int prev_q = -1;
  for (int bi = 0; bi < b; ++bi) {
    const int q0 = query_positions[bi];
    VIST5_CHECK_LE(q0 + span, tk);
    float* row = out.data() + static_cast<size_t>(bi) * row_elems;
    if (q0 == prev_q) {
      // Rows at the same position share the whole [H, span, tk] slab — copy
      // the floats just computed instead of re-deriving every bucket.
      // Beams and GenerateBatch's first step put every row at one position,
      // so this turns the O(B * tk) Bucket() walk into a single walk plus
      // B - 1 memcpys.
      std::copy_n(row - row_elems, row_elems, row);
      continue;
    }
    prev_q = q0;
    for (int i = 0; i < span; ++i) {
      const int q = q0 + i;
      for (int k = 0; k <= q; ++k) {
        const int bucket =
            Bucket(k - q, bidirectional_, num_buckets_, max_distance_);
        for (int h = 0; h < heads_; ++h) {
          row[(static_cast<size_t>(h) * span + i) * tk + k] =
              table[static_cast<size_t>(bucket) * heads_ + h];
        }
      }
    }
  }
  return Tensor({b, heads_, span, tk}, std::move(out));
}

MultiHeadAttention::MultiHeadAttention(int dim, int heads, bool bias,
                                       bool scale_scores, Rng* rng)
    : dim_(dim),
      heads_(heads),
      scale_scores_(scale_scores),
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
  Tensor k, v;
  ProjectKv(memory, args.batch, args.tk, &k, &v);
  return ForwardCached(query, k, v, args);
}

void MultiHeadAttention::ProjectKv(const Tensor& memory, int batch, int tk,
                                   Tensor* k, Tensor* v) const {
  *k = ops::SplitHeads(wk_.Forward(memory), batch, tk, heads_);
  *v = ops::SplitHeads(wv_.Forward(memory), batch, tk, heads_);
}

Tensor MultiHeadAttention::ForwardCached(const Tensor& query, const Tensor& k,
                                         const Tensor& v,
                                         const ForwardArgs& args) const {
  VIST5_TRACE_SPAN("nn/attention");
  VIST5_CHECK(args.key_lengths != nullptr);
  VIST5_CHECK_EQ(static_cast<int>(args.key_lengths->size()), args.batch);
  VIST5_CHECK_EQ(k.dim(2), args.tk);
  const int dh = dim_ / heads_;

  Tensor q = ops::SplitHeads(wq_.Forward(query), args.batch, args.tq, heads_);

  // Decode steps bound the score and context products by each (row,
  // query)'s visible-key count — the same prefix MaskedSoftmax keeps. The
  // bounded ops run the identical row kernels on the identical elements,
  // so results match the unbounded products bit-for-bit while skipping the
  // masked tail: with preallocated KV capacity (continuous batching) that
  // halves the K/V stream per step on average, and a cache's stale tail
  // past a row's position (DecodeState::TruncateTo) is never read.
  const bool bounded = args.query_positions != nullptr;
  std::vector<int> valid;
  if (bounded) {
    valid.resize(static_cast<size_t>(args.batch) * args.tq);
    for (int b = 0; b < args.batch; ++b) {
      const int len = std::min((*args.key_lengths)[static_cast<size_t>(b)],
                               args.tk);
      const int q0 = (*args.query_positions)[static_cast<size_t>(b)];
      for (int i = 0; i < args.tq; ++i) {
        const int n = args.causal ? std::min(len, q0 + i + 1) : len;
        valid[static_cast<size_t>(b) * args.tq + i] = std::max(n, 0);
      }
    }
  }
  Tensor scores = bounded ? ops::BoundedAttnScores(q, k, valid)
                          : ops::MatMulTransposeB(q, k);  // [B, H, Tq, Tk]
  if (scale_scores_) {
    scores = ops::Scale(scores, 1.0f / std::sqrt(static_cast<float>(dh)));
  }
  if (args.position_bias != nullptr) {
    scores = args.position_bias->ndim() == 4
                 ? ops::Add(scores, *args.position_bias)
                 : ops::AddBroadcast(scores, *args.position_bias);
  }
  Tensor attn = ops::MaskedSoftmax(scores, *args.key_lengths, args.causal,
                                   args.query_positions);
  if (args.dropout_p > 0.0f && args.rng != nullptr) {
    attn = ops::Dropout(attn, args.dropout_p, args.rng);
  }
  Tensor context = bounded ? ops::BoundedAttnContext(attn, v, valid)
                           : ops::MatMul(attn, v);  // [B, H, Tq, dh]
  Tensor merged = ops::MergeHeads(context);   // [B*Tq, d]
  return wo_.Forward(merged);
}

}  // namespace nn
}  // namespace vist5
