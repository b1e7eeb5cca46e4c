#include "nn/transformer.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "rt/thread_pool.h"

namespace vist5 {
namespace nn {

TransformerConfig TransformerConfig::T5Small(int vocab_size) {
  TransformerConfig c;
  c.vocab_size = vocab_size;
  c.d_model = 64;
  c.num_heads = 4;
  c.d_ff = 256;
  c.num_encoder_layers = 2;
  c.num_decoder_layers = 2;
  return c;
}

TransformerConfig TransformerConfig::T5Base(int vocab_size) {
  TransformerConfig c;
  c.vocab_size = vocab_size;
  c.d_model = 72;
  c.num_heads = 4;
  c.d_ff = 288;
  c.num_encoder_layers = 2;
  c.num_decoder_layers = 2;
  return c;
}

TransformerConfig TransformerConfig::Vanilla(int vocab_size) {
  TransformerConfig c;
  c.vocab_size = vocab_size;
  c.d_model = 64;
  c.num_heads = 4;
  c.d_ff = 256;
  c.num_encoder_layers = 2;
  c.num_decoder_layers = 2;
  c.norm_style = NormStyle::kPostLayerNorm;
  c.position_style = PositionStyle::kSinusoidal;
  c.tie_embeddings = false;
  c.linear_bias = true;
  return c;
}

TransformerConfig TransformerConfig::BartLike(int vocab_size) {
  TransformerConfig c = Vanilla(vocab_size);
  c.position_style = PositionStyle::kLearned;
  c.activation = FeedForward::Activation::kGelu;
  c.d_model = 80;
  c.num_heads = 4;
  c.d_ff = 320;
  return c;
}

TransformerConfig TransformerConfig::LlmProxy(int vocab_size) {
  TransformerConfig c = T5Base(vocab_size);
  c.d_model = 80;
  c.num_heads = 4;
  c.d_ff = 320;
  c.num_encoder_layers = 3;
  c.num_decoder_layers = 3;
  c.activation = FeedForward::Activation::kGelu;
  return c;
}

namespace {
bool IsPreRms(TransformerConfig::NormStyle s) {
  return s == TransformerConfig::NormStyle::kPreRms;
}

/// Batch row `b` of a [B, ...] tensor as a [1, ...] tensor of its own; a
/// batch-1 tensor is returned as is.
Tensor BatchRow(const Tensor& x, int b) {
  if (x.dim(0) == 1) return x;
  std::vector<int> shape = x.shape();
  shape[0] = 1;
  const int64_t n = x.NumElements() / x.dim(0);
  const auto first = x.data().begin() + b * n;
  return Tensor(std::move(shape), std::vector<float>(first, first + n));
}

/// out[e] = x[e] + y[e] over `n` elements of raw rows. `out` may be `x`.
void AddRows(const float* x, const float* y, float* out, int64_t n) {
  for (int64_t e = 0; e < n; ++e) out[e] = x[e] + y[e];
}
}  // namespace

void DecodeState::Reorder(const std::vector<int>& parents) {
  // Skip the rebuild when the new row set is exactly the old one in order.
  bool identity = static_cast<int>(parents.size()) == batch;
  for (size_t i = 0; identity && i < parents.size(); ++i) {
    identity = parents[i] == static_cast<int>(i);
  }
  if (identity) return;
  const size_t per_row = batch > 0 ? layers.size() / batch : 0;
  std::vector<LayerCache> rows;
  rows.reserve(parents.size() * per_row);
  std::vector<int> new_steps(parents.size());
  std::vector<int> lengths(parents.size());
  int max_step = 0;
  for (size_t i = 0; i < parents.size(); ++i) {
    VIST5_CHECK_GE(parents[i], 0);
    VIST5_CHECK_LT(parents[i], batch);
    const size_t p = static_cast<size_t>(parents[i]);
    rows.insert(rows.end(), layers.begin() + p * per_row,
                layers.begin() + (p + 1) * per_row);
    new_steps[i] = steps[p];
    lengths[i] = memory_lengths[p];
    max_step = std::max(max_step, new_steps[i]);
  }
  layers = std::move(rows);
  memory_lengths = std::move(lengths);
  steps = std::move(new_steps);
  step = max_step;
  batch = static_cast<int>(parents.size());
}

void DecodeState::MergeFrom(DecodeState&& other) {
  VIST5_CHECK(batch == 0 || other.batch == 0 ||
              layers.size() / batch == other.layers.size() / other.batch);
  layers.insert(layers.end(), std::make_move_iterator(other.layers.begin()),
                std::make_move_iterator(other.layers.end()));
  memory_lengths.insert(memory_lengths.end(), other.memory_lengths.begin(),
                        other.memory_lengths.end());
  steps.insert(steps.end(), other.steps.begin(), other.steps.end());
  batch += other.batch;
  step = std::max(step, other.step);
}

void DecodeState::TruncateTo(int len) {
  VIST5_CHECK_GE(len, 0);
  VIST5_CHECK_LE(len, step);
  step = len;
  for (int& s : steps) s = std::min(s, len);
}

EncoderLayer::EncoderLayer(const TransformerConfig& config, Rng* rng)
    : norm_style_(config.norm_style),
      self_attn_(config.d_model, config.num_heads, config.linear_bias,
                 config.scale_scores, rng),
      ff_(config.d_model, config.d_ff, config.activation, config.linear_bias,
          rng) {
  RegisterModule("attn", &self_attn_);
  RegisterModule("ff", &ff_);
  if (IsPreRms(norm_style_)) {
    rms1_ = std::make_unique<RmsNormLayer>(config.d_model);
    rms2_ = std::make_unique<RmsNormLayer>(config.d_model);
    RegisterModule("norm1", rms1_.get());
    RegisterModule("norm2", rms2_.get());
  } else {
    ln1_ = std::make_unique<LayerNormLayer>(config.d_model);
    ln2_ = std::make_unique<LayerNormLayer>(config.d_model);
    RegisterModule("norm1", ln1_.get());
    RegisterModule("norm2", ln2_.get());
  }
}

Tensor EncoderLayer::Forward(const Tensor& x, int batch, int seq,
                             const std::vector<int>& lengths,
                             const Tensor* position_bias, float dropout_p,
                             Rng* rng) const {
  MultiHeadAttention::ForwardArgs args;
  args.batch = batch;
  args.tq = seq;
  args.tk = seq;
  args.key_lengths = &lengths;
  args.causal = false;
  args.position_bias = position_bias;
  args.dropout_p = dropout_p;
  args.rng = rng;

  if (IsPreRms(norm_style_)) {
    Tensor n1 = rms1_->Forward(x);
    Tensor h = ops::Add(
        x, ops::Dropout(self_attn_.Forward(n1, n1, args), dropout_p, rng));
    Tensor out = ops::Add(
        h, ops::Dropout(ff_.Forward(rms2_->Forward(h), dropout_p, rng),
                        dropout_p, rng));
    return out;
  }
  Tensor h = ln1_->Forward(ops::Add(
      x, ops::Dropout(self_attn_.Forward(x, x, args), dropout_p, rng)));
  Tensor out = ln2_->Forward(ops::Add(
      h, ops::Dropout(ff_.Forward(h, dropout_p, rng), dropout_p, rng)));
  return out;
}

DecoderLayer::DecoderLayer(const TransformerConfig& config, Rng* rng)
    : norm_style_(config.norm_style),
      dim_(config.d_model),
      self_attn_(config.d_model, config.num_heads, config.linear_bias,
                 config.scale_scores, rng),
      cross_attn_(config.d_model, config.num_heads, config.linear_bias,
                  config.scale_scores, rng),
      ff_(config.d_model, config.d_ff, config.activation, config.linear_bias,
          rng) {
  RegisterModule("self_attn", &self_attn_);
  RegisterModule("cross_attn", &cross_attn_);
  RegisterModule("ff", &ff_);
  if (IsPreRms(norm_style_)) {
    rms1_ = std::make_unique<RmsNormLayer>(config.d_model);
    rms2_ = std::make_unique<RmsNormLayer>(config.d_model);
    rms3_ = std::make_unique<RmsNormLayer>(config.d_model);
    RegisterModule("norm1", rms1_.get());
    RegisterModule("norm2", rms2_.get());
    RegisterModule("norm3", rms3_.get());
  } else {
    ln1_ = std::make_unique<LayerNormLayer>(config.d_model);
    ln2_ = std::make_unique<LayerNormLayer>(config.d_model);
    ln3_ = std::make_unique<LayerNormLayer>(config.d_model);
    RegisterModule("norm1", ln1_.get());
    RegisterModule("norm2", ln2_.get());
    RegisterModule("norm3", ln3_.get());
  }
}

Tensor DecoderLayer::Forward(const Tensor& x, const Tensor& memory, int batch,
                             int tq, int tk,
                             const std::vector<int>& self_lengths,
                             const std::vector<int>& memory_lengths,
                             const Tensor* self_bias, float dropout_p,
                             Rng* rng) const {
  MultiHeadAttention::ForwardArgs self_args;
  self_args.batch = batch;
  self_args.tq = tq;
  self_args.tk = tq;
  self_args.key_lengths = &self_lengths;
  self_args.causal = true;
  self_args.position_bias = self_bias;
  self_args.dropout_p = dropout_p;
  self_args.rng = rng;

  MultiHeadAttention::ForwardArgs cross_args;
  cross_args.batch = batch;
  cross_args.tq = tq;
  cross_args.tk = tk;
  cross_args.key_lengths = &memory_lengths;
  cross_args.causal = false;
  cross_args.dropout_p = dropout_p;
  cross_args.rng = rng;

  if (IsPreRms(norm_style_)) {
    Tensor n1 = rms1_->Forward(x);
    Tensor h = ops::Add(
        x, ops::Dropout(self_attn_.Forward(n1, n1, self_args), dropout_p, rng));
    Tensor h2 = ops::Add(
        h, ops::Dropout(cross_attn_.Forward(rms2_->Forward(h), memory,
                                            cross_args),
                        dropout_p, rng));
    Tensor out = ops::Add(
        h2, ops::Dropout(ff_.Forward(rms3_->Forward(h2), dropout_p, rng),
                         dropout_p, rng));
    return out;
  }
  Tensor h = ln1_->Forward(ops::Add(
      x, ops::Dropout(self_attn_.Forward(x, x, self_args), dropout_p, rng)));
  Tensor h2 = ln2_->Forward(ops::Add(
      h, ops::Dropout(cross_attn_.Forward(h, memory, cross_args), dropout_p,
                      rng)));
  Tensor out = ln3_->Forward(ops::Add(
      h2, ops::Dropout(ff_.Forward(h2, dropout_p, rng), dropout_p, rng)));
  return out;
}

void DecoderLayer::BeginDecode(const Tensor& memory, int batch, int enc_seq,
                               Tensor* k, Tensor* v) const {
  cross_attn_.ProjectKv(memory, batch, enc_seq, k, v);
}

void DecoderLayer::ForwardStep(const StepRows& rows, int layer, float* h,
                               float* work) const {
  // Self-attention keys/values are projected from the same per-row input
  // the full path uses (the pre-norm output for kPreRms, the raw residual
  // stream for kPostLayerNorm); both norms are row-local, so each token's
  // cache entry never changes once written. Causal masking from each row's
  // own position keeps query i from seeing keys past steps[b] + i, so a
  // span matches `span` sequential one-token calls bit-for-bit, and the
  // padding or stale entries past a row's position are never read.
  const int r = rows.rows();
  const int64_t rd = static_cast<int64_t>(r) * dim_;
  float* normed = work;  // pre-RMS: each norm's output
  float* sum = work;     // post-LN: each residual sum, which the norm reads
  float* attn = work + rd;
  float* ff_work = attn + rd;
  if (IsPreRms(norm_style_)) {
    rms1_->ForwardRows(h, r, normed);
    self_attn_.ForwardStep(rows, layer, normed, /*self=*/true, attn);
    AddRows(h, attn, h, rd);
    rms2_->ForwardRows(h, r, normed);
    cross_attn_.ForwardStep(rows, layer, normed, /*self=*/false, attn);
    AddRows(h, attn, h, rd);
    rms3_->ForwardRows(h, r, normed);
    ff_.ForwardRows(normed, r, attn, ff_work, rows.slices);
    AddRows(h, attn, h, rd);
    return;
  }
  self_attn_.ForwardStep(rows, layer, h, /*self=*/true, attn);
  AddRows(h, attn, sum, rd);
  ln1_->ForwardRows(sum, r, h);
  cross_attn_.ForwardStep(rows, layer, h, /*self=*/false, attn);
  AddRows(h, attn, sum, rd);
  ln2_->ForwardRows(sum, r, h);
  ff_.ForwardRows(h, r, attn, ff_work, rows.slices);
  AddRows(h, attn, sum, rd);
  ln3_->ForwardRows(sum, r, h);
}

Transformer::Transformer(const TransformerConfig& config, Rng* rng)
    : config_(config), embedding_(config.vocab_size, config.d_model, rng) {
  RegisterModule("embedding", &embedding_);
  if (!config.tie_embeddings) {
    lm_head_ = std::make_unique<Linear>(config.d_model, config.vocab_size,
                                        /*bias=*/false, rng);
    RegisterModule("lm_head", lm_head_.get());
  }
  if (config.position_style == TransformerConfig::PositionStyle::kRelativeBias) {
    encoder_bias_ = std::make_unique<RelativePositionBias>(
        config.relative_buckets, config.relative_max_distance,
        config.num_heads, /*bidirectional=*/true, rng);
    decoder_bias_ = std::make_unique<RelativePositionBias>(
        config.relative_buckets, config.relative_max_distance,
        config.num_heads, /*bidirectional=*/false, rng);
    RegisterModule("encoder_bias", encoder_bias_.get());
    RegisterModule("decoder_bias", decoder_bias_.get());
  } else if (config.position_style ==
             TransformerConfig::PositionStyle::kLearned) {
    learned_positions_ = RegisterParameter(
        "positions", Tensor::Randn({config.max_positions, config.d_model},
                                   0.02f, rng, /*requires_grad=*/true));
  } else {
    sinusoidal_.resize(static_cast<size_t>(config.max_positions) *
                       config.d_model);
    for (int pos = 0; pos < config.max_positions; ++pos) {
      for (int i = 0; i < config.d_model; ++i) {
        const float angle =
            pos / std::pow(10000.0f, 2.0f * (i / 2) / config.d_model);
        sinusoidal_[static_cast<size_t>(pos) * config.d_model + i] =
            (i % 2 == 0) ? std::sin(angle) : std::cos(angle);
      }
    }
  }
  for (int i = 0; i < config.num_encoder_layers; ++i) {
    encoder_layers_.push_back(std::make_unique<EncoderLayer>(config, rng));
    RegisterModule("enc" + std::to_string(i), encoder_layers_.back().get());
  }
  for (int i = 0; i < config.num_decoder_layers; ++i) {
    decoder_layers_.push_back(std::make_unique<DecoderLayer>(config, rng));
    RegisterModule("dec" + std::to_string(i), decoder_layers_.back().get());
  }
  if (IsPreRms(config.norm_style)) {
    encoder_final_norm_ = std::make_unique<RmsNormLayer>(config.d_model);
    decoder_final_norm_ = std::make_unique<RmsNormLayer>(config.d_model);
    RegisterModule("enc_final_norm", encoder_final_norm_.get());
    RegisterModule("dec_final_norm", decoder_final_norm_.get());
  }
}

void Transformer::EnableLora(int rank, float alpha, Rng* rng) {
  // Freeze the generically pre-trained base model.
  for (auto& [name, t] : NamedParameters()) {
    Tensor tensor = t;
    tensor.set_requires_grad(false);
  }
  for (auto& layer : encoder_layers_) layer->EnableLora(rank, alpha, rng);
  for (auto& layer : decoder_layers_) layer->EnableLora(rank, alpha, rng);
  // The (tied) embedding table stays trainable, as in the common
  // LoRA + trainable-embeddings recipe: adapting to a new output
  // distribution through low-rank deltas alone is too restrictive when the
  // base model never saw the target vocabulary distribution.
  Tensor emb = embedding_.table();
  emb.set_requires_grad(true);
  if (lm_head_) lm_head_->SetTrainable(true);
}

Tensor Transformer::Embed(const std::vector<int>& ids, int batch, int seq,
                          bool train, Rng* rng) const {
  const auto position = [&](int t) {
    return std::min(t, config_.max_positions - 1);
  };
  Tensor emb = embedding_.Forward(ids);
  if (config_.position_style == TransformerConfig::PositionStyle::kLearned) {
    std::vector<int> pos_ids(ids.size());
    for (int b = 0; b < batch; ++b) {
      for (int t = 0; t < seq; ++t) {
        pos_ids[static_cast<size_t>(b) * seq + t] = position(t);
      }
    }
    emb = ops::Add(emb, ops::Embedding(learned_positions_, pos_ids));
  } else if (config_.position_style ==
             TransformerConfig::PositionStyle::kSinusoidal) {
    std::vector<float> pos(ids.size() * static_cast<size_t>(config_.d_model));
    for (int b = 0; b < batch; ++b) {
      for (int t = 0; t < seq; ++t) {
        std::copy_n(
            sinusoidal_.data() +
                static_cast<size_t>(position(t)) * config_.d_model,
            config_.d_model,
            pos.data() +
                (static_cast<size_t>(b) * seq + t) * config_.d_model);
      }
    }
    Tensor pos_tensor({static_cast<int>(ids.size()), config_.d_model},
                      std::move(pos));
    emb = ops::Add(emb, pos_tensor);
  }
  if (train && config_.dropout > 0.0f) {
    emb = ops::Dropout(emb, config_.dropout, rng);
  }
  return emb;
}

void Transformer::EmbedStep(const std::vector<int>& ids,
                            const std::vector<int>& steps, int span,
                            float* h) const {
  const int d = config_.d_model;
  const Tensor& table = embedding_.table();
  const int vocab = table.dim(0);
  const float* positions = nullptr;  // [max_positions, d] rows, if added
  if (config_.position_style == TransformerConfig::PositionStyle::kLearned) {
    positions = learned_positions_.data().data();
  } else if (config_.position_style ==
             TransformerConfig::PositionStyle::kSinusoidal) {
    positions = sinusoidal_.data();
  }
  for (size_t b = 0; b < steps.size(); ++b) {
    for (int i = 0; i < span; ++i) {
      const size_t row = b * span + i;
      const int id = ids[row];
      VIST5_CHECK_GE(id, 0);
      VIST5_CHECK_LT(id, vocab);
      const float* token = table.data().data() + static_cast<size_t>(id) * d;
      float* out = h + row * d;
      if (positions == nullptr) {
        std::copy_n(token, d, out);
        continue;
      }
      const float* pos =
          positions +
          static_cast<size_t>(std::min(steps[b] + i,
                                       config_.max_positions - 1)) *
              d;
      for (int j = 0; j < d; ++j) out[j] = token[j] + pos[j];
    }
  }
}

Tensor Transformer::Encode(const std::vector<int>& ids, int batch, int seq,
                           const std::vector<int>& lengths, bool train,
                           Rng* rng) const {
  VIST5_CHECK_EQ(static_cast<int>(ids.size()), batch * seq);
  const float dropout_p = train ? config_.dropout : 0.0f;
  Tensor h = Embed(ids, batch, seq, train, rng);
  Tensor bias;
  const Tensor* bias_ptr = nullptr;
  if (encoder_bias_) {
    bias = encoder_bias_->Forward(seq, seq);
    bias_ptr = &bias;
  }
  for (const auto& layer : encoder_layers_) {
    h = layer->Forward(h, batch, seq, lengths, bias_ptr, dropout_p, rng);
  }
  if (encoder_final_norm_) h = encoder_final_norm_->Forward(h);
  return h;
}

Tensor Transformer::Decode(const std::vector<int>& ids, int batch, int dec_seq,
                           const Tensor& memory, int enc_seq,
                           const std::vector<int>& memory_lengths,
                           const std::vector<int>& dec_lengths, bool train,
                           Rng* rng) const {
  VIST5_CHECK_EQ(static_cast<int>(ids.size()), batch * dec_seq);
  const float dropout_p = train ? config_.dropout : 0.0f;
  Tensor h = Embed(ids, batch, dec_seq, train, rng);
  Tensor bias;
  const Tensor* bias_ptr = nullptr;
  if (decoder_bias_) {
    bias = decoder_bias_->Forward(dec_seq, dec_seq);
    bias_ptr = &bias;
  }
  for (const auto& layer : decoder_layers_) {
    h = layer->Forward(h, memory, batch, dec_seq, enc_seq, dec_lengths,
                       memory_lengths, bias_ptr, dropout_p, rng);
  }
  if (decoder_final_norm_) h = decoder_final_norm_->Forward(h);
  return h;
}

DecodeState Transformer::BeginDecode(
    const Tensor& memory, int batch, int enc_seq,
    const std::vector<int>& memory_lengths) const {
  VIST5_CHECK(!GradEnabled()) << "BeginDecode is inference-only";
  VIST5_CHECK_EQ(memory.dim(0), batch * enc_seq);
  DecodeState state;
  state.batch = batch;
  state.memory_lengths = memory_lengths;
  state.steps.assign(static_cast<size_t>(batch), 0);
  const size_t num_layers = decoder_layers_.size();
  state.layers.resize(static_cast<size_t>(batch) * num_layers);
  for (size_t l = 0; l < num_layers; ++l) {
    Tensor k, v;
    decoder_layers_[l]->BeginDecode(memory, batch, enc_seq, &k, &v);
    for (int b = 0; b < batch; ++b) {
      DecodeState::LayerCache& cache = state.layers[b * num_layers + l];
      cache.cross_k = BatchRow(k, b);
      cache.cross_v = BatchRow(v, b);
    }
  }
  return state;
}

Tensor Transformer::DecodeStep(const std::vector<int>& next_ids,
                               DecodeState* state, int span) const {
  VIST5_CHECK(!GradEnabled()) << "DecodeStep is inference-only";
  VIST5_CHECK(state != nullptr);
  VIST5_CHECK_GE(span, 1);
  VIST5_CHECK_EQ(static_cast<int>(next_ids.size()), state->batch * span);
  VIST5_CHECK_EQ(static_cast<int>(state->steps.size()), state->batch);
  VIST5_CHECK_EQ(static_cast<int>(state->memory_lengths.size()),
                 state->batch);
  const int num_layers = static_cast<int>(decoder_layers_.size());
  VIST5_CHECK_EQ(state->layers.size(),
                 static_cast<size_t>(state->batch) * num_layers);
  const int rows = state->batch * span;
  const int d = config_.d_model;
  int needed = 0;
  for (int s : state->steps) needed = std::max(needed, s + span);

  DecodeState::Scratch& scratch = state->scratch;
  StepRows step;
  step.batch = state->batch;
  step.span = span;
  step.positions = state->steps.data();
  step.memory_lengths = state->memory_lengths.data();
  step.caches = state->layers.data();
  step.layers = num_layers;
  step.attn_work = &scratch.attn;
  step.slices = StepSlices();
  if (decoder_bias_) {
    // One bucket per key distance, kept across steps. Reserving the
    // largest row's self-cache capacity lets a decode that fills a
    // preallocated slab append without reallocating.
    if (static_cast<int>(scratch.buckets.size()) < needed) {
      int capacity = needed;
      for (int b = 0; b < state->batch; ++b) {
        const Tensor& self_k = step.cache(b, 0).self_k;
        if (self_k.defined()) capacity = std::max(capacity, self_k.dim(2));
      }
      scratch.buckets.reserve(static_cast<size_t>(capacity));
      decoder_bias_->ExtendDistanceBuckets(needed, &scratch.buckets);
    }
    step.bias_table = decoder_bias_->table().data().data();
    step.bias_buckets = scratch.buckets.data();
  }
  const int64_t rd = static_cast<int64_t>(rows) * d;
  const size_t need = static_cast<size_t>(
      rd + static_cast<int64_t>(rows) * (2 * d + 2 * config_.d_ff));
  if (scratch.rows.size() < need) scratch.rows.resize(need);
  float* h = scratch.rows.data();
  EmbedStep(next_ids, state->steps, span, h);
  for (int l = 0; l < num_layers; ++l) {
    decoder_layers_[l]->ForwardStep(step, l, h, h + rd);
  }
  Tensor out({rows, d});
  float* out_rows = out.mutable_data().data();
  if (decoder_final_norm_) {
    decoder_final_norm_->ForwardRows(h, rows, out_rows);
  } else {
    std::copy_n(h, rd, out_rows);
  }
  for (int& s : state->steps) s += span;
  state->step = needed;
  return out;
}

int Transformer::StepSlices() const {
  // int8 products are never sliced: their step weights are a quarter of
  // float32's, and the shapes served fit in L2 at int8.
  if (ActiveWeightDtype() != WeightDtype::kFloat32) return 1;
  const TransformerConfig& c = config_;
  const int64_t floats =
      static_cast<int64_t>(c.num_decoder_layers) *
      (6 * static_cast<int64_t>(c.d_model) * c.d_model +
       2 * static_cast<int64_t>(c.d_model) * c.d_ff);
  return rt::SlicesFor(floats * static_cast<int64_t>(sizeof(float)));
}

Tensor Transformer::Logits(const Tensor& decoder_hidden) const {
  if (config_.tie_embeddings) {
    // T5 rescales before the tied projection.
    Tensor scaled = ops::Scale(
        decoder_hidden, 1.0f / std::sqrt(static_cast<float>(config_.d_model)));
    if (!GradEnabled()) {
      // Inference projects against a cached transpose of the tied table so
      // the product runs as a plain MatMul, whose multi-row panel kernels
      // amortize the O(V * d) weight stream across batched decode rows.
      // Every inference path (full forward, cached greedy/beam, continuous
      // batching) flows through this same branch, so batched-vs-sequential
      // and cached-vs-full parity are preserved kernel-for-kernel. The
      // cache is keyed on the table's mutation counter: an optimizer step
      // or checkpoint load bumps data_version and forces a rebuild.
      Tensor table_t;
      std::shared_ptr<const ops::QuantizedMatrix> qtable;
      const bool int8 = ActiveWeightDtype() == WeightDtype::kInt8;
      {
        std::lock_guard<std::mutex> lock(tied_lm_mutex_);
        const Tensor& table = embedding_.table();
        if (!tied_lm_table_t_.defined() ||
            tied_lm_version_ != table.data_version()) {
          tied_lm_table_t_ = ops::Transpose2D(table);
          tied_lm_version_ = table.data_version();
        }
        if (int8) {
          // Quantize the transposed table (per-vocab-column scales) under
          // the same version key, so int8 logits see exactly the weights a
          // float decode of the same checkpoint would.
          if (tied_lm_q_ == nullptr ||
              tied_lm_q_version_ != table.data_version()) {
            tied_lm_q_ = std::make_shared<const ops::QuantizedMatrix>(
                ops::QuantizeWeights(tied_lm_table_t_));
            tied_lm_q_version_ = table.data_version();
          }
          qtable = tied_lm_q_;
        } else {
          table_t = tied_lm_table_t_;
        }
      }
      if (int8) return ops::MatMulInt8(scaled, *qtable);
      return ops::MatMul(scaled, table_t);
    }
    return ops::MatMulTransposeB(scaled, embedding_.table());
  }
  return lm_head_->Forward(decoder_hidden);
}

Tensor Transformer::Loss(const std::vector<int>& enc_ids, int batch,
                         int enc_seq, const std::vector<int>& enc_lengths,
                         const std::vector<int>& dec_input_ids,
                         const std::vector<int>& dec_target_ids, int dec_seq,
                         const std::vector<int>& dec_lengths, bool train,
                         Rng* rng) const {
  Tensor memory = Encode(enc_ids, batch, enc_seq, enc_lengths, train, rng);
  Tensor hidden = Decode(dec_input_ids, batch, dec_seq, memory, enc_seq,
                         enc_lengths, dec_lengths, train, rng);
  Tensor logits = Logits(hidden);
  return ops::CrossEntropyLoss(logits, dec_target_ids, /*ignore_index=*/-100);
}

}  // namespace nn
}  // namespace vist5
