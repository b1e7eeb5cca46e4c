#include "nn/transformer.h"

#include <algorithm>
#include <cmath>

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
}  // namespace

void DecodeState::Reorder(const std::vector<int>& parents) {
  // Skip the copy when the new beam set is exactly the old one in order.
  bool identity = static_cast<int>(parents.size()) == batch;
  for (size_t i = 0; identity && i < parents.size(); ++i) {
    identity = parents[i] == static_cast<int>(i);
  }
  if (identity) return;
  std::vector<int> new_steps(parents.size());
  int max_step = 0;
  for (size_t i = 0; i < parents.size(); ++i) {
    new_steps[i] = steps[static_cast<size_t>(parents[i])];
    max_step = std::max(max_step, new_steps[i]);
  }
  for (LayerCache& layer : layers) {
    // Time capacity is kept as-is: surviving rows may be shorter than the
    // cache's extent, but decode steps never read past a row's position,
    // and trimming would throw away the preallocated capacity the in-place
    // scatter path relies on (docs/SERVING.md).
    layer.self_k = ops::GatherBatch(layer.self_k, parents);
    layer.self_v = ops::GatherBatch(layer.self_v, parents);
    layer.cross_k = ops::GatherBatch(layer.cross_k, parents);
    layer.cross_v = ops::GatherBatch(layer.cross_v, parents);
  }
  std::vector<int> lengths(parents.size());
  for (size_t i = 0; i < parents.size(); ++i) {
    lengths[i] = memory_lengths[static_cast<size_t>(parents[i])];
  }
  memory_lengths = std::move(lengths);
  steps = std::move(new_steps);
  step = max_step;
  batch = static_cast<int>(parents.size());
}

void DecodeState::MergeFrom(DecodeState&& other) {
  if (batch == 0) {
    *this = std::move(other);
    return;
  }
  VIST5_CHECK_EQ(layers.size(), other.layers.size());
  VIST5_CHECK_EQ(static_cast<int>(steps.size()), batch);
  VIST5_CHECK_EQ(static_cast<int>(other.steps.size()), other.batch);
  // Builds a zero slab matching `like` for a side whose cache is still
  // undefined (no decode step taken yet).
  const auto zeros_like = [](const Tensor& like, int rows) {
    return Tensor({rows, like.dim(1), like.dim(2), like.dim(3)});
  };
  for (size_t i = 0; i < layers.size(); ++i) {
    LayerCache& a = layers[i];
    LayerCache& b = other.layers[i];
    const int t_self = std::max(a.self_k.defined() ? a.self_k.dim(2) : 0,
                                b.self_k.defined() ? b.self_k.dim(2) : 0);
    if (t_self > 0) {
      Tensor ak = a.self_k.defined() ? ops::PadTime(a.self_k, t_self)
                                     : Tensor();
      Tensor av = a.self_v.defined() ? ops::PadTime(a.self_v, t_self)
                                     : Tensor();
      Tensor bk = b.self_k.defined() ? ops::PadTime(b.self_k, t_self)
                                     : Tensor();
      Tensor bv = b.self_v.defined() ? ops::PadTime(b.self_v, t_self)
                                     : Tensor();
      if (!ak.defined()) ak = zeros_like(bk, batch);
      if (!av.defined()) av = zeros_like(bv, batch);
      if (!bk.defined()) bk = zeros_like(ak, other.batch);
      if (!bv.defined()) bv = zeros_like(av, other.batch);
      a.self_k = ops::ConcatBatch(ak, bk);
      a.self_v = ops::ConcatBatch(av, bv);
    }
    const int t_enc = std::max(a.cross_k.dim(2), b.cross_k.dim(2));
    a.cross_k = ops::ConcatBatch(ops::PadTime(a.cross_k, t_enc),
                                 ops::PadTime(b.cross_k, t_enc));
    a.cross_v = ops::ConcatBatch(ops::PadTime(a.cross_v, t_enc),
                                 ops::PadTime(b.cross_v, t_enc));
  }
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
                               DecodeState::LayerCache* cache) const {
  cross_attn_.ProjectKv(memory, batch, enc_seq, &cache->cross_k,
                        &cache->cross_v);
}

Tensor DecoderLayer::ForwardStep(const Tensor& x, const std::vector<int>& steps,
                                 int span,
                                 const std::vector<int>& memory_lengths,
                                 const Tensor* self_bias,
                                 DecodeState::LayerCache* cache) const {
  // Self-attention keys/values are projected from the same per-row input
  // the full path uses (the pre-norm output for kPreRms, the raw residual
  // stream for kPostLayerNorm); both norms are row-local, so each token's
  // cache entry never changes once written. Row b's span lands at time
  // indices steps[b].. — in place when the cache has the capacity
  // (ContinuousDecoder preallocates max_len at admission), by copy
  // otherwise. Causal masking from each row's own position keeps query i
  // from seeing keys past steps[b] + i, so a span matches `span`
  // sequential one-token calls bit-for-bit, and the padding or stale
  // entries past a row's position are never read.
  const int batch = static_cast<int>(steps.size());
  const Tensor self_input = IsPreRms(norm_style_) ? rms1_->Forward(x) : x;
  Tensor k_new, v_new;
  self_attn_.ProjectKv(self_input, batch, span, &k_new, &v_new);
  ops::ScatterTime(&cache->self_k, k_new, steps);
  ops::ScatterTime(&cache->self_v, v_new, steps);

  std::vector<int> self_lengths(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    self_lengths[static_cast<size_t>(b)] = steps[static_cast<size_t>(b)] + span;
  }
  MultiHeadAttention::ForwardArgs self_args;
  self_args.batch = batch;
  self_args.tq = span;
  self_args.tk = cache->self_k.dim(2);
  self_args.key_lengths = &self_lengths;
  self_args.causal = true;
  self_args.query_positions = &steps;
  self_args.position_bias = self_bias;

  MultiHeadAttention::ForwardArgs cross_args;
  cross_args.batch = batch;
  cross_args.tq = span;
  cross_args.tk = cache->cross_k.dim(2);
  cross_args.key_lengths = &memory_lengths;
  cross_args.causal = false;
  cross_args.query_positions = &steps;

  if (IsPreRms(norm_style_)) {
    Tensor h = ops::Add(x, self_attn_.ForwardCached(self_input, cache->self_k,
                                                    cache->self_v, self_args));
    Tensor h2 = ops::Add(
        h, cross_attn_.ForwardCached(rms2_->Forward(h), cache->cross_k,
                                     cache->cross_v, cross_args));
    return ops::Add(h2, ff_.Forward(rms3_->Forward(h2), 0.0f, nullptr));
  }
  Tensor h = ln1_->Forward(ops::Add(
      x, self_attn_.ForwardCached(x, cache->self_k, cache->self_v,
                                  self_args)));
  Tensor h2 = ln2_->Forward(ops::Add(
      h, cross_attn_.ForwardCached(h, cache->cross_k, cache->cross_v,
                                   cross_args)));
  return ln3_->Forward(ops::Add(h2, ff_.Forward(h2, 0.0f, nullptr)));
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
                          bool train, Rng* rng,
                          const std::vector<int>* offsets) const {
  if (offsets != nullptr) {
    VIST5_CHECK_EQ(static_cast<int>(offsets->size()), batch);
  }
  const auto position = [&](int b, int t) {
    const int offset = offsets != nullptr ? (*offsets)[b] : 0;
    return std::min(t + offset, config_.max_positions - 1);
  };
  Tensor emb = embedding_.Forward(ids);
  if (config_.position_style == TransformerConfig::PositionStyle::kLearned) {
    std::vector<int> pos_ids(ids.size());
    for (int b = 0; b < batch; ++b) {
      for (int t = 0; t < seq; ++t) {
        pos_ids[static_cast<size_t>(b) * seq + t] = position(b, t);
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
                static_cast<size_t>(position(b, t)) * config_.d_model,
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
  state.layers.resize(decoder_layers_.size());
  for (size_t i = 0; i < decoder_layers_.size(); ++i) {
    decoder_layers_[i]->BeginDecode(memory, batch, enc_seq, &state.layers[i]);
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
  VIST5_CHECK_EQ(state->layers.size(), decoder_layers_.size());
  Tensor h = Embed(next_ids, state->batch, span, /*train=*/false, nullptr,
                   &state->steps);
  int needed = 0;
  for (int s : state->steps) needed = std::max(needed, s + span);
  Tensor bias;
  const Tensor* bias_ptr = nullptr;
  if (decoder_bias_) {
    // The bias spans the cache's time extent after this step's write, which
    // exceeds max(steps) + span when caches carry preallocated capacity or
    // a truncated tail; those columns are never read.
    int tk = needed;
    if (!state->layers.empty() && state->layers[0].self_k.defined()) {
      tk = std::max(tk, state->layers[0].self_k.dim(2));
    }
    bias = decoder_bias_->ForwardBatched(state->steps, span, tk);
    bias_ptr = &bias;
  }
  for (size_t i = 0; i < decoder_layers_.size(); ++i) {
    h = decoder_layers_[i]->ForwardStep(h, state->steps, span,
                                        state->memory_lengths, bias_ptr,
                                        &state->layers[i]);
  }
  if (decoder_final_norm_) h = decoder_final_norm_->Forward(h);
  for (int& s : state->steps) s += span;
  state->step = needed;
  return h;
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
