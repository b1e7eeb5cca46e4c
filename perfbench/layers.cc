#include "layers.h"

#include <algorithm>
#include <cctype>
#include <memory>

#include "model/batch_decoder.h"
#include "nn/transformer.h"
#include "serve/prefix_cache.h"
#include "spec/engine.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace perfbench {

namespace model = vist5::model;
namespace nn = vist5::nn;
using vist5::Tensor;
using vist5::WeightDtype;

namespace {

/// Runs `fn` once, records it as a span under `parent`, returns its
/// duration in us.
template <class F>
double TimeUs(SpanLog* spans, uint64_t parent, const char* name, F&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  spans->Add(name, t0, t1, parent);
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// A parameter of one decoder layer ("dec<i>.").
bool InDecoderLayer(const std::string& name) {
  return name.size() > 3 && name.compare(0, 3, "dec") == 0 &&
         std::isdigit(static_cast<unsigned char>(name[3]));
}

/// Cross-attention K/V projections run once per request at BeginDecode,
/// not in the per-token step.
bool PrefillOnly(const std::string& name) {
  return name.find("cross_attn.wk.") != std::string::npos ||
         name.find("cross_attn.wv.") != std::string::npos;
}

/// The 2-D weights DecodeStepRagged multiplies by on every step.
std::vector<Tensor> StepWeights(const nn::Transformer& tf) {
  std::vector<Tensor> out;
  for (const auto& [name, t] : tf.NamedParameters()) {
    if (InDecoderLayer(name) && !PrefillOnly(name) && t.shape().size() == 2) {
      out.push_back(t);
    }
  }
  return out;
}

/// Self-K/V capacity ContinuousDecoder::Admit preallocates for a row: its
/// max_len, raised so the row outlives `min_len` steps.
int Capacity(const WalkRequest& r, int min_len) {
  return std::max(r.options.max_len, min_len);
}

/// Gives a fresh batch-1 state the self-K/V slab ContinuousDecoder::Admit
/// gives it, so merged states have the decoder's shapes.
void Preallocate(int capacity, nn::DecodeState* state) {
  for (nn::DecodeState::LayerCache& layer : state->layers) {
    const int heads = layer.cross_k.dim(1);
    const int dh = layer.cross_k.dim(3);
    layer.self_k = Tensor({1, heads, capacity, dh});
    layer.self_v = Tensor({1, heads, capacity, dh});
  }
}

/// Prefills `rows` requests of `sample` into one decode state laid out as
/// ContinuousDecoder lays out its batch (self-K/V preallocated to each
/// row's capacity), and advances it `steps` ragged steps, feeding each row
/// its recorded output.
nn::DecodeState BuildState(const nn::Transformer& tf,
                           const std::vector<WalkRequest>& sample, int rows,
                           int steps, int min_len, int pad_id) {
  nn::DecodeState state;
  for (int i = 0; i < rows; ++i) {
    const WalkRequest& r = sample[static_cast<size_t>(i) % sample.size()];
    const int len = static_cast<int>(r.src.size());
    const Tensor memory = tf.Encode(r.src, 1, len, {len}, false, nullptr);
    nn::DecodeState one = tf.BeginDecode(memory, 1, len, {len});
    Preallocate(Capacity(r, min_len), &one);
    if (i == 0) {
      state = std::move(one);
    } else {
      state.MergeFrom(std::move(one));
    }
  }
  for (int s = 0; s < steps; ++s) {
    std::vector<int> ids;
    for (int i = 0; i < rows; ++i) {
      const WalkRequest& r = sample[static_cast<size_t>(i) % sample.size()];
      ids.push_back(s == 0 || static_cast<size_t>(s - 1) >= r.output.size()
                        ? pad_id
                        : r.output[static_cast<size_t>(s - 1)]);
    }
    tf.DecodeStepRagged(ids, &state);
  }
  return state;
}

}  // namespace

double WeightMbPerToken(const model::TransformerSeq2Seq& m, bool int8) {
  const nn::Transformer& tf = m.transformer();
  const std::string logits_table =
      tf.config().tie_embeddings ? "embedding.table" : "lm_head.weight";
  double bytes = 0;
  for (const auto& [name, t] : tf.NamedParameters()) {
    const std::vector<int>& shape = t.shape();
    double numel = 1;
    for (const int d : shape) numel *= d;
    if (InDecoderLayer(name) && !PrefillOnly(name)) {
      bytes += (int8 && shape.size() == 2) ? numel + 4.0 * shape[1]
                                           : 4.0 * numel;
    } else if (name == "decoder_bias.table" || name == "dec_final_norm.weight") {
      bytes += 4.0 * numel;
    } else if (name == logits_table) {
      // Logits read the transposed table, quantized per vocabulary column.
      const double vocab = tf.config().vocab_size;
      bytes += int8 ? numel + 4.0 * vocab : 4.0 * numel;
    }
  }
  return bytes / 1e6;
}

MetricMap LayerWalk(const WalkInput& in, SpanLog* spans) {
  MetricMap m;
  const auto put = [&m](const char* name, double value, const char* unit) {
    m[name] = Metric{value, unit};
  };
  ScopedSpan walk(spans, "layer_walk");
  const uint64_t root = walk.id();
  const model::TransformerSeq2Seq& mdl = *in.model;
  const nn::Transformer& tf = mdl.transformer();
  const std::vector<WalkRequest>& sample = in.sample;
  vist5::NoGradGuard no_grad;

  // --- text: Tokenizer::Encode / Decode per request.
  std::vector<double> enc_us, dec_us;
  size_t sink = 0;
  for (const WalkRequest& r : sample) {
    enc_us.push_back(TimeUs(spans, root, "text.Encode", [&] {
      sink += in.tokenizer->Encode(r.text).size();
    }));
    dec_us.push_back(TimeUs(spans, root, "text.Decode", [&] {
      sink += in.tokenizer->Decode(r.output).size();
    }));
  }
  put("text.encode_us", Median(enc_us), "us");
  put("text.decode_us", Median(dec_us), "us");

  // --- model / nn prefill: EncodePrefix, Encode, BeginDecode.
  std::vector<double> prefix_per_tok, encode_per_tok, begin_us;
  for (const WalkRequest& r : sample) {
    const int len = static_cast<int>(r.src.size());
    prefix_per_tok.push_back(
        TimeUs(spans, root, "model.EncodePrefix",
               [&] { sink += mdl.EncodePrefix(r.src, WeightDtype::kFloat32)
                                 ->ByteSize(); }) /
        len);
    Tensor memory;
    encode_per_tok.push_back(TimeUs(spans, root, "nn.Encode", [&] {
                               memory = tf.Encode(r.src, 1, len, {len}, false,
                                                  nullptr);
                             }) /
                             len);
    begin_us.push_back(TimeUs(spans, root, "nn.BeginDecode", [&] {
      sink += static_cast<size_t>(
          tf.BeginDecode(memory, 1, len, {len}).layers.size());
    }));
  }
  put("model.encode_prefix_us_per_tok", Median(prefix_per_tok), "us");
  put("nn.encode_us_per_tok", Median(encode_per_tok), "us");
  put("nn.begin_decode_us", Median(begin_us), "us");

  // --- prefix_cache: Acquire / Insert over a window of the workload's own
  // prompt sequence, at the workload's byte budget.
  std::vector<double> acquire_us, insert_us;
  if (!in.cache_window.empty()) {
    vist5::serve::PrefixCacheOptions options;
    options.max_bytes = in.cache_bytes;
    vist5::serve::PrefixCache cache(options);
    for (const std::vector<int>& tokens : in.cache_window) {
      vist5::serve::PrefixCache::Handle handle;
      acquire_us.push_back(TimeUs(spans, root, "prefix.Acquire", [&] {
        handle = cache.Acquire(tokens, WeightDtype::kFloat32);
      }));
      if (!handle.hit) {
        auto block = mdl.EncodePrefix(tokens, WeightDtype::kFloat32);
        insert_us.push_back(TimeUs(spans, root, "prefix.Insert", [&] {
          handle = cache.Insert(std::move(block));
        }));
      }
      cache.Release(handle);
    }
  }
  put("prefix.acquire_us", Median(acquire_us), "us");
  put("prefix.insert_us", Median(insert_us), "us");

  // --- batch_decoder: replay the sample through a ContinuousDecoder the
  // way the scheduler admits it, with recomputed and with spliced prefill.
  std::vector<double> admit_us, admit_spliced_us;
  const auto replay = [&](bool spliced, std::vector<double>* admits) {
    model::ContinuousDecoder decoder(&mdl);
    std::vector<std::shared_ptr<const model::EncodedPrefix>> blocks;
    size_t next = 0;
    uint64_t id = 1;
    while (next < sample.size() || decoder.active() > 0) {
      while (decoder.active() < in.max_batch && next < sample.size()) {
        const WalkRequest& r = sample[next++];
        const model::EncodedPrefix* block = nullptr;
        if (spliced) {
          blocks.push_back(mdl.EncodePrefix(r.src, WeightDtype::kFloat32));
          block = blocks.back().get();
        }
        admits->push_back(TimeUs(spans, root, "decoder.Admit", [&] {
          decoder.Admit(id++, r.src, r.options,
                        model::ContinuousDecoder::Clock::time_point::max(),
                        block);
        }));
      }
      TimeUs(spans, root, "decoder.Step",
             [&] { sink += decoder.Step().size(); });
    }
  };
  replay(false, &admit_us);
  replay(true, &admit_spliced_us);
  put("decoder.admit_us", Median(admit_us), "us");
  put("decoder.admit_spliced_us", Median(admit_spliced_us), "us");

  // --- Step at 1 and 8 rows: ContinuousDecoder::Step, and the
  // DecodeStepRagged + Logits it is built on, at the same shapes — the
  // sample's first rows, positioned at half the sample's median output
  // length (the mean self-K/V extent of a step). Only steps that keep
  // every row count, so a row stopping on EOS never shrinks the batch.
  std::vector<double> out_lens;
  for (const WalkRequest& r : sample) {
    out_lens.push_back(static_cast<double>(r.output.size()));
  }
  const int steps = std::max(1, static_cast<int>(Median(out_lens) / 2));
  constexpr int kRepeats = 24;
  const int min_len = steps + kRepeats + 1;
  const auto time_decoder = [&](int rows) {
    model::ContinuousDecoder decoder(&mdl);
    for (int i = 0; i < rows; ++i) {
      const WalkRequest& r = sample[static_cast<size_t>(i) % sample.size()];
      model::GenerationOptions options = r.options;
      options.max_len = Capacity(r, min_len);
      decoder.Admit(static_cast<uint64_t>(i + 1), r.src, options);
    }
    for (int s = 0; s < steps; ++s) decoder.Step();
    std::vector<double> us;
    for (int k = 0; k < kRepeats && decoder.active() == rows; ++k) {
      const double t = TimeUs(spans, root, "decoder.Step",
                              [&] { sink += decoder.Step().size(); });
      if (decoder.active() == rows) us.push_back(t);
    }
    return Median(us);
  };
  const auto time_steps = [&](int rows, std::vector<double>* step_us,
                              std::vector<double>* logits_us) {
    nn::DecodeState state =
        BuildState(tf, sample, rows, steps, min_len, mdl.pad_id());
    const std::vector<int> ids(static_cast<size_t>(rows), mdl.pad_id());
    for (int k = 0; k < kRepeats; ++k) {
      Tensor hidden;
      step_us->push_back(TimeUs(spans, root, "nn.DecodeStepRagged", [&] {
        hidden = tf.DecodeStepRagged(ids, &state);
      }));
      logits_us->push_back(TimeUs(spans, root, "nn.Logits", [&] {
        sink += static_cast<size_t>(tf.Logits(hidden).shape()[0]);
      }));
    }
  };
  std::vector<double> nn_step_b1, nn_step_b8, nn_logits_b1, nn_logits_b8;
  time_steps(1, &nn_step_b1, &nn_logits_b1);
  time_steps(in.max_batch, &nn_step_b8, &nn_logits_b8);
  const double step_b8 = Median(nn_step_b8);
  const double decoder_b8 = time_decoder(in.max_batch);
  put("decoder.step_b1_us", time_decoder(1), "us");
  put("decoder.step_b8_us", decoder_b8, "us");
  put("nn.decode_step_b1_us", Median(nn_step_b1), "us");
  put("nn.decode_step_b8_us", step_b8, "us");
  put("nn.logits_b8_us", Median(nn_logits_b8), "us");
  put("decoder.step_residual_b8_us",
      decoder_b8 - step_b8 - Median(nn_logits_b8), "us");

  // --- kv: MergeFrom of a fresh row into a full-minus-one batch, and
  // Reorder evicting one row of a full batch. Copies of a state share its
  // tensors and both calls replace handles rather than write through them,
  // so each trial starts from the same state.
  std::vector<double> merge_us, reorder_us;
  {
    const nn::DecodeState partial = BuildState(
        tf, sample, in.max_batch - 1, steps, min_len, mdl.pad_id());
    const nn::DecodeState full =
        BuildState(tf, sample, in.max_batch, steps, min_len, mdl.pad_id());
    for (int k = 0; k < kRepeats; ++k) {
      const WalkRequest& r = sample[static_cast<size_t>(k) % sample.size()];
      const int len = static_cast<int>(r.src.size());
      nn::DecodeState fresh =
          tf.BeginDecode(tf.Encode(r.src, 1, len, {len}, false, nullptr), 1,
                         len, {len});
      Preallocate(Capacity(r, min_len), &fresh);
      nn::DecodeState merged = partial;
      merge_us.push_back(TimeUs(spans, root, "kv.MergeFrom", [&] {
        merged.MergeFrom(std::move(fresh));
      }));
      std::vector<int> survivors;
      for (int i = 0; i < in.max_batch; ++i) {
        if (i != k % in.max_batch) survivors.push_back(i);
      }
      nn::DecodeState evicted = full;
      reorder_us.push_back(TimeUs(spans, root, "kv.Reorder",
                                  [&] { evicted.Reorder(survivors); }));
    }
  }
  put("kv.merge_us", Median(merge_us), "us");
  put("kv.reorder_us", Median(reorder_us), "us");

  // --- tensor: MatMul at the decode step's weight shapes, 8 rows.
  {
    vist5::Rng rng(5);
    double flops = 0, seconds = 0;
    for (const Tensor& w : StepWeights(tf)) {
      const int k = w.shape()[0], n = w.shape()[1];
      const Tensor x = Tensor::Randn({in.max_batch, k}, 1.0f, &rng);
      std::vector<double> us;
      for (int r = 0; r < kRepeats; ++r) {
        us.push_back(TimeUs(spans, root, "tensor.MatMul", [&] {
          sink += static_cast<size_t>(vist5::ops::MatMul(x, w).shape()[0]);
        }));
      }
      flops += 2.0 * in.max_batch * k * n;
      seconds += Median(us) * 1e-6;
    }
    const double gflops = seconds > 0 ? flops / seconds / 1e9 : 0;
    put("tensor.gemm_gflops", gflops, "GFLOP/s");
    put("tensor.step_gemm_share",
        gflops > 0 && step_b8 > 0 ? flops / (gflops * 1e9) / (step_b8 * 1e-6)
                                  : 0,
        "fraction");
  }
  put("tensor.weight_mb_per_tok_f32", WeightMbPerToken(mdl, false), "MB");
  put("tensor.weight_mb_per_tok_int8", WeightMbPerToken(mdl, true), "MB");

  // --- spec: DraftVerifyEngine::Generate on the sample's speculative
  // requests.
  std::vector<double> spec_ms;
  if (in.draft != nullptr) {
    const vist5::spec::DraftVerifyEngine engine(&mdl, in.draft);
    for (const WalkRequest& r : in.spec_sample) {
      spec_ms.push_back(TimeUs(spans, root, "spec.Generate", [&] {
                          sink += engine.Generate(r.src, r.options).size();
                        }) /
                        1e3);
    }
  }
  put("spec.generate_p50_ms", Median(spec_ms), "ms");
  if (sink == 0) std::fprintf(stderr, "perfbench: layer walk produced nothing\n");
  return m;
}

}  // namespace perfbench
