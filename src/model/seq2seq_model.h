#ifndef VIST5_MODEL_SEQ2SEQ_MODEL_H_
#define VIST5_MODEL_SEQ2SEQ_MODEL_H_

#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace vist5 {
namespace nn {
class Module;
}  // namespace nn

namespace model {

/// One tokenized training pair. `tgt` must already end with EOS. `weight`
/// is the sampling weight used by temperature-mixed multi-task fine-tuning.
struct SeqPair {
  std::vector<int> src;
  std::vector<int> tgt;
  double weight = 1.0;
};

/// A padded mini-batch in the layout the models consume: row-major
/// [batch * seq] id arrays plus true lengths.
struct Batch {
  std::vector<int> enc_ids;
  std::vector<int> enc_lengths;
  int batch = 0;
  int enc_seq = 0;
  std::vector<int> dec_input;    ///< right-shifted targets, pad-started
  std::vector<int> dec_target;   ///< padding rows hold `ignore_index`
  std::vector<int> dec_lengths;
  int dec_seq = 0;
};

/// Ignore label used for padded decoder positions.
inline constexpr int kIgnoreIndex = -100;

/// Pads and packs `items` into a Batch. Sources longer than `max_src` and
/// targets longer than `max_tgt` are truncated (targets keep their final
/// EOS). `pad_id` doubles as the decoder start symbol, as in T5.
Batch MakeBatch(const std::vector<const SeqPair*>& items, int pad_id,
                int max_src, int max_tgt);

/// Decoding configuration.
struct GenerationOptions {
  int max_len = 48;
  int beam_size = 1;
  /// Softmax temperature for sampling; <= 0 selects greedy/beam decoding.
  float temperature = 0.0f;
  /// Restrict sampling to the k most likely tokens (0 = full vocabulary).
  int top_k = 0;
  /// RNG for sampling; required when temperature > 0.
  Rng* rng = nullptr;
  /// Optional vocabulary mask for grammar-constrained decoding (ncNet-style
  /// attention forcing): tokens for which this returns false are never
  /// emitted. Null means unconstrained. When no token is allowed at some
  /// step, decoding treats it as end-of-sequence.
  std::function<bool(int token)> allowed;
  /// Wall-clock decode budget in milliseconds (0 = unlimited). Generate
  /// and GenerateBatch count it from the call, prefill included; the serve
  /// scheduler counts it from the request's arrival. On expiry the
  /// decoders return the best result so far: greedy keeps the tokens
  /// emitted up to that point, beam search selects among finished and
  /// alive hypotheses exactly as it would when the step budget runs out.
  /// Serving uses this to bound per-request latency (docs/SERVING.md).
  int deadline_ms = 0;
  /// Precision the weight matrices are read at during this decode.
  /// kFloat32 is the exact path; kInt8 quantizes eligible projections at
  /// load (cached per weight version) and reads ~4x less weight traffic
  /// per token, at a bounded logit perturbation (docs/KERNELS.md).
  /// Requests with different dtypes never share a continuous decode batch.
  WeightDtype weight_dtype = WeightDtype::kFloat32;
  /// Speculative decoding: maximum tokens the draft model proposes per
  /// verify round (0 = off). Only meaningful for greedy decoding
  /// (beam_size == 1, temperature <= 0) in a ContinuousDecoder built with
  /// a draft (spec::DraftVerifyEngine, or a serve::BatchScheduler given a
  /// draft_model) — the committed tokens are bit-identical to plain greedy
  /// regardless of draft quality (docs/SPECULATIVE.md). A decoder without
  /// a draft decodes such a request as plain greedy.
  int draft_k = 0;
  /// Adapt the proposal length to the trailing acceptance rate: shrink
  /// toward 1 after rejections, regrow toward draft_k after full accepts.
  /// The policy is a deterministic function of committed token counts, so
  /// it never perturbs parity or thread-count determinism.
  bool draft_adaptive = true;
};

/// Abstract trainable sequence-to-sequence model (the unit of comparison in
/// every results table).
class Seq2SeqModel {
 public:
  virtual ~Seq2SeqModel() = default;

  /// Parameters the optimizer should update.
  virtual std::vector<Tensor> TrainableParameters() const = 0;

  /// The parameter-owning module whose full named-parameter set (including
  /// frozen tensors, e.g. a LoRA base) checkpoints save and restore.
  /// Returns nullptr for models that are not module-backed; training-state
  /// checkpointing (TrainOptions::checkpoint_dir) requires a non-null
  /// module.
  virtual nn::Module* CheckpointModule() { return nullptr; }

  /// Mean token cross-entropy over the batch.
  virtual Tensor BatchLoss(const Batch& batch, bool train, Rng* rng) const = 0;

  /// Decodes output ids (without EOS) for a single source.
  virtual std::vector<int> Generate(const std::vector<int>& src,
                                    const GenerationOptions& options) const = 0;
};

}  // namespace model
}  // namespace vist5

#endif  // VIST5_MODEL_SEQ2SEQ_MODEL_H_
