#include "model/batch_decoder.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace vist5 {
namespace model {

size_t EncodedPrefix::ByteSize() const {
  const auto tensor_bytes = [](const Tensor& t) {
    return t.defined()
               ? static_cast<size_t>(t.NumElements()) * sizeof(float)
               : size_t{0};
  };
  size_t bytes = tokens.size() * sizeof(int);
  bytes += tensor_bytes(memory);
  for (const nn::DecodeState::LayerCache& layer : state.layers) {
    bytes += tensor_bytes(layer.cross_k) + tensor_bytes(layer.cross_v);
  }
  return bytes;
}

std::shared_ptr<const EncodedPrefix> TransformerSeq2Seq::EncodePrefix(
    const std::vector<int>& src, WeightDtype dtype) const {
  VIST5_CHECK(!src.empty());
  NoGradGuard guard;
  WeightDtypeGuard dtype_guard(dtype);
  auto block = std::make_shared<EncodedPrefix>();
  block->tokens = src;
  block->dtype = dtype;
  const int src_len = static_cast<int>(src.size());
  const std::vector<int> lengths = {src_len};
  block->memory = transformer_->Encode(src, 1, src_len, lengths,
                                       /*train=*/false, nullptr);
  block->state = transformer_->BeginDecode(block->memory, 1, src_len,
                                           lengths);
  return block;
}

void ContinuousDecoder::Admit(uint64_t id, const std::vector<int>& src,
                              const GenerationOptions& options,
                              Clock::time_point deadline,
                              const EncodedPrefix* prefill) {
  VIST5_CHECK(options.beam_size <= 1 && options.temperature <= 0.0f)
      << "ContinuousDecoder batches greedy requests only";
  VIST5_CHECK(!src.empty());
  if (rows_.empty()) {
    batch_dtype_ = options.weight_dtype;
  } else {
    VIST5_CHECK(options.weight_dtype == batch_dtype_)
        << "weight_dtype " << WeightDtypeName(options.weight_dtype)
        << " cannot join a " << WeightDtypeName(batch_dtype_) << " batch";
  }
  NoGradGuard guard;
  WeightDtypeGuard dtype_guard(batch_dtype_);
  nn::DecodeState fresh;
  if (prefill != nullptr) {
    VIST5_CHECK(prefill->tokens == src)
        << "cached prefix block does not hold this request's tokens";
    VIST5_CHECK(prefill->dtype == batch_dtype_)
        << "cached prefix block computed at "
        << WeightDtypeName(prefill->dtype) << " cannot join a "
        << WeightDtypeName(batch_dtype_) << " batch";
    // Splice: copy the state *structure*; its tensor handles alias the
    // block's storage. The loop below installs fresh self caches in this
    // copy only, and every later cross-cache mutation (Reorder's
    // GatherBatch, MergeFrom's ConcatBatch) replaces handles with copies,
    // so the shared block stays bit-exact for the next consumer.
    fresh = prefill->state;
  } else {
    const int src_len = static_cast<int>(src.size());
    const std::vector<int> lengths = {src_len};
    Tensor memory = model_->transformer().Encode(src, 1, src_len, lengths,
                                                 /*train=*/false, nullptr);
    fresh = model_->transformer().BeginDecode(memory, 1, src_len, lengths);
  }
  // Preallocate the self-attention caches to the row's full step budget.
  // The capacity beyond a row's position is never read, and it lets every
  // subsequent decode step write keys/values in place instead of
  // reallocating the whole cache (ops::ScatterTime).
  const int capacity = std::max(options.max_len, 1);
  for (nn::DecodeState::LayerCache& layer : fresh.layers) {
    const int heads = layer.cross_k.dim(1);
    const int dh = layer.cross_k.dim(3);
    layer.self_k = Tensor({1, heads, capacity, dh});
    layer.self_v = Tensor({1, heads, capacity, dh});
  }
  state_.MergeFrom(std::move(fresh));
  Row row;
  row.id = id;
  row.options = options;
  row.deadline = deadline;
  row.prev = model_->pad_id();
  rows_.push_back(std::move(row));
}

void ContinuousDecoder::Evict(const std::vector<int>& survivors) {
  if (static_cast<int>(survivors.size()) == active()) return;
  state_.Reorder(survivors);
  std::vector<Row> kept;
  kept.reserve(survivors.size());
  for (int idx : survivors) {
    kept.push_back(std::move(rows_[static_cast<size_t>(idx)]));
  }
  rows_ = std::move(kept);
}

std::vector<ContinuousDecoder::Finished> ContinuousDecoder::Step(
    std::vector<Emitted>* emitted) {
  std::vector<Finished> done;
  if (rows_.empty()) return done;
  VIST5_TRACE_SPAN("model/batch_decode_step");
  // Covers the pre-step sweep too: its Evict reorders KV caches through
  // inference-only ops (GatherBatch), not just the decode step below.
  NoGradGuard guard;
  WeightDtypeGuard dtype_guard(batch_dtype_);

  // Pre-step sweep: rows past their deadline (or with no step budget at
  // all) leave with their best-so-far tokens before paying for another
  // decode step.
  const Clock::time_point now = Clock::now();
  std::vector<int> survivors;
  survivors.reserve(rows_.size());
  for (int b = 0; b < active(); ++b) {
    Row& row = rows_[static_cast<size_t>(b)];
    if (static_cast<int>(row.out.size()) >= row.options.max_len) {
      done.push_back({row.id, std::move(row.out), false});
    } else if (row.deadline <= now) {
      done.push_back({row.id, std::move(row.out), true});
    } else {
      survivors.push_back(b);
    }
  }
  Evict(survivors);
  if (rows_.empty()) return done;

  std::vector<int> next_ids(rows_.size());
  for (size_t b = 0; b < rows_.size(); ++b) next_ids[b] = rows_[b].prev;
  Tensor hidden = model_->transformer().DecodeStep(next_ids, &state_);
  Tensor logits = model_->transformer().Logits(hidden);  // [B, V]
  const int vocab = logits.dim(1);
  const float* data = logits.data().data();

  survivors.clear();
  for (int b = 0; b < active(); ++b) {
    Row& row = rows_[static_cast<size_t>(b)];
    const int next = BestAllowedToken(data + static_cast<size_t>(b) * vocab,
                                      vocab, row.options.allowed);
    // Same termination rule as GreedyDecode: stop without emitting on EOS
    // or an exhausted constraint, otherwise emit and stop once max_len
    // tokens are out.
    bool finished = next < 0 || next == model_->eos_id();
    if (!finished) {
      row.out.push_back(next);
      row.prev = next;
      if (emitted != nullptr) emitted->push_back({row.id, next});
      finished = static_cast<int>(row.out.size()) >= row.options.max_len;
    }
    if (finished) {
      done.push_back({row.id, std::move(row.out), false});
    } else {
      survivors.push_back(b);
    }
  }
  Evict(survivors);
  return done;
}

std::vector<std::vector<int>> TransformerSeq2Seq::GenerateBatch(
    const std::vector<std::vector<int>>& srcs,
    const GenerationOptions& options) const {
  std::vector<std::vector<int>> out(srcs.size());
  if (srcs.empty()) return out;
  if (options.beam_size > 1 || options.temperature > 0.0f) {
    for (size_t i = 0; i < srcs.size(); ++i) {
      out[i] = Generate(srcs[i], options);
    }
    return out;
  }
  VIST5_TRACE_SPAN("model/generate_batch");
  static obs::Counter* batched_calls = obs::GetCounter("decode/batched_calls");
  static obs::Counter* tokens = obs::GetCounter("decode/tokens");
  const auto deadline =
      options.deadline_ms > 0
          ? ContinuousDecoder::Clock::now() +
                std::chrono::milliseconds(options.deadline_ms)
          : ContinuousDecoder::Clock::time_point::max();
  ContinuousDecoder decoder(this);
  for (size_t i = 0; i < srcs.size(); ++i) {
    decoder.Admit(static_cast<uint64_t>(i), srcs[i], options, deadline);
  }
  while (decoder.active() > 0) {
    for (ContinuousDecoder::Finished& f : decoder.Step()) {
      tokens->Add(static_cast<int64_t>(f.tokens.size()));
      out[static_cast<size_t>(f.id)] = std::move(f.tokens);
    }
  }
  batched_calls->Add();
  return out;
}

}  // namespace model
}  // namespace vist5
