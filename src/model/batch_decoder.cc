#include "model/batch_decoder.h"

#include <algorithm>
#include <chrono>
#include <memory>
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
  const Tensor memory = transformer_->Encode(src, 1, src_len, lengths,
                                             /*train=*/false, nullptr);
  block->state = transformer_->BeginDecode(memory, 1, src_len, lengths);
  return block;
}

ContinuousDecoder::Clock::time_point ContinuousDecoder::Deadline(
    const GenerationOptions& options, Clock::time_point start) {
  return options.deadline_ms > 0
             ? start + std::chrono::milliseconds(options.deadline_ms)
             : Clock::time_point::max();
}

ContinuousDecoder::ContinuousDecoder(const TransformerSeq2Seq* model,
                                     const TransformerSeq2Seq* draft)
    : model_(model), draft_(draft) {
  if (draft == nullptr) return;
  // Proposal and verify walk the same id space; a vocabulary or special-id
  // mismatch would silently destroy acceptance, so fail loudly instead.
  VIST5_CHECK_EQ(model->pad_id(), draft->pad_id());
  VIST5_CHECK_EQ(model->eos_id(), draft->eos_id());
  VIST5_CHECK_EQ(model->transformer().config().vocab_size,
                 draft->transformer().config().vocab_size);
}

void ContinuousDecoder::Admit(uint64_t id, const std::vector<int>& src,
                              const GenerationOptions& options,
                              Clock::time_point deadline,
                              const EncodedPrefix* prefill) {
  VIST5_CHECK(!src.empty());
  VIST5_CHECK(options.temperature <= 0 || options.rng != nullptr)
      << "sampling (temperature > 0) needs options.rng";
  const bool speculative = draft_ != nullptr && options.draft_k > 0;
  VIST5_CHECK(!speculative ||
              (options.beam_size <= 1 && options.temperature <= 0))
      << "speculative decoding is greedy-only";
  // A speculative request's verify span is wider than a plain row's one
  // token, and every row of a DecodeStep consumes the same span.
  VIST5_CHECK(requests_.empty() ||
              (!speculative && requests_.front().k == 0))
      << "a speculative request decodes alone";
  if (requests_.empty()) {
    batch_dtype_ = options.weight_dtype;
  } else {
    VIST5_CHECK(options.weight_dtype == batch_dtype_)
        << "weight_dtype " << WeightDtypeName(options.weight_dtype)
        << " cannot join a " << WeightDtypeName(batch_dtype_) << " batch";
  }
  NoGradGuard guard;
  WeightDtypeGuard dtype_guard(batch_dtype_);
  std::shared_ptr<const EncodedPrefix> computed;
  if (prefill == nullptr) {
    computed = model_->EncodePrefix(src, batch_dtype_);
    prefill = computed.get();
  }
  VIST5_CHECK(prefill->tokens == src)
      << "cached prefix block does not hold this request's tokens";
  VIST5_CHECK(prefill->dtype == batch_dtype_)
      << "cached prefix block computed at " << WeightDtypeName(prefill->dtype)
      << " cannot join a " << WeightDtypeName(batch_dtype_) << " batch";
  // Splice: copy the block's state, whose cross K/V handles alias the
  // block's storage. The loop below installs fresh self caches in this
  // copy only. MergeFrom and Reorder move handles and no step writes cross
  // K/V, so the row aliases the block for its whole decode and the block
  // stays bit-exact for the next consumer.
  nn::DecodeState fresh = prefill->state;
  if (options.beam_size <= 1) {
    // Preallocate the row's self-attention caches to its full step budget.
    // The capacity beyond the row's position is never read, and it lets
    // every decode step write keys/values in place instead of growing the
    // cache by a copy (EnsureWritableCache, src/nn/attention.cc). A verify
    // span never writes past max_len - 1 either (Propose). Beam rows get
    // no slab: a forked row copies its parent's cache on its first write,
    // and a slab would make each such copy cover all max_len positions, so
    // their caches grow with the hypotheses instead.
    const int capacity = std::max(options.max_len, 1);
    for (nn::DecodeState::LayerCache& layer : fresh.layers) {
      const int heads = layer.cross_k.dim(1);
      const int dh = layer.cross_k.dim(3);
      layer.self_k = Tensor({1, heads, capacity, dh});
      layer.self_v = Tensor({1, heads, capacity, dh});
    }
  }
  state_.MergeFrom(std::move(fresh));
  Request request;
  request.id = id;
  request.options = options;
  request.deadline = deadline;
  request.beams = {{{model_->pad_id()}, 0.0}};
  if (speculative) {
    // The draft always prefills itself: its encoder states differ from
    // the base's, so a prefix-cache block never serves it.
    request.k = options.draft_k;
    request.draft = draft_->EncodePrefix(src, batch_dtype_)->state;
  }
  requests_.push_back(std::move(request));
}

void ContinuousDecoder::Finish(Request* request, bool deadline_expired,
                               std::vector<Finished>* done,
                               std::vector<Emitted>* emitted) {
  request->done = true;
  Finished f;
  f.id = request->id;
  f.deadline_expired = deadline_expired;
  if (request->options.beam_size > 1) {
    f.tokens =
        SelectBeamResult(std::move(request->finished), request->beams);
    if (emitted != nullptr) {
      for (int token : f.tokens) emitted->push_back({request->id, token});
    }
  } else {
    const std::vector<int>& tokens = request->beams.front().tokens;
    f.tokens.assign(tokens.begin() + 1, tokens.end());
  }
  if (request->k > 0) {
    static obs::Counter* proposed = obs::GetCounter("spec/proposed");
    static obs::Counter* accepted = obs::GetCounter("spec/accepted");
    static obs::Counter* rejected = obs::GetCounter("spec/rejected");
    static obs::Counter* steps = obs::GetCounter("spec/steps");
    static obs::Histogram* accept_rate =
        obs::GetHistogram("spec/acceptance_rate");
    static obs::Histogram* tokens_per_step =
        obs::GetHistogram("spec/tokens_per_step");
    const SpecStats& spec = request->spec;
    proposed->Add(spec.proposed);
    accepted->Add(spec.accepted);
    rejected->Add(spec.rejected);
    steps->Add(spec.steps);
    if (spec.proposed > 0) accept_rate->Observe(spec.acceptance_rate());
    if (spec.steps > 0) tokens_per_step->Observe(spec.tokens_per_step());
    f.spec = spec;
  }
  done->push_back(std::move(f));
}

void ContinuousDecoder::Retain(const std::vector<int>& parents) {
  state_.Reorder(parents);
  std::erase_if(requests_, [](const Request& r) { return r.done; });
}

std::vector<int> ContinuousDecoder::Propose(Request* request) const {
  const GenerationOptions& options = request->options;
  const std::vector<int>& tokens = request->beams.front().tokens;
  const int k = std::min(request->k,
                         options.max_len - static_cast<int>(tokens.size()));
  std::vector<int> proposals;
  if (k <= 0) return proposals;
  const nn::Transformer& draft = draft_->transformer();
  nn::DecodeState* state = &request->draft;
  // Catch up on the committed tokens the draft has not consumed (at least
  // the last one) in one span, then propose from its last position.
  const std::vector<int> feed(tokens.begin() + state->step, tokens.end());
  const int catch_up = static_cast<int>(feed.size());
  Tensor logits = draft.Logits(ops::GatherRows(
      draft.DecodeStep(feed, state, catch_up), {catch_up - 1}));
  for (;;) {
    const int next = BestAllowedToken(logits.data().data(), logits.dim(1),
                                      options.allowed);
    if (next < 0 || next == model_->eos_id()) break;  // never proposed
    proposals.push_back(next);
    if (static_cast<int>(proposals.size()) == k) break;
    logits = draft.Logits(draft.DecodeStep({next}, state));
  }
  return proposals;
}

void ContinuousDecoder::EndRound(Request* request, int p_len, int j,
                                 int accepted, bool finished) {
  SpecStats& spec = request->spec;
  spec.proposed += j;
  spec.accepted += accepted;
  spec.rejected += j - accepted;
  spec.committed =
      static_cast<int64_t>(request->beams.front().tokens.size()) - 1;
  ++spec.steps;
  if (finished) return;
  // The base was fed p_len - 1 + j + 1 tokens, of which p_len + accepted
  // stay valid; the draft's fed tokens match the commit up to
  // p_len + min(j - 1, accepted).
  state_.TruncateTo(p_len + accepted);
  request->draft.TruncateTo(
      std::min(request->draft.step, p_len + std::min(j - 1, accepted)));
  // Adaptive k (docs/SPECULATIVE.md): additive increase on a fully
  // accepted run, halving on any rejection — a pure function of the
  // accept/reject history, so parity is untouched.
  const GenerationOptions& options = request->options;
  if (options.draft_adaptive && j > 0) {
    request->k = accepted == j ? std::min(options.draft_k, request->k + 1)
                               : std::max(1, request->k / 2);
  }
}

std::vector<ContinuousDecoder::Finished> ContinuousDecoder::Step(
    std::vector<Emitted>* emitted) {
  std::vector<Finished> done;
  if (requests_.empty()) return done;
  VIST5_TRACE_SPAN("model/batch_decode_step");
  NoGradGuard guard;
  WeightDtypeGuard dtype_guard(batch_dtype_);

  // Pre-step sweep: requests past their deadline (or with no step budget
  // at all) leave with their best-so-far result before paying for another
  // decode step.
  const Clock::time_point now = Clock::now();
  std::vector<int> parents;  // surviving rows, as old row indices
  int row = 0;
  for (Request& request : requests_) {
    const int rows = static_cast<int>(request.beams.size());
    if (request.steps >= request.options.max_len) {
      Finish(&request, false, &done, emitted);
    } else if (request.deadline <= now) {
      Finish(&request, true, &done, emitted);
    } else {
      for (int r = 0; r < rows; ++r) parents.push_back(row + r);
    }
    row += rows;
  }
  if (!done.empty()) Retain(parents);
  if (requests_.empty()) return done;

  // A speculative request decodes alone, so its proposals set the span
  // of the step: row 0 feeds its last committed token, then each of them.
  const std::vector<int> proposals = requests_.front().k > 0
                                         ? Propose(&requests_.front())
                                         : std::vector<int>{};
  const int span = static_cast<int>(proposals.size()) + 1;
  std::vector<int> next_ids;
  next_ids.reserve(static_cast<size_t>(state_.batch * span));
  for (const Request& request : requests_) {
    for (const BeamHypothesis& h : request.beams) {
      next_ids.push_back(h.tokens.back());
    }
  }
  next_ids.insert(next_ids.end(), proposals.begin(), proposals.end());
  Tensor hidden = model_->transformer().DecodeStep(next_ids, &state_, span);
  Tensor logits = model_->transformer().Logits(hidden);  // [rows*span, V]
  const int vocab = logits.dim(1);

  parents.clear();
  row = 0;
  for (Request& request : requests_) {
    const GenerationOptions& options = request.options;
    const float* scores =
        logits.data().data() + static_cast<size_t>(row) * span * vocab;
    const int first_row = row;
    row += static_cast<int>(request.beams.size());
    ++request.steps;
    bool finished = false;
    if (options.beam_size > 1) {
      // Beam search ends when no hypothesis is left, beam_size have
      // finished, or max_len steps are taken.
      BeamExpansion next =
          ExpandBeams(scores, vocab, request.beams, options.beam_size,
                      options, model_->eos_id(), &request.finished);
      request.beams = std::move(next.beams);
      finished = request.beams.empty() ||
                 static_cast<int>(request.finished.size()) >=
                     options.beam_size ||
                 request.steps >= options.max_len;
      if (!finished) {
        for (int parent : next.parents) parents.push_back(first_row + parent);
      }
    } else {
      // Commit this row's pick at each span position: it confirms the
      // proposal there and moves on, or it replaces the first mismatch
      // (or follows the last proposal) and the round ends. A plain row
      // commits exactly one token. Stop without committing on EOS or an
      // exhausted constraint, otherwise once max_len tokens are out.
      std::vector<int>& tokens = request.beams.front().tokens;
      const int p_len = static_cast<int>(tokens.size());
      int accepted = 0;
      for (int i = 0; i < span; ++i) {
        const float* pos = scores + static_cast<size_t>(i) * vocab;
        const int next = options.temperature > 0
                             ? SampleToken(pos, vocab, options)
                             : BestAllowedToken(pos, vocab, options.allowed);
        if (next < 0 || next == model_->eos_id()) {
          finished = true;
          break;
        }
        tokens.push_back(next);
        if (emitted != nullptr) emitted->push_back({request.id, next});
        if (i == span - 1 || next != proposals[static_cast<size_t>(i)]) break;
        ++accepted;
      }
      finished = finished || static_cast<int>(tokens.size()) > options.max_len;
      if (request.k > 0) {
        EndRound(&request, p_len, span - 1, accepted, finished);
      }
      if (!finished) parents.push_back(first_row);
    }
    if (finished) Finish(&request, false, &done, emitted);
  }
  // Runs even when no request finished, because beam ranges reorder their
  // rows every step; Reorder returns at once when the rows are unchanged.
  Retain(parents);
  return done;
}

namespace {

/// Runs every source through one ContinuousDecoder to completion; entry i
/// of the result holds source i's tokens.
std::vector<std::vector<int>> DecodeAll(
    const TransformerSeq2Seq* model,
    const std::vector<std::vector<int>>& srcs,
    const GenerationOptions& options) {
  const auto deadline =
      ContinuousDecoder::Deadline(options, ContinuousDecoder::Clock::now());
  ContinuousDecoder decoder(model);
  for (size_t i = 0; i < srcs.size(); ++i) {
    decoder.Admit(static_cast<uint64_t>(i), srcs[i], options, deadline);
  }
  std::vector<std::vector<int>> out(srcs.size());
  while (decoder.active() > 0) {
    for (ContinuousDecoder::Finished& f : decoder.Step()) {
      out[static_cast<size_t>(f.id)] = std::move(f.tokens);
    }
  }
  return out;
}

}  // namespace

std::vector<int> TransformerSeq2Seq::Generate(
    const std::vector<int>& src, const GenerationOptions& options) const {
  VIST5_TRACE_SPAN("model/generate");
  static obs::Counter* cached_calls = obs::GetCounter("decode/cached_calls");
  static obs::Counter* tokens = obs::GetCounter("decode/tokens");
  static obs::Histogram* tps = obs::GetHistogram("decode/tokens_per_sec");

  const bool timed = obs::LatencySamplingEnabled();
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  std::vector<int> out = std::move(DecodeAll(this, {src}, options).front());
  cached_calls->Add();
  tokens->Add(static_cast<int64_t>(out.size()));
  if (timed && !out.empty()) {
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (secs > 0) tps->Observe(static_cast<double>(out.size()) / secs);
  }
  return out;
}

std::vector<std::vector<int>> TransformerSeq2Seq::GenerateBatch(
    const std::vector<std::vector<int>>& srcs,
    const GenerationOptions& options) const {
  if (srcs.empty()) return {};
  VIST5_TRACE_SPAN("model/generate_batch");
  static obs::Counter* batched_calls = obs::GetCounter("decode/batched_calls");
  static obs::Counter* tokens = obs::GetCounter("decode/tokens");
  std::vector<std::vector<int>> out = DecodeAll(this, srcs, options);
  for (const std::vector<int>& row : out) {
    tokens->Add(static_cast<int64_t>(row.size()));
  }
  batched_calls->Add();
  return out;
}

}  // namespace model
}  // namespace vist5
