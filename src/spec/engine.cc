#include "spec/engine.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace vist5 {
namespace spec {

DraftVerifyEngine::DraftVerifyEngine(const model::TransformerSeq2Seq* base,
                                     const model::TransformerSeq2Seq* draft)
    : base_(base), draft_(draft) {
  VIST5_CHECK(base != nullptr);
  VIST5_CHECK(draft != nullptr);
  // Proposal and verify walk the same id space; a vocabulary or special-id
  // mismatch would silently destroy acceptance, so fail loudly instead.
  VIST5_CHECK_EQ(base->pad_id(), draft->pad_id());
  VIST5_CHECK_EQ(base->eos_id(), draft->eos_id());
  VIST5_CHECK_EQ(base->transformer().config().vocab_size,
                 draft->transformer().config().vocab_size);
}

std::vector<int> DraftVerifyEngine::Generate(
    const std::vector<int>& src, const model::GenerationOptions& options,
    const model::EncodedPrefix* base_prefix, SpecStats* stats,
    const std::function<void(int token, size_t seq)>& on_commit) const {
  VIST5_TRACE_SPAN("spec/generate");
  static obs::Counter* proposed_c = obs::GetCounter("spec/proposed");
  static obs::Counter* accepted_c = obs::GetCounter("spec/accepted");
  static obs::Counter* rejected_c = obs::GetCounter("spec/rejected");
  static obs::Counter* steps_c = obs::GetCounter("spec/steps");
  static obs::Histogram* accept_rate_h =
      obs::GetHistogram("spec/acceptance_rate");
  static obs::Histogram* tokens_per_step_h =
      obs::GetHistogram("spec/tokens_per_step");

  VIST5_CHECK_GE(options.draft_k, 1)
      << "DraftVerifyEngine requires draft_k >= 1";
  VIST5_CHECK(options.beam_size <= 1 && options.temperature <= 0.0f)
      << "speculative decoding is greedy-only";
  NoGradGuard guard;
  WeightDtypeGuard dtype_guard(options.weight_dtype);
  const auto t_start = std::chrono::steady_clock::now();

  const nn::Transformer& base_tf = base_->transformer();
  const nn::Transformer& draft_tf = draft_->transformer();
  const int pad = base_->pad_id();
  const int eos = base_->eos_id();

  // Base-side prefill, spliced from a prefix-cache block when one is
  // available: the copied DecodeState aliases the block's immutable cross
  // K/V (never written by DecodeStep or TruncateTo) while self K/V grow
  // fresh — the same contract ContinuousDecoder::Admit relies on.
  std::shared_ptr<const model::EncodedPrefix> base_block;
  if (base_prefix == nullptr) {
    base_block = base_->EncodePrefix(src, options.weight_dtype);
    base_prefix = base_block.get();
  }
  VIST5_CHECK(base_prefix->tokens == src)
      << "cached prefix block does not hold this request's tokens";
  VIST5_CHECK(base_prefix->dtype == options.weight_dtype)
      << "cached prefix block dtype mismatch";
  nn::DecodeState base_state = base_prefix->state;
  // The draft always prefills itself — its encoder states are cheap and
  // never shared with the base's prefix cache (different weights).
  nn::DecodeState draft_state =
      draft_->EncodePrefix(src, options.weight_dtype)->state;

  // Invariants per round, with P = [pad] ++ out:
  //   base_state.step  == |P| - 1   (base fed everything but P's last)
  //   draft_state.step <= |P| - 1 between rounds, and every token it was
  //   fed is a prefix of P (rollback below restores this after rejection).
  std::vector<int> out;
  SpecStats local;
  int k_cur = options.draft_k;
  const bool has_deadline = options.deadline_ms > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(has_deadline ? options.deadline_ms : 0);
  const auto token_at = [&](int i) {  // P[i]
    return i == 0 ? pad : out[static_cast<size_t>(i - 1)];
  };
  bool done = false;
  while (!done && static_cast<int>(out.size()) < options.max_len) {
    // Deadline expiry mid-decode returns the committed prefix — every
    // committed token is already a plain-greedy token, so the result stays
    // a prefix of the unbounded greedy decode (docs/SPECULATIVE.md).
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) break;
    const int p_len = static_cast<int>(out.size()) + 1;  // |P|
    // Never propose past max_len: j proposals commit at most j + 1 tokens.
    const int k_round =
        std::min(k_cur, options.max_len - static_cast<int>(out.size()) - 1);

    // --- Draft: catch up to P, then propose up to k_round tokens. ---
    std::vector<int> proposals;
    if (k_round > 0) {
      const int catch_up = p_len - draft_state.step;  // >= 1 (see invariant)
      std::vector<int> feed(static_cast<size_t>(catch_up));
      for (int i = 0; i < catch_up; ++i) {
        feed[static_cast<size_t>(i)] = token_at(draft_state.step + i);
      }
      Tensor hidden = draft_tf.DecodeStep(feed, &draft_state, catch_up);
      Tensor logits =
          draft_tf.Logits(ops::GatherRows(hidden, {catch_up - 1}));
      const int vocab = logits.dim(1);
      int cand =
          model::BestAllowedToken(logits.data().data(), vocab,
                                  options.allowed);
      // A draft EOS/dead-end just ends the proposal run (EOS is never
      // proposed): an empty run degenerates to one plain base step below.
      while (cand >= 0 && cand != eos &&
             static_cast<int>(proposals.size()) < k_round) {
        proposals.push_back(cand);
        if (static_cast<int>(proposals.size()) == k_round) break;
        Tensor h = draft_tf.DecodeStep({cand}, &draft_state);
        Tensor l = draft_tf.Logits(h);
        cand = model::BestAllowedToken(l.data().data(), l.dim(1),
                                       options.allowed);
      }
    }
    const int j = static_cast<int>(proposals.size());

    // --- Base: score the pending token plus all j proposals in ONE span
    // forward. Row i predicts the token after prefix P ++ proposals[0..i).
    std::vector<int> span_ids;
    span_ids.reserve(static_cast<size_t>(j) + 1);
    span_ids.push_back(token_at(p_len - 1));
    span_ids.insert(span_ids.end(), proposals.begin(), proposals.end());
    Tensor hidden = base_tf.DecodeStep(span_ids, &base_state, j + 1);
    Tensor logits = base_tf.Logits(hidden);  // [j + 1, V]
    const int vocab = logits.dim(1);

    // --- Accept the longest matching prefix + one corrective token. ---
    const size_t committed_before = out.size();
    int accepted = 0;  // proposals[0..accepted) matched the base argmax
    for (int i = 0; i <= j; ++i) {
      const float* row =
          logits.data().data() + static_cast<size_t>(i) * vocab;
      const int best = model::BestAllowedToken(row, vocab, options.allowed);
      if (best < 0 || best == eos) {
        done = true;  // greedy would stop exactly here
        break;
      }
      if (i < j && proposals[static_cast<size_t>(i)] == best) {
        out.push_back(best);
        ++accepted;
        continue;
      }
      out.push_back(best);  // corrective (i < j) or bonus (i == j) token
      break;
    }

    if (on_commit) {
      // Publish the round's accepted run only now that it is final: every
      // token below is the base argmax for its prefix and will never be
      // rolled back.
      for (size_t i = committed_before; i < out.size(); ++i) {
        on_commit(out[i], i);
      }
    }

    local.proposed += j;
    local.accepted += accepted;
    local.rejected += j - accepted;
    local.committed = static_cast<int64_t>(out.size());
    ++local.steps;
    if (local.ttft_ms == 0 && !out.empty()) {
      local.ttft_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t_start)
                          .count();
    }

    if (!done) {
      // --- Roll back both caches to the committed prefix. Base was fed
      // |P_old| + j tokens but only |P_new| - 1 = |P_old| + accepted are
      // valid; the draft's fed tokens match P_new up to
      // |P_old| + min(j - 1, accepted).
      base_state.TruncateTo(p_len + accepted);
      draft_state.TruncateTo(
          std::min(draft_state.step, p_len + std::min(j - 1, accepted)));
      // Adaptive k (docs/SPECULATIVE.md): additive increase on a fully
      // accepted run, halving on any rejection — a pure function of the
      // accept/reject history, so determinism and parity are untouched.
      if (options.draft_adaptive && j > 0) {
        k_cur = accepted == j ? std::min(options.draft_k, k_cur + 1)
                              : std::max(1, k_cur / 2);
      }
    }
  }

  proposed_c->Add(local.proposed);
  accepted_c->Add(local.accepted);
  rejected_c->Add(local.rejected);
  steps_c->Add(local.steps);
  if (local.proposed > 0) accept_rate_h->Observe(local.acceptance_rate());
  if (local.steps > 0) tokens_per_step_h->Observe(local.tokens_per_step());
  if (stats != nullptr) {
    stats->proposed += local.proposed;
    stats->accepted += local.accepted;
    stats->rejected += local.rejected;
    stats->committed += local.committed;
    stats->steps += local.steps;
    if (stats->ttft_ms == 0) stats->ttft_ms = local.ttft_ms;
  }
  return out;
}

}  // namespace spec
}  // namespace vist5
