#include "model/transformer_model.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vist5 {
namespace model {

// Returning -1 on "nothing allowed" (rather than emitting token 0) matters:
// pad would loop until max_len producing pad garbage.
int BestAllowedToken(const float* row, int vocab,
                     const std::function<bool(int)>& allowed) {
  int best = -1;
  float best_score = -1e30f;
  for (int v = 0; v < vocab; ++v) {
    if (allowed && !allowed(v)) continue;
    if (row[v] > best_score) {
      best_score = row[v];
      best = v;
    }
  }
  return best;
}

namespace {

/// Temperature + top-k sampling over a logits row. Returns -1 when no
/// token is allowed (treated as end-of-sequence by callers).
int SampleToken(const float* row, int vocab, const GenerationOptions& opts) {
  std::vector<std::pair<float, int>> scored;
  scored.reserve(static_cast<size_t>(vocab));
  for (int v = 0; v < vocab; ++v) {
    if (opts.allowed && !opts.allowed(v)) continue;
    scored.emplace_back(row[v] / opts.temperature, v);
  }
  if (scored.empty()) return -1;
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (opts.top_k > 0 && static_cast<int>(scored.size()) > opts.top_k) {
    scored.resize(static_cast<size_t>(opts.top_k));
  }
  const float maxv = scored[0].first;
  std::vector<double> weights;
  weights.reserve(scored.size());
  for (const auto& [s, v] : scored) weights.push_back(std::exp(s - maxv));
  const int pick = opts.rng->Categorical(weights);
  return scored[static_cast<size_t>(pick)].second;
}

/// Log-softmax of one logits row (for beam scoring).
std::vector<float> LogSoftmaxRow(const float* row, int vocab) {
  float maxv = row[0];
  for (int v = 1; v < vocab; ++v) maxv = std::max(maxv, row[v]);
  double sum = 0;
  for (int v = 0; v < vocab; ++v) sum += std::exp(row[v] - maxv);
  const float lse = maxv + static_cast<float>(std::log(sum));
  std::vector<float> out(static_cast<size_t>(vocab));
  for (int v = 0; v < vocab; ++v) out[static_cast<size_t>(v)] = row[v] - lse;
  return out;
}

}  // namespace

BeamExpansion ExpandBeams(
    const Tensor& logits, const std::vector<BeamHypothesis>& beams, int k,
    const GenerationOptions& options, int eos_id,
    std::vector<std::pair<std::vector<int>, double>>* finished) {
  const int nb = static_cast<int>(beams.size());
  const int vocab = logits.dim(1);

  struct Candidate {
    int beam;
    int token;
    double log_prob;
  };
  std::vector<Candidate> candidates;
  for (int b = 0; b < nb; ++b) {
    const float* row =
        logits.data().data() + static_cast<size_t>(b) * vocab;
    const std::vector<float> logp = LogSoftmaxRow(row, vocab);
    std::vector<int> order;
    order.reserve(static_cast<size_t>(vocab));
    for (int v = 0; v < vocab; ++v) {
      if (options.allowed && !options.allowed(v)) continue;
      order.push_back(v);
    }
    if (order.empty()) {
      // Nothing allowed: end this hypothesis as-is (no EOS log-prob to
      // add, so normalize by the tokens actually emitted).
      std::vector<int> out(beams[static_cast<size_t>(b)].tokens.begin() + 1,
                           beams[static_cast<size_t>(b)].tokens.end());
      const double norm = beams[static_cast<size_t>(b)].log_prob /
                          std::max<size_t>(1, out.size());
      finished->emplace_back(std::move(out), norm);
      continue;
    }
    const int keep = std::min<int>(2 * k, static_cast<int>(order.size()));
    std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                      [&](int a, int c) {
                        return logp[static_cast<size_t>(a)] >
                               logp[static_cast<size_t>(c)];
                      });
    for (int i = 0; i < keep; ++i) {
      candidates.push_back({b, order[static_cast<size_t>(i)],
                            beams[static_cast<size_t>(b)].log_prob +
                                logp[static_cast<size_t>(
                                    order[static_cast<size_t>(i)])]});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.log_prob > b.log_prob;
            });

  BeamExpansion next;
  for (const Candidate& c : candidates) {
    if (static_cast<int>(next.beams.size()) >= k) break;
    if (c.token == eos_id) {
      std::vector<int> tokens(
          beams[static_cast<size_t>(c.beam)].tokens.begin() + 1,
          beams[static_cast<size_t>(c.beam)].tokens.end());
      const double norm = c.log_prob / std::max<size_t>(1, tokens.size() + 1);
      finished->emplace_back(std::move(tokens), norm);
      continue;
    }
    BeamHypothesis h = beams[static_cast<size_t>(c.beam)];
    h.tokens.push_back(c.token);
    h.log_prob = c.log_prob;
    next.beams.push_back(std::move(h));
    next.parents.push_back(c.beam);
  }
  return next;
}

std::vector<int> SelectBeamResult(
    std::vector<std::pair<std::vector<int>, double>> finished,
    const std::vector<BeamHypothesis>& alive) {
  for (const BeamHypothesis& h : alive) {
    std::vector<int> out(h.tokens.begin() + 1, h.tokens.end());
    const double norm = h.log_prob / std::max<size_t>(1, out.size());
    finished.emplace_back(std::move(out), norm);
  }
  if (finished.empty()) return {};
  size_t best = 0;
  for (size_t i = 1; i < finished.size(); ++i) {
    if (finished[i].second > finished[best].second) best = i;
  }
  return std::move(finished[best].first);
}

TransformerSeq2Seq::TransformerSeq2Seq(const nn::TransformerConfig& config,
                                       int pad_id, int eos_id, uint64_t seed)
    : pad_id_(pad_id), eos_id_(eos_id) {
  Rng rng(seed);
  transformer_ = std::make_unique<nn::Transformer>(config, &rng);
}

Tensor TransformerSeq2Seq::BatchLoss(const Batch& batch, bool train,
                                     Rng* rng) const {
  return transformer_->Loss(batch.enc_ids, batch.batch, batch.enc_seq,
                            batch.enc_lengths, batch.dec_input,
                            batch.dec_target, batch.dec_seq,
                            batch.dec_lengths, train, rng);
}

std::vector<int> TransformerSeq2Seq::Generate(
    const std::vector<int>& src, const GenerationOptions& options) const {
  VIST5_TRACE_SPAN("model/generate");
  static obs::Counter* cached_calls = obs::GetCounter("decode/cached_calls");
  static obs::Counter* tokens = obs::GetCounter("decode/tokens");
  static obs::Histogram* tps = obs::GetHistogram("decode/tokens_per_sec");

  const bool timed = obs::LatencySamplingEnabled();
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  std::vector<int> out = options.beam_size <= 1 ? GreedyDecode(src, options)
                                                : BeamDecode(src, options);
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

std::vector<int> TransformerSeq2Seq::GreedyDecode(
    const std::vector<int>& src, const GenerationOptions& options) const {
  NoGradGuard guard;
  WeightDtypeGuard dtype_guard(options.weight_dtype);
  const int src_len = static_cast<int>(src.size());
  const std::vector<int> src_lengths = {src_len};
  Tensor memory = transformer_->Encode(src, 1, src_len, src_lengths,
                                       /*train=*/false, nullptr);
  nn::DecodeState state =
      transformer_->BeginDecode(memory, 1, src_len, src_lengths);
  std::vector<int> out;
  int prev = pad_id_;
  const bool has_deadline = options.deadline_ms > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(has_deadline ? options.deadline_ms : 0);
  for (int step = 0; step < options.max_len; ++step) {
    // Deadline expiry returns the best-so-far prefix instead of throwing
    // work away (serving's per-request latency bound).
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) break;
    Tensor hidden = transformer_->DecodeStep({prev}, &state);  // [1, d]
    Tensor logits = transformer_->Logits(hidden);              // [1, V]
    const int vocab = logits.dim(1);
    const float* row = logits.data().data();
    const bool sample = options.temperature > 0 && options.rng != nullptr;
    const int next = sample ? SampleToken(row, vocab, options)
                            : BestAllowedToken(row, vocab, options.allowed);
    if (next < 0 || next == eos_id_) break;
    out.push_back(next);
    prev = next;
  }
  return out;
}

std::vector<int> TransformerSeq2Seq::BeamDecode(
    const std::vector<int>& src, const GenerationOptions& options) const {
  NoGradGuard guard;
  WeightDtypeGuard dtype_guard(options.weight_dtype);
  const int k = options.beam_size;
  const int src_len = static_cast<int>(src.size());
  const std::vector<int> one_length = {src_len};
  Tensor memory = transformer_->Encode(src, 1, src_len, one_length,
                                       /*train=*/false, nullptr);
  nn::DecodeState state =
      transformer_->BeginDecode(memory, 1, src_len, one_length);

  std::vector<BeamHypothesis> beams = {{{pad_id_}, 0.0}};
  std::vector<std::pair<std::vector<int>, double>> finished;

  const bool has_deadline = options.deadline_ms > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(has_deadline ? options.deadline_ms : 0);
  for (int step = 0; step < options.max_len && !beams.empty(); ++step) {
    // On deadline expiry, select among what exists so far — the same
    // choice rule as when the step budget runs out.
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) break;
    const int nb = static_cast<int>(beams.size());
    // Feed only each hypothesis' newest token; the cache carries the rest.
    std::vector<int> next_ids(static_cast<size_t>(nb));
    for (int b = 0; b < nb; ++b) {
      next_ids[static_cast<size_t>(b)] = beams[static_cast<size_t>(b)].tokens.back();
    }
    Tensor hidden = transformer_->DecodeStep(next_ids, &state);  // [nb, d]
    Tensor logits = transformer_->Logits(hidden);                // [nb, V]

    BeamExpansion next =
        ExpandBeams(logits, beams, k, options, eos_id_, &finished);
    beams = std::move(next.beams);
    if (!beams.empty()) state.Reorder(next.parents);
    if (static_cast<int>(finished.size()) >= k) break;
  }
  return SelectBeamResult(std::move(finished), beams);
}

}  // namespace model
}  // namespace vist5
