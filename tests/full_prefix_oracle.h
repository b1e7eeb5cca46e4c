// Full-prefix reference decoders: the parity oracle for KV-cached decoding.
// Every step re-runs the teacher-forced decoder over the whole prefix, so
// nothing carries over between steps and no cache can be wrong. The cached
// decoders (ContinuousDecoder, which backs TransformerSeq2Seq::Generate and
// GenerateBatch, and the speculative engine) must produce the same tokens
// bit-for-bit (docs/INFERENCE.md).
// Greedy and beam only; deadlines and sampling are not modelled.

#ifndef VIST5_TESTS_FULL_PREFIX_ORACLE_H_
#define VIST5_TESTS_FULL_PREFIX_ORACLE_H_

#include <utility>
#include <vector>

#include "model/transformer_model.h"
#include "tensor/ops.h"

namespace vist5 {
namespace oracle {

/// Decodes every alive hypothesis of `prefixes` (equal lengths) against the
/// batch-1 encoder `memory` and returns the newest position's logits,
/// [prefixes.size(), V].
inline Tensor LastLogits(const model::TransformerSeq2Seq& m,
                         const Tensor& memory, int src_len,
                         const std::vector<std::vector<int>>& prefixes) {
  const int nb = static_cast<int>(prefixes.size());
  const int dec_seq = static_cast<int>(prefixes[0].size());
  std::vector<int> ids;
  std::vector<float> mem;
  std::vector<int> last_rows;
  for (int b = 0; b < nb; ++b) {
    ids.insert(ids.end(), prefixes[b].begin(), prefixes[b].end());
    mem.insert(mem.end(), memory.data().begin(), memory.data().end());
    last_rows.push_back(b * dec_seq + dec_seq - 1);
  }
  const Tensor hidden = m.transformer().Decode(
      ids, nb, dec_seq, Tensor({nb * src_len, memory.dim(1)}, std::move(mem)),
      src_len, std::vector<int>(nb, src_len), std::vector<int>(nb, dec_seq),
      /*train=*/false, nullptr);
  return m.transformer().Logits(ops::GatherRows(hidden, last_rows));
}

inline Tensor EncodeOne(const model::TransformerSeq2Seq& m,
                        const std::vector<int>& src) {
  const int len = static_cast<int>(src.size());
  return m.transformer().Encode(src, 1, len, {len}, /*train=*/false, nullptr);
}

/// Greedy decoding, honoring options.allowed and max_len.
inline std::vector<int> GreedyDecodeFull(
    const model::TransformerSeq2Seq& m, const std::vector<int>& src,
    const model::GenerationOptions& options) {
  NoGradGuard guard;
  WeightDtypeGuard dtype_guard(options.weight_dtype);
  const Tensor memory = EncodeOne(m, src);
  std::vector<int> dec = {m.pad_id()};
  std::vector<int> out;
  for (int step = 0; step < options.max_len; ++step) {
    const Tensor logits =
        LastLogits(m, memory, static_cast<int>(src.size()), {dec});
    const int next = model::BestAllowedToken(logits.data().data(),
                                             logits.dim(1), options.allowed);
    if (next < 0 || next == m.eos_id()) break;
    out.push_back(next);
    dec.push_back(next);
  }
  return out;
}

/// Length-normalized beam search with options.beam_size beams, expanding
/// and selecting exactly as ContinuousDecoder does.
inline std::vector<int> BeamDecodeFull(
    const model::TransformerSeq2Seq& m, const std::vector<int>& src,
    const model::GenerationOptions& options) {
  NoGradGuard guard;
  WeightDtypeGuard dtype_guard(options.weight_dtype);
  const Tensor memory = EncodeOne(m, src);
  std::vector<model::BeamHypothesis> beams = {{{m.pad_id()}, 0.0}};
  std::vector<std::pair<std::vector<int>, double>> finished;
  for (int step = 0; step < options.max_len && !beams.empty(); ++step) {
    std::vector<std::vector<int>> prefixes;
    for (const model::BeamHypothesis& h : beams) prefixes.push_back(h.tokens);
    const Tensor logits =
        LastLogits(m, memory, static_cast<int>(src.size()), prefixes);
    beams = model::ExpandBeams(logits.data().data(), logits.dim(1), beams,
                               options.beam_size, options, m.eos_id(),
                               &finished)
                .beams;
    if (static_cast<int>(finished.size()) >= options.beam_size) break;
  }
  return model::SelectBeamResult(std::move(finished), beams);
}

}  // namespace oracle
}  // namespace vist5

#endif  // VIST5_TESTS_FULL_PREFIX_ORACLE_H_
