#include "spec/engine.h"

#include <utility>

#include "obs/trace.h"
#include "util/logging.h"

namespace vist5 {
namespace spec {

using Decoder = model::ContinuousDecoder;

DraftVerifyEngine::DraftVerifyEngine(const model::TransformerSeq2Seq* base,
                                     const model::TransformerSeq2Seq* draft)
    : base_(base), draft_(draft) {
  VIST5_CHECK(base != nullptr);
  VIST5_CHECK(draft != nullptr);
  // A decoder over the pair runs its pad, eos and vocabulary checks now
  // rather than at the first Generate.
  const Decoder check(base, draft);
}

std::vector<int> DraftVerifyEngine::Generate(
    const std::vector<int>& src, const model::GenerationOptions& options,
    const model::EncodedPrefix* base_prefix, SpecStats* stats,
    const std::function<void(int token, size_t seq)>& on_commit) const {
  VIST5_TRACE_SPAN("spec/generate");
  VIST5_CHECK_GE(options.draft_k, 1)
      << "DraftVerifyEngine requires draft_k >= 1";
  Decoder decoder(base_, draft_);
  decoder.Admit(0, src, options,
                Decoder::Deadline(options, Decoder::Clock::now()),
                base_prefix);
  std::vector<int> out;
  std::vector<Decoder::Emitted> emitted;
  size_t published = 0;
  while (decoder.active() > 0) {
    for (Decoder::Finished& f : decoder.Step(on_commit ? &emitted : nullptr)) {
      out = std::move(f.tokens);
      if (stats != nullptr) {
        stats->proposed += f.spec.proposed;
        stats->accepted += f.spec.accepted;
        stats->rejected += f.spec.rejected;
        stats->committed += f.spec.committed;
        stats->steps += f.spec.steps;
      }
    }
    // Each round's committed run is final once its step returns.
    for (; published < emitted.size(); ++published) {
      on_commit(emitted[published].token, published);
    }
  }
  return out;
}

}  // namespace spec
}  // namespace vist5
