#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/task_format.h"
#include "db/table.h"
#include "model/transformer_model.h"
#include "text/tokenizer.h"

namespace perfbench {

/// The DataVisT5 suite substrate: databases, the four task corpora and the
/// suite tokenizer, generated with the same options and seeds as the
/// repository's paper-table benches, so the traffic is the paper's traffic.
/// Held by pointer: `bundle.catalog` points into `catalog`.
struct DvCorpus {
  vist5::db::Catalog catalog;
  vist5::core::CorpusBundle bundle;
  vist5::text::Tokenizer tokenizer;
};
std::unique_ptr<DvCorpus> BuildDvCorpus();

/// One prompt a workload can send.
struct Prompt {
  std::string text;         ///< source surface string
  std::vector<int> tokens;  ///< `text` under the workload's tokenizer
  int out_len = 0;          ///< output tokens the request decodes
};

/// dv_mix's prompt pool: the test split of all four DataVisT5 tasks, each
/// decoding exactly its reference target's token count.
std::vector<Prompt> DvMixPool(const DvCorpus& corpus);

/// t5_small with fixed seeded weights over `tokenizer` (float32).
std::unique_ptr<vist5::model::TransformerSeq2Seq> SeededT5Small(
    const vist5::text::Tokenizer& tokenizer);

/// mixed_wire's substrate and models: the base128 model and the trained
/// d48 draft of the repository's speculative serving bench, trained by the
/// same recipe on the same question -> query pairs.
struct WireFixture {
  vist5::text::Tokenizer tokenizer;
  std::unique_ptr<vist5::model::TransformerSeq2Seq> base;
  std::unique_ptr<vist5::model::TransformerSeq2Seq> draft;
  std::vector<std::string> questions;  ///< the prompt pool, in corpus order
};

/// Builds the substrate and loads base + draft weights from `cache_dir`,
/// training and saving them first when the cache has no checkpoint for
/// this recipe. Returns false (with a message on stderr) on I/O errors.
bool TrainWireModelsIfMissing(const std::string& cache_dir);
std::unique_ptr<WireFixture> LoadWireFixture(const std::string& cache_dir);

// ---------------------------------------------------------------------------
// Seeded request sequences. Each is a pure function of its arguments, so one
// seed always yields the same requests and the program sees only them.

/// Zipf(s) draws over `n` items: rank r is drawn with probability
/// proportional to 1 / r^s. Ranks map to items through one fixed
/// permutation, so the seed changes the draws but not which items are
/// popular.
std::vector<int> ZipfDraws(int n, double s, int count, uint64_t seed);

/// Poisson arrival offsets (ms from phase start) at `rate_per_s`, covering
/// [0, seconds * 1000).
std::vector<double> PoissonArrivalsMs(double rate_per_s, double seconds,
                                      uint64_t seed);

/// batch_decode's i-th request: a text-to-vis question over a database
/// schema, with a seeded output length. (question, database) pairs never
/// repeat within a run of fewer than questions x databases requests.
struct BatchDecodeRequest {
  int question = 0;
  int database = 0;
  int out_len = 0;
};
std::vector<BatchDecodeRequest> BatchDecodeSequence(int questions,
                                                    int databases, int count,
                                                    int min_len, int max_len,
                                                    uint64_t seed);

/// mixed_wire request modes, drawn per request from a fixed seeded mix.
enum class WireMode { kGreedy, kSpeculative, kInt8, kBeam };
struct WireRequest {
  int question = 0;
  WireMode mode = WireMode::kGreedy;
};
/// The `count` requests client `client` sends, in order.
std::vector<WireRequest> WireSequence(int questions, int client, int count,
                                      uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
