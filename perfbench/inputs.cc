#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/pretrain.h"
#include "data/corpus.h"
#include "data/db_gen.h"
#include "data/fevisqa_gen.h"
#include "data/nvbench_gen.h"
#include "data/tabletext_gen.h"
#include "model/checkpoint.h"
#include "model/trainer.h"
#include "nn/transformer.h"
#include "util/rng.h"

namespace perfbench {

using vist5::Rng;
namespace core = vist5::core;
namespace data = vist5::data;
namespace model = vist5::model;
namespace nn = vist5::nn;

namespace {

/// Seeded Fisher-Yates permutation of [0, n).
std::vector<int> Permutation(int n, Rng* rng) {
  std::vector<int> perm(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<size_t>(i)],
              perm[static_cast<size_t>(rng->UniformInt(i + 1))]);
  }
  return perm;
}

// The recipe of the repository's speculative serving bench. Changing any
// value changes the cache key, so stale weights are never loaded.
constexpr int kWireDatabases = 12;
constexpr int kWireTrainPairs = 12;
constexpr int kWireBaseSteps = 240;
constexpr int kWireDraftSteps = 480;
constexpr int kWirePool = 48;

std::string WireCachePath(const std::string& dir, const char* which) {
  char key[160];
  std::snprintf(key, sizeof(key),
                "wire_%s_base128x3_draft48x1_db%d_pairs%d_steps%d_%d.vt5c",
                which, kWireDatabases, kWireTrainPairs, kWireBaseSteps,
                kWireDraftSteps);
  return dir + "/" + key;
}

struct WireSubstrate {
  vist5::text::Tokenizer tokenizer;
  std::vector<model::SeqPair> pairs;
  std::vector<std::string> questions;
};

WireSubstrate BuildWireSubstrate() {
  data::DbGenOptions db_options;
  db_options.num_databases = kWireDatabases;
  const vist5::db::Catalog catalog = data::GenerateCatalog(db_options);
  const auto splits = data::AssignDatabaseSplits(catalog, 0.7, 0.1, 11);
  const auto nvbench = data::GenerateNvBench(catalog, splits, {});
  std::vector<std::string> corpus;
  for (const auto& ex : nvbench) {
    corpus.push_back(ex.question);
    corpus.push_back(ex.query);
  }
  WireSubstrate s;
  s.tokenizer = vist5::text::Tokenizer::Build(corpus);
  for (const auto& ex : nvbench) {
    if (static_cast<int>(s.pairs.size()) < kWireTrainPairs) {
      model::SeqPair pair;
      pair.src = s.tokenizer.Encode(ex.question);
      pair.tgt = s.tokenizer.Encode(ex.query);
      s.pairs.push_back(std::move(pair));
    }
    if (static_cast<int>(s.questions.size()) < kWirePool) {
      s.questions.push_back(ex.question);
    }
  }
  return s;
}

std::unique_ptr<model::TransformerSeq2Seq> WireBase(
    const vist5::text::Tokenizer& tok) {
  nn::TransformerConfig c = nn::TransformerConfig::T5Small(tok.vocab_size());
  c.d_model = 128;
  c.num_heads = 8;
  c.d_ff = 512;
  c.num_encoder_layers = 3;
  c.num_decoder_layers = 3;
  return std::make_unique<model::TransformerSeq2Seq>(c, tok.pad_id(),
                                                     tok.eos_id(), 7);
}

std::unique_ptr<model::TransformerSeq2Seq> WireDraft(
    const vist5::text::Tokenizer& tok) {
  nn::TransformerConfig c = nn::TransformerConfig::T5Small(tok.vocab_size());
  c.d_model = 48;
  c.num_heads = 4;
  c.d_ff = 192;
  c.num_encoder_layers = 1;
  c.num_decoder_layers = 1;
  return std::make_unique<model::TransformerSeq2Seq>(c, tok.pad_id(),
                                                     tok.eos_id(), 11);
}

}  // namespace

std::unique_ptr<DvCorpus> BuildDvCorpus() {
  // Same generator options and seeds as bench/suite.cc's default suite,
  // restated here so the benchmark's inputs change only with the
  // benchmark.
  auto corpus = std::make_unique<DvCorpus>();
  data::DbGenOptions db_options;
  db_options.num_databases = 56;
  db_options.seed = 17;
  corpus->catalog = data::GenerateCatalog(db_options);
  const auto splits =
      data::AssignDatabaseSplits(corpus->catalog, 0.7, 0.1, 11);
  corpus->bundle.catalog = &corpus->catalog;
  data::NvBenchOptions nv_options;
  nv_options.pairs_per_db = 12;
  nv_options.seed = 23;
  corpus->bundle.nvbench =
      data::GenerateNvBench(corpus->catalog, splits, nv_options);
  data::FeVisQaOptions qa_options;
  qa_options.seed = 29;
  qa_options.type1_prob = 0.35;
  qa_options.type2_prob = 0.35;
  qa_options.type3_per_query = 2;
  corpus->bundle.fevisqa = data::GenerateFeVisQa(
      corpus->catalog, corpus->bundle.nvbench, qa_options);
  data::TableTextOptions tt_options;
  tt_options.seed = 31;
  tt_options.chart2text_count = 350;
  tt_options.wikitabletext_count = 220;
  corpus->bundle.tabletext = data::GenerateTableText(
      corpus->catalog, corpus->bundle.nvbench, tt_options);
  corpus->tokenizer = vist5::text::Tokenizer::Build(
      core::CollectTokenizerCorpus(corpus->bundle));
  return corpus;
}

std::vector<Prompt> DvMixPool(const DvCorpus& corpus) {
  std::vector<Prompt> pool;
  for (const core::Task task :
       {core::Task::kTextToVis, core::Task::kVisToText, core::Task::kFeVisQa,
        core::Task::kTableToText}) {
    for (const core::TaskExample& ex :
         core::BuildTaskExamples(task, corpus.bundle, data::Split::kTest)) {
      Prompt p;
      p.text = ex.source;
      p.tokens = corpus.tokenizer.Encode(ex.source);
      p.out_len = std::max<int>(
          1, static_cast<int>(corpus.tokenizer.Encode(ex.target).size()));
      if (!p.tokens.empty()) pool.push_back(std::move(p));
    }
  }
  return pool;
}

std::unique_ptr<model::TransformerSeq2Seq> SeededT5Small(
    const vist5::text::Tokenizer& tokenizer) {
  return std::make_unique<model::TransformerSeq2Seq>(
      nn::TransformerConfig::T5Small(tokenizer.vocab_size()),
      tokenizer.pad_id(), tokenizer.eos_id(), 7);
}

bool TrainWireModelsIfMissing(const std::string& cache_dir) {
  const std::string base_path = WireCachePath(cache_dir, "base");
  const std::string draft_path = WireCachePath(cache_dir, "draft");
  if (model::CheckpointExists(base_path) &&
      model::CheckpointExists(draft_path)) {
    return true;
  }
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  std::fprintf(stderr, "perfbench: training mixed_wire models into %s\n",
               cache_dir.c_str());
  WireSubstrate s = BuildWireSubstrate();
  auto base = WireBase(s.tokenizer);
  auto draft = WireDraft(s.tokenizer);
  model::TrainOptions train;
  train.steps = kWireBaseSteps;
  train.batch_size = 8;
  model::TrainSeq2Seq(base.get(), s.pairs, s.tokenizer.pad_id(), train);
  train.steps = kWireDraftSteps;
  model::TrainSeq2Seq(draft.get(), s.pairs, s.tokenizer.pad_id(), train);
  for (const auto& [m, path] : {std::pair{base.get(), base_path},
                                std::pair{draft.get(), draft_path}}) {
    const vist5::Status st = model::SaveCheckpoint(*m->CheckpointModule(),
                                                   path);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: cannot save %s: %s\n", path.c_str(),
                   std::string(st.message()).c_str());
      return false;
    }
  }
  return true;
}

std::unique_ptr<WireFixture> LoadWireFixture(const std::string& cache_dir) {
  WireSubstrate s = BuildWireSubstrate();
  auto f = std::make_unique<WireFixture>();
  f->tokenizer = std::move(s.tokenizer);
  f->questions = std::move(s.questions);
  f->base = WireBase(f->tokenizer);
  f->draft = WireDraft(f->tokenizer);
  for (const auto& [m, which] : {std::pair{f->base.get(), "base"},
                                 std::pair{f->draft.get(), "draft"}}) {
    const std::string path = WireCachePath(cache_dir, which);
    const vist5::Status st =
        model::LoadCheckpoint(m->CheckpointModule(), path);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: cannot load %s: %s\n", path.c_str(),
                   std::string(st.message()).c_str());
      return nullptr;
    }
  }
  return f;
}

std::vector<int> ZipfDraws(int n, double s, int count, uint64_t seed) {
  // Which items are popular is part of the workload, not of the seed: a
  // seed-dependent ranking would let one seed make a few long prompts hot
  // and another a few short ones, and move every metric with it.
  Rng rank_rng(0x5eedULL);
  const std::vector<int> item_of_rank = Permutation(n, &rank_rng);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<double> cdf(static_cast<size_t>(n));
  double total = 0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[static_cast<size_t>(r)] = total;
  }
  std::vector<int> draws;
  draws.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double u = rng.UniformDouble() * total;
    const size_t rank = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    draws.push_back(item_of_rank[std::min(rank, cdf.size() - 1)]);
  }
  return draws;
}

std::vector<double> PoissonArrivalsMs(double rate_per_s, double seconds,
                                      uint64_t seed) {
  Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 2);
  std::vector<double> at;
  double t = 0;
  const double end_ms = seconds * 1000.0;
  while (true) {
    t += -std::log(1.0 - rng.UniformDouble()) * 1000.0 / rate_per_s;
    if (t >= end_ms) break;
    at.push_back(t);
  }
  return at;
}

std::vector<BatchDecodeRequest> BatchDecodeSequence(int questions,
                                                    int databases, int count,
                                                    int min_len, int max_len,
                                                    uint64_t seed) {
  Rng rng(seed * 0x94d049bb133111ebULL + 3);
  const std::vector<int> qperm = Permutation(questions, &rng);
  const std::vector<int> dperm = Permutation(databases, &rng);
  std::vector<BatchDecodeRequest> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Walks the questions x databases grid one full question sweep per
    // database shift, so pair (q, d) recurs only after every pair was used.
    BatchDecodeRequest r;
    r.question = qperm[static_cast<size_t>(i % questions)];
    r.database =
        dperm[static_cast<size_t>((i % questions + i / questions) % databases)];
    r.out_len = rng.UniformRange(min_len, max_len);
    out.push_back(r);
  }
  return out;
}

std::vector<WireRequest> WireSequence(int questions, int client, int count,
                                      uint64_t seed) {
  // The mix: the four modes in equal shares, exact in every block of four
  // requests (the order inside a block is seeded), so no seed sends more
  // exclusive work than another. No measured traffic says how DataVisT5
  // users split over the modes, so no mode is given more weight than
  // another.
  static constexpr WireMode kBlock[4] = {WireMode::kGreedy,
                                         WireMode::kSpeculative,
                                         WireMode::kInt8, WireMode::kBeam};
  Rng rng(seed * 0xd6e8feb86659fd93ULL + 101 + static_cast<uint64_t>(client));
  std::vector<WireRequest> out;
  out.reserve(static_cast<size_t>(count));
  std::vector<int> order;
  for (int i = 0; i < count; ++i) {
    if (i % 4 == 0) order = Permutation(4, &rng);
    WireRequest r;
    r.question = rng.UniformInt(questions);
    r.mode = kBlock[order[static_cast<size_t>(i % 4)]];
    out.push_back(r);
  }
  return out;
}

}  // namespace perfbench
