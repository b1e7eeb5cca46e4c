#include <cstdio>

#include <gtest/gtest.h>

#include "dv/parser.h"
#include "full_prefix_oracle.h"
#include "model/checkpoint.h"
#include "model/retrieval.h"
#include "model/rnn_model.h"
#include "model/trainer.h"
#include "model/transformer_model.h"
#include "nn/module.h"
#include "text/tokenizer.h"
#include "util/serialize.h"

namespace vist5 {
namespace model {
namespace {

text::Tokenizer DemoTokenizer() {
  return text::Tokenizer::Build({
      "copy alpha beta gamma delta epsilon zeta eta theta",
      "visualize bar select artist.country from artist",
  });
}

TEST(BatchTest, PadsAndShifts) {
  SeqPair a{{5, 6, 7}, {8, 9, 1}, 1.0};
  SeqPair b{{5}, {9, 1}, 1.0};
  Batch batch = MakeBatch({&a, &b}, /*pad_id=*/0, 16, 16);
  EXPECT_EQ(batch.batch, 2);
  EXPECT_EQ(batch.enc_seq, 3);
  EXPECT_EQ(batch.dec_seq, 3);
  // Row 0 encoder: 5 6 7; row 1: 5 0 0.
  EXPECT_EQ(batch.enc_ids, (std::vector<int>{5, 6, 7, 5, 0, 0}));
  EXPECT_EQ(batch.enc_lengths, (std::vector<int>{3, 1}));
  // Decoder input starts with pad and is the right-shifted target.
  EXPECT_EQ(batch.dec_input[0], 0);
  EXPECT_EQ(batch.dec_input[1], 8);
  EXPECT_EQ(batch.dec_input[2], 9);
  EXPECT_EQ(batch.dec_target[0], 8);
  EXPECT_EQ(batch.dec_target[2], 1);
  // Padded target rows carry the ignore index.
  EXPECT_EQ(batch.dec_target[5], kIgnoreIndex);
}

TEST(BatchTest, TruncatesKeepingEos) {
  SeqPair a{{1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 1}, 1.0};
  Batch batch = MakeBatch({&a}, 0, 4, 3);
  EXPECT_EQ(batch.enc_seq, 4);
  EXPECT_EQ(batch.dec_seq, 3);
  EXPECT_EQ(batch.dec_target[2], 1);  // EOS preserved after truncation
}

TEST(TransformerModelTest, OverfitsTinyTranslation) {
  text::Tokenizer tok = DemoTokenizer();
  nn::TransformerConfig cfg = nn::TransformerConfig::T5Small(tok.vocab_size());
  cfg.d_model = 32;
  cfg.d_ff = 64;
  cfg.dropout = 0.0f;
  TransformerSeq2Seq model(cfg, tok.pad_id(), tok.eos_id(), 5);

  // Four fixed pairs: word -> next word.
  std::vector<SeqPair> pairs;
  const char* srcs[] = {"alpha beta", "gamma delta", "epsilon zeta",
                        "eta theta"};
  const char* tgts[] = {"beta", "delta", "zeta", "theta"};
  for (int i = 0; i < 4; ++i) {
    SeqPair p;
    p.src = tok.Encode(srcs[i]);
    p.tgt = tok.EncodeWithEos(tgts[i]);
    pairs.push_back(std::move(p));
  }
  TrainOptions options;
  options.steps = 150;
  options.batch_size = 4;
  options.peak_lr = 5e-3f;
  const TrainStats stats = TrainSeq2Seq(&model, pairs, tok.pad_id(), options);
  EXPECT_LT(stats.final_loss, stats.first_loss * 0.2f);

  // Greedy decoding reproduces the memorized mapping.
  const auto out = model.Generate(tok.Encode("gamma delta"), {});
  EXPECT_EQ(tok.Decode(out), "delta");

  // Beam search agrees with greedy on a memorized task.
  GenerationOptions beam;
  beam.beam_size = 3;
  EXPECT_EQ(tok.Decode(model.Generate(tok.Encode("gamma delta"), beam)),
            "delta");
}

TEST(TransformerModelTest, ConstrainedDecodingRestrictsVocabulary) {
  text::Tokenizer tok = DemoTokenizer();
  nn::TransformerConfig cfg = nn::TransformerConfig::T5Small(tok.vocab_size());
  cfg.d_model = 16;
  cfg.d_ff = 32;
  TransformerSeq2Seq model(cfg, tok.pad_id(), tok.eos_id(), 6);
  const int only = tok.vocab().Id("artist");
  ASSERT_GE(only, 0);
  GenerationOptions gen;
  gen.max_len = 5;
  gen.allowed = [&, only](int t) { return t == only || t == tok.eos_id(); };
  const auto out = model.Generate(tok.Encode("copy alpha"), gen);
  for (int id : out) EXPECT_EQ(id, only);
}

TEST(TransformerModelTest, NothingAllowedEndsSequenceInsteadOfEmittingPad) {
  // Regression: BestToken used to fall back to token 0 (pad) when the
  // `allowed` predicate rejected every vocab entry, so constrained greedy
  // decode emitted pad tokens until max_len.
  text::Tokenizer tok = DemoTokenizer();
  nn::TransformerConfig cfg = nn::TransformerConfig::T5Small(tok.vocab_size());
  cfg.d_model = 16;
  cfg.d_ff = 32;
  TransformerSeq2Seq model(cfg, tok.pad_id(), tok.eos_id(), 6);
  GenerationOptions gen;
  gen.max_len = 5;
  gen.allowed = [](int) { return false; };
  gen.beam_size = 1;
  EXPECT_TRUE(model.Generate(tok.Encode("copy alpha"), gen).empty());
  EXPECT_TRUE(
      oracle::GreedyDecodeFull(model, tok.Encode("copy alpha"), gen).empty());
  gen.beam_size = 3;
  EXPECT_TRUE(model.Generate(tok.Encode("copy alpha"), gen).empty());
  EXPECT_TRUE(
      oracle::BeamDecodeFull(model, tok.Encode("copy alpha"), gen).empty());
}

TEST(BeamSelectionTest, AliveBeamBeatsWorseFinishedAfterNormalization) {
  // Regression: the final pick used to compare length-normalized finished
  // scores against the raw score of the best alive beam (and at max_len
  // never normalized alive beams at all), so a long, high-quality alive
  // hypothesis lost to a short finished one.
  std::vector<std::pair<std::vector<int>, double>> finished;
  finished.emplace_back(std::vector<int>{7, 8}, -1.0);  // normalized
  std::vector<BeamHypothesis> alive = {
      {{/*pad*/ 0, 3, 4, 5, 6}, /*raw log_prob=*/-1.0}};  // normalized -0.25
  EXPECT_EQ(SelectBeamResult(finished, alive), (std::vector<int>{3, 4, 5, 6}));
}

TEST(BeamSelectionTest, EmptyFinishedFallbackNormalizesAliveBeams) {
  // With no finished hypotheses the old code returned the first alive beam
  // (raw-score order); the normalized pick can disagree.
  std::vector<BeamHypothesis> alive = {
      {{0, 9}, -0.9},           // 1 token,  normalized -0.9
      {{0, 2, 3, 4}, -1.2}};    // 3 tokens, normalized -0.4
  EXPECT_EQ(SelectBeamResult({}, alive), (std::vector<int>{2, 3, 4}));
}

TEST(BeamSelectionTest, EmptyEverythingReturnsEmpty) {
  EXPECT_TRUE(SelectBeamResult({}, {}).empty());
}

TEST(TransformerModelTest, SamplingRespectsConstraintAndSeed) {
  text::Tokenizer tok = DemoTokenizer();
  nn::TransformerConfig cfg = nn::TransformerConfig::T5Small(tok.vocab_size());
  cfg.d_model = 16;
  cfg.d_ff = 32;
  TransformerSeq2Seq model(cfg, tok.pad_id(), tok.eos_id(), 12);
  const int only = tok.vocab().Id("artist");
  const int other = tok.vocab().Id("beta");
  ASSERT_GE(only, 0);
  ASSERT_GE(other, 0);
  GenerationOptions gen;
  gen.max_len = 6;
  gen.temperature = 1.0f;
  gen.top_k = 4;
  gen.allowed = [&](int v) {
    return v == only || v == other || v == tok.eos_id();
  };
  Rng rng_a(99), rng_b(99), rng_c(100);
  gen.rng = &rng_a;
  const auto out_a = model.Generate(tok.Encode("copy alpha"), gen);
  for (int id : out_a) EXPECT_TRUE(id == only || id == other);
  // Same seed reproduces the sample; different seed may differ.
  gen.rng = &rng_b;
  EXPECT_EQ(model.Generate(tok.Encode("copy alpha"), gen), out_a);
  gen.rng = &rng_c;
  model.Generate(tok.Encode("copy alpha"), gen);  // must not crash
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  text::Tokenizer tok = DemoTokenizer();
  nn::TransformerConfig cfg = nn::TransformerConfig::T5Small(tok.vocab_size());
  TransformerSeq2Seq a(cfg, tok.pad_id(), tok.eos_id(), 7);
  TransformerSeq2Seq b(cfg, tok.pad_id(), tok.eos_id(), 8);
  const std::string path = "/tmp/vist5_ckpt_test.bin";
  ASSERT_TRUE(SaveCheckpoint(a.transformer(), path).ok());
  EXPECT_TRUE(CheckpointExists(path));
  ASSERT_TRUE(LoadCheckpoint(&b.transformer(), path).ok());
  // Identical outputs after loading.
  const auto src = tok.Encode("alpha beta gamma");
  EXPECT_EQ(a.Generate(src, {}), b.Generate(src, {}));
}

TEST(CheckpointTest, RejectsForeignFiles) {
  const std::string path = "/tmp/vist5_not_ckpt.bin";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not a checkpoint", f);
  fclose(f);
  EXPECT_FALSE(CheckpointExists(path));
  text::Tokenizer tok = DemoTokenizer();
  nn::TransformerConfig cfg = nn::TransformerConfig::T5Small(tok.vocab_size());
  TransformerSeq2Seq m(cfg, tok.pad_id(), tok.eos_id(), 9);
  EXPECT_FALSE(LoadCheckpoint(&m.transformer(), path).ok());
}

// Minimal module for hand-built checkpoint files.
struct TwoParamModule : nn::Module {
  Tensor grid, bias;
  TwoParamModule() {
    grid = RegisterParameter("grid", Tensor::Full({3, 4}, 1.0f));
    bias = RegisterParameter("bias", Tensor::Full({4}, 0.5f));
  }
};

// Emits one v1-format (no trailing CRC) parameter record.
void AppendRecord(BinaryWriter* w, const std::string& name,
                  const std::vector<int32_t>& dims,
                  const std::vector<float>& data) {
  w->WriteString(name);
  w->WriteU32(static_cast<uint32_t>(dims.size()));
  for (int32_t d : dims) w->WriteI32(d);
  w->WriteFloats(data);
}

// Regression for the historic LoadCheckpoint shape check, which compared
// element counts only: a [2, 6] blob silently loaded into a [3, 4]
// parameter. Exact shape equality is now required.
TEST(CheckpointTest, RejectsSameNumelDifferentShape) {
  BinaryWriter w;
  w.WriteU32(0x56543543u);  // "VT5C"
  w.WriteU32(1);            // v1: no trailing CRC to recompute
  w.WriteU32(1);            // one record
  AppendRecord(&w, "grid", {2, 6}, std::vector<float>(12, 9.0f));
  const std::string path = "/tmp/vist5_ckpt_shape_mismatch.bin";
  ASSERT_TRUE(w.Flush(path).ok());

  TwoParamModule module;
  const Status loaded = LoadCheckpoint(&module, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.ToString().find("shape mismatch"), std::string::npos)
      << loaded.ToString();
  // Transactional: the rejected load left the parameter untouched.
  EXPECT_EQ(module.grid.data()[0], 1.0f);
}

TEST(CheckpointTest, RejectsNonPositiveDims) {
  // (-3) * (-4) = 12 matches the data length, so only an explicit
  // per-dimension sign check catches this.
  BinaryWriter w;
  w.WriteU32(0x56543543u);
  w.WriteU32(1);
  w.WriteU32(1);
  AppendRecord(&w, "grid", {-3, -4}, std::vector<float>(12, 9.0f));
  const std::string path = "/tmp/vist5_ckpt_negative_dims.bin";
  ASSERT_TRUE(w.Flush(path).ok());
  TwoParamModule module;
  const Status loaded = LoadCheckpoint(&module, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.ToString().find("non-positive"), std::string::npos)
      << loaded.ToString();
}

// Files written before the CRC trailer (format v1) must keep loading.
TEST(CheckpointTest, LegacyV1FileStillLoads) {
  BinaryWriter w;
  w.WriteU32(0x56543543u);
  w.WriteU32(1);
  w.WriteU32(2);
  AppendRecord(&w, "grid", {3, 4}, std::vector<float>(12, 7.0f));
  AppendRecord(&w, "bias", {4}, std::vector<float>(4, -2.0f));
  const std::string path = "/tmp/vist5_ckpt_v1_legacy.bin";
  ASSERT_TRUE(w.Flush(path).ok());
  TwoParamModule module;
  ASSERT_TRUE(LoadCheckpoint(&module, path).ok());
  EXPECT_EQ(module.grid.data()[5], 7.0f);
  EXPECT_EQ(module.bias.data()[0], -2.0f);
}

// SaveCheckpoint now writes v2 (trailing CRC32); any bit flip anywhere in
// the file must be rejected before a single record is applied.
TEST(CheckpointTest, V2RejectsCorruptionAnywhere) {
  TwoParamModule saved;
  const std::string path = "/tmp/vist5_ckpt_v2_corrupt.bin";
  ASSERT_TRUE(SaveCheckpoint(saved, path).ok());

  auto reader = BinaryReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  const std::string bytes = reader->data();
  // Flip one byte in the record area and one in the CRC trailer itself.
  for (const size_t offset : {bytes.size() / 2, bytes.size() - 2}) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x40);
    ASSERT_TRUE(AtomicWriteFile(path, corrupt).ok());
    TwoParamModule module;
    EXPECT_FALSE(LoadCheckpoint(&module, path).ok()) << offset;
    EXPECT_EQ(module.grid.data()[0], 1.0f);
  }
  // Truncation (torn tail) is likewise rejected.
  ASSERT_TRUE(AtomicWriteFile(path, bytes.substr(0, bytes.size() - 3)).ok());
  TwoParamModule module;
  EXPECT_FALSE(LoadCheckpoint(&module, path).ok());
}

TEST(RnnModelTest, OverfitsTinyTranslation) {
  text::Tokenizer tok = DemoTokenizer();
  RnnSeq2Seq::Config cfg;
  cfg.vocab_size = tok.vocab_size();
  cfg.embed_dim = 24;
  cfg.hidden_dim = 24;
  cfg.dropout = 0.0f;
  RnnSeq2Seq model(cfg, tok.pad_id(), tok.eos_id(), 11);
  std::vector<SeqPair> pairs;
  SeqPair p;
  p.src = tok.Encode("alpha beta gamma");
  p.tgt = tok.EncodeWithEos("delta");
  pairs.push_back(p);
  TrainOptions options;
  options.steps = 120;
  options.batch_size = 2;
  options.peak_lr = 5e-3f;
  const TrainStats stats = TrainSeq2Seq(&model, pairs, tok.pad_id(), options);
  EXPECT_LT(stats.final_loss, 0.5f);
  EXPECT_EQ(tok.Decode(model.Generate(p.src, {})), "delta");
}

TEST(RetrieverTest, FindsMostSimilar) {
  ExampleRetriever retriever;
  retriever.Add({"show the ages of all artists", "q1", "db1"});
  retriever.Add({"count flights per airport", "q2", "db2"});
  retriever.Add({"list room prices by decor", "q3", "db3"});
  retriever.Finalize();
  const auto top = retriever.TopK("how many flights for each airport", 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0]->query, "q2");
}

TEST(AdaptQueryTest, RemapsTablesAndColumns) {
  db::Database database("music");
  db::Table artist("artist", {{"artist_id", db::ValueType::kInt},
                              {"country", db::ValueType::kText},
                              {"age", db::ValueType::kInt}});
  ASSERT_TRUE(artist
                  .AppendRow({db::Value::Int(1), db::Value::Text("france"),
                              db::Value::Int(30)})
                  .ok());
  database.AddTable(std::move(artist));

  auto proto = dv::ParseDvQuery(
      "visualize bar select rooms.decor , count ( rooms.decor ) from rooms "
      "group by rooms.decor");
  ASSERT_TRUE(proto.ok());
  const dv::DvQuery adapted = model::AdaptQueryToSchema(
      *proto, "give me a bar chart of the number of artists per country",
      database);
  EXPECT_EQ(adapted.from_table, "artist");
  EXPECT_EQ(adapted.select[0].col.ToString(), "artist.country");
  ASSERT_TRUE(adapted.group_by.has_value());
  EXPECT_EQ(adapted.group_by->ToString(), "artist.country");
}

TEST(FewShotModelTest, ProducesParseableQueries) {
  db::Database database("music");
  db::Table artist("artist", {{"artist_id", db::ValueType::kInt},
                              {"country", db::ValueType::kText},
                              {"age", db::ValueType::kInt}});
  ASSERT_TRUE(artist
                  .AppendRow({db::Value::Int(1), db::Value::Text("france"),
                              db::Value::Int(30)})
                  .ok());
  database.AddTable(std::move(artist));
  FewShotRetrievalModel gpt4(2);
  gpt4.Fit({{"count rooms per decor in a bar chart",
             "visualize bar select rooms.decor , count ( rooms.decor ) from "
             "rooms group by rooms.decor",
             "inn_1"}});
  const std::string pred =
      gpt4.Predict("count artists per country in a bar chart", database);
  EXPECT_TRUE(dv::ParseDvQuery(pred).ok()) << pred;
}

}  // namespace
}  // namespace model
}  // namespace vist5
