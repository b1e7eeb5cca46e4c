// vist5::serve — token streaming and event-loop connection handling.
//
// The streaming contract (docs/SERVING.md): a request carrying
// "stream": true receives one {"id", "token", "seq"} line per committed
// token, in order, before the final response line, and the concatenated
// stream is bit-identical to the final line's "tokens" array — across the
// plain batched path, prefix-cache-spliced decodes, speculative
// draft-verify (whose commits arrive as accepted runs), and beam search
// (whose whole sequence arrives at completion). The connection
// tests pin the event loop's failure modes: a reader that stops draining
// its socket overflows only its own bounded write queue and is dropped
// (serve/conn_slow_closed) while other streams progress, transient
// accept errors (EMFILE fd exhaustion) back off and retry instead of
// killing the listener, and stream lines leave without waiting for the
// client's delayed ACK.

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "model/transformer_model.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"

namespace vist5 {
namespace {

constexpr int kVocab = 48;
constexpr int kPad = 0;
constexpr int kEos = 1;

struct Preset {
  const char* name;
  nn::TransformerConfig (*make)(int vocab);
};

constexpr Preset kPresets[] = {
    {"t5_small", nn::TransformerConfig::T5Small},  // pre-RMS, relative bias
    {"vanilla", nn::TransformerConfig::Vanilla},   // post-LN, sinusoidal
};

std::vector<int> RandomSrc(Rng* rng, int len) {
  std::vector<int> src(static_cast<size_t>(len));
  for (int& t : src) t = rng->UniformRange(2, kVocab - 1);
  return src;
}

std::vector<int> TokensOf(const JsonValue& response) {
  std::vector<int> tokens;
  const JsonValue* arr = response.Find("tokens");
  if (arr == nullptr || !arr->is_array()) return tokens;
  for (size_t i = 0; i < arr->size(); ++i) {
    tokens.push_back(static_cast<int>(arr->at(i).number_value()));
  }
  return tokens;
}

JsonValue MakeRequest(const std::vector<int>& tokens, int max_len,
                      int draft_k = 0, int beam = 1) {
  JsonValue req = JsonValue::Object();
  JsonValue toks = JsonValue::Array();
  for (int t : tokens) toks.Append(JsonValue::Number(t));
  req.Set("tokens", std::move(toks));
  req.Set("max_len", JsonValue::Number(max_len));
  if (draft_k > 0) req.Set("draft", JsonValue::Number(draft_k));
  if (beam > 1) req.Set("beam", JsonValue::Number(beam));
  return req;
}

/// Model + scheduler + server over an ephemeral port, with a prefix cache
/// (for spliced decodes) and a same-seed self-draft (for speculative
/// requests; identical weights, so every proposal is accepted and commits
/// stream as multi-token runs).
struct StreamFixture {
  model::TransformerSeq2Seq model;
  model::TransformerSeq2Seq draft;
  std::unique_ptr<serve::BatchScheduler> scheduler;
  std::unique_ptr<serve::Server> server;

  explicit StreamFixture(const Preset& preset, uint64_t seed,
                         serve::ServerOptions server_options = {})
      : model(WithoutDropout(preset.make(kVocab)), kPad, kEos, seed),
        draft(WithoutDropout(preset.make(kVocab)), kPad, kEos, seed) {
    serve::SchedulerOptions sched_options;
    sched_options.max_batch = 4;
    sched_options.prefix_cache_bytes = 64u << 20;
    sched_options.draft_model = &draft;
    scheduler =
        std::make_unique<serve::BatchScheduler>(&model, sched_options);
    scheduler->Start();
    server_options.port = 0;
    server = std::make_unique<serve::Server>(scheduler.get(), nullptr,
                                             server_options);
    VIST5_CHECK(server->Start().ok());
  }
  ~StreamFixture() {
    server->Stop(/*drain=*/true);
    scheduler->Shutdown(/*drain=*/true);
  }

  static nn::TransformerConfig WithoutDropout(nn::TransformerConfig cfg) {
    cfg.dropout = 0.0f;
    return cfg;
  }

  int port() const { return server->port(); }
};

class StreamingParity
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {
 protected:
  const Preset& preset() const { return kPresets[std::get<0>(GetParam())]; }
  uint64_t seed() const { return std::get<1>(GetParam()); }
};

// One request issued buffered and streaming (over one connection, in that
// order): the streamed tokens concatenate to exactly the buffered "tokens"
// array, seq values are dense from 0, and the streaming call's own final
// line agrees. `draft_k` > 0 exercises the speculative exclusive path and
// `beam` > 1 the beam one; issuing each prompt twice makes the second
// decode a warm prefix-cache splice.
void CheckParity(StreamFixture* f, const std::vector<std::vector<int>>& srcs,
                 int max_len, int draft_k, int beam) {
  serve::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", f->port()).ok());
  for (int round = 0; round < 2; ++round) {  // round 1 hits the warm cache
    SCOPED_TRACE("round " + std::to_string(round));
    for (size_t i = 0; i < srcs.size(); ++i) {
      SCOPED_TRACE("prompt " + std::to_string(i));
      const JsonValue request = MakeRequest(srcs[i], max_len, draft_k, beam);
      StatusOr<JsonValue> buffered = client.Call(request);
      ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
      ASSERT_EQ(buffered.value().Find("status")->string_value(), "ok")
          << buffered.value().ToString(false);
      const std::vector<int> expected = TokensOf(buffered.value());

      std::vector<int> streamed;
      std::vector<int> seqs;
      StatusOr<JsonValue> final_line =
          client.CallStreaming(request, [&](int token, int seq) {
            streamed.push_back(token);
            seqs.push_back(seq);
          });
      ASSERT_TRUE(final_line.ok()) << final_line.status().ToString();
      ASSERT_EQ(final_line.value().Find("status")->string_value(), "ok")
          << final_line.value().ToString(false);
      EXPECT_EQ(streamed, expected);
      EXPECT_EQ(streamed, TokensOf(final_line.value()));
      for (size_t s = 0; s < seqs.size(); ++s) {
        ASSERT_EQ(seqs[s], static_cast<int>(s));
      }
    }
  }
}

TEST_P(StreamingParity, BatchedStreamMatchesBufferedResponse) {
  StreamFixture f(preset(), seed());
  Rng rng(seed() * 13 + 3);
  std::vector<std::vector<int>> srcs;
  for (int i = 0; i < 4; ++i) srcs.push_back(RandomSrc(&rng, 4 + i));
  CheckParity(&f, srcs, /*max_len=*/16, /*draft_k=*/0, /*beam=*/1);
}

TEST_P(StreamingParity, SpeculativeStreamMatchesBufferedResponse) {
  StreamFixture f(preset(), seed());
  Rng rng(seed() * 17 + 5);
  std::vector<std::vector<int>> srcs;
  for (int i = 0; i < 3; ++i) srcs.push_back(RandomSrc(&rng, 5 + i));
  // Self-draft: acceptance is exactly 1.0, so every verify round commits
  // k+1 tokens and the stream arrives in multi-token bursts — the
  // concatenation must still match the buffered decode bit-for-bit.
  CheckParity(&f, srcs, /*max_len=*/16, /*draft_k=*/2, /*beam=*/1);
}

TEST_P(StreamingParity, BeamStreamMatchesBufferedResponse) {
  StreamFixture f(preset(), seed());
  Rng rng(seed() * 19 + 7);
  std::vector<std::vector<int>> srcs;
  for (int i = 0; i < 3; ++i) srcs.push_back(RandomSrc(&rng, 4 + i));
  // Beam runs on the exclusive path and publishes its whole sequence when
  // the search completes: up to max_len lines from one scheduler call,
  // which the event loop flushes in as few sends as it can keep up with.
  CheckParity(&f, srcs, /*max_len=*/16, /*draft_k=*/0, /*beam=*/4);
}

// Concurrent streams stay interleavable: several connections stream at
// once inside one continuous batch, and each sees only its own tokens, in
// order, matching its own buffered reference.
TEST_P(StreamingParity, ConcurrentStreamsDoNotCrossTalk) {
  StreamFixture f(preset(), seed());
  Rng rng(seed() * 29 + 1);
  constexpr int kStreams = 4;
  std::vector<std::vector<int>> srcs;
  std::vector<std::vector<int>> expected(kStreams);
  for (int i = 0; i < kStreams; ++i) srcs.push_back(RandomSrc(&rng, 3 + i));
  {
    serve::Client reference;
    ASSERT_TRUE(reference.Connect("127.0.0.1", f.port()).ok());
    for (int i = 0; i < kStreams; ++i) {
      StatusOr<JsonValue> reply =
          reference.Call(MakeRequest(srcs[static_cast<size_t>(i)], 16));
      ASSERT_TRUE(reply.ok());
      expected[static_cast<size_t>(i)] = TokensOf(reply.value());
    }
  }
  std::vector<std::vector<int>> streamed(kStreams);
  std::vector<std::thread> threads;
  for (int i = 0; i < kStreams; ++i) {
    threads.emplace_back([&, i] {
      serve::Client client;
      VIST5_CHECK(client.Connect("127.0.0.1", f.port()).ok());
      StatusOr<JsonValue> final_line = client.CallStreaming(
          MakeRequest(srcs[static_cast<size_t>(i)], 16),
          [&, i](int token, int /*seq*/) {
            streamed[static_cast<size_t>(i)].push_back(token);
          });
      VIST5_CHECK(final_line.ok());
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kStreams; ++i) {
    EXPECT_EQ(streamed[static_cast<size_t>(i)],
              expected[static_cast<size_t>(i)])
        << "stream " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, StreamingParity,
    ::testing::Combine(::testing::Range(0, 2),
                       ::testing::Values<uint64_t>(11, 1234)),
    [](const ::testing::TestParamInfo<StreamingParity::ParamType>& info) {
      return std::string(kPresets[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// A client that stops reading fills its kernel buffers, then its bounded
// write queue, and is dropped with serve/conn_slow_closed — while a
// well-behaved stream on another connection keeps completing. The decode
// loop never blocks on the stalled socket (the whole run finishing under
// the test timeout is the proof: a blocking send would wedge the
// scheduler and every later request with it).
TEST(ServerEventLoop, SlowStreamReaderIsDroppedOthersProgress) {
  serve::ServerOptions options;
  options.sndbuf_bytes = 4096;         // shrink kernel-side slack
  options.max_write_queue_bytes = 512; // tight bound => quick overflow
  StreamFixture f(kPresets[0], 11, options);
  obs::Counter* slow_closed = obs::GetCounter("serve/conn_slow_closed");
  const int64_t dropped0 = slow_closed->value();

  // The stalled reader: tiny receive buffer, many pipelined streaming
  // requests, never reads a byte. Requests serve one at a time; their
  // stream + response lines overflow rcvbuf + sndbuf + the 512-byte
  // queue within a few requests.
  const int slow_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(slow_fd, 0);
  int rcvbuf = 4096;
  ::setsockopt(slow_fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(f.port()));
  ASSERT_EQ(
      ::connect(slow_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
      0);
  std::string pipelined;
  for (int i = 0; i < 64; ++i) {
    JsonValue req = MakeRequest({4, 5, static_cast<int>(6 + i % 8)}, 32);
    req.Set("stream", JsonValue::Bool(true));
    pipelined += req.ToString(/*pretty=*/false) + "\n";
  }
  ASSERT_GT(::send(slow_fd, pipelined.data(), pipelined.size(), MSG_NOSIGNAL),
            0);

  // Meanwhile a draining client keeps streaming successfully.
  serve::Client good;
  ASSERT_TRUE(good.Connect("127.0.0.1", f.port()).ok());
  bool dropped = false;
  for (int i = 0; i < 200 && !dropped; ++i) {
    std::vector<int> streamed;
    StatusOr<JsonValue> final_line = good.CallStreaming(
        MakeRequest({7, 8, static_cast<int>(9 + i % 4)}, 12),
        [&](int token, int /*seq*/) { streamed.push_back(token); });
    ASSERT_TRUE(final_line.ok()) << final_line.status().ToString();
    ASSERT_EQ(final_line.value().Find("status")->string_value(), "ok");
    ASSERT_EQ(streamed, TokensOf(final_line.value()));
    dropped = slow_closed->value() > dropped0;
  }
  EXPECT_TRUE(dropped)
      << "stalled reader was never dropped (serve/conn_slow_closed flat at "
      << dropped0 << ")";
  ::close(slow_fd);
}

#if defined(__SANITIZE_THREAD__)
#define VIST5_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VIST5_TSAN 1
#endif
#endif

// Regression (server.cc): the pre-event-loop AcceptLoop returned — ending
// accepts for the server's lifetime — on any accept errno but EINTR. Under
// RLIMIT_NOFILE exhaustion accept fails with EMFILE, a transient
// condition; the listener must log, back off, and accept again once fds
// free up. Before the fix this test hangs at the final Call (the
// connection sits in the backlog forever); after it, the request
// round-trips.
TEST(ServerEventLoop, AcceptResumesAfterFdExhaustion) {
#if defined(VIST5_TSAN)
  GTEST_SKIP() << "fd exhaustion breaks TSan's own file descriptors";
#else
  StreamFixture f(kPresets[0], 11);
  // Sanity: the server works before the exhaustion episode.
  {
    serve::Client warm;
    ASSERT_TRUE(warm.Connect("127.0.0.1", f.port()).ok());
    StatusOr<JsonValue> reply = warm.Call(MakeRequest({4, 5, 6}, 8));
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().Find("status")->string_value(), "ok");
  }

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  // Cap the fd table just above what is already open (a probe open tells
  // us the next free slot), then burn the headroom on /dev/null so the
  // *server's* accept4 — same process — hits EMFILE.
  const int probe = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(probe, 0);
  ::close(probe);
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(probe) + 8;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> stash;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) {
      ASSERT_EQ(errno, EMFILE);
      break;
    }
    stash.push_back(fd);
    ASSERT_LE(stash.size(), 64u) << "limit never bit";
  }
  ASSERT_FALSE(stash.empty());

  // One fd back for the client socket; the TCP handshake completes into
  // the server's backlog regardless of accept availability, and the sent
  // request waits in kernel buffers.
  ::close(stash.back());
  stash.pop_back();
  const int client_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(f.port()));
  ASSERT_EQ(::connect(client_fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string line =
      MakeRequest({4, 5, 6}, 8).ToString(/*pretty=*/false) + "\n";
  ASSERT_GT(::send(client_fd, line.data(), line.size(), MSG_NOSIGNAL), 0);

  // Give the event loop a few backoff cycles at EMFILE — every accept in
  // this window fails — then free the fds. Accepts must resume.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int fd : stash) ::close(fd);
  stash.clear();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  std::string response;
  char chunk[4096];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(client_fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "server never answered the backlogged connection";
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(client_fd);
  StatusOr<JsonValue> doc =
      JsonValue::Parse(response.substr(0, response.find('\n')));
  ASSERT_TRUE(doc.ok()) << response;
  EXPECT_EQ(doc.value().Find("status")->string_value(), "ok");

  // Fresh connections accept normally again.
  serve::Client after;
  ASSERT_TRUE(after.Connect("127.0.0.1", f.port()).ok());
  StatusOr<JsonValue> reply = after.Call(MakeRequest({7, 8, 9}, 8));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().Find("status")->string_value(), "ok");
#endif
}

// "stream" absent keeps the exact pre-streaming wire shape: one response
// line, no token lines, and the serve/stream_* counters stay flat.
TEST(ServerEventLoop, NonStreamingRequestsEmitNoTokenLines) {
  StreamFixture f(kPresets[0], 11);
  obs::Counter* stream_requests = obs::GetCounter("serve/stream_requests");
  obs::Counter* stream_tokens = obs::GetCounter("serve/stream_tokens");
  const int64_t requests0 = stream_requests->value();
  const int64_t tokens0 = stream_tokens->value();

  serve::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", f.port()).ok());
  StatusOr<JsonValue> reply = client.Call(MakeRequest({4, 5, 6}, 8));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().Find("status")->string_value(), "ok");
  // Call() returns the first line received; a token line arriving first
  // would have no "status" field and fail the assertion above. The
  // counters confirm no streaming work ran at all.
  EXPECT_EQ(stream_requests->value(), requests0);
  EXPECT_EQ(stream_tokens->value(), tokens0);

  // An explicit "stream": false is also buffered.
  JsonValue req = MakeRequest({4, 5, 6}, 8);
  req.Set("stream", JsonValue::Bool(false));
  StatusOr<JsonValue> plain = client.Call(req);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().Find("status")->string_value(), "ok");
  EXPECT_EQ(stream_requests->value(), requests0);
}

// Regression (server.cc, client.cc): neither end set TCP_NODELAY, so
// after a request's first stream line each later line sat in the server's
// socket under Nagle's algorithm until the client's delayed ACK (40 ms at
// the least on Linux) for the line before it. What the wire adds to a
// request — client send to final line, minus the server's own total_ms —
// must stay under half that timer.
TEST(ServerEventLoop, StreamedLinesAreNotHeldForDelayedAck) {
  StreamFixture f(kPresets[0], 11);
  serve::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", f.port()).ok());
  Rng rng(23);
  for (int i = 0; i < 2; ++i) {  // warm-up: first-request costs
    StatusOr<JsonValue> warm =
        client.CallStreaming(MakeRequest(RandomSrc(&rng, 5), 16), nullptr);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  }
  std::vector<double> overhead_ms;
  for (int i = 0; i < 9; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    int lines = 0;
    const auto sent = std::chrono::steady_clock::now();
    StatusOr<JsonValue> final_line =
        client.CallStreaming(MakeRequest(RandomSrc(&rng, 5), 16),
                             [&](int /*token*/, int /*seq*/) { ++lines; });
    const auto received = std::chrono::steady_clock::now();
    ASSERT_TRUE(final_line.ok()) << final_line.status().ToString();
    ASSERT_EQ(final_line.value().Find("status")->string_value(), "ok");
    // One line alone leaves nothing for Nagle to hold.
    ASSERT_GE(lines, 2) << "reply too short to show a held line";
    const JsonValue* total_ms = final_line.value().Find("total_ms");
    ASSERT_NE(total_ms, nullptr);
    overhead_ms.push_back(
        std::chrono::duration<double, std::milli>(received - sent).count() -
        total_ms->number_value());
  }
  std::sort(overhead_ms.begin(), overhead_ms.end());
  const double median = overhead_ms[overhead_ms.size() / 2];
  EXPECT_LT(median, 20.0) << "median wire overhead " << median
                          << " ms: stream lines wait for delayed ACKs";
}

}  // namespace
}  // namespace vist5
