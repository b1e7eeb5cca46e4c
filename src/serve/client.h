#ifndef VIST5_SERVE_CLIENT_H_
#define VIST5_SERVE_CLIENT_H_

#include <functional>
#include <string>

#include "serve/scheduler.h"
#include "text/tokenizer.h"
#include "util/json.h"

namespace vist5 {
namespace serve {

/// Blocking TCP client for the line-delimited JSON protocol (one request,
/// one response line per Call). Not thread-safe; open one per thread.
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Connect(const std::string& host, int port);

  /// Serializes `request` as one line, sends it, and parses the response
  /// line. Transport failures come back as error statuses; protocol-level
  /// failures ("status": "error"/"rejected") come back as parsed objects.
  StatusOr<JsonValue> Call(const JsonValue& request);

  /// Streaming variant: sends `request` with "stream": true forced on,
  /// invokes `on_token(token, seq)` for each {"token": ..., "seq": ...}
  /// line as it arrives, and returns the final response line. The
  /// concatenated callback tokens match the final line's "tokens" array
  /// bit-for-bit (the server's parity contract). Error and rejection
  /// responses simply arrive as the final line with no token lines first.
  /// A stream line whose "token" or "seq" is not an integer in int's range
  /// fails the call with an IoError naming the field, before `on_token`
  /// sees it.
  StatusOr<JsonValue> CallStreaming(
      const JsonValue& request,
      const std::function<void(int token, int seq)>& on_token);

  /// Sends raw bytes as-is (no line framing). Building block for the
  /// HTTP helper below.
  Status SendRaw(const std::string& data);
  /// Reads until the peer closes the connection, appending to `*out`.
  Status RecvToEof(std::string* out);

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  std::string buf_;  ///< bytes received past the last response line
};

/// One HTTP exchange against the server's observability/ops routes.
struct HttpResponse {
  int code = 0;       ///< HTTP status (200, 404, 503, ...)
  std::string body;   ///< response entity (exposition text or JSON)
};

/// One-shot HTTP/1.1 call to a Server's listener — connect, send
/// `method target` (plus `body` when non-empty), read to EOF, parse the
/// status line and strip the headers. Used by tests, the bench harness,
/// and scripts to hit /metrics, /healthz, and /admin/*. Transport errors
/// come back as statuses; HTTP-level errors come back in `code`.
StatusOr<HttpResponse> HttpCall(const std::string& host, int port,
                                const std::string& method,
                                const std::string& target,
                                const std::string& body = "");

/// Zero-copy alternative to the TCP round trip: submits straight into the
/// scheduler from the calling process. Used by the load generator and by
/// embedders that link the model in-process. Thread-safe (the scheduler
/// is).
class InProcessClient {
 public:
  /// `tokenizer` may be null if callers always pass pre-tokenized input.
  InProcessClient(BatchScheduler* scheduler, const text::Tokenizer* tokenizer)
      : scheduler_(scheduler), tokenizer_(tokenizer) {}

  /// Tokenize + submit + wait.
  Response Call(const std::string& input_text,
                const model::GenerationOptions& options, int priority = 0);
  Response Call(std::vector<int> tokens,
                const model::GenerationOptions& options, int priority = 0);

  /// Decoded text of a response's tokens ("" without a tokenizer).
  std::string DecodeTokens(const Response& response) const;

 private:
  BatchScheduler* scheduler_;
  const text::Tokenizer* tokenizer_;
};

}  // namespace serve
}  // namespace vist5

#endif  // VIST5_SERVE_CLIENT_H_
