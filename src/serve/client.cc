#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

namespace vist5 {
namespace serve {

Status Client::Connect(const std::string& host, int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s =
        Status::Unavailable(std::string("connect: ") + std::strerror(errno));
    Close();
    return s;
  }
  // Requests are whole lines; a client that pipelines them must not wait
  // on the server's delayed ACK of the previous one.
  const int nodelay = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return Status::OK();
}

StatusOr<JsonValue> Client::Call(const JsonValue& request) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  std::string line = request.ToString(/*pretty=*/false) + "\n";
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  char chunk[4096];
  size_t nl;
  while ((nl = buf_.find('\n')) == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      return Status::IoError("connection closed before the response line");
    }
    buf_.append(chunk, static_cast<size_t>(n));
  }
  const std::string response = buf_.substr(0, nl);
  buf_.erase(0, nl + 1);
  return JsonValue::Parse(response);
}

StatusOr<JsonValue> Client::CallStreaming(
    const JsonValue& request,
    const std::function<void(int token, int seq)>& on_token) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  JsonValue streaming = request;
  streaming.Set("stream", JsonValue::Bool(true));
  Status sent = SendRaw(streaming.ToString(/*pretty=*/false) + "\n");
  if (!sent.ok()) return sent;
  char chunk[4096];
  for (;;) {
    size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        return Status::IoError("connection closed before the response line");
      }
      buf_.append(chunk, static_cast<size_t>(n));
    }
    const std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    if (!parsed.ok()) return parsed;
    const JsonValue& doc = parsed.value();
    // Stream lines carry "token"; anything with "status" is the final
    // response (ok, error, rejected, ...) that ends the exchange.
    if (doc.is_object() && doc.Find("status") == nullptr) {
      if (const JsonValue* token = doc.Find("token")) {
        constexpr int kMin = std::numeric_limits<int>::min();
        constexpr int kMax = std::numeric_limits<int>::max();
        int token_id = 0;
        int seq_id = -1;
        if (!JsonToInt(*token, kMin, kMax, &token_id)) {
          return Status::IoError("stream line \"token\" is not an int");
        }
        const JsonValue* seq = doc.Find("seq");
        if (seq != nullptr && !JsonToInt(*seq, kMin, kMax, &seq_id)) {
          return Status::IoError("stream line \"seq\" is not an int");
        }
        if (on_token) on_token(token_id, seq_id);
        continue;
      }
    }
    return parsed;
  }
}

Status Client::SendRaw(const std::string& data) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Client::RecvToEof(std::string* out) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) return Status::OK();
    out->append(chunk, static_cast<size_t>(n));
  }
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

StatusOr<HttpResponse> HttpCall(const std::string& host, int port,
                                const std::string& method,
                                const std::string& target,
                                const std::string& body) {
  Client conn;
  Status status = conn.Connect(host, port);
  if (!status.ok()) return status;
  // Client exposes no raw-fd API on purpose; reuse only its socket setup.
  // The request is a minimal HTTP/1.1 exchange with Connection: close, so
  // "read to EOF" delimits the response without chunked-transfer support.
  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: " + host +
                        "\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  Status sent = conn.SendRaw(request);
  if (!sent.ok()) return sent;
  std::string raw;
  Status received = conn.RecvToEof(&raw);
  if (!received.ok()) return received;

  const size_t line_end = raw.find("\r\n");
  if (raw.compare(0, 5, "HTTP/") != 0 || line_end == std::string::npos) {
    return Status::IoError("malformed HTTP response");
  }
  const size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp > line_end) {
    return Status::IoError("malformed HTTP status line");
  }
  // RFC 7230: the status code is exactly three digits after the first
  // space. Parse it by hand instead of atoi, which would silently turn a
  // truncated or garbage field ("HTTP/1.1 \r\n", "HTTP/1.1 abc") into
  // code 0 and let the caller treat a broken response as a real status.
  if (sp + 3 >= line_end) {
    return Status::IoError("HTTP status line has no status code");
  }
  int code = 0;
  for (size_t i = sp + 1; i < sp + 4; ++i) {
    const char c = raw[i];
    if (c < '0' || c > '9') {
      return Status::IoError("HTTP status code is not numeric");
    }
    code = code * 10 + (c - '0');
  }
  if (sp + 4 < line_end && raw[sp + 4] != ' ') {
    return Status::IoError("HTTP status code is not three digits");
  }
  HttpResponse response;
  response.code = code;
  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end != std::string::npos) {
    response.body = raw.substr(header_end + 4);
  }
  return response;
}

Response InProcessClient::Call(const std::string& input_text,
                               const model::GenerationOptions& options,
                               int priority) {
  if (tokenizer_ == nullptr) {
    Response r;
    r.status = ResponseStatus::kError;
    r.error = "no tokenizer; pass tokens instead of text";
    return r;
  }
  return Call(tokenizer_->Encode(input_text), options, priority);
}

Response InProcessClient::Call(std::vector<int> tokens,
                               const model::GenerationOptions& options,
                               int priority) {
  Request req;
  req.tokens = std::move(tokens);
  req.options = options;
  req.priority = priority;
  return scheduler_->SubmitAndWait(std::move(req));
}

std::string InProcessClient::DecodeTokens(const Response& response) const {
  return tokenizer_ != nullptr ? tokenizer_->Decode(response.tokens)
                               : std::string();
}

}  // namespace serve
}  // namespace vist5
