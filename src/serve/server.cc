#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace vist5 {
namespace serve {
namespace {

/// True once enough bytes arrived to tell HTTP from line-JSON apart.
/// Generation requests are JSON objects, so they always start with '{'
/// (or whitespace); HTTP requests start with a method token.
bool LooksLikeHttp(const std::string& buf) {
  static const char* kMethods[] = {"GET ",    "POST ", "PUT ",
                                   "DELETE ", "HEAD ", "OPTIONS "};
  for (const char* m : kMethods) {
    if (buf.compare(0, std::strlen(m), m) == 0) return true;
  }
  return false;
}

/// Longest method prefix we may still be waiting on ("OPTIONS ").
constexpr size_t kSniffBytes = 8;

/// HTTP header blocks beyond this are dropped without a response.
constexpr size_t kMaxHttpHeaderBytes = 64 * 1024;

/// Event-loop tick: upper bound on how long idle sweeps, accept-backoff
/// re-arms, and stop checks can lag behind their trigger.
constexpr int kLoopTickMs = 50;

/// Backoff applied to the listener after a transient accept failure
/// (EMFILE and friends): the listener leaves the epoll set for this long
/// so a level-triggered ready listener does not spin the loop while the
/// process is out of fds.
constexpr std::chrono::milliseconds kAcceptBackoff{20};

std::string LowerAscii(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

/// Content-Length from a raw header block. Absent or digit-free headers
/// parse as 0 (no body); returns false when the digit run overflows
/// size_t — the old parser accumulated unchecked, so
/// "Content-Length: 18446744073709551616" silently wrapped around and any
/// huge-but-honest value was trusted by the body-read loop with no cap.
bool ParseContentLength(const std::string& headers, size_t* out) {
  *out = 0;
  const std::string lower = LowerAscii(headers);
  const size_t pos = lower.find("content-length:");
  if (pos == std::string::npos) return true;
  const char* p = lower.c_str() + pos + std::strlen("content-length:");
  while (*p == ' ' || *p == '\t') ++p;
  size_t n = 0;
  while (*p >= '0' && *p <= '9') {
    const size_t digit = static_cast<size_t>(*p++ - '0');
    if (n > (std::numeric_limits<size_t>::max() - digit) / 10) return false;
    n = n * 10 + digit;
  }
  *out = n;
  return true;
}

const char* HttpReason(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Payload Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
  }
  return "OK";
}

std::string JsonError(const std::string& msg) {
  JsonValue out = JsonValue::Object();
  out.Set("status", JsonValue::String("error"));
  out.Set("error", JsonValue::String(msg));
  return out.ToString(/*pretty=*/false);
}

const char* kJsonType = "application/json";

/// Wraps a route result into one full HTTP/1.1 response (the connection
/// closes after it, so no keep-alive headers).
std::string BuildHttpResponse(int code, const std::string& content_type,
                              const std::string& body) {
  return "HTTP/1.1 " + std::to_string(code) + " " + HttpReason(code) +
         "\r\nContent-Type: " + content_type +
         "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n" + body;
}

/// Serializes one scheduler response as the final wire line.
JsonValue ResponseToJson(const std::string& client_id, const Response& r,
                         const text::Tokenizer* tokenizer) {
  JsonValue out = JsonValue::Object();
  if (!client_id.empty()) out.Set("id", JsonValue::String(client_id));
  out.Set("status", JsonValue::String(ResponseStatusName(r.status)));
  if (r.status == ResponseStatus::kOk ||
      r.status == ResponseStatus::kDeadlineExpired) {
    JsonValue tokens = JsonValue::Array();
    for (int t : r.tokens) {
      tokens.Append(JsonValue::Number(static_cast<double>(t)));
    }
    out.Set("tokens", std::move(tokens));
    if (tokenizer != nullptr) {
      out.Set("text", JsonValue::String(tokenizer->Decode(r.tokens)));
    }
    out.Set("queue_ms", JsonValue::Number(r.queue_ms));
    out.Set("ttft_ms", JsonValue::Number(r.ttft_ms));
    out.Set("decode_ms", JsonValue::Number(r.decode_ms));
    out.Set("total_ms", JsonValue::Number(r.total_ms));
    out.Set("tokens_per_sec", JsonValue::Number(r.tokens_per_sec));
  }
  if (r.status == ResponseStatus::kRejected) {
    out.Set("retry_after_ms", JsonValue::Number(r.retry_after_ms));
  }
  if (!r.error.empty()) out.Set("error", JsonValue::String(r.error));
  return out;
}

/// One stream line: {"id": ..., "token": t, "seq": n}.
std::string StreamLine(const std::string& client_id, int token, size_t seq) {
  JsonValue out = JsonValue::Object();
  if (!client_id.empty()) out.Set("id", JsonValue::String(client_id));
  out.Set("token", JsonValue::Number(static_cast<double>(token)));
  out.Set("seq", JsonValue::Number(static_cast<double>(seq)));
  return out.ToString(/*pretty=*/false);
}

}  // namespace

/// How a piece of enqueued output changes the connection state machine.
enum class FinalKind {
  kNone,          ///< plain bytes (stream line, immediate error line)
  kLineResponse,  ///< final response line: the request slot frees up
  kHttpResponse,  ///< HTTP exchange complete: close once flushed
};

/// One accepted connection. Parse state (`in`, sniff flags, HTTP cursor,
/// `last_activity`) belongs to the loop thread alone. The write queue and
/// the flags scheduler callbacks flip live under `mu` — callbacks only
/// ever append bytes and mark state; every send(), close(), and epoll
/// operation happens on the loop thread.
struct Server::Conn {
  explicit Conn(int fd) : fd(fd) {}
  const int fd;

  // --- loop-thread-only parse state ---
  std::string in;
  bool sniffed = false;
  bool http = false;
  bool http_headers_done = false;
  bool http_dispatched = false;
  size_t http_body_start = 0;
  size_t http_content_length = 0;
  std::string http_method;
  std::string http_target;
  bool peer_closed = false;
  bool want_write = false;  ///< epoll interest currently includes EPOLLOUT
  std::chrono::steady_clock::time_point last_activity;

  // --- shared with scheduler callback threads ---
  std::mutex mu;
  std::string out;
  size_t out_off = 0;
  bool busy = false;  ///< a generation request is in flight on this conn
  bool overflow = false;  ///< write-queue bound blown: slow-reader drop
  bool close_after_flush = false;
  bool closed = false;  ///< loop detached the conn; enqueues are no-ops

  // --- guarded by LoopShared::mu ---
  bool queued = false;  ///< on LoopShared::dirty, not yet taken by the loop
};

/// Outlives the Server: scheduler callbacks capture it by shared_ptr, so a
/// completion arriving after Stop() still has a live dirty queue and an
/// open eventfd to write to (the writes are simply never read again).
struct Server::LoopShared {
  explicit LoopShared(size_t max_write_queue_bytes)
      : max_write_queue_bytes(max_write_queue_bytes) {
    wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  }
  ~LoopShared() {
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void Wake() {
    const uint64_t one = 1;
    // The eventfd is a 64-bit counter; a full counter (EAGAIN) already
    // guarantees a pending wakeup, so the result can be ignored.
    const ssize_t n = ::write(wake_fd, &one, sizeof(one));
    (void)n;
  }

  /// Appends bytes to a connection's write queue (bounded), queues the
  /// connection for the loop and wakes it. Callable from any thread; the
  /// only producer-side mutation. A connection sits on `dirty` at most
  /// once and the eventfd is written at most once until the loop takes
  /// the batch (TakeDirty), so a burst of lines from one decode step
  /// costs one wakeup and leaves in one send() whenever the loop is slower
  /// than the producer.
  void Enqueue(const std::shared_ptr<Conn>& conn, std::string data,
               FinalKind kind) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (kind == FinalKind::kLineResponse) conn->busy = false;
      if (kind == FinalKind::kHttpResponse) conn->close_after_flush = true;
      if (!conn->closed && !conn->overflow) {
        const size_t pending = conn->out.size() - conn->out_off;
        if (pending + data.size() > max_write_queue_bytes) {
          // Never partially enqueue: the peer is too slow to keep its
          // stream coherent, so the loop drops the connection instead.
          conn->overflow = true;
        } else {
          conn->out += data;
        }
      }
    }
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!conn->queued) {
        conn->queued = true;
        dirty.push_back(conn);
      }
      wake = !wake_pending;
      wake_pending = true;
    }
    if (wake) Wake();
  }

  /// Loop side of Enqueue: hands over every queued connection and re-arms
  /// both the per-connection flag and the wakeup in one critical section.
  /// An Enqueue that lands before it is served by this batch; one that
  /// lands after it queues afresh and writes the eventfd again, so no
  /// wakeup is lost.
  std::vector<std::shared_ptr<Conn>> TakeDirty() {
    std::vector<std::shared_ptr<Conn>> taken;
    std::lock_guard<std::mutex> lock(mu);
    taken.swap(dirty);
    for (const std::shared_ptr<Conn>& conn : taken) conn->queued = false;
    wake_pending = false;
    return taken;
  }

  const size_t max_write_queue_bytes;
  int wake_fd = -1;
  std::mutex mu;
  std::vector<std::shared_ptr<Conn>> dirty;
  bool wake_pending = false;  ///< eventfd written since the last TakeDirty
};

/// One in-flight POST /admin/reload. BatchScheduler::Reload blocks until
/// the decode loop reaches a batch-empty boundary, which can be seconds —
/// far too long to run on the event loop — so each reload gets a helper
/// thread that parks on Reload and enqueues the HTTP response when it
/// resolves.
struct Server::ReloadWorker {
  std::thread thread;
  std::atomic<bool> finished{false};
};

Server::Server(BatchScheduler* scheduler, const text::Tokenizer* tokenizer,
               const ServerOptions& options)
    : scheduler_(scheduler), tokenizer_(tokenizer), options_(options) {}

Server::~Server() { Stop(/*drain=*/false); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status s =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    const Status s =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  shared_ = std::make_shared<LoopShared>(options_.max_write_queue_bytes);
  if (epoll_fd_ < 0 || shared_->wake_fd < 0) {
    const Status s = Status::Internal(
        std::string("epoll/eventfd: ") + std::strerror(errno));
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = -1;
    ::close(listen_fd_);
    listen_fd_ = -1;
    shared_.reset();
    return s;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  accept_registered_ = true;
  ev.data.fd = shared_->wake_fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, shared_->wake_fd, &ev);

  // Touch every serve-frontend series so /metrics exposes them at zero
  // from the first scrape (scripts/check_metrics.sh asserts presence).
  obs::GetCounter("serve/connections");
  obs::GetCounter("serve/conn_rejected");
  obs::GetCounter("serve/conn_idle_closed");
  obs::GetCounter("serve/conn_slow_closed");
  obs::GetCounter("serve/http_requests");
  obs::GetCounter("serve/stream_requests");
  obs::GetCounter("serve/stream_tokens");
  obs::GetGauge("serve/active_connections");

  loop_thread_ = std::thread(&Server::Loop, this);
  return Status::OK();
}

void Server::Stop(bool drain) {
  if (stopping_.exchange(true)) {
    if (loop_thread_.joinable()) loop_thread_.join();
    return;
  }
  drain_on_stop_.store(drain);
  if (shared_ != nullptr) shared_->Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  ReapReloadThreads(/*all=*/true);
}

void Server::ReapReloadThreads(bool all) {
  std::vector<std::unique_ptr<ReloadWorker>> reap;
  {
    std::lock_guard<std::mutex> lock(reload_mu_);
    auto it = reload_workers_.begin();
    while (it != reload_workers_.end()) {
      if (all || (*it)->finished.load(std::memory_order_acquire)) {
        reap.push_back(std::move(*it));
        it = reload_workers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const std::unique_ptr<ReloadWorker>& w : reap) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void Server::Loop() {
  static obs::Gauge* active = obs::GetGauge("serve/active_connections");
  static obs::Counter* idle_closed = obs::GetCounter("serve/conn_idle_closed");
  using Clock = std::chrono::steady_clock;
  epoll_event events[64];
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, kLoopTickMs);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == shared_->wake_fd) {
        uint64_t drained;
        const ssize_t r = ::read(shared_->wake_fd, &drained, sizeof(drained));
        (void)r;
        continue;
      }
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        HandleReadable(conn);
      } else if (events[i].events & EPOLLOUT) {
        Service(conn);
      }
    }

    // Connections scheduler callbacks touched since the last tick: flush
    // their new output, resume parsing if a request slot freed up.
    for (const std::shared_ptr<Conn>& conn : shared_->TakeDirty()) {
      Service(conn);
    }

    const Clock::time_point now = Clock::now();
    if (!accept_registered_ && !stopping_.load() &&
        now >= accept_backoff_until_) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = listen_fd_;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
      accept_registered_ = true;
    }

    if (options_.idle_timeout_ms > 0) {
      // A connection is idle only when nothing is happening on it in
      // either direction: no request decoding, no unflushed output. Time
      // spent generating never counts against the window (the blocking
      // server's SO_RCVTIMEO only ticked while waiting for the next
      // line).
      std::vector<std::shared_ptr<Conn>> expired;
      for (const auto& entry : conns_) {
        const std::shared_ptr<Conn>& conn = entry.second;
        bool quiet;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          quiet = !conn->busy && conn->out_off >= conn->out.size();
        }
        if (quiet &&
            now - conn->last_activity >
                std::chrono::milliseconds(options_.idle_timeout_ms)) {
          expired.push_back(conn);
        }
      }
      for (const std::shared_ptr<Conn>& conn : expired) {
        idle_closed->Add();
        CloseConn(conn);
      }
    }

    ReapReloadThreads(/*all=*/false);

    if (stopping_.load()) {
      if (!drain_on_stop_.load()) break;
      // Drain: stop accepting, let in-flight requests finish and flush,
      // close each connection as it quiesces, exit when none remain.
      if (accept_registered_) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        accept_registered_ = false;
      }
      std::vector<std::shared_ptr<Conn>> open;
      open.reserve(conns_.size());
      for (const auto& entry : conns_) open.push_back(entry.second);
      for (const std::shared_ptr<Conn>& conn : open) {
        conn->peer_closed = true;  // no new requests; flush and close
        Service(conn);
      }
      if (conns_.empty()) break;
    }
  }
  // Teardown (loop thread owns every socket): mark conns closed so late
  // scheduler callbacks no-op, then release the fds.
  std::vector<std::shared_ptr<Conn>> open;
  open.reserve(conns_.size());
  for (const auto& entry : conns_) open.push_back(entry.second);
  for (const std::shared_ptr<Conn>& conn : open) CloseConn(conn);
  active->Set(0);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

void Server::HandleAccept() {
  static obs::Counter* connections = obs::GetCounter("serve/connections");
  static obs::Counter* conn_rejected = obs::GetCounter("serve/conn_rejected");
  static obs::Gauge* active = obs::GetGauge("serve/active_connections");
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Transient resource exhaustion (EMFILE, ENFILE, ENOBUFS, ENOMEM):
      // the listener must survive it. Back off briefly — deregistering
      // keeps the level-triggered listener from spinning the loop — and
      // retry once the window passes; pending connections stay in the
      // accept backlog meanwhile. Anything unexpected gets the same
      // treatment: a served request is worth more than a dead listener.
      VIST5_LOG(Warning) << "serve: accept failed (" << std::strerror(errno)
                         << "); retrying in " << kAcceptBackoff.count()
                         << "ms";
      accept_backoff_until_ =
          std::chrono::steady_clock::now() + kAcceptBackoff;
      if (accept_registered_) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        accept_registered_ = false;
      }
      return;
    }
    if (options_.max_connections > 0 &&
        active_conns_.load() >= options_.max_connections) {
      conn_rejected->Add();
      JsonValue out = JsonValue::Object();
      out.Set("status", JsonValue::String("rejected"));
      out.Set("error", JsonValue::String("too many connections"));
      out.Set("retry_after_ms", JsonValue::Number(100));
      const std::string line = out.ToString(/*pretty=*/false) + "\n";
      // Best-effort: a fresh socket's buffer always has room for one
      // line; if the peer is already gone the close below handles it.
      const ssize_t sent =
          ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
      (void)sent;
      ::close(fd);
      continue;
    }
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }
    // Every payload queued here is already a whole line (or a whole HTTP
    // response), so Nagle has nothing left to merge: it would only hold a
    // stream line until the client's delayed ACK (~40 ms) for the one
    // before it.
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    auto conn = std::make_shared<Conn>(fd);
    conn->last_activity = std::chrono::steady_clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_.emplace(fd, std::move(conn));
    connections->Add();
    active_conns_.fetch_add(1);
    active->Set(static_cast<double>(active_conns_.load()));
  }
}

void Server::CloseConn(const std::shared_ptr<Conn>& conn) {
  static obs::Gauge* active = obs::GetGauge("serve/active_connections");
  const auto it = conns_.find(conn->fd);
  if (it == conns_.end() || it->second != conn) return;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(it);
  active_conns_.fetch_sub(1);
  active->Set(static_cast<double>(active_conns_.load()));
}

void Server::UpdateInterest(const std::shared_ptr<Conn>& conn,
                            bool want_write) {
  if (conn->want_write == want_write) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (want_write) ev.events |= EPOLLOUT;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->want_write = want_write;
}

void Server::HandleReadable(const std::shared_ptr<Conn>& conn) {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->in.append(chunk, static_cast<size_t>(n));
      conn->last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n == 0) {
      conn->peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
  // A line-protocol peer streaming an endless unterminated line would
  // grow the buffer without bound; cap it at the same limit HTTP bodies
  // get.
  if (!conn->http &&
      conn->in.size() > options_.max_http_body_bytes + kSniffBytes) {
    CloseConn(conn);
    return;
  }
  Service(conn);
}

void Server::Service(const std::shared_ptr<Conn>& conn) {
  static obs::Counter* slow_closed =
      obs::GetCounter("serve/conn_slow_closed");
  const auto it = conns_.find(conn->fd);
  if (it == conns_.end() || it->second != conn) return;  // already closed

  bool send_error = false;
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    while (conn->out_off < conn->out.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->out.data() + conn->out_off,
                 conn->out.size() - conn->out_off,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        conn->out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      send_error = true;
      break;
    }
    if (conn->out_off >= conn->out.size()) {
      conn->out.clear();
      conn->out_off = 0;
    } else if (conn->out_off > 64 * 1024) {
      conn->out.erase(0, conn->out_off);
      conn->out_off = 0;
    }
    overflow = conn->overflow;
  }
  if (send_error) {
    CloseConn(conn);
    return;
  }
  if (overflow) {
    // The peer stopped reading long enough to fill both its socket
    // buffer and the bounded write queue. Dropping it is the contract
    // that keeps one stalled client from blocking the decode loop or
    // holding server memory (docs/SERVING.md).
    slow_closed->Add();
    VIST5_LOG(Warning) << "serve: dropping slow reader (write queue over "
                       << shared_->max_write_queue_bytes << " bytes)";
    CloseConn(conn);
    return;
  }

  ParseInput(conn);
  if (conns_.find(conn->fd) == conns_.end()) return;  // closed during parse

  bool pending;
  bool busy;
  bool close_after_flush;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    pending = conn->out_off < conn->out.size();
    busy = conn->busy;
    close_after_flush = conn->close_after_flush;
  }
  if (!pending) {
    if (close_after_flush) {
      CloseConn(conn);
      return;
    }
    if (conn->peer_closed && !busy) {
      // EOF and nothing left to answer. (Any complete buffered lines were
      // dispatched by ParseInput above, so this never drops a request.)
      CloseConn(conn);
      return;
    }
  }
  UpdateInterest(conn, pending);
}

void Server::ParseInput(const std::shared_ptr<Conn>& conn) {
  if (!conn->sniffed) {
    if (conn->in.size() < kSniffBytes &&
        conn->in.find('\n') == std::string::npos && !conn->peer_closed) {
      return;  // not enough bytes to tell the protocols apart yet
    }
    conn->sniffed = true;
    conn->http = LooksLikeHttp(conn->in);
  }

  if (conn->http) {
    if (conn->http_dispatched) return;  // one exchange per connection
    if (!conn->http_headers_done) {
      const size_t header_end = conn->in.find("\r\n\r\n");
      if (header_end == std::string::npos) {
        if (conn->in.size() > kMaxHttpHeaderBytes) CloseConn(conn);
        return;
      }
      const std::string headers = conn->in.substr(0, header_end);
      conn->http_headers_done = true;
      conn->http_body_start = header_end + 4;

      const size_t line_end = headers.find("\r\n");
      const std::string request_line = line_end == std::string::npos
                                           ? headers
                                           : headers.substr(0, line_end);
      const size_t sp1 = request_line.find(' ');
      const size_t sp2 = sp1 == std::string::npos
                             ? std::string::npos
                             : request_line.find(' ', sp1 + 1);
      if (sp1 != std::string::npos) {
        conn->http_method = request_line.substr(0, sp1);
        conn->http_target =
            sp2 == std::string::npos
                ? request_line.substr(sp1 + 1)
                : request_line.substr(sp1 + 1, sp2 - sp1 - 1);
      }
      // Strip any query string: routes are matched on the path alone.
      const size_t q = conn->http_target.find('?');
      if (q != std::string::npos) conn->http_target.resize(q);

      size_t content_length = 0;
      if (!ParseContentLength(headers, &content_length) ||
          content_length > options_.max_http_body_bytes) {
        conn->http_dispatched = true;
        shared_->Enqueue(
            conn,
            BuildHttpResponse(
                413, kJsonType,
                JsonError("request body exceeds " +
                          std::to_string(options_.max_http_body_bytes) +
                          " bytes")),
            FinalKind::kHttpResponse);
        return;
      }
      conn->http_content_length = content_length;
    }
    if (conn->in.size() - conn->http_body_start < conn->http_content_length) {
      if (conn->peer_closed) CloseConn(conn);  // truncated body, no reply
      return;
    }
    const std::string body =
        conn->in.substr(conn->http_body_start, conn->http_content_length);
    conn->http_dispatched = true;
    conn->in.clear();
    DispatchHttp(conn, conn->http_method, conn->http_target, body);
    return;
  }

  // Line protocol: dispatch buffered complete lines, one request in
  // flight at a time — responses on a connection stay in arrival order,
  // exactly like the thread-per-connection server behaved.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->busy || conn->closed) return;
    }
    const size_t nl = conn->in.find('\n');
    if (nl == std::string::npos) return;
    std::string line = conn->in.substr(0, nl);
    conn->in.erase(0, nl + 1);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    DispatchLine(conn, line);
  }
}

void Server::DispatchHttp(const std::shared_ptr<Conn>& conn,
                          const std::string& method,
                          const std::string& target,
                          const std::string& body) {
  static obs::Counter* scrapes = obs::GetCounter("serve/http_requests");
  scrapes->Add();

  if (target == "/admin/reload") {
    if (method != "POST") {
      shared_->Enqueue(conn,
                       BuildHttpResponse(405, kJsonType,
                                         JsonError("use POST")),
                       FinalKind::kHttpResponse);
      return;
    }
    // Body is {"path": "..."} or, as a convenience, the raw path.
    std::string path = body;
    StatusOr<JsonValue> parsed = JsonValue::Parse(body);
    if (parsed.ok() && parsed.value().is_object()) {
      const JsonValue* p = parsed.value().Find("path");
      if (p == nullptr || !p->is_string()) {
        shared_->Enqueue(
            conn,
            BuildHttpResponse(400, kJsonType,
                              JsonError("body must carry a \"path\" string")),
            FinalKind::kHttpResponse);
        return;
      }
      path = p->string_value();
    }
    if (path.empty()) {
      shared_->Enqueue(conn,
                       BuildHttpResponse(400, kJsonType,
                                         JsonError("empty checkpoint path")),
                       FinalKind::kHttpResponse);
      return;
    }
    // Reload blocks until the decode loop reaches a batch-empty boundary;
    // park it on a helper thread so the event loop keeps serving streams
    // and scrapes meanwhile.
    VIST5_LOG(Info) << "serve: reloading checkpoint " << path;
    auto worker = std::make_unique<ReloadWorker>();
    ReloadWorker* raw = worker.get();
    std::shared_ptr<LoopShared> ls = shared_;
    BatchScheduler* scheduler = scheduler_;
    raw->thread = std::thread([ls, conn, scheduler, path, raw]() {
      const Status status = scheduler->Reload(path);
      std::string response;
      if (status.ok()) {
        JsonValue out = JsonValue::Object();
        out.Set("status", JsonValue::String("ok"));
        out.Set("path", JsonValue::String(path));
        response = BuildHttpResponse(200, kJsonType,
                                     out.ToString(/*pretty=*/false));
      } else {
        response = BuildHttpResponse(500, kJsonType,
                                     JsonError(std::string(status.message())));
      }
      ls->Enqueue(conn, response, FinalKind::kHttpResponse);
      raw->finished.store(true, std::memory_order_release);
    });
    std::lock_guard<std::mutex> lock(reload_mu_);
    reload_workers_.push_back(std::move(worker));
    return;
  }

  int code = 200;
  std::string content_type = kJsonType;
  const std::string response_body =
      RouteHttp(method, target, body, &code, &content_type);
  shared_->Enqueue(conn, BuildHttpResponse(code, content_type, response_body),
                   FinalKind::kHttpResponse);
}

std::string Server::RouteHttp(const std::string& method,
                              const std::string& target,
                              const std::string& body, int* code,
                              std::string* content_type) {
  const auto ok_json = [&](JsonValue out) {
    *code = 200;
    return out.ToString(/*pretty=*/false);
  };

  if (target == "/metrics") {
    if (method != "GET") {
      *code = 405;
      return JsonError("use GET");
    }
    // version=0.0.4 is the Prometheus text exposition format identifier.
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    return obs::RenderPrometheusText();
  }
  if (target == "/healthz") {
    if (method != "GET") {
      *code = 405;
      return JsonError("use GET");
    }
    std::string health_body;
    *code = EvaluateHealth(&health_body);
    return health_body;
  }
  if (target == "/admin/stats") {
    JsonValue out = JsonValue::Object();
    out.Set("metrics", obs::MetricsRegistry::Global().Snapshot());
    out.Set("queue_depth", JsonValue::Number(
                               static_cast<double>(scheduler_->queue_depth())));
    out.Set("active_connections",
            JsonValue::Number(static_cast<double>(active_conns_.load())));
    out.Set("draining", JsonValue::Bool(draining_.load()));
    if (const PrefixCache* cache = scheduler_->prefix_cache()) {
      const PrefixCacheStats s = cache->stats();
      const uint64_t lookups = s.hits + s.misses;
      JsonValue pc = JsonValue::Object();
      pc.Set("hits", JsonValue::Number(static_cast<double>(s.hits)));
      pc.Set("misses", JsonValue::Number(static_cast<double>(s.misses)));
      pc.Set("partial_hits",
             JsonValue::Number(static_cast<double>(s.partial_hits)));
      pc.Set("insertions",
             JsonValue::Number(static_cast<double>(s.insertions)));
      pc.Set("evictions",
             JsonValue::Number(static_cast<double>(s.evictions)));
      pc.Set("reuse_tokens",
             JsonValue::Number(static_cast<double>(s.reuse_tokens)));
      pc.Set("bytes", JsonValue::Number(static_cast<double>(s.bytes)));
      pc.Set("entries", JsonValue::Number(static_cast<double>(s.entries)));
      pc.Set("max_bytes",
             JsonValue::Number(static_cast<double>(cache->max_bytes())));
      pc.Set("hit_rate",
             JsonValue::Number(lookups > 0 ? static_cast<double>(s.hits) /
                                                 static_cast<double>(lookups)
                                           : 0.0));
      out.Set("prefix_cache", std::move(pc));
    }
    {
      // Speculative decoding rollup (docs/SPECULATIVE.md): cumulative
      // counters plus the derived acceptance rate and effective
      // tokens/step, so operators read the headline numbers without
      // digging through the raw metrics snapshot.
      const int64_t proposed = obs::GetCounter("spec/proposed")->value();
      const int64_t accepted = obs::GetCounter("spec/accepted")->value();
      const int64_t rejected = obs::GetCounter("spec/rejected")->value();
      const int64_t steps = obs::GetCounter("spec/steps")->value();
      JsonValue sp = JsonValue::Object();
      sp.Set("proposed", JsonValue::Number(static_cast<double>(proposed)));
      sp.Set("accepted", JsonValue::Number(static_cast<double>(accepted)));
      sp.Set("rejected", JsonValue::Number(static_cast<double>(rejected)));
      sp.Set("steps", JsonValue::Number(static_cast<double>(steps)));
      sp.Set("acceptance_rate",
             JsonValue::Number(proposed > 0
                                   ? static_cast<double>(accepted) /
                                         static_cast<double>(proposed)
                                   : 0.0));
      sp.Set("tokens_per_step",
             JsonValue::Number(
                 steps > 0 ? static_cast<double>(accepted + steps) /
                                 static_cast<double>(steps)
                           : 0.0));
      out.Set("spec", std::move(sp));
    }
    return ok_json(std::move(out));
  }
  if (target == "/admin/drain" || target == "/admin/resume") {
    if (method != "POST") {
      *code = 405;
      return JsonError("use POST");
    }
    draining_.store(target == "/admin/drain");
    VIST5_LOG(Warning) << "serve: " << (draining_.load() ? "draining"
                                                         : "resumed");
    JsonValue out = JsonValue::Object();
    out.Set("status", JsonValue::String("ok"));
    out.Set("draining", JsonValue::Bool(draining_.load()));
    return ok_json(std::move(out));
  }
  if (target == "/admin/loglevel") {
    if (method != "POST") {
      *code = 405;
      return JsonError("use POST");
    }
    std::string level = body;
    StatusOr<JsonValue> parsed = JsonValue::Parse(body);
    if (parsed.ok() && parsed.value().is_object()) {
      const JsonValue* l = parsed.value().Find("level");
      if (l != nullptr && l->is_string()) level = l->string_value();
    }
    level = LowerAscii(level);
    // Trim whitespace a raw body may carry.
    const size_t b = level.find_first_not_of(" \t\r\n\"");
    const size_t e = level.find_last_not_of(" \t\r\n\"");
    level = b == std::string::npos ? "" : level.substr(b, e - b + 1);
    LogSeverity severity;
    if (level == "info") {
      severity = LogSeverity::kInfo;
    } else if (level == "warn" || level == "warning") {
      severity = LogSeverity::kWarning;
    } else if (level == "error") {
      severity = LogSeverity::kError;
    } else if (level == "fatal") {
      severity = LogSeverity::kFatal;
    } else {
      *code = 400;
      return JsonError("unknown level \"" + level +
                       "\" (info|warn|error|fatal)");
    }
    SetMinLogSeverity(severity);
    JsonValue out = JsonValue::Object();
    out.Set("status", JsonValue::String("ok"));
    out.Set("level", JsonValue::String(level));
    return ok_json(std::move(out));
  }
  *code = 404;
  return JsonError("no route for " + target);
}

int Server::EvaluateHealth(std::string* body) const {
  // 0 = ok, 1 = degraded (warn crossed), 2 = unhealthy (crit crossed).
  int worst = 0;
  JsonValue checks = JsonValue::Object();
  const auto check = [&](const char* name, double value, double warn,
                         double crit) {
    int level = 0;
    if (crit > 0 && value >= crit) {
      level = 2;
    } else if (warn > 0 && value >= warn) {
      level = 1;
    }
    worst = std::max(worst, level);
    JsonValue c = JsonValue::Object();
    c.Set("value", JsonValue::Number(value));
    c.Set("status", JsonValue::String(level == 0   ? "ok"
                                      : level == 1 ? "degraded"
                                                   : "unhealthy"));
    checks.Set(name, std::move(c));
  };

  const HealthThresholds& h = options_.health;
  check("queue_depth", static_cast<double>(scheduler_->queue_depth()),
        h.queue_depth_warn, h.queue_depth_crit);
  static obs::Histogram* latency = obs::GetHistogram("serve/latency_ms");
  check("latency_p99_ms", latency->Quantile(0.99), h.p99_ms_warn,
        h.p99_ms_crit);
  static obs::Counter* requests = obs::GetCounter("serve/requests");
  static obs::Counter* rejected = obs::GetCounter("serve/rejected");
  const int64_t total = requests->value();
  const double frac =
      total > 0 ? static_cast<double>(rejected->value()) /
                      static_cast<double>(total)
                : 0.0;
  check("reject_frac", frac, h.reject_frac_warn, h.reject_frac_crit);

  JsonValue out = JsonValue::Object();
  out.Set("status", JsonValue::String(worst == 0   ? "ok"
                                      : worst == 1 ? "degraded"
                                                   : "unhealthy"));
  out.Set("draining", JsonValue::Bool(draining_.load()));
  out.Set("checks", std::move(checks));
  *body = out.ToString(/*pretty=*/false);
  // Degraded still answers 200: the instance serves, operators alert on
  // the body. Unhealthy answers 503 so load balancers stop routing to it.
  return worst < 2 ? 200 : 503;
}

void Server::DispatchLine(const std::shared_ptr<Conn>& conn,
                          const std::string& line) {
  static obs::Counter* stream_requests =
      obs::GetCounter("serve/stream_requests");
  std::string client_id;
  const auto error_line = [&](const std::string& msg) {
    JsonValue out = JsonValue::Object();
    if (!client_id.empty()) out.Set("id", JsonValue::String(client_id));
    out.Set("status", JsonValue::String("error"));
    out.Set("error", JsonValue::String(msg));
    return out.ToString(/*pretty=*/false);
  };
  // Immediate failures answer without occupying the connection's request
  // slot: the next buffered line can dispatch right away.
  const auto answer = [&](const std::string& response) {
    shared_->Enqueue(conn, response + "\n", FinalKind::kNone);
  };

  StatusOr<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok()) {
    answer(error_line(std::string(parsed.status().message())));
    return;
  }
  const JsonValue& doc = parsed.value();
  if (!doc.is_object()) {
    answer(error_line("request must be a JSON object"));
    return;
  }
  if (const JsonValue* id = doc.Find("id")) {
    client_id =
        id->is_string() ? id->string_value() : id->ToString(/*pretty=*/false);
  }

  if (draining_.load()) {
    JsonValue out = JsonValue::Object();
    if (!client_id.empty()) out.Set("id", JsonValue::String(client_id));
    out.Set("status", JsonValue::String("rejected"));
    out.Set("error", JsonValue::String("draining"));
    out.Set("retry_after_ms", JsonValue::Number(1000));
    answer(out.ToString(/*pretty=*/false));
    return;
  }

  Request req;
  if (const JsonValue* toks = doc.Find("tokens")) {
    if (!toks->is_array()) {
      answer(error_line("\"tokens\" must be an array"));
      return;
    }
    for (size_t i = 0; i < toks->size(); ++i) {
      if (!toks->at(i).is_number()) {
        answer(error_line("\"tokens\" must hold numbers"));
        return;
      }
      // The vocabulary bound is the scheduler's (BatchScheduler::Submit).
      int token = 0;
      if (!JsonToInt(toks->at(i), 0, std::numeric_limits<int>::max(),
                     &token)) {
        answer(error_line("\"tokens\" must hold non-negative integers"));
        return;
      }
      req.tokens.push_back(token);
    }
  } else if (const JsonValue* txt = doc.Find("text")) {
    if (!txt->is_string()) {
      answer(error_line("\"text\" must be a string"));
      return;
    }
    if (tokenizer_ == nullptr) {
      answer(error_line("server has no tokenizer; send \"tokens\""));
      return;
    }
    req.tokens = tokenizer_->Encode(txt->string_value());
  } else {
    answer(error_line("request needs \"text\" or \"tokens\""));
    return;
  }
  std::string field_error;
  if (!ReadIntField(doc, "max_len", 1, kMaxRequestMaxLen,
                    &req.options.max_len, &field_error) ||
      !ReadIntField(doc, "beam", 1, 64, &req.options.beam_size,
                    &field_error) ||
      !ReadIntField(doc, "deadline_ms", 0, 86400000,
                    &req.options.deadline_ms, &field_error) ||
      !ReadIntField(doc, "priority", -1000000, 1000000, &req.priority,
                    &field_error)) {
    answer(error_line(field_error));
    return;
  }
  if (const JsonValue* v = doc.Find("weight_dtype")) {
    if (!v->is_string()) {
      answer(error_line("\"weight_dtype\" must be a string"));
      return;
    }
    const std::string& dtype = v->string_value();
    if (dtype == "int8") {
      req.options.weight_dtype = WeightDtype::kInt8;
    } else if (dtype != "float32") {
      answer(error_line("\"weight_dtype\" must be \"float32\" or \"int8\""));
      return;
    }
  }
  // Speculative decoding: "draft": k asks for up to k draft tokens per
  // verify round (the server-wide default applies when the field is
  // absent, and "draft": 0 opts out of it); "draft_adaptive": false pins
  // the proposal length at k.
  // Mode conflicts (beam > 1, temperature, no draft model loaded) are
  // rejected by the scheduler's admission guard with a clear error rather
  // than silently decoded plain (docs/SPECULATIVE.md).
  req.options.draft_k = options_.default_draft_k;
  if (!ReadIntField(doc, "draft", 0, kMaxRequestDraftK, &req.options.draft_k,
                    &field_error)) {
    answer(error_line(field_error));
    return;
  }
  if (const JsonValue* v = doc.Find("draft_adaptive")) {
    if (!v->is_bool()) {
      answer(error_line("\"draft_adaptive\" must be a bool"));
      return;
    }
    req.options.draft_adaptive = v->bool_value();
  }

  bool stream = false;
  if (const JsonValue* v = doc.Find("stream")) {
    if (!v->is_bool()) {
      answer(error_line("\"stream\" must be a bool"));
      return;
    }
    stream = v->bool_value();
  }

  // Everything a callback touches is captured by value or shared_ptr —
  // never `this` — so completions arriving after the server is gone only
  // append to a closed connection and wake a loop that no longer reads.
  std::shared_ptr<LoopShared> ls = shared_;
  if (stream) {
    stream_requests->Add();
    req.on_token = [ls, conn, client_id](int token, size_t seq) {
      static obs::Counter* stream_tokens =
          obs::GetCounter("serve/stream_tokens");
      stream_tokens->Add();
      ls->Enqueue(conn, StreamLine(client_id, token, seq) + "\n",
                  FinalKind::kNone);
    };
  }
  const text::Tokenizer* tokenizer = tokenizer_;
  Completion done = [ls, conn, client_id, tokenizer](Response r) {
    ls->Enqueue(conn,
                ResponseToJson(client_id, r, tokenizer)
                        .ToString(/*pretty=*/false) +
                    "\n",
                FinalKind::kLineResponse);
  };
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->busy = true;
  }
  // Submit never blocks: backpressure rejections invoke `done` inline
  // (on this thread), which clears `busy` again through the enqueue path.
  scheduler_->Submit(std::move(req), std::move(done));
}

}  // namespace serve
}  // namespace vist5
