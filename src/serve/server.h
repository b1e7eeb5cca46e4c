#ifndef VIST5_SERVE_SERVER_H_
#define VIST5_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "serve/scheduler.h"
#include "text/tokenizer.h"
#include "util/json.h"

namespace vist5 {
namespace serve {

/// Warn/crit cutoffs behind GET /healthz. A value of 0 disables that
/// check. Crossing a warn level degrades the reported status (HTTP 200,
/// "degraded"); crossing a crit level makes it "unhealthy" (HTTP 503) so a
/// load balancer drops the instance from rotation.
struct HealthThresholds {
  /// Live admission-queue depth (BatchScheduler::queue_depth()).
  double queue_depth_warn = 0;
  double queue_depth_crit = 0;
  /// p99 of serve/latency_ms (end-to-end request latency, cumulative).
  double p99_ms_warn = 0;
  double p99_ms_crit = 0;
  /// Lifetime fraction serve/rejected / serve/requests.
  double reject_frac_warn = 0;
  double reject_frac_crit = 0;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 binds an ephemeral port (read back via port())
  int backlog = 16;
  /// Concurrent connection cap. Connections accepted beyond it receive a
  /// one-line JSON rejection ("too many connections") and are closed
  /// before entering the event loop. 0 means unlimited.
  int max_connections = 64;
  /// Connections idle (no bytes received, nothing in flight or pending to
  /// write) longer than this are closed. 0 disables the timeout. Applies
  /// between requests too, so clients holding a connection open must send
  /// within the window.
  int idle_timeout_ms = 0;
  /// Default draft_k for requests that do not carry a "draft" field
  /// (vist5_cli serve --spec-k). Only meaningful when the scheduler was
  /// given a draft model; an explicit "draft": 0 opts a request out. Must
  /// lie in [0, kMaxRequestDraftK] (Start).
  int default_draft_k = 0;
  /// Largest HTTP request body accepted. A Content-Length beyond it (or
  /// one that overflows size_t) answers 413 without reading the body.
  /// Also bounds a single line-protocol request line.
  size_t max_http_body_bytes = 1 << 20;
  /// Per-connection cap on outgoing bytes buffered but not yet accepted
  /// by the kernel. A peer that stops reading fills its socket buffer,
  /// then this queue; crossing the cap drops the connection
  /// (serve/conn_slow_closed) so a slow reader never blocks the decode
  /// loop or grows server memory unboundedly (docs/SERVING.md).
  size_t max_write_queue_bytes = 1 << 20;
  /// Test hook: when > 0, sets SO_SNDBUF on accepted sockets so the
  /// write-queue bound above can be exercised without megabytes of
  /// kernel-buffered slack. 0 keeps the kernel default.
  int sndbuf_bytes = 0;
  HealthThresholds health;
};

/// Line-delimited JSON front end over local TCP (docs/SERVING.md), with an
/// HTTP side-channel on the same listener for observability and ops.
///
/// One event-loop thread owns every socket: an epoll instance watches the
/// listener, an eventfd wakeup, and each connection's readiness; sockets
/// are nonblocking and each connection is a small state machine (sniff ->
/// line-JSON or HTTP, bounded outgoing write queue drained on EPOLLOUT).
/// Generation work is handed to the BatchScheduler and never runs on the
/// loop thread; the scheduler's completion/stream callbacks append bytes
/// to the connection's write queue, so a stalled reader stalls only its
/// own (bounded) queue. Only the first callback since the loop last took
/// its dirty list queues the connection and writes the eventfd; later ones
/// just append. A burst of lines (a beam completion, a speculative run,
/// one batch step) thus costs one wakeup and, when the loop is slower
/// than the producer, leaves in one send(). Every socket has TCP_NODELAY
/// set: each write is already a whole line, and Nagle would hold a stream
/// line for the client's delayed ACK of the previous one.
///
/// The first bytes of each connection pick the protocol: lines starting
/// with an HTTP method ("GET ", "POST ", ...) get one HTTP/1.1 exchange
/// (response, then close); anything else is the line-JSON protocol.
///
/// Line protocol — each connection sends one JSON object per line:
///   {"id": "r1", "text": "...", "max_len": 48, "beam": 1,
///    "priority": 0, "deadline_ms": 500}
/// or pre-tokenized: {"id": "r1", "tokens": [5, 17, ...]}. The server
/// answers one JSON line per request:
///   {"id": "r1", "status": "ok", "tokens": [...], "text": "...",
///    "queue_ms": ..., "ttft_ms": ..., "decode_ms": ..., "total_ms": ...,
///    "tokens_per_sec": ...}
/// with status one of ok | deadline | rejected | shutdown | error, and
/// "retry_after_ms" attached to rejections (backpressure).
///
/// Streaming: a request carrying "stream": true additionally receives one
/// line per committed token, in order, before the final response line:
///   {"id": "r1", "token": 17, "seq": 0}
/// The concatenated "token" values are bit-identical to the final line's
/// "tokens" array (speculative commits arrive as accepted runs). Requests
/// without the field keep the exact pre-streaming wire behavior.
///
/// HTTP routes (docs/OBSERVABILITY.md, docs/SERVING.md):
///   GET  /metrics        Prometheus text exposition of the global registry
///   GET  /healthz        threshold-evaluated health (200 ok/degraded, 503)
///   GET  /admin/stats    JSON snapshot + live queue depth / connections
///   POST /admin/drain    stop admitting generation requests (in-flight
///                        finish; admin + metrics stay reachable)
///   POST /admin/resume   undo a drain
///   POST /admin/reload   body {"path": "..."} — swap a checkpoint into
///                        the model between decode steps
///   POST /admin/loglevel body {"level": "info|warn|error|fatal"}
///
/// Requests on one connection are handled in arrival order, one at a time;
/// clients that want concurrency open multiple connections (this is what
/// keeps the continuous batch full). The heavy lifting — admission,
/// batching, deadlines — lives in BatchScheduler; the server only
/// translates lines to requests. It does not own the scheduler.
class Server {
 public:
  /// `tokenizer` may be null, in which case only "tokens" requests are
  /// accepted and responses omit "text".
  Server(BatchScheduler* scheduler, const text::Tokenizer* tokenizer,
         const ServerOptions& options);
  ~Server();

  /// Binds, listens, and spawns the event-loop thread. Returns
  /// InvalidArgument, before binding, when options.default_draft_k lies
  /// outside [0, kMaxRequestDraftK].
  Status Start();

  /// Port actually bound (resolves ephemeral port 0). 0 before Start.
  int port() const { return port_; }

  /// Stops accepting connections and joins the event loop. With `drain`,
  /// in-flight requests finish and flush their responses first; without
  /// it, open connections are torn down immediately. Does not stop the
  /// scheduler.
  void Stop(bool drain);

  /// True while a POST /admin/drain is in effect (generation requests are
  /// rejected with error "draining"; see docs/SERVING.md).
  bool draining() const { return draining_.load(); }
  int active_connections() const { return active_conns_.load(); }

 private:
  /// Per-connection state machine; defined in server.cc. Parse state is
  /// loop-thread-only; the outgoing write queue is shared with scheduler
  /// callback threads under the connection's own mutex.
  struct Conn;
  /// State that must outlive the Server because scheduler callbacks hold
  /// it: the eventfd wakeup, the dirty-connection queue, and the write
  /// bound. Defined in server.cc.
  struct LoopShared;

  void Loop();
  /// Drains the listener (level-triggered). Transient accept errors —
  /// EMFILE, ENFILE, ECONNABORTED, ENOBUFS — log and back off instead of
  /// killing the listener (the pre-event-loop AcceptLoop returned on any
  /// errno but EINTR, silently ending accepts for the server's lifetime).
  void HandleAccept();
  /// Nonblocking read into the connection's buffer, then Service.
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  /// Flushes pending output, advances the parse state machine, applies
  /// close conditions (overflow -> slow-reader drop, finished HTTP
  /// exchange, peer EOF with nothing in flight), updates epoll interest.
  void Service(const std::shared_ptr<Conn>& conn);
  /// Consumes buffered input: protocol sniff, then complete line-JSON
  /// requests (one in flight at a time) or the HTTP header/body machine.
  void ParseInput(const std::shared_ptr<Conn>& conn);
  /// Parses one request line, validates it, and either enqueues an
  /// immediate error/rejection line or submits to the scheduler with
  /// completion (and, for "stream": true, per-token) callbacks.
  void DispatchLine(const std::shared_ptr<Conn>& conn,
                    const std::string& line);
  /// Routes a complete HTTP request. Every route answers inline except
  /// /admin/reload, whose answer the scheduler's reload callback queues
  /// once the swap has run at a batch boundary.
  void DispatchHttp(const std::shared_ptr<Conn>& conn,
                    const std::string& method, const std::string& target,
                    const std::string& body);
  std::string RouteHttp(const std::string& method, const std::string& target,
                        const std::string& body, int* code,
                        std::string* content_type);
  /// Evaluates options_.health against live stats; fills the /healthz
  /// body and returns the HTTP status code (200 or 503).
  int EvaluateHealth(std::string* body) const;
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void UpdateInterest(const std::shared_ptr<Conn>& conn, bool want_write);

  BatchScheduler* scheduler_;
  const text::Tokenizer* tokenizer_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int port_ = 0;
  std::shared_ptr<LoopShared> shared_;
  std::thread loop_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> drain_on_stop_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> active_conns_{0};

  /// Loop-thread-only state.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  bool accept_registered_ = false;
  std::chrono::steady_clock::time_point accept_backoff_until_{};
};

}  // namespace serve
}  // namespace vist5

#endif  // VIST5_SERVE_SERVER_H_
