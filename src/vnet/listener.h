// Real TCP front end for the concurrent HTTP server: a non-blocking
// socket/bind/listen + level-triggered epoll accept/read loop that frames
// complete HTTP requests off real sockets and feeds them through
// ConcurrentHttpServer::SubmitConnection.
//
// Division of labor:
//
// * The listener is the trust boundary at the edge.  It frames the byte
//   stream with the host parser (RequestBytesNeeded), so heads longer than
//   kMaxHeadBytes (413), declared bodies longer than kMaxBodyBytes (413),
//   malformed or smuggling-shaped requests (400), and streams that end
//   inside a head (400) are answered at the edge — in EVERY serve mode,
//   before a single byte reaches a lane.  Only validated, correctly framed
//   request bytes are forwarded into the connection's ByteChannel (bodies
//   stream through in bounded chunks as they arrive; nothing buffers a
//   whole request beyond those limits).
//
// * The server job serves the whole connection: with keep-alive enabled one
//   SubmitConnection dispatch (= one acquired, snapshot-affine shell in the
//   virtine modes) serves every request of the connection until EOF,
//   "Connection: close", or the max-requests cap.  The listener enforces
//   the cap for every mode: after forwarding the cap-th request it drops the
//   rest of the stream and closes the channel's forward direction, so the
//   server sees a clean EOF after the last request it may serve.
//
// * Lazy dispatch starves slowloris: a connection occupies no executor lane
//   until its first complete request has been framed; a half-sent head only
//   ever holds listener-side buffer bytes, and the idle timeout reclaims it
//   with a 408.
//
// Responses flow back through a BytePipe read observer that signals an
// eventfd (the channel becomes an epoll readiness source like any fd), and
// partial socket writes are finished under EPOLLOUT.
#ifndef SRC_VNET_LISTENER_H_
#define SRC_VNET_LISTENER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/vnet/server.h"
#include "src/wasp/channel.h"

namespace vnet {

struct ListenerOptions {
  // Every connection's route for SubmitConnection (per-route quotas apply).
  static constexpr const char* kRoute = "listener";
  // Port to bind on 127.0.0.1; 0 picks an ephemeral port (read it back from
  // port() after Start()).
  uint16_t port = 0;
  ServeMode mode = ServeMode::kNative;
  // Per-connection serving policy forwarded to the server; the listener
  // enforces max_requests, and kMaxHeadBytes / kMaxBodyBytes, at the edge.
  ConnectionOptions connection = MakeKeepAliveDefaults();
  // A connection with no inbound progress for this long is reclaimed: 408 if
  // a request is half-sent, silent close at a clean request boundary.
  // <= 0 disables the idle timeout.
  int idle_timeout_ms = 5000;

  static ConnectionOptions MakeKeepAliveDefaults() {
    ConnectionOptions conn;
    conn.keep_alive = true;
    return conn;
  }
};

// Monotone counters over everything a listener accepted.
struct ListenerStats {
  uint64_t accepted = 0;          // connections accepted
  uint64_t closed = 0;            // connections fully closed
  uint64_t idle_closed = 0;       // reclaimed by the idle timeout
  uint64_t edge_413 = 0;          // oversized head/body answered at the edge
  uint64_t edge_400 = 0;          // malformed/truncated answered at the edge
  uint64_t requests_forwarded = 0;  // complete requests handed to the server
};

// One TCP listener bound to 127.0.0.1, serving through a ConcurrentHttpServer.
// Start() spawns the event-loop thread, which submits each connection's job,
// so it fails (FailedPrecondition) when the server would park a submitter
// (block_when_full with a max_queue_depth): a parked loop forwards no bytes
// and enforces no idle timeout, so no lane would free.  Stop() (or the
// destructor) drains every in-flight connection job before returning.
class Listener {
 public:
  explicit Listener(ConcurrentHttpServer* server, ListenerOptions options = {});
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  vbase::Status Start();
  void Stop();

  // The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  ListenerStats stats() const;

 private:
  // One accepted socket, keyed in conns_ by an id that is never reused.  It
  // is freed only by Tick, once its socket is closed (fd < 0) and its job's
  // future has been consumed (job.valid() is false), so no handler ever
  // holds a freed Conn and a stale ready id cannot reach a newer connection.
  struct Conn {
    uint64_t id = 0;
    int fd = -1;  // -1 once the socket is closed
    std::unique_ptr<wasp::ByteChannel> channel;
    std::string inbuf;   // socket bytes not yet validated/forwarded
    std::string outbuf;  // response bytes not yet written to the socket
    // Bytes of the current framed request (head+declared body) still to be
    // forwarded into the channel; body streaming in bounded chunks.
    size_t forward_remaining = 0;
    int requests = 0;      // requests forwarded; the first one submits the job
    bool closing = false;  // no more forwarding; flush, then close
    bool want_epollout = false;
    // The server job, valid from its submission until Tick consumes it.
    std::future<vbase::Result<ServeStats>> job;
    int64_t last_activity_ms = 0;  // steady-clock ms of last inbound progress
  };

  void Loop();
  void AcceptReady();
  void ConnReadable(Conn* conn);
  // Validates + forwards framed request bytes from conn->inbuf.
  void ProcessInbuf(Conn* conn);
  // Answers `status` directly from the edge and begins closing.
  void EdgeReject(Conn* conn, int status);
  void Submit(Conn* conn);
  void HandlePeerEof(Conn* conn);
  // Stops forwarding and ends the channel's forward direction; the socket
  // closes in Tick once the job is done and the responses have drained.
  void BeginClose(Conn* conn);
  // Moves channel bytes to outbuf and flushes as much as the socket takes,
  // unless EPOLLOUT is armed: then the socket is full and its event flushes.
  void RelayChannel(Conn* conn);
  void FlushOut(Conn* conn);
  // Registers (EPOLL_CTL_ADD) or updates (EPOLL_CTL_MOD) `fd` under `id`.
  void Watch(int op, int fd, uint64_t id, uint32_t events);
  // Updates conn's events: EPOLLIN until closing, EPOLLOUT while a write waits.
  void Rearm(Conn* conn);
  // Closes the socket and ends the channel's forward direction, so a live
  // job sees EOF; the Conn stays in conns_ until Tick frees it.
  void CloseConn(Conn* conn);
  // Relays finished jobs, applies the idle timeout, closes drained sockets
  // and frees the connections that are done.
  void Tick(int64_t now_ms);
  static int64_t NowMs();

  ConcurrentHttpServer* server_;
  ListenerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;  // channel-readiness + stop wakeups
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread loop_;

  // Epoll ids of the listening socket and the eventfd; connections count up
  // from kWakeId + 1.
  static constexpr uint64_t kListenId = 0;
  static constexpr uint64_t kWakeId = 1;
  // Owned by the event-loop thread.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_id_ = kWakeId + 1;

  // Connections whose channel got response bytes since the last drain (fed
  // by BytePipe observers under the pipe lock; only ever push + signal).
  std::mutex ready_mu_;
  std::vector<uint64_t> ready_ids_;

  mutable std::mutex stats_mu_;
  ListenerStats stats_;
};

}  // namespace vnet

#endif  // SRC_VNET_LISTENER_H_
