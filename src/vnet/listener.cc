#include "src/vnet/listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/base/log.h"
#include "src/vnet/http.h"

namespace vnet {
namespace {

constexpr int kMaxEpollEvents = 64;
constexpr int kBacklog = 128;
// Event-loop timer granularity (idle scan, finished-job relay and freeing).
constexpr int kTickMs = 5;
// Per-readable-event read budget: level-triggered epoll re-arms anything
// left, so a firehose connection cannot starve its neighbors.
constexpr int kReadsPerEvent = 16;
// Socket read window: the unit of incremental forwarding, not a cap.
constexpr size_t kReadChunk = 4096;

}  // namespace

Listener::Listener(ConcurrentHttpServer* server, ListenerOptions options)
    : server_(server), options_(std::move(options)) {}

Listener::~Listener() { Stop(); }

int64_t Listener::NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

vbase::Status Listener::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return vbase::FailedPrecondition("listener already running");
  }
  if (server_->options().block_when_full && server_->options().max_queue_depth > 0) {
    return vbase::FailedPrecondition("block_when_full with a max_queue_depth parks the loop");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return vbase::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return vbase::Internal("bind: " + err);
  }
  if (::listen(listen_fd_, kBacklog) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return vbase::Internal("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || event_fd_ < 0) {
    const std::string err = std::strerror(errno);
    Stop();
    return vbase::Internal("epoll/eventfd: " + err);
  }
  Watch(EPOLL_CTL_ADD, listen_fd_, kListenId, EPOLLIN);
  Watch(EPOLL_CTL_ADD, event_fd_, kWakeId, EPOLLIN);
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { Loop(); });
  return vbase::Status::Ok();
}

void Listener::Stop() {
  if (loop_.joinable()) {
    stop_requested_.store(true, std::memory_order_release);
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
    loop_.join();
  }
  // Event loop is gone: drain every in-flight job before tearing down the
  // channels they reference.
  for (auto& [id, conn] : conns_) {
    conn->channel->host().CloseWrite();
    if (conn->job.valid()) {
      conn->job.wait();
    }
    if (conn->fd >= 0) {
      ::close(conn->fd);
    }
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (event_fd_ >= 0) {
    ::close(event_fd_);
    event_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

ListenerStats Listener::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void Listener::Loop() {
  // The connection an event or a ready id names, while its socket is open.
  auto open_conn = [this](uint64_t id) -> Conn* {
    auto it = conns_.find(id);
    return it != conns_.end() && it->second->fd >= 0 ? it->second.get() : nullptr;
  };
  epoll_event events[kMaxEpollEvents];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int timeout = conns_.empty() ? -1 : kTickMs;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenId) {
        AcceptReady();
        continue;
      }
      if (id == kWakeId) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t r = ::read(event_fd_, &drained, sizeof(drained));
        std::vector<uint64_t> ready;
        {
          std::lock_guard<std::mutex> lock(ready_mu_);
          ready.swap(ready_ids_);
        }
        for (const uint64_t rid : ready) {
          if (Conn* conn = open_conn(rid)) {
            RelayChannel(conn);
          }
        }
        continue;
      }
      Conn* conn = open_conn(id);
      if (conn == nullptr) {
        continue;  // closed earlier in this batch
      }
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        // A reset or a socket error: take what the peer queued before it,
        // then close, since nothing more can be sent.
        ConnReadable(conn);
        if (conn->fd >= 0) {
          CloseConn(conn);
        }
        continue;
      }
      if (events[i].events & EPOLLIN) {
        ConnReadable(conn);
      }
      if (conn->fd >= 0 && (events[i].events & EPOLLOUT)) {
        FlushOut(conn);
      }
    }
    Tick(NowMs());
  }
}

void Listener::AcceptReady() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN (or transient error): nothing more to accept now
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->id = next_id_++;
    conn->fd = fd;
    conn->channel = std::make_unique<wasp::ByteChannel>();
    conn->last_activity_ms = NowMs();
    Watch(EPOLL_CTL_ADD, fd, conn->id, EPOLLIN);
    conns_.emplace(conn->id, std::move(conn));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.accepted;
    }
  }
}

void Listener::ConnReadable(Conn* conn) {
  char buf[kReadChunk];
  for (int round = 0; round < kReadsPerEvent && !conn->closing; ++round) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      conn->last_activity_ms = NowMs();
      ProcessInbuf(conn);
      continue;
    }
    if (n == 0) {
      HandlePeerEof(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    }
    if (errno != EINTR) {
      CloseConn(conn);  // hard socket error
      return;
    }
  }
}

void Listener::ProcessInbuf(Conn* conn) {
  const ConnectionOptions& copts = options_.connection;
  while (!conn->closing) {
    if (conn->forward_remaining > 0) {
      // Stream the current request's bytes (head already validated; body in
      // bounded chunks as it arrives) into the channel.
      const size_t take = std::min(conn->inbuf.size(), conn->forward_remaining);
      if (take == 0) {
        return;  // need more socket bytes
      }
      conn->channel->host().Write(conn->inbuf.data(), take);
      conn->inbuf.erase(0, take);
      conn->forward_remaining -= take;
      continue;
    }
    if (copts.max_requests > 0 && conn->requests >= copts.max_requests) {
      // The cap-th request is fully forwarded: drop whatever follows it and
      // close the forward direction, so the server ends the connection at a
      // clean request boundary.
      BeginClose(conn);
      return;
    }
    if (conn->inbuf.empty()) {
      return;
    }
    auto need = RequestBytesNeeded(conn->inbuf);
    if (!need.ok()) {
      if (need.status().code() != vbase::Code::kFailedPrecondition) {
        // A head past kMaxHeadBytes, terminated or not, or a declared body
        // past kMaxBodyBytes (413, never read); a malformed or
        // smuggling-shaped head (400).
        EdgeReject(conn, RejectStatus(need.status()));
      }
      return;  // or an incomplete head: wait for more bytes
    }
    // A complete, validated head within the limits: dispatch the connection
    // on its first request (lazy — slow clients hold no lane) and start
    // forwarding this request's exact byte count.
    if (conn->requests++ == 0) {
      Submit(conn);
    }
    conn->forward_remaining = *need;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.requests_forwarded;
    }
  }
}

void Listener::Submit(Conn* conn) {
  // Readiness bridge: server response bytes (written from a lane thread)
  // signal the eventfd, turning the in-process channel into an epoll source.
  // The observer only records the id and signals — never touches the pipe.
  conn->channel->host().SetReadObserver([this, id = conn->id] {
    {
      std::lock_guard<std::mutex> lock(ready_mu_);
      ready_ids_.push_back(id);
    }
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
  });
  conn->job = server_->SubmitConnection(*conn->channel, options_.mode, ListenerOptions::kRoute,
                                        options_.connection);
}

void Listener::EdgeReject(Conn* conn, int status) {
  conn->outbuf += BuildResponse(status, "");
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (status == 413) {
      ++stats_.edge_413;
    } else {
      ++stats_.edge_400;
    }
  }
  // If a server job is serving this connection it is parked at a request
  // boundary (the edge only rejects between fully forwarded requests):
  // closing the forward direction lets it exit cleanly.
  BeginClose(conn);
  FlushOut(conn);
}

void Listener::HandlePeerEof(Conn* conn) {
  // The client closed its write half.  Bytes still in inbuf are a head that
  // never reached the server (ProcessInbuf forwards everything else): the
  // edge answers the 400.  Otherwise the server sees EOF too, at a request
  // boundary or inside a forwarded body; every mode answers a cut-short
  // body 400 (the guests drain a body before they serve its request).
  if (!conn->inbuf.empty()) {
    EdgeReject(conn, 400);
  } else {
    BeginClose(conn);
  }
}

void Listener::BeginClose(Conn* conn) {
  if (conn->closing) {
    return;
  }
  conn->closing = true;
  conn->inbuf.clear();
  // Idempotent: the host-to-guest pipe has no observer.
  conn->channel->host().CloseWrite();
  Rearm(conn);  // drop EPOLLIN so unread bytes cannot spin level-triggered epoll
}

void Listener::RelayChannel(Conn* conn) {
  const std::vector<uint8_t> bytes = conn->channel->host().Drain();
  if (!bytes.empty()) {
    conn->outbuf.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }
  // While EPOLLOUT is armed the socket is full: its event flushes outbuf.
  if (!conn->want_epollout) {
    FlushOut(conn);
  }
}

void Listener::FlushOut(Conn* conn) {
  bool want_epollout = false;
  while (!conn->outbuf.empty()) {
    const ssize_t n = ::send(conn->fd, conn->outbuf.data(), conn->outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbuf.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      want_epollout = true;  // EPOLLOUT finishes the partial write
      break;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    CloseConn(conn);  // peer reset under us
    return;
  }
  if (want_epollout != conn->want_epollout) {
    conn->want_epollout = want_epollout;
    Rearm(conn);
  }
}

void Listener::Rearm(Conn* conn) {
  Watch(EPOLL_CTL_MOD, conn->fd, conn->id,
        (conn->closing ? 0u : static_cast<uint32_t>(EPOLLIN)) |
            (conn->want_epollout ? static_cast<uint32_t>(EPOLLOUT) : 0u));
}

void Listener::Watch(int op, int fd, uint64_t id, uint32_t events) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.u64 = id;
  ::epoll_ctl(epoll_fd_, op, fd, &ev);
}

void Listener::CloseConn(Conn* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->fd = -1;
  conn->closing = true;
  conn->channel->host().CloseWrite();
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.closed;
}

void Listener::Tick(int64_t now_ms) {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn* conn = it->second.get();
    if (conn->job.valid() &&
        conn->job.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      // Server finished the connection (clean close, "Connection: close",
      // max-requests, or a shed): relay the tail and start closing.
      conn->job.get();
      if (conn->fd >= 0) {
        BeginClose(conn);
        RelayChannel(conn);
      }
    }
    if (conn->fd >= 0 && !conn->closing && options_.idle_timeout_ms > 0 &&
        now_ms - conn->last_activity_ms > options_.idle_timeout_ms) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.idle_closed;
      }
      if (conn->forward_remaining > 0 || !conn->inbuf.empty()) {
        EdgeReject(conn, 408);  // half-sent request: tell the client
      } else {
        BeginClose(conn);
      }
    }
    // Once its job is consumed, the channel holds nothing more to relay.
    if (conn->fd >= 0 && conn->closing && conn->outbuf.empty() && !conn->job.valid()) {
      CloseConn(conn);
    }
    // The one place a connection is freed: socket closed, job consumed.
    if (conn->fd < 0 && !conn->job.valid()) {
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace vnet
