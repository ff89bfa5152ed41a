// Listener tests: the real TCP front end (epoll accept/read loop, HTTP
// keep-alive, streamed bodies, edge rejection) against real loopback
// sockets in every serve mode, including the concurrency paths TSan watches.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/vnet/http.h"
#include "src/vnet/listener.h"
#include "src/vnet/loadgen.h"
#include "src/vnet/server.h"
#include "src/wasp/runtime.h"

namespace {

// Connects to 127.0.0.1:port; a non-zero `rcvbuf` sets SO_RCVBUF first, so
// the window the client advertises stays that small.
int ConnectTo(uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0 && errno != EINTR) {
      return false;
    }
    if (n > 0) {
      off += static_cast<size_t>(n);
    }
  }
  return true;
}

// Reads one full Content-Length-framed response off `fd` (leftover bytes
// stay in *stream, its body goes to *body when given); returns its status
// or -1 on EOF/error mid-response.
int ReadResponse(int fd, std::string* stream, std::string* body = nullptr) {
  char buf[4096];
  while (true) {
    auto head = vnet::FrameResponseHead(*stream);
    if (head.ok()) {
      const size_t total = head->head_bytes + head->content_length;
      if (stream->size() >= total) {
        if (body != nullptr) {
          body->assign(*stream, head->head_bytes, head->content_length);
        }
        stream->erase(0, total);
        return head->status;
      }
    } else if (head.status().code() != vbase::Code::kFailedPrecondition) {
      return -1;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      stream->append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return -1;
  }
}

// Blocks until the peer closes (returns true) or ~2s pass (false).  Bytes
// that arrive first are appended to *rest when it is given.
bool WaitForEof(int fd, std::string* rest = nullptr) {
  char buf[256];
  for (int i = 0; i < 400; ++i) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) {
      return true;
    }
    if (n > 0) {
      if (rest != nullptr) {
        rest->append(buf, static_cast<size_t>(n));
      }
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return true;  // reset counts as closed
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

struct Stack {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  std::unique_ptr<vnet::ConcurrentHttpServer> server;
  std::unique_ptr<vnet::Listener> listener;

  explicit Stack(vnet::ServeMode mode, vnet::ConcurrentServerOptions sopts = {},
                 vnet::ListenerOptions lopts = {}) {
    files.PutFile("/static.html", std::string(512, 'x'));
    sopts.block_when_full = false;  // never block the listener's event loop
    server = std::make_unique<vnet::ConcurrentHttpServer>(&runtime, &files, sopts);
    lopts.mode = mode;
    listener = std::make_unique<vnet::Listener>(server.get(), lopts);
    auto st = listener->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
};

class ListenerModeTest : public ::testing::TestWithParam<vnet::ServeMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, ListenerModeTest,
                         ::testing::Values(vnet::ServeMode::kNative,
                                           vnet::ServeMode::kVirtine,
                                           vnet::ServeMode::kVirtineSnapshot),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case vnet::ServeMode::kNative: return "native";
                             case vnet::ServeMode::kVirtine: return "virtine";
                             default: return "virtine_snapshot";
                           }
                         });

TEST_P(ListenerModeTest, RoundTripsOverRealSockets) {
  Stack stack(GetParam());
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /static.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"));
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 200);
  EXPECT_TRUE(WaitForEof(fd));  // close was honored
  ::close(fd);
  const auto counters = stack.server->counters(GetParam());
  EXPECT_EQ(counters.requests, 1u);
  EXPECT_EQ(counters.status_2xx, 1u);
}

TEST_P(ListenerModeTest, KeepAliveReusesOneConnectionForManyRequests) {
  Stack stack(GetParam());
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  std::string stream;
  for (int i = 0; i < 5; ++i) {
    const bool last = i == 4;
    ASSERT_TRUE(SendAll(fd, std::string("GET /static.html HTTP/1.1\r\nHost: t\r\n") +
                                (last ? "Connection: close\r\n" : "") + "\r\n"));
    EXPECT_EQ(ReadResponse(fd, &stream), 200) << "request " << i;
  }
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
  const auto counters = stack.server->counters(GetParam());
  EXPECT_EQ(counters.requests, 5u);
  EXPECT_EQ(counters.keepalive_reused, 4u);  // 4 of 5 reused the shell
  EXPECT_EQ(counters.accepted, 1u);          // one connection, one dispatch
  EXPECT_EQ(stack.listener->stats().requests_forwarded, 5u);
}

TEST_P(ListenerModeTest, MaxRequestsCapEndsTheConnectionAfterTheCapthResponse) {
  // The cap holds in every mode: the listener forwards exactly max_requests
  // requests, drops the rest of the stream, and closes once the responses
  // drain — a virtine guest sees a clean EOF after its last request.
  vnet::ListenerOptions lopts;
  lopts.connection.max_requests = 2;
  Stack stack(GetParam(), {}, lopts);
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  const std::string request = "GET /static.html HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_TRUE(SendAll(fd, request + request + request));
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 200);
  EXPECT_EQ(ReadResponse(fd, &stream), 200);
  EXPECT_TRUE(WaitForEof(fd, &stream));
  EXPECT_EQ(stream, "") << "a response past the cap";
  ::close(fd);
  stack.listener->Stop();
  EXPECT_EQ(stack.listener->stats().requests_forwarded, 2u);
  const auto counters = stack.server->counters(GetParam());
  EXPECT_EQ(counters.requests, 2u);
  EXPECT_EQ(counters.status_2xx, 2u);
}

TEST_P(ListenerModeTest, OversizedHeadIsRejectedAtTheEdgeWith413) {
  Stack stack(GetParam());
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /static.html HTTP/1.1\r\nX-Big: " + std::string(4000, 'a') +
                              "\r\n\r\n"));
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 413);
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
  // Rejected at the edge: no lane ever saw the connection.
  EXPECT_EQ(stack.listener->stats().edge_413, 1u);
  EXPECT_EQ(stack.server->counters(GetParam()).accepted, 0u);
}

TEST_P(ListenerModeTest, OversizedDeclaredBodyIsRejectedBeforeItIsRead) {
  Stack stack(GetParam());
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  // Declares far beyond kMaxBodyBytes; the body itself is never sent — the
  // 413 must come from the declaration alone.
  ASSERT_TRUE(SendAll(
      fd, "POST /static.html HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999\r\n\r\n"));
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 413);
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
  EXPECT_EQ(stack.listener->stats().edge_413, 1u);
}

TEST_P(ListenerModeTest, SmugglingShapedRequestIsRejectedAtTheEdgeWith400) {
  Stack stack(GetParam());
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd,
                      "POST /static.html HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n"
                      "Content-Length: 5\r\n\r\nbody!"));
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 400);
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
  EXPECT_EQ(stack.listener->stats().edge_400, 1u);
  EXPECT_EQ(stack.server->counters(GetParam()).accepted, 0u);
}

TEST_P(ListenerModeTest, ServerServesExactlyTheRequestsTheEdgeForwards) {
  // The edge trims space before a colon, so "Content-Length : 28" frames a
  // body: one forwarded request, which the lane must also count as one (its
  // body is not a second request).  And "Host : t" names a Host.
  Stack stack(GetParam());
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd,
                      "POST /static.html HTTP/1.1\r\nHost: t\r\nContent-Length : 28\r\n\r\n"
                      "GET /b HTTP/1.1\r\nHost: x\r\n\r\n"
                      "GET /static.html HTTP/1.1\r\nHost : t\r\nConnection: close\r\n\r\n"));
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 200);
  EXPECT_EQ(ReadResponse(fd, &stream), 200);
  EXPECT_TRUE(WaitForEof(fd, &stream));
  EXPECT_EQ(stream, "") << "a response to the smuggled body";
  ::close(fd);
  stack.listener->Stop();
  const auto counters = stack.server->counters(GetParam());
  EXPECT_EQ(stack.listener->stats().requests_forwarded, 2u);
  EXPECT_EQ(counters.requests, stack.listener->stats().requests_forwarded);
  EXPECT_EQ(counters.status_2xx, 2u);
}

TEST_P(ListenerModeTest, HeadLimitHoldsAtTheEdgeToTheByte) {
  // A head of exactly kMaxHeadBytes is served in every mode; one byte more
  // is a 413 at the edge, which no lane ever sees.
  Stack stack(GetParam());
  const std::string prefix =
      "GET /static.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Pad: ";
  for (const size_t bytes : {vnet::kMaxHeadBytes, vnet::kMaxHeadBytes + 1}) {
    const int fd = ConnectTo(stack.listener->port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(
        SendAll(fd, prefix + std::string(bytes - prefix.size() - 4, 'p') + "\r\n\r\n"));
    std::string stream;
    EXPECT_EQ(ReadResponse(fd, &stream), bytes == vnet::kMaxHeadBytes ? 200 : 413) << bytes;
    EXPECT_TRUE(WaitForEof(fd));
    ::close(fd);
  }
  stack.listener->Stop();
  const vnet::ListenerStats lstats = stack.listener->stats();
  EXPECT_EQ(lstats.edge_413, 1u);
  EXPECT_EQ(lstats.requests_forwarded, 1u);
  EXPECT_EQ(stack.server->counters(GetParam()).requests, lstats.requests_forwarded);
}

TEST(Listener, IdleConnectionIsClosedByTheTimeout) {
  vnet::ListenerOptions lopts;
  lopts.idle_timeout_ms = 60;
  Stack stack(vnet::ServeMode::kNative, {}, lopts);
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  // Send nothing: the listener must hang up on its own.
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
  EXPECT_EQ(stack.listener->stats().idle_closed, 1u);
  // Never dispatched: an idle socket costs no lane.
  EXPECT_EQ(stack.server->counters(vnet::ServeMode::kNative).accepted, 0u);
}

TEST(Listener, SlowWriterGets408AfterTheIdleTimeout) {
  vnet::ListenerOptions lopts;
  lopts.idle_timeout_ms = 60;
  Stack stack(vnet::ServeMode::kNative, {}, lopts);
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  // A slowloris half-request: head never terminates.
  ASSERT_TRUE(SendAll(fd, "GET /static.html HTTP/1.1\r\nHost: t\r\n"));
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 408);
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
  EXPECT_EQ(stack.listener->stats().idle_closed, 1u);
}

TEST(Listener, TruncatedRequestGets400AtTheEdge) {
  Stack stack(vnet::ServeMode::kNative);
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /static.ht"));
  ::shutdown(fd, SHUT_WR);  // EOF inside an incomplete head
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 400);
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
  EXPECT_EQ(stack.listener->stats().edge_400, 1u);
}

TEST(Listener, KeepAliveConnectionHoldsLaneAndOverflowSheds) {
  // lanes=1, queue=1: connection A holds the lane (parked mid keep-alive),
  // B occupies the queue slot, C must shed with 503 — overload stays a
  // first-class, protocol-visible behavior through the socket front end.
  vnet::ConcurrentServerOptions sopts;
  sopts.lanes = 1;
  sopts.max_queue_depth = 1;
  Stack stack(vnet::ServeMode::kNative, sopts);
  const int a = ConnectTo(stack.listener->port());
  ASSERT_GE(a, 0);
  std::string sa;
  ASSERT_TRUE(SendAll(a, "GET /static.html HTTP/1.1\r\nHost: t\r\n\r\n"));
  ASSERT_EQ(ReadResponse(a, &sa), 200);  // A now owns the lane, parked
  const int b = ConnectTo(stack.listener->port());
  ASSERT_GE(b, 0);
  ASSERT_TRUE(SendAll(b, "GET /static.html HTTP/1.1\r\nHost: t\r\n\r\n"));
  // B is queued behind A; give the listener a moment to dispatch it before C.
  for (int i = 0; i < 200 && stack.server->executor_stats().queued == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(stack.server->executor_stats().queued, 1u);
  const int c = ConnectTo(stack.listener->port());
  ASSERT_GE(c, 0);
  std::string sc;
  ASSERT_TRUE(SendAll(c, "GET /static.html HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_EQ(ReadResponse(c, &sc), 503);  // shed immediately, well-formed
  // Closing A frees the lane; B then serves normally.
  ::close(a);
  std::string sb;
  EXPECT_EQ(ReadResponse(b, &sb), 200);
  ::close(b);
  ::close(c);
}

TEST_P(ListenerModeTest, ConcurrentSocketClientsAllSucceed) {
  vnet::ConcurrentServerOptions sopts;
  sopts.lanes = 4;
  Stack stack(GetParam(), sopts);
  vnet::SocketLoadOptions load;
  load.port = stack.listener->port();
  load.clients = 4;
  load.requests_per_client = 24;
  load.requests_per_connection = 8;
  const auto result = vnet::RunSocketClosedLoop(load);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.latencies_us.size(), 4u * 24u);
  // Clients close as soon as they read their last response; they never wait
  // for the server's FIN, so the final connection jobs may still be settling.
  // Stop() drains every in-flight job (and counters update before each job's
  // future resolves), making the counter reads deterministic.
  stack.listener->Stop();
  const auto counters = stack.server->counters(GetParam());
  EXPECT_EQ(counters.requests, 4u * 24u);
  EXPECT_GT(counters.keepalive_reused, 0u);
  EXPECT_EQ(counters.status_2xx, 4u * 24u);
}

TEST(Listener, StopDrainsInFlightConnections) {
  Stack stack(vnet::ServeMode::kNative);
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  std::string stream;
  ASSERT_TRUE(SendAll(fd, "GET /static.html HTTP/1.1\r\nHost: t\r\n\r\n"));
  ASSERT_EQ(ReadResponse(fd, &stream), 200);
  // Stop with the keep-alive connection still open: must not hang or crash.
  stack.listener->Stop();
  EXPECT_FALSE(stack.listener->running());
  ::close(fd);
}

// The event loop submits every connection, so a server that parks a
// submitter on a full queue could stop it for good: Start refuses one.
TEST(Listener, StartRefusesAServerThatParksOnAFullQueue) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  vnet::ConcurrentServerOptions sopts;
  sopts.max_queue_depth = 4;
  sopts.block_when_full = true;
  {
    vnet::ConcurrentHttpServer server(&runtime, &files, sopts);
    vnet::Listener listener(&server);
    const vbase::Status status = listener.Start();
    EXPECT_EQ(status.code(), vbase::Code::kFailedPrecondition) << status.ToString();
    EXPECT_FALSE(listener.running());
  }
  sopts.block_when_full = false;
  vnet::ConcurrentHttpServer server(&runtime, &files, sopts);
  vnet::Listener listener(&server);
  const vbase::Status status = listener.Start();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(listener.running());
}

// A response larger than the socket takes at once is finished under
// EPOLLOUT.  The client advertises a 4 KB window and reads only after a
// pause, so the listener's send meets EAGAIN with most of an 8 MB file
// still queued (8 MB is above Linux's default 4 MB tcp_wmem ceiling).
TEST_P(ListenerModeTest, ALargeResponseFinishesAfterPartialWrites) {
  Stack stack(GetParam());
  std::string file(8u << 20, '\0');
  for (size_t i = 0; i < file.size(); ++i) {
    file[i] = static_cast<char>('a' + (i * 7 + i / 4093) % 26);
  }
  stack.files.PutFile("/big.bin", file);
  const int fd = ConnectTo(stack.listener->port(), /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /big.bin HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::string stream;
  std::string body;
  EXPECT_EQ(ReadResponse(fd, &stream, &body), 200);
  EXPECT_EQ(body.size(), file.size());
  EXPECT_TRUE(body == file) << "the body differs from the file";
  EXPECT_TRUE(WaitForEof(fd));
  ::close(fd);
}

// A keep-alive client resets its socket (SO_LINGER 0) while its job waits
// for the next request: the listener closes the socket at once, the job
// sees EOF and ends, and only then is the connection freed.  The next
// connection (which may get the same fd) is served, and Stop() returns.
TEST_P(ListenerModeTest, APeerResetWhileItsJobRunsIsClosedAndTheJobEnds) {
  Stack stack(GetParam());
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /static.html HTTP/1.1\r\nHost: t\r\n\r\n"));
  std::string stream;
  ASSERT_EQ(ReadResponse(fd, &stream), 200);  // the job now waits for more
  const linger reset = {1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  ::close(fd);
  for (int i = 0; i < 400 && (stack.listener->stats().closed == 0 ||
                              stack.server->counters(GetParam()).completed == 0);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(stack.listener->stats().closed, 1u);
  EXPECT_EQ(stack.server->counters(GetParam()).completed, 1u);
  const int next = ConnectTo(stack.listener->port());
  ASSERT_GE(next, 0);
  ASSERT_TRUE(
      SendAll(next, "GET /static.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"));
  std::string next_stream;
  EXPECT_EQ(ReadResponse(next, &next_stream), 200);
  EXPECT_TRUE(WaitForEof(next));
  ::close(next);
  stack.listener->Stop();
  EXPECT_FALSE(stack.listener->running());
  EXPECT_EQ(stack.listener->stats().accepted, 2u);
  EXPECT_EQ(stack.server->counters(GetParam()).completed, 2u);
}

// A client half-closes in the middle of a forwarded body: the listener
// stops forwarding, the server sees EOF mid-body, and the client gets the
// server's 400 and then the listener's FIN.  Every mode answers 400 and
// counts it as a 4xx: the guests drain a body before they serve its
// request.
TEST_P(ListenerModeTest, AHalfCloseMidBodyGetsTheServersAnswerThenFin) {
  Stack stack(GetParam());
  const int fd = ConnectTo(stack.listener->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd,
                      "POST /static.html HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n" +
                          std::string(10, 'b')));
  ::shutdown(fd, SHUT_WR);
  std::string stream;
  EXPECT_EQ(ReadResponse(fd, &stream), 400);
  EXPECT_TRUE(WaitForEof(fd, &stream));
  EXPECT_EQ(stream, "") << "bytes after the server's answer";
  ::close(fd);
  stack.listener->Stop();
  const vnet::ListenerStats lstats = stack.listener->stats();
  EXPECT_EQ(lstats.requests_forwarded, 1u);
  EXPECT_EQ(lstats.edge_400, 0u);
  EXPECT_EQ(lstats.closed, 1u);
  const auto counters = stack.server->counters(GetParam());
  EXPECT_EQ(counters.requests, 1u);
  EXPECT_EQ(counters.status_4xx, 1u);
  EXPECT_EQ(counters.status_2xx, 0u);
}

}  // namespace
