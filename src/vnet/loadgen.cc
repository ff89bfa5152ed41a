#include "src/vnet/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>

#include "src/base/clock.h"
#include "src/base/rng.h"
#include "src/vnet/http.h"

namespace vnet {
namespace {

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
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
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

// Reads one full response (head + Content-Length body) off the socket into
// *stream, consuming it; leftover bytes stay for the next response.
// Returns the status code, or -1 on transport/framing failure.
int ReadOneResponse(int fd, std::string* stream) {
  char buf[4096];
  while (true) {
    auto head = FrameResponseHead(*stream);
    if (head.ok()) {
      const size_t total = head->head_bytes + head->content_length;
      if (stream->size() >= total) {
        stream->erase(0, total);
        return head->status;
      }
    } else if (head.status().code() != vbase::Code::kFailedPrecondition) {
      return -1;  // malformed response head
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      stream->append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return -1;  // EOF or error mid-response
  }
}

}  // namespace

LoadResult RunSocketClosedLoop(const SocketLoadOptions& options) {
  LoadResult result;
  std::mutex mu;
  vbase::WallTimer timer;
  const int per_conn = std::max(1, options.requests_per_connection);
  const uint64_t deadline_ns =
      options.duration_s > 0 ? static_cast<uint64_t>(options.duration_s * 1e9) : 0;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(std::max(1, options.clients)));
  for (int c = 0; c < std::max(1, options.clients); ++c) {
    threads.emplace_back([&] {
      std::vector<double> local;
      uint64_t local_failures = 0;
      int budget = options.requests_per_client;
      const auto spent = [&]() -> bool {
        if (deadline_ns > 0) {
          return timer.ElapsedNanos() >= deadline_ns;
        }
        return budget <= 0;
      };
      while (!spent()) {
        const int fd = ConnectLoopback(options.port);
        if (fd < 0) {
          ++local_failures;
          if (deadline_ns == 0) {
            --budget;
          }
          continue;
        }
        std::string stream;
        for (int k = 0; k < per_conn && !spent(); ++k) {
          const bool last = k + 1 == per_conn;
          const std::string request = "GET " + options.target +
                                      " HTTP/1.1\r\nHost: bench\r\n" +
                                      (last ? "Connection: close\r\n" : "") + "\r\n";
          vbase::WallTimer rt;
          int status = -1;
          if (SendAll(fd, request)) {
            status = ReadOneResponse(fd, &stream);
          }
          if (deadline_ns == 0) {
            --budget;
          }
          if (status < 0 || status >= 400) {
            ++local_failures;
            break;  // reconnect: the connection state is unknown
          }
          local.push_back(static_cast<double>(rt.ElapsedNanos()) / 1e3);
        }
        ::close(fd);
      }
      std::lock_guard<std::mutex> lock(mu);
      result.latencies_us.insert(result.latencies_us.end(), local.begin(), local.end());
      result.failures += local_failures;
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  result.wall_seconds = static_cast<double>(timer.ElapsedNanos()) / 1e9;
  result.latency = vbase::Summarize(result.latencies_us);
  return result;
}

std::vector<double> GenerateArrivalTrace(const std::vector<LoadPhase>& phases,
                                         uint64_t seed) {
  vbase::Rng rng(seed);
  std::vector<double> arrivals_us;
  double t = 0;
  for (const LoadPhase& phase : phases) {
    const double end = t + phase.duration_s * 1e6;
    if (phase.rps <= 0) {
      t = end;
      continue;
    }
    const double gap = 1e6 / phase.rps;
    double at = t;
    while (at < end) {
      arrivals_us.push_back(at + gap * 0.25 * (rng.NextDouble() - 0.5));
      at += gap;
    }
    t = end;
  }
  std::sort(arrivals_us.begin(), arrivals_us.end());
  return arrivals_us;
}

}  // namespace vnet
