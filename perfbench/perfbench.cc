// perfbench: the repository's benchmark, end to end and layer by layer.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Workloads (each a closed loop: 2 client threads, each waiting for its
// reply before sending the next request, against a 2-lane server):
//
//   http_keepalive  GET /index.html (512 B) over real TCP through
//                   vnet::Listener in kVirtineSnapshot mode, 64 requests per
//                   connection.
//   http_connect    the same server and object, 1 request per connection
//                   ("Connection: close").
//   fn_b64          vnet::Vespid runs 16 base64 microjs functions, one
//                   snapshot key each, on 64 B payloads; no network.  Each
//                   client owns 8 of the keys and visits them in a seeded
//                   order, so no key is ever wanted by two callers at once.
//
// The seed generates every input the program receives: the served body, the
// function payloads and the key-visit order.  Every output is checked (exact
// 200 + body, exact base64, counter and conservation agreement); a failed
// check makes `correct` false and the exit code 1.
//
// --trace 0 measures the end-to-end metrics: the JSON result carries the
// modeled service cost per op (exact run to run), peak RSS and set-up CPU
// time; wall throughput, latency percentiles and CPU time per op go to the
// human report only, because on a shared host they swing with the
// neighbours' load by more than any useful regression bound.  --trace 1 reports the
// per-layer metrics instead: the workload's own path with its stats structs,
// then a staged path that calls the layers' public entry points directly
// (wasp::Executor, wasp::Runtime::Invoke on the same guest image) once
// untraced and once with spans, from which it derives per-layer self time
// and the tracing overhead.  Spans are written to --out at the end.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A human-readable report goes to stderr.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <latch>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/base/stats.h"
#include "src/vcc/vcc.h"
#include "src/vjs/vjs.h"
#include "src/vnet/http.h"
#include "src/vnet/listener.h"
#include "src/vnet/server.h"
#include "src/vnet/serverless.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/executor.h"
#include "src/wasp/runtime.h"
#include "trace.h"

namespace {

using perfbench::OpSpans;
using perfbench::Tracer;

constexpr int kClients = 2;
constexpr int kLanes = 2;
// Timed runs are cut into equal windows of at least kWindowSamples ops (at
// most one per second); throughput and latency percentiles are the medians
// of the per-window values, so a stalled window cannot move a run's figure,
// and every window's p99 has at least 10 samples beyond it.
constexpr size_t kWindowSamples = 1000;
constexpr int kKeepAliveRequests = 64;
constexpr size_t kBodyBytes = 512;
constexpr int kFnKeys = 16;
constexpr size_t kPayloadBytes = 64;
constexpr size_t kPayloadCount = 64;
// Guest memory of a Vespid function virtine (VirtineSpec.mem_size).
constexpr uint64_t kFnMemBytes = 2ULL << 20;
// Set-up is repeated and its median reported; the last stack built is the
// one measured.
constexpr int kHttpSetups = 15;
constexpr int kFnSetups = 5;
constexpr const char* kTarget = "/index.html";
constexpr const char* kRoute = "listener";  // ListenerOptions' default route
constexpr vnet::ServeMode kMode = vnet::ServeMode::kVirtineSnapshot;

const std::string kKeepRequest = "GET /index.html HTTP/1.1\r\nHost: perfbench\r\n\r\n";
const std::string kCloseRequest =
    "GET /index.html HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n";

uint64_t Now() { return vbase::NowNanos(); }

// The q-quantile of `v`, 0 when it is empty.
double Percentile(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : vbase::Quantile(v, q);
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

// ----------------------------------------------------------------- report

class Report {
 public:
  // A metric of the JSON result (and the human report).
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit, true});
  }
  // A line of the human report only.
  void Show(const std::string& name, double value, const char* unit) {
    metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit, false});
  }
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }

  void PrintHuman() const {
    for (const Metric& m : metrics_) {
      std::fprintf(stderr, "  %-36s %16.4f %-7s%s\n", m.name.c_str(), m.value, m.unit,
                   m.in_json ? "" : " (report only)");
    }
    std::fprintf(stderr, "  attempted=%" PRIu64 " failed=%" PRIu64 " correct=%s\n", attempted_,
                 failed_, correct() ? "true" : "false");
  }

  std::string Json() const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (!m.in_json) {
        continue;
      }
      char num[64];
      auto res = std::to_chars(num, num + sizeof(num), m.value);
      *res.ptr = '\0';
      out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
             m.unit + "\"}";
      first = false;
    }
    out += "}}";
    return out;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
    bool in_json;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

// ------------------------------------------------------------ closed loop

struct Sample {
  uint64_t end_ns;
  double latency_us;
};

// Aggregates over the staged path's invocations (wasp::InvokeStats).
struct StageStats {
  uint64_t invocations = 0;
  uint64_t ops = 0;  // requests or calls served by those invocations
  uint64_t affine = 0;
  uint64_t cow_maps = 0;
  uint64_t restored_bytes = 0;
  uint64_t io_exits = 0;
  uint64_t host_cycles = 0;
  uint64_t insns = 0;
  uint64_t run_ns = 0;
  std::vector<double> acquire_ns;
  std::vector<double> load_ns;
  std::vector<double> queue_wait_us;

  void Add(const wasp::InvokeStats& s, uint64_t served) {
    ++invocations;
    ops += served;
    affine += s.affine_restore ? 1 : 0;
    cow_maps += s.mapped_cow ? 1 : 0;
    restored_bytes += s.restored_bytes;
    io_exits += s.io_exits;
    host_cycles += s.host_cycles;
    insns += s.insns;
    run_ns += s.run_ns;
    acquire_ns.push_back(static_cast<double>(s.acquire_ns));
    load_ns.push_back(static_cast<double>(s.load_ns));
  }
  void Merge(const StageStats& o) {
    invocations += o.invocations;
    ops += o.ops;
    affine += o.affine;
    cow_maps += o.cow_maps;
    restored_bytes += o.restored_bytes;
    io_exits += o.io_exits;
    host_cycles += o.host_cycles;
    insns += o.insns;
    run_ns += o.run_ns;
    acquire_ns.insert(acquire_ns.end(), o.acquire_ns.begin(), o.acquire_ns.end());
    load_ns.insert(load_ns.end(), o.load_ns.begin(), o.load_ns.end());
    queue_wait_us.insert(queue_wait_us.end(), o.queue_wait_us.begin(), o.queue_wait_us.end());
  }
};

// What one client thread observed.
struct ClientLog {
  std::vector<Sample> samples;  // one per successful op
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t modeled_cycles = 0;  // fn_b64: summed Vespid::Invocation cost
  std::vector<double> conn_us;  // in-process SubmitConnection -> resolved
  StageStats stage;

  void Merge(const ClientLog& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    attempted += o.attempted;
    failed += o.failed;
    modeled_cycles += o.modeled_cycles;
    conn_us.insert(conn_us.end(), o.conn_us.begin(), o.conn_us.end());
    stage.Merge(o.stage);
  }
};

struct LoopResult {
  uint64_t start_ns = 0;
  uint64_t deadline_ns = 0;
  uint64_t end_ns = 0;
  double cpu_s = 0;  // process CPU time (user + system) over the loop
  ClientLog log;  // all clients merged

  uint64_t ok() const { return log.attempted - log.failed; }
};

// Runs `unit(client, &log)` back to back on every client thread: until
// `seconds` have passed (checked between units, so a unit always finishes),
// or `units` times per client when units > 0.
using Unit = std::function<void(int client, ClientLog* log)>;

LoopResult RunLoop(double seconds, int units, const Unit& unit) {
  LoopResult result;
  std::vector<ClientLog> logs(kClients);
  std::latch go(1);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      go.wait();
      if (units > 0) {
        for (int i = 0; i < units; ++i) {
          unit(c, &logs[c]);
        }
        return;
      }
      while (Now() < result.deadline_ns) {
        unit(c, &logs[c]);
      }
    });
  }
  result.cpu_s = ProcessCpuSeconds();
  result.start_ns = Now();
  result.deadline_ns = result.start_ns + static_cast<uint64_t>(seconds * 1e9);
  go.count_down();
  for (std::thread& t : threads) {
    t.join();
  }

  result.end_ns = Now();
  result.cpu_s = ProcessCpuSeconds() - result.cpu_s;
  for (const ClientLog& log : logs) {
    result.log.Merge(log);
  }
  return result;
}

struct Windowed {
  double rps = 0;
  double p50_us = 0;
  double p99_us = 0;
  size_t samples = 0;     // timed samples (completed before the deadline)
  size_t min_window = 0;  // fewest samples in any window
};

// Throughput and latency percentiles as medians over equal windows of the
// timed interval; ops completing after the deadline are not counted.
Windowed Summarize(const LoopResult& r) {
  std::vector<const Sample*> timed;
  for (const Sample& s : r.log.samples) {
    if (s.end_ns >= r.start_ns && s.end_ns < r.deadline_ns) {
      timed.push_back(&s);
    }
  }
  const double span_ns = static_cast<double>(r.deadline_ns - r.start_ns);
  const size_t max_windows = std::max<size_t>(1, static_cast<size_t>(span_ns / 1e9));
  const size_t windows = std::clamp<size_t>(timed.size() / kWindowSamples, 1, max_windows);
  const double window_ns = span_ns / static_cast<double>(windows);
  std::vector<std::vector<double>> lat(windows);
  for (const Sample* s : timed) {
    const double offset_ns = static_cast<double>(s->end_ns - r.start_ns);
    const size_t w = std::min(windows - 1, static_cast<size_t>(offset_ns / window_ns));
    lat[w].push_back(s->latency_us);
  }
  Windowed out;
  out.samples = timed.size();
  out.min_window = SIZE_MAX;
  std::vector<double> rps, p50, p99;
  for (const std::vector<double>& w : lat) {
    out.min_window = std::min(out.min_window, w.size());
    rps.push_back(static_cast<double>(w.size()) / (window_ns / 1e9));
    if (!w.empty()) {
      p50.push_back(vbase::Quantile(w, 0.5));
      p99.push_back(vbase::Quantile(w, 0.99));
    }
  }
  out.rps = Median(rps);
  out.p50_us = Median(p50);
  out.p99_us = Median(p99);
  std::fprintf(stderr, "%zu windows (ops/s, p50 us, p99 us):", windows);
  for (size_t i = 0; i < rps.size(); ++i) {
    std::fprintf(stderr, " [%.0f %.0f %.0f]", rps[i], i < p50.size() ? p50[i] : 0.0,
                 i < p99.size() ? p99[i] : 0.0);
  }
  std::fprintf(stderr, "\n");
  return out;
}

std::vector<double> Latencies(const LoopResult& r) {
  std::vector<double> out;
  out.reserve(r.log.samples.size());
  for (const Sample& s : r.log.samples) {
    out.push_back(s.latency_us);
  }
  return out;
}

// Peak RSS of this process image (VmHWM), or 0 if unreadable.  getrusage's
// ru_maxrss is not used: Linux carries it across execve, so under a larger
// parent (the Python runner) it would report the parent's peak.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  unsigned long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

// ------------------------------------------------------------ HTTP client

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
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
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

// Reads one response off a byte stream (`read` returns bytes read, <= 0 at
// EOF or error) into *stream and consumes it.  True iff it is a 200 whose
// body is exactly `body`.
template <typename ReadFn>
bool ReadResponse(const ReadFn& read, std::string* stream, const std::string& body) {
  char buf[4096];
  while (true) {
    auto head = vnet::FrameResponseHead(*stream);
    if (head.ok()) {
      const size_t total = head->head_bytes + head->content_length;
      if (stream->size() >= total) {
        const bool ok = head->status == 200 && head->content_length == body.size() &&
                        stream->compare(head->head_bytes, body.size(), body) == 0;
        stream->erase(0, total);
        return ok;
      }
    } else if (head.status().code() != vbase::Code::kFailedPrecondition) {
      return false;
    }
    const int64_t n = read(buf, sizeof(buf));
    if (n <= 0) {
      return false;
    }
    stream->append(buf, static_cast<size_t>(n));
  }
}

const std::string& RequestFor(int index, int requests) {
  return index + 1 == requests ? kCloseRequest : kKeepRequest;
}

// Sends request k with `send(k)` and reads its response with `read`, for k
// in [0, requests).  A request's latency runs from the end of the previous
// one (from `t_start` for the first).  One sample per success; a failure
// fails the rest of the connection.  Returns the requests served.
template <typename SendFn, typename ReadFn>
uint64_t Exchange(int requests, const std::string& body, uint64_t t_start, const SendFn& send,
                  const ReadFn& read, ClientLog* log) {
  std::string stream;
  uint64_t t_prev = t_start;
  for (int k = 0; k < requests; ++k) {
    const bool ok = send(k) && ReadResponse(read, &stream, body);
    const uint64_t t = Now();
    if (!ok) {
      log->attempted += static_cast<uint64_t>(requests - k);
      log->failed += static_cast<uint64_t>(requests - k);
      return static_cast<uint64_t>(k);
    }
    ++log->attempted;
    log->samples.push_back(Sample{t, static_cast<double>(t - t_prev) / 1e3});
    t_prev = t;
  }
  return static_cast<uint64_t>(requests);
}

// Blocking reads off the host end of an in-process channel.
auto ChannelReader(wasp::ByteChannel* channel) {
  return [channel](char* buf, size_t cap) -> int64_t {
    return static_cast<int64_t>(channel->host().Read(buf, cap));
  };
}

// One TCP connection carrying `requests` requests; the first request's
// latency includes connect().
void SocketConnection(uint16_t port, int requests, const std::string& body, ClientLog* log) {
  const uint64_t t_start = Now();
  const int fd = ConnectLoopback(port);
  if (fd < 0) {
    log->attempted += static_cast<uint64_t>(requests);
    log->failed += static_cast<uint64_t>(requests);
    return;
  }
  const auto send = [fd, requests](int k) { return SendAll(fd, RequestFor(k, requests)); };
  const auto read = [fd](char* buf, size_t cap) -> int64_t {
    while (true) {
      const ssize_t n = ::recv(fd, buf, cap, 0);
      if (n >= 0 || errno != EINTR) {
        return n;
      }
    }
  };
  Exchange(requests, body, t_start, send, read, log);
  ::close(fd);
}

std::string RandomBody(std::mt19937_64& rng) {
  static const char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
  std::string body(kBodyBytes, ' ');
  for (char& ch : body) {
    ch = kAlphabet[rng() % (sizeof(kAlphabet) - 1)];
  }
  return body;
}

// ------------------------------------------------------------- HTTP stack

struct HttpStack {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  std::unique_ptr<vnet::ConcurrentHttpServer> server;
  std::unique_ptr<vnet::Listener> listener;  // declared last: stops first
};

// Builds runtime, server and listener, then makes the cold first call that
// captures the keep-alive handler's snapshot.  Null on failure.
std::unique_ptr<HttpStack> BuildHttpStack(const std::string& body, ClientLog* cold) {
  auto stack = std::make_unique<HttpStack>();
  stack->files.PutFile(kTarget, body);
  vnet::ConcurrentServerOptions sopts;
  sopts.lanes = kLanes;
  sopts.max_queue_depth = 4 * kClients;
  sopts.block_when_full = false;  // required by the listener
  stack->server = std::make_unique<vnet::ConcurrentHttpServer>(&stack->runtime, &stack->files,
                                                               sopts);
  vnet::ListenerOptions lopts;
  lopts.mode = kMode;
  stack->listener = std::make_unique<vnet::Listener>(stack->server.get(), lopts);
  if (!stack->listener->Start().ok()) {
    return nullptr;
  }
  SocketConnection(stack->listener->port(), 1, body, cold);
  return stack;
}

// Waits until the server has accounted `requests` requests and its executor
// is idle (a client sees its last response before the lane finishes).
void WaitSettled(const HttpStack& stack, uint64_t requests) {
  const uint64_t give_up = Now() + 5'000'000'000ULL;
  while (Now() < give_up) {
    const wasp::ExecutorStats e = stack.server->executor_stats();
    if (stack.server->counters(kMode).requests >= requests && e.queued == 0 &&
        e.in_flight == 0) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool Conserved(const wasp::ExecutorStats& e) {
  return e.submitted == e.completed + e.faulted + e.queued + e.in_flight;
}

// Every request the clients saw succeed was forwarded by the listener (socket
// requests only) and served 200 by a lane; nothing was rejected anywhere.
void CheckHttpCounters(const HttpStack& stack, uint64_t socket_ok, uint64_t inproc_ok,
                       Report* report) {
  WaitSettled(stack, socket_ok + inproc_ok);
  const vnet::ListenerStats l = stack.listener->stats();
  const vnet::ServerCounters c = stack.server->counters(kMode);
  const wasp::ExecutorStats e = stack.server->executor_stats();
  const auto str = [](uint64_t v) { return std::to_string(v); };
  report->Expect(l.requests_forwarded == socket_ok,
                 "listener forwarded " + str(l.requests_forwarded) + " requests, clients saw " +
                     str(socket_ok) + " succeed");
  report->Expect(c.requests == socket_ok + inproc_ok && c.status_2xx == c.requests,
                 "server counted " + str(c.requests) + " requests / " + str(c.status_2xx) +
                     " 2xx, clients saw " + str(socket_ok + inproc_ok));
  report->Expect(l.edge_400 == 0 && l.edge_413 == 0,
                 "edge rejects: 400=" + str(l.edge_400) + " 413=" + str(l.edge_413));
  report->Expect(c.rejected + c.quota_rejected + c.breaker_rejected == 0,
                 "server shed " + str(c.rejected + c.quota_rejected + c.breaker_rejected));
  report->Expect(c.errors == 0 && c.faulted == 0,
                 "server errors=" + str(c.errors) + " faulted=" + str(c.faulted));
  report->Expect(Conserved(e), "executor conservation: submitted=" + str(e.submitted) +
                                   " completed=" + str(e.completed) + " faulted=" +
                                   str(e.faulted) + " queued=" + str(e.queued) +
                                   " in_flight=" + str(e.in_flight));
}

// ------------------------------------------------------- the staged path

// Start and end of the Invoke call, stamped on the executor worker and read
// after the job's future resolves.
struct TaskClock {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Records the runtime span of one invocation and its stage children,
// reconstructed from InvokeStats (acquire, then load/restore, then run).
void AddInvokeSpans(OpSpans* tr, int parent, uint64_t start_ns, uint64_t end_ns,
                    const wasp::InvokeStats& s) {
  const int rt = tr->Add("wasp.runtime", parent, start_ns, end_ns);
  uint64_t t = start_ns;
  const auto stage = [&](const char* name, uint64_t ns) {
    const uint64_t end = std::min(t + ns, end_ns);
    tr->Add(name, rt, t, end);
    t = end;
  };
  stage("wasp.pool", s.acquire_ns);
  stage("wasp.snapshot", s.load_ns);
  stage("vhw.cpu", s.run_ns);
}

// The keep-alive handler image served through the layers' public entry
// points: a wasp::Executor like the server's, and Runtime::Invoke with the
// spec the server builds for a keep-alive connection.
struct StagedHttp {
  wasp::Runtime* runtime = nullptr;
  wasp::HostEnv* files = nullptr;
  visa::Image image;
  std::unique_ptr<wasp::Executor> executor;
  std::string body;

  wasp::VirtineSpec Spec(wasp::ByteChannel* channel) const {
    wasp::VirtineSpec spec;
    spec.image = &image;
    spec.key = "perfbench-http-keepalive";
    spec.mem_size = 1ULL << 20;
    spec.policy = wasp::kPolicyStream | wasp::kPolicyFileIo | wasp::MaskOf(wasp::kHcSnapshot) |
                  wasp::MaskOf(wasp::kHcReturnData);
    spec.use_snapshot = true;
    spec.env = files;
    spec.channel = &channel->guest();
    return spec;
  }
};

// Frames `request` as the listener's edge does; true iff it frames whole.
bool FrameAtEdge(const std::string& request) {
  auto need = vnet::RequestBytesNeeded(request);
  auto framed = vnet::FrameRequest(request);
  return need.ok() && *need == request.size() && framed.ok() &&
         framed->consumed == request.size();
}

void StagedHttpConnection(const StagedHttp& st, int requests, ClientLog* log, Tracer* tracer,
                          uint64_t op_id) {
  OpSpans tr;
  tr.op = op_id;
  const uint64_t t_root = Now();
  tr.Add("client", -1, t_root, t_root);
  const auto frame = [&](const std::string& req) {
    const uint64_t t0 = Now();
    const bool ok = FrameAtEdge(req);
    if (tracer != nullptr) {
      tr.Add("vnet.http", 0, t0, Now());
    }
    return ok;
  };
  wasp::ByteChannel channel;
  const wasp::VirtineSpec spec = st.Spec(&channel);
  const bool framed_ok = frame(RequestFor(0, requests));
  channel.host().WriteString(RequestFor(0, requests));

  TaskClock clock;
  std::future<wasp::RunOutcome> future;
  const uint64_t t_submit = Now();
  const bool accepted = st.executor->TrySubmitTask(
      [&]() {
        clock.start_ns = Now();
        wasp::RunOutcome out = st.runtime->Invoke(spec);
        clock.end_ns = Now();
        return out;
      },
      &future, "perfbench-staged", wasp::KeyClass::kLatency);
  if (!accepted) {
    log->attempted += static_cast<uint64_t>(requests);
    log->failed += static_cast<uint64_t>(requests);
    return;
  }
  // Request 0 went in before the submit, as the listener forwards it.
  const auto send = [&](int k) {
    if (k == 0) {
      return framed_ok;
    }
    const bool ok = frame(RequestFor(k, requests));
    channel.host().WriteString(RequestFor(k, requests));
    return ok;
  };
  const uint64_t served = Exchange(requests, st.body, t_root, send, ChannelReader(&channel), log);
  channel.host().CloseWrite();
  const wasp::RunOutcome out = future.get();
  const uint64_t t_end = Now();
  // The guest reports [requests, 2xx, 4xx, clean] through return_data.
  uint64_t guest[4] = {0, 0, 0, 0};
  if (out.output.size() >= sizeof(guest)) {
    std::memcpy(guest, out.output.data(), sizeof(guest));
  }
  if (!out.status.ok() || guest[0] != served || guest[1] != served) {
    log->failed += served;
    return;
  }
  log->stage.Add(out.stats, served);
  log->stage.queue_wait_us.push_back(static_cast<double>(clock.start_ns - t_submit) / 1e3);
  if (tracer != nullptr) {
    tr.spans[0].end_ns = t_end;
    const int exec = tr.Add("wasp.executor", 0, t_submit, t_end);
    AddInvokeSpans(&tr, exec, clock.start_ns, clock.end_ns, out.stats);
    tracer->Commit(std::move(tr));
  }
}

// ------------------------------------------------------------ fn_b64 data

struct FnInputs {
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<std::string> expected;  // vjs::HostBase64 of each payload
};

FnInputs MakeFnInputs(std::mt19937_64& rng) {
  FnInputs in;
  for (size_t i = 0; i < kPayloadCount; ++i) {
    std::vector<uint8_t> p(kPayloadBytes);
    for (uint8_t& b : p) {
      b = static_cast<uint8_t>(rng());
    }
    in.expected.push_back(vjs::HostBase64(p));
    in.payloads.push_back(std::move(p));
  }
  return in;
}

bool OutputIs(const std::vector<uint8_t>& out, const std::string& expected) {
  return out.size() == expected.size() && std::equal(out.begin(), out.end(), expected.begin());
}

std::string FnName(int key) {
  char name[16];
  std::snprintf(name, sizeof(name), "b64-%02d", key);
  return name;
}

// Per-client seeded visit order: client c owns keys c, c+2, c+4, ...
struct Visitor {
  std::mt19937_64 rng;
  int client = 0;

  int NextKey() { return client + kClients * static_cast<int>(rng() % (kFnKeys / kClients)); }
  size_t NextPayload() { return static_cast<size_t>(rng() % kPayloadCount); }
};

std::vector<Visitor> MakeVisitors(uint64_t seed) {
  std::vector<Visitor> v;
  for (int c = 0; c < kClients; ++c) {
    v.push_back(Visitor{std::mt19937_64(seed * 1000003ULL + static_cast<uint64_t>(c) + 1), c});
  }
  return v;
}

struct FnStack {
  wasp::Runtime runtime;
  vnet::Vespid vespid{&runtime};
};

// Registers the 16 functions and makes each key's cold first call, which
// captures its snapshot.  Null on failure.
std::unique_ptr<FnStack> BuildFnStack(const FnInputs& in, Report* report) {
  auto stack = std::make_unique<FnStack>();
  // One shell per function: each key's cold call takes a clean shell and
  // keeps it parked snapshot-affine, instead of reclaiming another key's.
  stack->runtime.pool().Prewarm(stack->runtime.MakeVmConfig(kFnMemBytes), kFnKeys);
  for (int k = 0; k < kFnKeys; ++k) {
    const vbase::Status st = stack->vespid.Register(FnName(k), vjs::Base64ScriptSource());
    if (!st.ok()) {
      report->Expect(false, "register " + FnName(k) + ": " + st.ToString());
      return nullptr;
    }
  }
  for (int k = 0; k < kFnKeys; ++k) {
    auto inv = stack->vespid.Invoke(FnName(k), in.payloads[0]);
    if (!inv.ok() || !OutputIs(inv->output, in.expected[0])) {
      report->Expect(false, "cold call of " + FnName(k) + " returned a wrong output");
      return nullptr;
    }
  }
  return stack;
}

struct StagedFn {
  wasp::Runtime* runtime = nullptr;
  visa::Image image;  // one engine image, registered under 16 keys
  const FnInputs* inputs = nullptr;

  wasp::VirtineSpec Spec(int key, const std::vector<uint8_t>* payload) const {
    wasp::VirtineSpec spec;
    spec.image = &image;
    spec.key = "perfbench-b64-" + std::to_string(key);
    spec.mem_size = kFnMemBytes;
    spec.policy = wasp::kPolicyManaged;
    spec.use_snapshot = true;
    spec.crt_snapshot = false;  // the engine snapshots itself after init
    spec.input = payload;
    return spec;
  }
};

void StagedFnCall(const StagedFn& st, int key, size_t payload, ClientLog* log, Tracer* tracer,
                  uint64_t op_id) {
  const uint64_t t_root = Now();
  const wasp::VirtineSpec spec = st.Spec(key, &st.inputs->payloads[payload]);
  const uint64_t t_invoke = Now();
  const wasp::RunOutcome out = st.runtime->Invoke(spec);
  const uint64_t t_invoked = Now();
  const bool ok = out.status.ok() && OutputIs(out.output, st.inputs->expected[payload]);
  const uint64_t t_end = Now();
  ++log->attempted;
  if (!ok) {
    ++log->failed;
    return;
  }
  log->samples.push_back(Sample{t_end, static_cast<double>(t_end - t_root) / 1e3});
  log->stage.Add(out.stats, 1);
  if (tracer != nullptr) {
    OpSpans tr;
    tr.op = op_id;
    tr.Add("client", -1, t_root, t_end);
    AddInvokeSpans(&tr, 0, t_invoke, t_invoked, out.stats);
    tracer->Commit(std::move(tr));
  }
}

// --------------------------------------------------------- per-layer table

// Every per-layer metric, in report order.  A workload that bypasses a
// layer reports 0 for it.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"e2e.throughput_rps", "ops/s"},
    {"e2e.latency_p50_us", "us"},
    {"e2e.latency_p99_us", "us"},
    {"e2e.cpu_us_per_op", "us"},
    {"e2e.failed_frac", "ratio"},
    {"vnet.listener.self_us_p50", "us"},
    {"vnet.listener.accepts_per_req", "count"},
    {"vnet.listener.edge_rejects", "count"},
    {"vnet.http.frame_ns", "ns"},
    {"vnet.server.conn_us_p50", "us"},
    {"vnet.server.conn_us_p99", "us"},
    {"vnet.server.exits_per_req", "count"},
    {"wasp.executor.queue_wait_us_p50", "us"},
    {"wasp.executor.queue_wait_us_p99", "us"},
    {"wasp.executor.peak_queue_depth", "count"},
    {"wasp.executor.rejected", "count"},
    {"wasp.pool.acquire_ns_p50", "ns"},
    {"wasp.pool.acquire_ns_p99", "ns"},
    {"wasp.pool.lane_cache_hit_frac", "ratio"},
    {"wasp.pool.slow_path_frac", "ratio"},
    {"wasp.pool.fresh_creates", "count"},
    {"wasp.pool.affine_resident_mb", "MB"},
    {"wasp.snapshot.restore_ns_p50", "ns"},
    {"wasp.snapshot.affine_frac", "ratio"},
    {"wasp.snapshot.cow_map_frac", "ratio"},
    {"wasp.snapshot.restored_kb_per_op", "KB"},
    {"wasp.snapshot.capture_ms", "ms"},
    {"wasp.runtime.exits_per_op", "count"},
    {"wasp.runtime.host_cycles_per_op", "cycles"},
    {"vhw.cpu.insns_per_op", "count"},
    {"vhw.cpu.ns_per_insn", "ns"},
    {"vcc.compile_ms", "ms"},
    {"vjs.compile_us", "us"},
    {"trace.self_us_per_op.vnet.http", "us"},
    {"trace.self_us_per_op.wasp.executor", "us"},
    {"trace.self_us_per_op.wasp.runtime", "us"},
    {"trace.self_us_per_op.wasp.pool", "us"},
    {"trace.self_us_per_op.wasp.snapshot", "us"},
    {"trace.self_us_per_op.vhw.cpu", "us"},
    {"trace.uncovered_us_per_op", "us"},
    {"trace.overhead_frac", "ratio"},
};

using Layer = std::map<std::string, double>;

void ReportLayers(const Layer& layer, Report* report) {
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = layer.find(m.name);
    report->Add(m.name, it != layer.end() ? it->second : 0.0, m.unit);
  }
}

// Pool counters over one phase (PoolStats deltas) plus the residency gauge.
void AddPoolLayer(const wasp::PoolStats& before, const wasp::PoolStats& after, Layer* layer) {
  const double acquires = static_cast<double>(after.acquires - before.acquires);
  (*layer)["wasp.pool.lane_cache_hit_frac"] =
      Ratio(static_cast<double>(after.lane_cache_hits - before.lane_cache_hits), acquires);
  (*layer)["wasp.pool.slow_path_frac"] =
      Ratio(static_cast<double>(after.slow_path_acquires - before.slow_path_acquires), acquires);
  (*layer)["wasp.pool.fresh_creates"] = static_cast<double>(after.fresh_creates);
  (*layer)["wasp.pool.affine_resident_mb"] =
      static_cast<double>(after.affine_resident_bytes) / (1024.0 * 1024.0);
}

// InvokeStats-derived metrics and span self times of the traced staged run.
void AddStageLayer(const StageStats& s, const Tracer& tracer, double untraced_rps,
                   double traced_rps, Layer* layer) {
  const double ops = static_cast<double>(s.ops);
  const double warm = static_cast<double>(s.invocations);
  (*layer)["wasp.executor.queue_wait_us_p50"] = Median(s.queue_wait_us);
  (*layer)["wasp.executor.queue_wait_us_p99"] = Percentile(s.queue_wait_us, 0.99);
  (*layer)["wasp.pool.acquire_ns_p50"] = Median(s.acquire_ns);
  (*layer)["wasp.pool.acquire_ns_p99"] = Percentile(s.acquire_ns, 0.99);
  (*layer)["wasp.snapshot.restore_ns_p50"] = Median(s.load_ns);
  (*layer)["wasp.snapshot.affine_frac"] = Ratio(static_cast<double>(s.affine), warm);
  (*layer)["wasp.snapshot.cow_map_frac"] = Ratio(static_cast<double>(s.cow_maps), warm);
  (*layer)["wasp.snapshot.restored_kb_per_op"] =
      Ratio(static_cast<double>(s.restored_bytes) / 1024.0, ops);
  (*layer)["wasp.runtime.exits_per_op"] = Ratio(static_cast<double>(s.io_exits), ops);
  (*layer)["wasp.runtime.host_cycles_per_op"] = Ratio(static_cast<double>(s.host_cycles), ops);
  (*layer)["vhw.cpu.insns_per_op"] = Ratio(static_cast<double>(s.insns), ops);
  (*layer)["vhw.cpu.ns_per_insn"] =
      Ratio(static_cast<double>(s.run_ns), static_cast<double>(s.insns));

  const perfbench::SelfTimes self = tracer.ComputeSelfTimes();
  for (const auto& [name, ns] : self.self_ns) {
    if (name != "client") {
      (*layer)["trace.self_us_per_op." + name] = Ratio(static_cast<double>(ns) / 1e3, ops);
    }
  }
  (*layer)["trace.uncovered_us_per_op"] = Ratio(static_cast<double>(self.uncovered_ns) / 1e3, ops);
  (*layer)["trace.overhead_frac"] = untraced_rps > 0 ? 1.0 - traced_rps / untraced_rps : 0;
  std::fprintf(stderr, "self time over %" PRIu64 " traced units serving %" PRIu64 " ops:\n%s",
               self.ops, s.ops, perfbench::FormatSelfTimes(self, s.ops).c_str());
}

double PhaseRps(const LoopResult& r) {
  const double seconds = static_cast<double>(r.end_ns - r.start_ns) / 1e9;
  return Ratio(static_cast<double>(r.ok()), seconds);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

// Runs the staged path untraced and then traced (each for `seconds`), after
// `warm` warm-up units per client; returns the traced run's merged log.
using TracedUnit = std::function<void(int client, ClientLog* log, Tracer* tracer)>;

LoopResult RunStaged(double seconds, int warm, const TracedUnit& unit, Tracer* tracer,
                     double* untraced_rps) {
  const Unit untraced = [&](int c, ClientLog* log) { unit(c, log, nullptr); };
  RunLoop(0, warm, untraced);
  const LoopResult plain = RunLoop(seconds, 0, untraced);
  *untraced_rps = PhaseRps(plain);
  return RunLoop(seconds, 0, [&](int c, ClientLog* log) { unit(c, log, tracer); });
}

void WriteTrace(const Options& opt, const Tracer& tracer, Report* report) {
  const std::string path =
      opt.out_dir + "/spans-" + opt.workload + "-" + std::to_string(opt.seed) + ".jsonl";
  report->Expect(tracer.WriteSpans(path), "cannot write " + path);
  std::fprintf(stderr, "spans: %zu ops written to %s\n", tracer.ops(), path.c_str());
}

// Set-up cost of each repetition, in process CPU seconds and wall seconds.
struct Setups {
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
};

// Times `build` (returns false on failure) as one set-up repetition.
template <typename Build>
bool TimeSetup(Setups* setups, const Build& build) {
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t t0 = Now();
  const bool ok = build();
  setups->wall_s.push_back(static_cast<double>(Now() - t0) / 1e9);
  setups->cpu_s.push_back(ProcessCpuSeconds() - cpu0);
  return ok;
}

// What a user of the workload sees over a timed phase, by the names the
// repository's performance claims use.
struct Observed {
  Windowed wall;
  double cpu_us_per_op = 0;
  double failed_frac = 0;
};

Observed Observe(const LoopResult& timed) {
  Observed o;
  o.wall = Summarize(timed);
  o.cpu_us_per_op = Ratio(timed.cpu_s * 1e6, static_cast<double>(timed.ok()));
  o.failed_frac =
      Ratio(static_cast<double>(timed.log.failed), static_cast<double>(timed.log.attempted));
  std::fprintf(stderr, "timed samples=%zu (fewest in a window: %zu)\n", o.wall.samples,
               o.wall.min_window);
  if (o.wall.min_window < kWindowSamples) {
    std::fprintf(stderr, "warning: a window holds fewer than %zu samples\n", kWindowSamples);
  }
  return o;
}

// The end-to-end report.  The JSON result carries the metrics that hold
// still from run to run on a shared host: the modeled service cost (exact),
// peak RSS, and set-up time in process CPU seconds.  Wall throughput,
// latency and set-up wall time move by up to 2x with the neighbours' load
// (CPU steal and wake-up delays), so they are shown in the human report
// (and as e2e.* per-layer metrics of the traced run), not gated.
// `rss_mb` is the peak RSS through set-up and warm-up, read before the timed
// phase's sample buffers grow.
void AddEndToEnd(const LoopResult& timed, double modeled_cycles, const Setups& setups,
                 double rss_mb, Report* report) {
  const Observed o = Observe(timed);
  const double per_op = Ratio(modeled_cycles, static_cast<double>(timed.ok()));
  std::fprintf(stderr, "set-ups (CPU s / wall s):");
  for (size_t i = 0; i < setups.cpu_s.size(); ++i) {
    std::fprintf(stderr, " %.4f/%.4f", setups.cpu_s[i], setups.wall_s[i]);
  }
  std::fprintf(stderr, "\n");
  report->Add("modeled_cycles_per_op", per_op, "cycles");
  report->Add("setup_s", Median(setups.cpu_s), "s");
  report->Add("peak_rss_mb", rss_mb, "MB");
  report->Show("throughput_rps", o.wall.rps, "ops/s");
  report->Show("latency_p50_us", o.wall.p50_us, "us");
  report->Show("latency_p99_us", o.wall.p99_us, "us");
  report->Show("modeled_us_per_op", per_op / (vbase::kReferenceGhz * 1e3), "us");
  report->Show("failed_frac", o.failed_frac, "ratio");
  report->Show("cpu_us_per_op", o.cpu_us_per_op, "us");
  report->Show("setup_wall_s", Median(setups.wall_s), "s");
}

// The same observations as unbounded per-layer metrics of the traced run.
void AddObservedLayer(const LoopResult& timed, Layer* layer) {
  const Observed o = Observe(timed);
  (*layer)["e2e.throughput_rps"] = o.wall.rps;
  (*layer)["e2e.latency_p50_us"] = o.wall.p50_us;
  (*layer)["e2e.latency_p99_us"] = o.wall.p99_us;
  (*layer)["e2e.cpu_us_per_op"] = o.cpu_us_per_op;
  (*layer)["e2e.failed_frac"] = o.failed_frac;
}

// ------------------------------------------------------------- workloads

void RunHttp(const Options& opt, Report* report) {
  const int requests = opt.workload == "http_keepalive" ? kKeepAliveRequests : 1;
  std::mt19937_64 rng(opt.seed);
  const std::string body = RandomBody(rng);

  Setups setups;
  std::unique_ptr<HttpStack> stack;
  ClientLog cold;
  for (int i = 0; i < kHttpSetups; ++i) {
    stack.reset();
    cold = ClientLog{};
    if (!TimeSetup(&setups, [&] {
          stack = BuildHttpStack(body, &cold);
          return stack != nullptr && cold.failed == 0;
        })) {
      report->Expect(false, "HTTP stack set-up or cold call failed");
      return;
    }
  }
  const uint16_t port = stack->listener->port();
  const Unit socket_unit = [&](int, ClientLog* log) {
    SocketConnection(port, requests, body, log);
  };
  uint64_t socket_ok = cold.attempted - cold.failed;
  // Warm-up: both lanes get their own snapshot-affine shell before timing.
  const LoopResult warm = RunLoop(0, requests == 1 ? 200 : 4, socket_unit);
  socket_ok += warm.ok();
  report->Expect(warm.log.failed == 0, "warm-up requests failed");
  WaitSettled(*stack, socket_ok);
  const double rss_mb = PeakRssMb();

  const double phase_s = opt.trace ? opt.seconds * 0.4 : opt.seconds;
  const vnet::ServerCounters c0 = stack->server->counters(kMode);
  const vnet::ListenerStats l0 = stack->listener->stats();
  const wasp::PoolStats p0 = stack->runtime.pool().stats();
  const LoopResult timed = RunLoop(phase_s, 0, socket_unit);
  socket_ok += timed.ok();
  CheckHttpCounters(*stack, socket_ok, 0, report);
  report->CountOps(timed.log.attempted, timed.log.failed);
  const vnet::ServerCounters c1 = stack->server->counters(kMode);
  const double reqs = static_cast<double>(c1.requests - c0.requests);

  if (!opt.trace) {
    report->Expect(reqs == static_cast<double>(timed.ok()),
                   "server requests differ from the client's over the timed phase");
    AddEndToEnd(timed, static_cast<double>(c1.modeled_cycles - c0.modeled_cycles), setups, rss_mb,
                report);
    return;
  }

  Layer layer;
  AddObservedLayer(timed, &layer);
  const vnet::ListenerStats l1 = stack->listener->stats();
  const wasp::ExecutorStats e1 = stack->server->executor_stats();
  AddPoolLayer(p0, stack->runtime.pool().stats(), &layer);
  layer["vnet.listener.accepts_per_req"] =
      Ratio(static_cast<double>(l1.accepted - l0.accepted),
            static_cast<double>(l1.requests_forwarded - l0.requests_forwarded));
  layer["vnet.listener.edge_rejects"] = static_cast<double>(l1.edge_400 + l1.edge_413);
  layer["vnet.server.exits_per_req"] = Ratio(static_cast<double>(c1.io_exits - c0.io_exits), reqs);
  layer["wasp.executor.peak_queue_depth"] = static_cast<double>(e1.peak_queue_depth);
  layer["wasp.executor.rejected"] =
      static_cast<double>(e1.rejected + e1.quota_rejected + e1.breaker_rejected);

  // The same requests through SubmitConnection with no socket: the socket
  // latency minus this one is the listener's own share.
  vnet::ConnectionOptions conn = vnet::ListenerOptions::MakeKeepAliveDefaults();
  const Unit inproc_unit = [&](int, ClientLog* log) {
    wasp::ByteChannel channel;
    const uint64_t t_start = Now();
    channel.host().WriteString(RequestFor(0, requests));
    auto future = stack->server->SubmitConnection(channel, kMode, kRoute, conn);
    const auto send = [&](int k) {
      return k == 0 || channel.host().WriteString(RequestFor(k, requests));
    };
    Exchange(requests, body, t_start, send, ChannelReader(&channel), log);
    channel.host().CloseWrite();
    const bool served = future.get().ok();
    log->conn_us.push_back(static_cast<double>(Now() - t_start) / 1e3);
    log->failed += served ? 0 : 1;
  };
  const LoopResult inproc = RunLoop(opt.seconds * 0.2, 0, inproc_unit);
  CheckHttpCounters(*stack, socket_ok, inproc.ok(), report);
  report->CountOps(inproc.log.attempted, inproc.log.failed);
  layer["vnet.listener.self_us_p50"] = Median(Latencies(timed)) - Median(Latencies(inproc));
  layer["vnet.server.conn_us_p50"] = Median(inproc.log.conn_us);
  layer["vnet.server.conn_us_p99"] = Percentile(inproc.log.conn_us, 0.99);

  // Edge framing cost on the workload's own request bytes.
  {
    constexpr int kFrames = 20000;
    bool ok = true;
    const uint64_t t0 = Now();
    for (int i = 0; i < kFrames; ++i) {
      ok = FrameAtEdge(RequestFor(i % requests, requests)) && ok;
    }
    layer["vnet.http.frame_ns"] = static_cast<double>(Now() - t0) / kFrames;
    report->Expect(ok, "the workload's request does not frame at the edge");
  }

  // Staged path: the keep-alive handler image through a 2-lane executor.
  StagedHttp staged;
  staged.runtime = &stack->runtime;
  staged.files = &stack->files;
  staged.body = body;
  {
    const uint64_t t0 = Now();
    auto image = vcc::CompileProgram(vrt::VlibcSource() + vnet::KeepAliveHandlerSource(), "main",
                                     vrt::Env::kLong64);
    layer["vcc.compile_ms"] = static_cast<double>(Now() - t0) / 1e6;
    if (!image.ok()) {
      report->Expect(false, "keep-alive handler compile: " + image.status().ToString());
      return;
    }
    staged.image = std::move(*image);
  }
  wasp::ExecutorOptions eopts;
  eopts.workers = kLanes;
  eopts.max_queue_depth = 4 * kClients;
  eopts.block_when_full = false;
  staged.executor = std::make_unique<wasp::Executor>(&stack->runtime, eopts);
  ClientLog staged_cold;
  StagedHttpConnection(staged, 1, &staged_cold, nullptr, 0);
  report->Expect(staged_cold.failed == 0 && staged_cold.stage.invocations == 1,
                 "staged cold call failed");
  layer["wasp.snapshot.capture_ms"] =
      staged_cold.samples.empty() ? 0 : staged_cold.samples[0].latency_us / 1e3;

  Tracer tracer;
  std::atomic<uint64_t> op_ids{1};
  double untraced_rps = 0;
  const LoopResult traced = RunStaged(
      opt.seconds * 0.2, requests == 1 ? 50 : 2,
      [&](int, ClientLog* log, Tracer* t) {
        StagedHttpConnection(staged, requests, log, t, op_ids.fetch_add(1));
      },
      &tracer, &untraced_rps);
  report->CountOps(traced.log.attempted, traced.log.failed);
  const wasp::ExecutorStats se = staged.executor->stats();
  report->Expect(Conserved(se) && se.rejected == 0, "staged executor conservation or rejects");
  AddStageLayer(traced.log.stage, tracer, untraced_rps, PhaseRps(traced), &layer);
  WriteTrace(opt, tracer, report);
  ReportLayers(layer, report);
}

void RunFn(const Options& opt, Report* report) {
  std::mt19937_64 rng(opt.seed);
  const FnInputs in = MakeFnInputs(rng);
  Setups setups;
  std::unique_ptr<FnStack> stack;
  for (int i = 0; i < kFnSetups; ++i) {
    stack.reset();
    if (!TimeSetup(&setups, [&] {
          stack = BuildFnStack(in, report);
          return stack != nullptr;
        })) {
      return;
    }
  }
  std::vector<Visitor> visitors = MakeVisitors(opt.seed);
  const auto call = [&](int key, size_t payload, ClientLog* log) {
    const uint64_t t0 = Now();
    auto inv = stack->vespid.Invoke(FnName(key), in.payloads[payload]);
    const uint64_t t = Now();
    ++log->attempted;
    if (!inv.ok() || !OutputIs(inv->output, in.expected[payload])) {
      ++log->failed;
      return;
    }
    log->modeled_cycles += inv->modeled_cycles;
    log->samples.push_back(Sample{t, static_cast<double>(t - t0) / 1e3});
  };
  const Unit fn_unit = [&](int c, ClientLog* log) {
    Visitor& v = visitors[static_cast<size_t>(c)];
    const int key = v.NextKey();
    call(key, v.NextPayload(), log);
  };
  // Warm-up: every key's shell moves to the client that owns the key.
  const Unit warm_unit = [&](int c, ClientLog* log) {
    for (int k = c; k < kFnKeys; k += kClients) {
      call(k, 0, log);
    }
  };
  const LoopResult warm = RunLoop(0, 2, warm_unit);
  report->Expect(warm.log.failed == 0, "warm-up calls failed");
  const double rss_mb = PeakRssMb();

  const double phase_s = opt.trace ? opt.seconds * 0.4 : opt.seconds;
  const wasp::PoolStats p0 = stack->runtime.pool().stats();
  const LoopResult timed = RunLoop(phase_s, 0, fn_unit);
  report->CountOps(timed.log.attempted, timed.log.failed);
  if (!opt.trace) {
    AddEndToEnd(timed, static_cast<double>(timed.log.modeled_cycles), setups, rss_mb, report);
    return;
  }

  Layer layer;
  AddObservedLayer(timed, &layer);
  AddPoolLayer(p0, stack->runtime.pool().stats(), &layer);
  {
    constexpr int kCompiles = 20;
    std::vector<double> us;
    for (int i = 0; i < kCompiles; ++i) {
      const uint64_t t0 = Now();
      auto bytecode = vjs::CompileScript(vjs::Base64ScriptSource());
      us.push_back(static_cast<double>(Now() - t0) / 1e3);
      report->Expect(bytecode.ok(), "vjs compile failed");
    }
    layer["vjs.compile_us"] = Median(us);
  }
  StagedFn staged;
  staged.runtime = &stack->runtime;
  staged.inputs = &in;
  {
    auto bytecode = vjs::CompileScript(vjs::Base64ScriptSource());
    const uint64_t t0 = Now();
    auto image = vcc::CompileProgram(
        vrt::VlibcSource() + vjs::EngineSource(bytecode.ok() ? *bytecode : std::vector<uint8_t>{},
                                               /*teardown=*/false),
        "main", vrt::Env::kLong64);
    layer["vcc.compile_ms"] = static_cast<double>(Now() - t0) / 1e6;
    if (!bytecode.ok() || !image.ok()) {
      report->Expect(false, "engine compile failed");
      return;
    }
    staged.image = std::move(*image);
  }
  // Cold first call per key: captures each key's snapshot.
  stack->runtime.pool().Prewarm(stack->runtime.MakeVmConfig(kFnMemBytes), kFnKeys);
  std::vector<double> capture_ms;
  for (int k = 0; k < kFnKeys; ++k) {
    ClientLog cold;
    StagedFnCall(staged, k, 0, &cold, nullptr, 0);
    report->Expect(cold.failed == 0, "staged cold call failed");
    if (!cold.samples.empty()) {
      capture_ms.push_back(cold.samples[0].latency_us / 1e3);
    }
  }
  layer["wasp.snapshot.capture_ms"] = Median(capture_ms);

  Tracer tracer;
  std::atomic<uint64_t> op_ids{1};
  std::vector<Visitor> staged_visitors = MakeVisitors(opt.seed + 1);
  double untraced_rps = 0;
  const LoopResult traced = RunStaged(
      opt.seconds * 0.3, 2 * kFnKeys,
      [&](int c, ClientLog* log, Tracer* t) {
        Visitor& v = staged_visitors[static_cast<size_t>(c)];
        const int key = v.NextKey();
        StagedFnCall(staged, key, v.NextPayload(), log, t, op_ids.fetch_add(1));
      },
      &tracer, &untraced_rps);
  report->CountOps(traced.log.attempted, traced.log.failed);
  AddStageLayer(traced.log.stage, tracer, untraced_rps, PhaseRps(traced), &layer);
  WriteTrace(opt, tracer, report);
  ReportLayers(layer, report);
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload http_keepalive|http_connect|fn_b64 --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: every large block (guest memory, snapshot
  // extents) is mapped on allocation and unmapped on free.  Under glibc's
  // default sliding threshold a freed shell's memory stays resident in
  // whichever thread's arena freed it, and peak RSS would vary with thread
  // scheduling in whole-shell steps.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  const bool http = opt.workload == "http_keepalive" || opt.workload == "http_connect";
  if ((!http && opt.workload != "fn_b64") || opt.seconds <= 0) {
    Usage();
    return 2;
  }
  std::fprintf(stderr, "perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
               opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  Report report;
  if (http) {
    RunHttp(opt, &report);
  } else {
    RunFn(opt, &report);
  }
  report.PrintHuman();
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
