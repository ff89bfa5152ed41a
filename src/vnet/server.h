// The HTTP servers of Sections 4.2 and 6.3.
//
// * EchoHandlerSource(): the protected-mode echo guest (Figure 4) that
//   timestamps its startup milestones with in-guest rdtsc.
// * StaticHandlerSource(): the static-file guest handler (Figure 13) that
//   performs exactly the paper's seven host interactions per request:
//   recv, stat, open, read, send, close, exit — and validates the request
//   (complete header block, Host on HTTP/1.1) before touching any file.
//   It parses the head with the same guest code as KeepAliveHandlerSource(),
//   and both receive at most kMaxHeadBytes (http.h) of it.
// * StaticHttpServer: serves one connection per request either natively
//   (host C++ handler, the baseline) or in a fresh virtine (with or without
//   snapshotting).
// * ConcurrentHttpServer: the executor-backed front end — every connection
//   is dispatched as a job on a wasp::Executor, so N lanes serve N
//   connections concurrently and bounded admission (reject mode answers
//   overflow connections with an immediate 503) makes burst overload a
//   first-class behavior.  This is the serving path Figure 13's lane sweep
//   measures.
//
// Key-scoped governance: SubmitConnection takes the connection's route and
// maps it onto a key class (latency-sensitive vs batch) and a per-route
// admission key, so one hot route can neither monopolize the
// executor queue (per-key quota -> HTTP 429, "this tenant backs off") nor
// starve interactive routes behind its backlog (weighted class dequeue).
// Global overload still sheds with 503 ("the server is full"), keeping the
// two failure modes distinguishable at the protocol level.
#ifndef SRC_VNET_SERVER_H_
#define SRC_VNET_SERVER_H_

#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <string>

#include "src/base/status.h"
#include "src/isa/image.h"
#include "src/wasp/admission.h"
#include "src/wasp/channel.h"
#include "src/wasp/executor.h"
#include "src/wasp/host_env.h"
#include "src/wasp/runtime.h"

namespace vnet {

// Guest source (vcc dialect; concatenate after vlibc).
std::string EchoHandlerSource();
std::string StaticHandlerSource();
// Keep-alive variant: one invocation serves every request of a connection
// (receive -> frame -> serve loop until EOF or "Connection: close"),
// draining request bodies through the channel in bounded chunks and
// reporting [requests, 2xx, 4xx, clean] on exit.  A GET of a file within
// its 4 KB body window costs two exits — readfile, and the send_recv that
// sends the response and receives the next request.  A connection that
// ends with a response pending (Connection: close, 400, 413) sends it in
// its exit, send_exit, so N requests cost 2N+1 with the first receive; one
// that ends at EOF costs 2N+2 (the send_recv that sees EOF, then
// return_exit).  The first receive is snapshot_recv (unless the CRT
// snapshotted, boot flag bit 0): a warm restore completes it before its
// first vmrun, so a warm connection costs one exit less, 2N or 2N+1.
std::string KeepAliveHandlerSource();

enum class ServeMode {
  kNative,           // host C++ handler, no isolation
  kVirtine,          // fresh virtine per connection
  kVirtineSnapshot,  // virtine per connection, snapshot fast path
};

const char* ServeModeName(ServeMode mode);

// Per-connection serving policy.  The request size limits are not options:
// every framer applies kMaxHeadBytes and kMaxBodyBytes (http.h).
struct ConnectionOptions {
  // Serve requests in a loop until EOF, "Connection: close", or
  // max_requests, with the keep-alive guest in the virtine modes.  Off,
  // exactly one request is served, by Figure 13's seven-interaction guest.
  bool keep_alive = false;
  // Keep-alive request cap per connection; 0 = unlimited.  Host-enforced:
  // the native loop stops serving at the cap, and the listener stops
  // forwarding after the cap-th request and closes the channel, so a
  // virtine guest exits at that clean boundary.  (A direct HandleConnection
  // caller in a virtine mode enforces it by what it writes.)
  int max_requests = 64;
};

struct ServeStats {
  int status = 0;               // HTTP status of the last request served
  // Per-connection request accounting (keep-alive serves many requests per
  // connection; the single-shot path reports requests == 1).
  uint64_t requests = 0;
  uint64_t r2xx = 0;
  uint64_t r4xx = 0;
  uint64_t r5xx = 0;
  // Non-kNone when the guest faulted mid-request: the connection was
  // answered 500 with the fault kind as the reason phrase, the shell was
  // quarantined, and the front end counts the request as faulted rather
  // than errored (the server itself is healthy — one invocation died).
  wasp::FaultKind fault = wasp::FaultKind::kNone;
  uint64_t modeled_cycles = 0;  // end-to-end modeled cost of handling
  uint64_t guest_cycles = 0;
  uint64_t io_exits = 0;
  uint64_t wall_ns = 0;
  // Modeled cost of the same handler logic with no virtualization at all
  // (guest cycles minus VM-exit charges): the native-equivalent cost used
  // as the Figure 13 baseline denominator.
  uint64_t deisolated_cycles = 0;
};

// A single-threaded static-content HTTP server over loopback channels.
class StaticHttpServer {
 public:
  // `env` holds the served files; must outlive the server.
  StaticHttpServer(wasp::Runtime* runtime, wasp::HostEnv* env);

  // Serves one connection whose bytes arrive on `channel.host()`.  With the
  // default options exactly one request is handled (the request must already
  // be written, or at least started, on the channel); with keep_alive the
  // connection is served as a request loop until the peer closes its write
  // end, sends "Connection: close", or max_requests is reached — in the
  // virtine modes one acquired (affine) shell spans the whole loop.
  // Thread-safe: concurrent connections share only the runtime (sharded
  // pool + read-mostly snapshot store) and the mutex-guarded HostEnv.
  vbase::Result<ServeStats> HandleConnection(wasp::ByteChannel& channel, ServeMode mode,
                                             const ConnectionOptions& conn = {});

  const visa::Image& handler_image() const { return handler_image_; }

 private:
  vbase::Result<ServeStats> HandleNative(wasp::ByteChannel& channel,
                                         const ConnectionOptions& conn);
  vbase::Result<ServeStats> HandleVirtine(wasp::ByteChannel& channel, bool snapshot,
                                          const ConnectionOptions& conn);

  wasp::Runtime* runtime_;
  wasp::HostEnv* env_;
  visa::Image handler_image_;
  visa::Image keepalive_image_;
};

// The serving stack's settings: the executor's admission settings
// (wasp::AdmissionOptions) plus the lanes, the full-queue policy and the
// route table.  Admission maps onto HTTP: a quota or open-breaker shed is a
// 429 (the breaker's carries Retry-After), a global-bound shed a 503.
// Submissions are keyed per route, and key_quota_overrides names routes.
// Quotas and the breaker default to off, so connections on one route
// dispatch in submission order.
struct ConcurrentServerOptions : wasp::AdmissionOptions {
  int lanes = 4;  // executor workers serving connections
  // Full-queue policy: block the submitter until a lane frees (closed-loop
  // clients) or answer the connection with an immediate 503 (load shedding).
  bool block_when_full = true;
  // Route -> scheduling class; unlisted routes are latency-sensitive.
  std::map<std::string, wasp::KeyClass> route_classes;
};

// Monotone per-mode aggregates over everything a server instance served.
struct ServerCounters {
  uint64_t accepted = 0;       // connections admitted to the executor queue
  uint64_t rejected = 0;       // connections shed with a 503 at admission
  uint64_t quota_rejected = 0; // connections shed with a 429 (route quota)
  uint64_t breaker_rejected = 0;  // connections shed with a 429 (open breaker)
  uint64_t completed = 0;      // handler ran to completion (any status)
  uint64_t errors = 0;         // handler returned a non-OK status
  uint64_t faulted = 0;        // guest faulted; answered 500-with-reason
  uint64_t requests = 0;       // requests served across all connections
  // Requests beyond the first on their connection: each one reused the
  // connection's acquired shell instead of paying a fresh dispatch+restore.
  uint64_t keepalive_reused = 0;
  uint64_t status_2xx = 0;
  uint64_t status_4xx = 0;
  uint64_t status_5xx = 0;
  uint64_t modeled_cycles = 0;  // summed modeled service cost
  uint64_t io_exits = 0;        // summed hypercall exits (virtine modes)
};

// The concurrent serving stack: StaticHttpServer's per-connection logic
// dispatched through a dedicated wasp::Executor.
class ConcurrentHttpServer {
 public:
  // `env` holds the served files; must outlive the server.  The destructor
  // drains every accepted connection before returning.
  ConcurrentHttpServer(wasp::Runtime* runtime, wasp::HostEnv* env,
                       ConcurrentServerOptions options = {});

  // Dispatches one connection (request already written to, or arriving on,
  // `channel.host()`) through the executor, served in `mode` under `conn`;
  // the future resolves with the connection's ServeStats once a lane has
  // served it.  The caller keeps `channel` alive until the future resolves.
  // `route` names the request's target as the front end knows it (e.g. from
  // the listener's vhost/path map).  It selects the connection's key class
  // (options().route_classes) and its admission key, so per-route quotas,
  // breakers and class weighting apply.  When admission rejects the
  // connection, the answer is written to the channel immediately and the
  // returned future is already resolved with its status: 429 for a route
  // over its quota or with an open breaker (with Retry-After), 503 for
  // global overload.
  std::future<vbase::Result<ServeStats>> SubmitConnection(wasp::ByteChannel& channel,
                                                          ServeMode mode,
                                                          const std::string& route,
                                                          const ConnectionOptions& conn);

  ServerCounters counters(ServeMode mode) const;
  wasp::ExecutorStats executor_stats() const { return executor_.stats(); }
  const ConcurrentServerOptions& options() const { return options_; }
  int lanes() const { return static_cast<int>(executor_.workers()); }

 private:
  ConcurrentServerOptions options_;
  StaticHttpServer inner_;
  // Indexed by ServeMode.  They change once per connection, so one lock
  // keeps them off the per-request path.
  mutable std::mutex counters_mu_;
  ServerCounters counters_[3];
  // Declared last: its destructor drains queued connection jobs, which still
  // touch inner_ and counters_, so it must be destroyed first.
  wasp::Executor executor_;
};

}  // namespace vnet

#endif  // SRC_VNET_SERVER_H_
