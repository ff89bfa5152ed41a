// Load generation: a Locust-like workload driver (the paper generates its
// Figure 13/15 load with Locust and a custom request generator).
//
// Closed-loop mode over real sockets: RunSocketClosedLoop's client threads
// issue requests back to back against a vnet::Listener (Figure 13's
// localhost generator) and aggregate per-request wall latencies.  Figure
// 13's in-process lane sweep needs no generator here: its closed-loop
// clients are Executor::RunVirtual's, in virtual time.
//
// Open-loop mode: GenerateArrivalTrace gives a deterministic arrival trace
// (uniform spacing with ±12.5% jitter inside each phase — the paper's bursty
// Locust profile).  Vespid::ReplayBurstyLoad submits one invocation per
// arrival at its trace time through the executor in virtual time, without
// waiting for a completion, so bursts land at full width and admission
// control / queueing is what absorbs them.  The same generator feeds the
// Figure 15 simulator, so modeled and run platforms see an identical
// request stream.
#ifndef SRC_VNET_LOADGEN_H_
#define SRC_VNET_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/stats.h"

namespace vnet {

// One phase of an open-loop arrival pattern (e.g. ramp, burst, ramp).
struct LoadPhase {
  double rps;         // arrival rate during the phase
  double duration_s;  // phase length
};

struct LoadResult {
  std::vector<double> latencies_us;
  uint64_t failures = 0;
  double wall_seconds = 0;
  vbase::Summary latency;
};

// Real-socket closed loop against a vnet::Listener on 127.0.0.1.
struct SocketLoadOptions {
  uint16_t port = 0;
  int clients = 4;               // concurrent client threads
  int requests_per_client = 64;  // per-thread request budget (fixed-count mode)
  // The connection-reuse axis: requests issued per TCP connection before
  // reconnecting.  1 = connection-per-request; the last request of each
  // connection carries "Connection: close".
  int requests_per_connection = 1;
  std::string target = "/static.html";
  // > 0: wall-clock-paced soak — every client loops until the deadline
  // instead of counting to requests_per_client.
  double duration_s = 0;
};

// Each client thread connects, issues requests_per_connection keep-alive
// requests per connection (framing responses with FrameResponseHead), and
// reconnects until its budget (or the soak deadline) is spent.  Latencies
// are wall microseconds per request; a transport or framing error counts as
// a failure and forces a reconnect.  wall_seconds spans the whole loop, so
// latencies_us.size() / wall_seconds is the measured socket RPS.
LoadResult RunSocketClosedLoop(const SocketLoadOptions& options);

// Deterministic arrival offsets (microseconds, ascending) for the open-loop
// phases: uniform spacing within each phase with ±12.5% jitter (a
// quarter-gap uniform window) so bursts are not perfectly synchronized.
// Shared by the Figure 15 simulator and the
// executor-driven replay so both see the same trace for a given seed.
std::vector<double> GenerateArrivalTrace(const std::vector<LoadPhase>& phases,
                                         uint64_t seed = 42);

}  // namespace vnet

#endif  // SRC_VNET_LOADGEN_H_
