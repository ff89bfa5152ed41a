// Vespid — the prototype serverless platform of Section 7.1 (Figure 15) —
// plus the simulated container platform it is compared against.
//
// Vespid registers JavaScript (microjs) functions and runs each invocation
// in a distinct virtine through the Wasp runtime (pool + snapshot).  The
// comparison platform models a container-per-invocation OpenWhisk-style
// deployment.  Because this reproduction has no Docker/OpenWhisk, the
// container platform is an explicit analytic model (DESIGN.md §2):
// cold-start and warm-start service costs are constants calibrated to
// published container cold-start measurements.
//
// The *virtine* platform is run, not modeled: ReplayBurstyLoad drives the
// paper's bursty open-loop pattern (ramp up, two bursts, ramp down — the
// Locust profile) through the real wasp::Executor in virtual time
// (Executor::RunVirtual), one virtine invocation per trace arrival, each
// holding its lane for its own modeled cycles.  Both platforms emit the
// same SimResult currency over the same arrival trace
// (vnet::GenerateArrivalTrace with the same seed), so Figure 15 compares the
// virtine platform against the calibrated container baseline bucket for
// bucket, and the virtine timeline repeats exactly.
#ifndef SRC_VNET_SERVERLESS_H_
#define SRC_VNET_SERVERLESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/isa/image.h"
#include "src/vnet/loadgen.h"
#include "src/wasp/admission.h"
#include "src/wasp/executor.h"
#include "src/wasp/runtime.h"

namespace vnet {

// --- Bursty-load timeline (Figure 15) ---------------------------------------

struct SimPoint {
  double t_s;            // timeline bucket
  double offered_rps;    // arrivals in the bucket
  double completed_rps;  // completions in the bucket
  double mean_latency_us;
  double p99_latency_us;
  uint64_t cold_starts;
};

struct SimResult {
  std::vector<SimPoint> timeline;  // 1-second buckets
  vbase::Summary latency_us;
  uint64_t total_requests = 0;
  uint64_t total_cold_starts = 0;
};

// An executor model: how long one invocation occupies a worker, and what a
// cold start costs.
struct ExecutorModel {
  std::string name;
  double warm_service_us;   // service time with a warm instance
  double cold_extra_us;     // additional first-use cost of a new instance
  int max_instances;        // concurrency cap
  double idle_timeout_s;    // instance reclaim after idleness
};

// Runs the open-loop pattern against an executor model in virtual time
// (the container baseline; the virtine side uses Vespid::ReplayBurstyLoad).
SimResult SimulateBurstyLoad(const std::vector<LoadPhase>& phases, const ExecutorModel& model,
                             uint64_t seed = 42);

// --- Multi-tenant governance (key-scoped quotas over mixed traces) ----------

// One tenant of a multi-function trace: a registered function, its own
// arrival pattern, a scheduling class, and the payload its invocations get.
struct TenantSpec {
  std::string name;
  std::vector<LoadPhase> phases;
  wasp::KeyClass klass = wasp::KeyClass::kLatency;
  std::vector<uint8_t> payload;
};

// A merged multi-tenant arrival trace whose rows carry their jobs: a Vespid
// invocation per row (Vespid::BuildTrace), or a synthetic task (tests).
// Tenant names are the admission policy's keys: a task row is submitted
// under its tenant's name, and an invocation row's snapshot key must be its
// tenant's name.  Rows hold non-owning pointers (image, payload): their
// owners must outlive every GovernTrace over the trace.
struct TenantTrace {
  struct Row {
    double arrival_us = 0;
    int tenant = 0;             // index into names
    wasp::VirtineSpec spec;     // the invocation, unless `task` is set
    wasp::Executor::Task task;  // a synthetic job: its outcome's modeled
                                // cycles are its service
  };
  std::vector<std::string> names;       // per tenant
  std::vector<wasp::KeyClass> classes;  // per tenant
  std::vector<Row> rows;                // ascending arrival_us
};

// Per-tenant outcome of a governed replay.
struct TenantOutcome {
  std::string name;
  uint64_t offered = 0;        // arrivals in the trace
  uint64_t completed = 0;      // admitted and served fault-free
  uint64_t faulted = 0;        // admitted, held a lane, ended with a non-OK status
  double fault_rate = 0;       // faulted / offered
  uint64_t shed_quota = 0;     // rejected by the per-key quota
  uint64_t shed_overload = 0;  // rejected by the global queue bound
  uint64_t shed_breaker = 0;   // rejected by the tenant's open circuit breaker
  uint64_t breaker_opens = 0;  // times the tenant's breaker tripped open
  wasp::KeyRecoverySnapshot recovery;  // the tenant's policy ledger after the last settle
  double shed_rate = 0;        // (shed_quota + shed_overload + shed_breaker) / offered
  double mean_queue_wait_us = 0;
  double p99_queue_wait_us = 0;  // the governance claim's currency
  double mean_latency_us = 0;    // queue wait + service
  uint64_t cold_starts = 0;
};

struct GovernedReplay {
  std::vector<TenantOutcome> tenants;  // in TenantTrace tenant order
  SimResult sim;                       // merged timeline over served requests
  // Jain's fairness index over per-tenant admitted fractions: 1.0 = every
  // tenant got the same share of its offered load through admission.
  double fairness_index = 0;
  double aggregate_rps = 0;  // completed requests / virtual makespan
  double makespan_s = 0;     // first arrival to last completion
};

// Governs `trace` on `runtime` with the real executor in virtual time
// (wasp::Executor::RunVirtual over options.workers lanes): each row is
// submitted at its arrival under the admission settings in `options`
// (breaker, quota, global bound, class weight, retry-once), dequeued by the
// executor's class pick and affinity scan, and holds its lane for its own
// outcome's modeled cycles.  Pass a fresh runtime per discipline so each
// starts from the same cold state; a given trace and runtime configuration
// govern identically every time.  A shed row never runs.  An empty or
// duplicate tenant name, an out-of-range tenant index, or an invocation row
// keyed other than its tenant fails a VB_CHECK.
GovernedReplay GovernTrace(wasp::Runtime* runtime, const TenantTrace& trace,
                           const wasp::ExecutorOptions& options);

// --- Vespid: virtine-backed function platform -------------------------------

struct ReplayOptions {
  int concurrency = 8;  // executor lanes = the platform's serving width
  uint64_t seed = 42;   // must match the simulator's to share the trace
};

class Vespid {
 public:
  explicit Vespid(wasp::Runtime* runtime);

  // Registers a microjs function under `name`.  InvalidArgument when the
  // compiled engine image ends past vrt::kVlibcHeapBase, where the engine's
  // arena begins.
  vbase::Status Register(const std::string& name, const std::string& microjs_source);

  struct Invocation {
    std::vector<uint8_t> output;
    uint64_t modeled_cycles = 0;
    uint64_t wall_ns = 0;
    bool cold = false;    // no snapshot existed yet
    bool affine = false;  // warm start served by a snapshot-affine delta restore
    uint64_t restored_bytes = 0;  // restore copy volume (full image vs delta)
  };

  // Invokes `name` with `payload` in a fresh virtine.
  vbase::Result<Invocation> Invoke(const std::string& name,
                                   const std::vector<uint8_t>& payload);

  // Replays the bursty arrival trace of `name` on this platform's runtime:
  // GovernTrace over the one-tenant trace, `concurrency` lanes wide and
  // otherwise ungoverned.  Each arrival is one real invocation (keyed
  // snapshot affinity engaged, cold iff it found no snapshot and booted
  // from the image) that waits for a lane and holds it for its modeled
  // cycles; `sim` is the same timeline currency as SimulateBurstyLoad.
  vbase::Result<GovernedReplay> ReplayBurstyLoad(const std::string& name,
                                                 const std::vector<LoadPhase>& phases,
                                                 const std::vector<uint8_t>& payload,
                                                 const ReplayOptions& options = {});

  // Merges every tenant's arrival trace (per-tenant seed derived from
  // `seed`; ties break on tenant index) into one trace whose rows invoke the
  // tenant's function on its payload.  Each tenant is named by its
  // invocations' snapshot key, "vespid-<name>", the key GovernTrace admits
  // it under.  Rows point at `tenants`' payloads and this platform's
  // images: keep both alive, and register nothing more, while the trace is
  // governed.  Tenant names must be distinct (InvalidArgument otherwise).
  vbase::Result<TenantTrace> BuildTrace(const std::vector<TenantSpec>& tenants,
                                        uint64_t seed = 42) const;

 private:
  struct Fn {
    std::string name;
    visa::Image image;
  };
  const Fn* FindFunction(const std::string& name) const;

  wasp::Runtime* runtime_;
  std::vector<Fn> functions_;
};

}  // namespace vnet

#endif  // SRC_VNET_SERVERLESS_H_
