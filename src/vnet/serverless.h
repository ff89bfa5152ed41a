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
// The *virtine* platform is measured, not modeled: ReplayBurstyLoad drives
// the paper's bursty open-loop pattern (ramp up, two bursts, ramp down —
// the Locust profile) through the real wasp::Executor, one virtine
// invocation per trace arrival, and lays the measured per-request service
// costs onto the trace's virtual timeline.  Both platforms emit the same
// SimResult currency over the same arrival trace (vnet::GenerateArrivalTrace
// with the same seed), so Figure 15 compares a measured virtine platform
// against the calibrated container baseline bucket for bucket.
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

// A merged multi-tenant arrival trace with the *measured* modeled service
// cost of one real executor invocation per arrival (mixed snapshot keys
// contending for pool shells and affine generations).  Produced once by
// Vespid::MeasureMultiTenant; governance disciplines are then evaluated
// deterministically over it by GovernTrace, so governed and ungoverned
// runs compare on identical measured services.
struct MeasuredTrace {
  std::vector<std::string> names;          // per tenant
  std::vector<wasp::KeyClass> classes;     // per tenant
  std::vector<double> arrivals_us;         // merged, ascending
  std::vector<int> tenant;                 // arrival -> tenant index
  std::vector<double> service_us;          // measured modeled service cost
  std::vector<bool> cold;                  // arrival booted instead of restored
  // Arrival's invocation died with a FaultKind (chaos injection or a real
  // guest fault).  A faulted arrival consumed real service — it occupied a
  // lane and its quota slot until it died — so GovernTrace replays it as
  // load, but counts it per tenant instead of as a completion.  May be
  // empty (hand-built traces): treated as all-false.
  std::vector<bool> faulted;
  uint64_t wall_ns = 0;                    // real elapsed time of the measuring run
};

// The discipline GovernTrace applies: the executor's admission settings
// (quota, overrides, global bound, class weight, breaker) over `lanes`
// virtual serving lanes.  Quota overrides are keyed by tenant name.
// Retry is not replayed — it changes the measured services, so it belongs
// to the measuring run; the replay isolates what shedding alone does to
// the co-tenants.
struct GovernanceOptions : wasp::AdmissionOptions {
  int lanes = 2;  // virtual serving lanes
};

// Per-tenant outcome of a governed replay.
struct TenantOutcome {
  std::string name;
  uint64_t offered = 0;        // arrivals in the trace
  uint64_t completed = 0;      // admitted and served fault-free
  uint64_t faulted = 0;        // admitted, occupied a lane, died with a fault
  double fault_rate = 0;       // faulted / offered
  uint64_t shed_quota = 0;     // rejected by the per-key quota
  uint64_t shed_overload = 0;  // rejected by the global queue bound
  uint64_t shed_breaker = 0;   // rejected by the tenant's open circuit breaker
  uint64_t breaker_opens = 0;  // times the tenant's breaker tripped open
  wasp::KeyRecoverySnapshot recovery;  // the tenant's policy ledger after the last arrival
  double shed_rate = 0;        // (shed_quota + shed_overload + shed_breaker) / offered
  double mean_queue_wait_us = 0;
  double p99_queue_wait_us = 0;  // the governance claim's currency
  double mean_latency_us = 0;    // queue wait + service
  uint64_t cold_starts = 0;
};

struct GovernedReplay {
  std::vector<TenantOutcome> tenants;  // in MeasuredTrace tenant order
  SimResult sim;                       // merged timeline over served requests
  // Jain's fairness index over per-tenant admitted fractions: 1.0 = every
  // tenant got the same share of its offered load through admission.
  double fairness_index = 0;
  double aggregate_rps = 0;  // completed requests / virtual makespan
  double makespan_s = 0;     // first arrival to last completion
};

// Applies `options` to the measured trace in virtual time: at each arrival
// the wasp::AdmissionPolicy the executor uses admits or sheds it (breaker,
// quota, global bound), the same policy picks the class each lane serves
// next, and each admitted request holds its lane for its measured service.
// What the replay does not model: the executor's affinity scan (requests of
// one class dispatch in arrival order) and retry-once.  Deterministic for a
// given trace.  Tenant names are the policy's keys, so a trace with empty or
// duplicate names, an out-of-range tenant index, or per-arrival vectors of
// unequal length fails a VB_CHECK.
GovernedReplay GovernTrace(const MeasuredTrace& trace, const GovernanceOptions& options);

// --- Vespid: virtine-backed function platform -------------------------------

struct ReplayOptions {
  int concurrency = 8;  // executor lanes = the platform's serving width
  uint64_t seed = 42;   // must match the simulator's to share the trace
  // Pace submissions on the real clock (sleep until each arrival's trace
  // offset) instead of dispatching the whole trace up front.  Soak-style
  // runs only: wall pacing makes the measured contention timing-dependent,
  // so it stays off for the deterministic benches.
  bool pace_wall_clock = false;
};

class Vespid {
 public:
  explicit Vespid(wasp::Runtime* runtime);

  // Registers a microjs function under `name`.
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

  struct ReplayResult {
    // Same timeline currency as SimulateBurstyLoad: per-request latency is
    // virtual queue wait plus the *measured* modeled service cost of that
    // request's real invocation, with cold starts flagged from the real
    // snapshot path (a request is cold iff its invocation found no snapshot
    // and booted from the image).
    SimResult sim;
    double measured_warm_us = 0;   // mean measured service of warm invocations
    double measured_cold_us = 0;   // mean measured service of cold invocations
    uint64_t cold_invocations = 0;
    // Invocations that died with a FaultKind (chaos injection): they still
    // occupy their virtual lane for their measured service (the shell was
    // quarantined after real work), but are excluded from the warm/cold
    // service means so fault-shortened runs cannot skew them.
    uint64_t faulted_invocations = 0;
    uint64_t wall_ns = 0;          // real elapsed time of the replay
  };

  // Replays the bursty arrival trace with one *real* executor-driven
  // invocation per arrival: submits every request to a wasp::Executor with
  // `concurrency` workers (keyed snapshot affinity engaged), measures each
  // invocation's modeled service cost and cold/warm outcome, then assembles
  // the Figure 15 timeline by queueing those measured services over
  // `concurrency` serving lanes at the trace's virtual arrival times.
  vbase::Result<ReplayResult> ReplayBurstyLoad(const std::string& name,
                                               const std::vector<LoadPhase>& phases,
                                               const std::vector<uint8_t>& payload,
                                               const ReplayOptions& options = {});

  // Merges every tenant's arrival trace (per-tenant seed derived from
  // `seed`) and drives one real executor invocation per arrival in merged
  // order — mixed snapshot keys contending for shells and affine
  // generations — recording each arrival's measured modeled service cost
  // and cold/warm outcome.  The result feeds GovernTrace, which evaluates
  // admission disciplines over it deterministically.  Tenant names must be
  // distinct (InvalidArgument otherwise).
  vbase::Result<MeasuredTrace> MeasureMultiTenant(const std::vector<TenantSpec>& tenants,
                                                  int concurrency, uint64_t seed = 42);

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
