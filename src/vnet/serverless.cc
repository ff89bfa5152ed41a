#include "src/vnet/serverless.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/vcc/vcc.h"
#include "src/vjs/vjs.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/executor.h"

namespace vnet {

Vespid::Vespid(wasp::Runtime* runtime) : runtime_(runtime) {}

vbase::Status Vespid::Register(const std::string& name, const std::string& microjs_source) {
  auto bytecode = vjs::CompileScript(microjs_source);
  if (!bytecode.ok()) {
    return bytecode.status();
  }
  auto image = vcc::CompileProgram(
      vrt::VlibcSource() + vjs::EngineSource(*bytecode, /*teardown=*/false), "main",
      vrt::Env::kLong64);
  if (!image.ok()) {
    return image.status();
  }
  // engine_init carves the engine's arena from vlibc's heap, which would
  // overwrite an image's tail past the heap base.
  if (const uint64_t end = image->load_addr + image->size(); end > vrt::kVlibcHeapBase) {
    std::ostringstream os;
    os << "engine image ends at 0x" << std::hex << end << ", past vlibc's heap base 0x"
       << vrt::kVlibcHeapBase;
    return vbase::InvalidArgument(os.str());
  }
  functions_.push_back(Fn{name, std::move(*image)});
  return vbase::Status::Ok();
}

const Vespid::Fn* Vespid::FindFunction(const std::string& name) const {
  for (const Fn& f : functions_) {
    if (f.name == name) {
      return &f;
    }
  }
  return nullptr;
}

namespace {

// A function's snapshot key, which is also its admission key.
std::string VespidKey(const std::string& name) { return "vespid-" + name; }

wasp::VirtineSpec MakeVespidSpec(const std::string& name, const visa::Image* image,
                                 const std::vector<uint8_t>* payload) {
  wasp::VirtineSpec spec;
  spec.image = image;
  spec.key = VespidKey(name);
  spec.mem_size = 2ULL << 20;
  spec.policy = wasp::kPolicyManaged;
  spec.use_snapshot = true;
  spec.crt_snapshot = false;  // the engine snapshots itself after init
  spec.input = payload;
  return spec;
}

Vespid::Invocation MakeInvocation(wasp::RunOutcome&& outcome) {
  Vespid::Invocation inv;
  inv.output = std::move(outcome.output);
  inv.modeled_cycles = outcome.stats.total_cycles;
  inv.wall_ns = outcome.stats.total_ns;
  inv.cold = !outcome.stats.restored_snapshot;
  inv.affine = outcome.stats.affine_restore;
  inv.restored_bytes = outcome.stats.restored_bytes;
  return inv;
}

// One served request on the virtual timeline, however its completion time
// was produced (analytic model or the executor in virtual time).
struct ServedEvent {
  double arrival_us;
  double done_us;
  bool cold;
};

// Folds served events (in arrival order) into the Figure 15 timeline: 1 s
// buckets with offered/completed rates, per-arrival-bucket latency stats,
// and cold-start counts.  Shared by the simulator and the replay so the two
// halves of the figure can never drift in bucketing rules.
SimResult AssembleSimResult(const std::vector<ServedEvent>& events) {
  SimResult result;
  std::vector<double> latencies;
  latencies.reserve(events.size());
  std::map<int64_t, SimPoint> buckets;
  std::map<int64_t, std::vector<double>> bucket_lats;
  for (const ServedEvent& ev : events) {
    const double latency = ev.done_us - ev.arrival_us;
    latencies.push_back(latency);
    const int64_t bucket = static_cast<int64_t>(ev.arrival_us / 1e6);
    SimPoint& point = buckets[bucket];
    point.t_s = static_cast<double>(bucket);
    point.offered_rps += 1;
    point.mean_latency_us += latency;  // sum; normalized below
    if (ev.cold) {
      ++point.cold_starts;
      ++result.total_cold_starts;
    }
    const int64_t done_bucket = static_cast<int64_t>(ev.done_us / 1e6);
    buckets[done_bucket].t_s = static_cast<double>(done_bucket);
    buckets[done_bucket].completed_rps += 1;
    ++result.total_requests;
    bucket_lats[bucket].push_back(latency);
  }
  for (auto& [bucket, point] : buckets) {
    if (point.offered_rps > 0) {
      point.mean_latency_us /= point.offered_rps;
    }
    auto it = bucket_lats.find(bucket);
    if (it != bucket_lats.end()) {
      point.p99_latency_us = vbase::Quantile(it->second, 0.99);
    }
    result.timeline.push_back(point);
  }
  result.latency_us = vbase::Summarize(latencies);
  return result;
}

}  // namespace

vbase::Result<Vespid::Invocation> Vespid::Invoke(const std::string& name,
                                                 const std::vector<uint8_t>& payload) {
  const Fn* fn = FindFunction(name);
  if (fn == nullptr) {
    return vbase::NotFound("no such function: " + name);
  }
  vbase::WallTimer timer;
  wasp::VirtineSpec spec = MakeVespidSpec(fn->name, &fn->image, &payload);
  wasp::RunOutcome outcome = runtime_->Invoke(spec);
  if (!outcome.status.ok()) {
    return outcome.status;
  }
  Invocation inv = MakeInvocation(std::move(outcome));
  inv.wall_ns = timer.ElapsedNanos();
  return inv;
}

vbase::Result<GovernedReplay> Vespid::ReplayBurstyLoad(const std::string& name,
                                                       const std::vector<LoadPhase>& phases,
                                                       const std::vector<uint8_t>& payload,
                                                       const ReplayOptions& options) {
  const std::vector<TenantSpec> tenant = {{name, phases, wasp::KeyClass::kLatency, payload}};
  auto trace = BuildTrace(tenant, options.seed);
  if (!trace.ok()) {
    return trace.status();
  }
  wasp::ExecutorOptions executor_options;
  executor_options.workers = std::max(options.concurrency, 1);
  return GovernTrace(runtime_, *trace, executor_options);
}

vbase::Result<TenantTrace> Vespid::BuildTrace(const std::vector<TenantSpec>& tenants,
                                              uint64_t seed) const {
  TenantTrace trace;
  std::vector<const Fn*> fns;
  for (const TenantSpec& tenant : tenants) {
    const Fn* fn = FindFunction(tenant.name);
    if (fn == nullptr) {
      return vbase::NotFound("no such function: " + tenant.name);
    }
    // Tenant names become GovernTrace's admission keys, so they must differ.
    if (std::count(trace.names.begin(), trace.names.end(), VespidKey(fn->name)) != 0) {
      return vbase::InvalidArgument("BuildTrace: duplicate tenant " + tenant.name);
    }
    fns.push_back(fn);
    trace.names.push_back(VespidKey(fn->name));
    trace.classes.push_back(tenant.klass);
  }

  // Merge the tenants' arrival traces (per-tenant seed: each tenant's
  // jitter is independent, and the merged order is deterministic — ties
  // break on tenant index via the pair comparison).
  std::vector<std::pair<double, int>> merged;
  for (size_t i = 0; i < tenants.size(); ++i) {
    for (double at : GenerateArrivalTrace(tenants[i].phases, seed + i)) {
      merged.emplace_back(at, static_cast<int>(i));
    }
  }
  std::sort(merged.begin(), merged.end());
  trace.rows.reserve(merged.size());
  for (const auto& [at, idx] : merged) {
    const size_t t = static_cast<size_t>(idx);
    trace.rows.push_back(
        {at, idx, MakeVespidSpec(fns[t]->name, &fns[t]->image, &tenants[t].payload), {}});
  }
  return trace;
}

GovernedReplay GovernTrace(wasp::Runtime* runtime, const TenantTrace& trace,
                           const wasp::ExecutorOptions& options) {
  // Names are the policy's keys: same-named tenants would share a quota and
  // a breaker, and an invocation keyed elsewhere would escape its tenant's.
  VB_CHECK(trace.classes.size() == trace.names.size(),
           "TenantTrace: classes and names differ in length");
  const std::set<std::string> distinct(trace.names.begin(), trace.names.end());
  VB_CHECK(distinct.size() == trace.names.size() && distinct.count("") == 0,
           "TenantTrace: tenant names must be non-empty and distinct");
  std::vector<wasp::Executor::Arrival> arrivals;
  arrivals.reserve(trace.rows.size());
  for (const TenantTrace::Row& row : trace.rows) {
    VB_CHECK(row.tenant >= 0 && static_cast<size_t>(row.tenant) < trace.names.size(),
             "TenantTrace: tenant index " << row.tenant << " out of range");
    const size_t t = static_cast<size_t>(row.tenant);
    wasp::Executor::Arrival arrival;
    arrival.at_us = row.arrival_us;
    arrival.klass = trace.classes[t];
    if (row.task) {
      arrival.task = row.task;
      arrival.key = trace.names[t];
    } else {
      VB_CHECK(row.spec.use_snapshot && row.spec.key == trace.names[t],
               "TenantTrace: an invocation row must be keyed by its tenant's name, "
                   << trace.names[t]);
      arrival.spec = row.spec;
    }
    arrivals.push_back(std::move(arrival));
  }
  const wasp::Executor::VirtualRun run =
      wasp::Executor::RunVirtual(runtime, options, std::move(arrivals));

  // Per-tenant aggregation + the merged Figure-15-currency timeline.  A
  // faulted row held its lane for its modeled service (the load is real),
  // but it is a casualty, not a completion: it counts per tenant as
  // faulted and stays out of the wait/latency distributions — so a fault
  // storm on one key shows up as that tenant's fault_rate while the
  // co-tenants' percentiles measure only what they actually experienced.
  GovernedReplay replay;
  replay.tenants.resize(trace.names.size());
  std::vector<std::vector<double>> waits(trace.names.size());
  std::vector<ServedEvent> events;
  events.reserve(trace.rows.size());
  double last_done = 0;
  uint64_t total_completed = 0;
  for (size_t i = 0; i < trace.rows.size(); ++i) {
    const TenantTrace::Row& row = trace.rows[i];
    const wasp::Executor::Served& served = run.served[i];
    TenantOutcome& tenant = replay.tenants[static_cast<size_t>(row.tenant)];
    ++tenant.offered;
    switch (served.admission) {
      case wasp::Admission::kAccepted:
        break;
      case wasp::Admission::kCircuitOpen:
        ++tenant.shed_breaker;
        continue;
      case wasp::Admission::kQuotaExceeded:
        ++tenant.shed_quota;
        continue;
      default:
        ++tenant.shed_overload;
        continue;
    }
    last_done = std::max(last_done, served.done_us);  // the lane was occupied
    if (served.outcome.fault != wasp::FaultKind::kNone || !served.outcome.status.ok()) {
      ++tenant.faulted;
      continue;
    }
    ++tenant.completed;
    ++total_completed;
    const bool cold = !served.outcome.stats.restored_snapshot;
    if (cold) {
      ++tenant.cold_starts;
    }
    const double wait = served.start_us - row.arrival_us;
    waits[static_cast<size_t>(row.tenant)].push_back(wait);
    tenant.mean_queue_wait_us += wait;
    tenant.mean_latency_us += served.done_us - row.arrival_us;
    events.push_back(ServedEvent{row.arrival_us, served.done_us, cold});
  }
  double fairness_num = 0;
  double fairness_den = 0;
  double active_tenants = 0;  // tenants with offered load; idle ones don't dilute
  for (size_t t = 0; t < replay.tenants.size(); ++t) {
    TenantOutcome& tenant = replay.tenants[t];
    tenant.name = trace.names[t];
    tenant.recovery = run.policy.Recovery(tenant.name);
    tenant.breaker_opens = tenant.recovery.opens;
    if (tenant.completed > 0) {
      tenant.mean_queue_wait_us /= static_cast<double>(tenant.completed);
      tenant.mean_latency_us /= static_cast<double>(tenant.completed);
      tenant.p99_queue_wait_us = vbase::Quantile(waits[t], 0.99);
    }
    if (tenant.offered > 0) {
      tenant.shed_rate = static_cast<double>(tenant.shed_quota + tenant.shed_overload +
                                             tenant.shed_breaker) /
                         static_cast<double>(tenant.offered);
      tenant.fault_rate =
          static_cast<double>(tenant.faulted) / static_cast<double>(tenant.offered);
      const double admitted_fraction =
          static_cast<double>(tenant.completed) / static_cast<double>(tenant.offered);
      fairness_num += admitted_fraction;
      fairness_den += admitted_fraction * admitted_fraction;
      active_tenants += 1;
    }
  }
  replay.fairness_index =
      fairness_den > 0 ? (fairness_num * fairness_num) / (active_tenants * fairness_den)
                       : 0;
  // First arrival to last completion, as documented — a trace slice that
  // starts late must not count its idle prefix against throughput.
  const double origin_us = trace.rows.empty() ? 0 : trace.rows.front().arrival_us;
  replay.makespan_s = total_completed > 0 ? (last_done - origin_us) / 1e6 : 0;
  replay.aggregate_rps =
      replay.makespan_s > 0 ? static_cast<double>(total_completed) / replay.makespan_s : 0;
  replay.sim = AssembleSimResult(events);
  return replay;
}

SimResult SimulateBurstyLoad(const std::vector<LoadPhase>& phases, const ExecutorModel& model,
                             uint64_t seed) {
  const std::vector<double> arrivals_us = GenerateArrivalTrace(phases, seed);

  // Instance state: busy-until time and last-used time per instance.
  struct Instance {
    double busy_until_us = 0;
    double last_used_us = 0;
  };
  std::vector<Instance> instances;
  std::vector<ServedEvent> events;
  events.reserve(arrivals_us.size());

  for (const double arrival : arrivals_us) {
    // Reclaim idle instances (container platforms tear warm instances down).
    instances.erase(std::remove_if(instances.begin(), instances.end(),
                                   [&](const Instance& inst) {
                                     return inst.busy_until_us < arrival &&
                                            arrival - inst.last_used_us >
                                                model.idle_timeout_s * 1e6;
                                   }),
                    instances.end());

    // Pick the warm instance that frees up soonest; spawn cold if allowed.
    double start_us;
    bool cold = false;
    Instance* chosen = nullptr;
    for (Instance& inst : instances) {
      if (chosen == nullptr || inst.busy_until_us < chosen->busy_until_us) {
        chosen = &inst;
      }
    }
    const bool can_spawn = static_cast<int>(instances.size()) < model.max_instances;
    if (chosen == nullptr ||
        (chosen->busy_until_us > arrival && can_spawn)) {
      instances.push_back(Instance{});
      chosen = &instances.back();
      cold = true;
      start_us = arrival;
    } else {
      start_us = std::max(arrival, chosen->busy_until_us);
    }
    const double service = model.warm_service_us + (cold ? model.cold_extra_us : 0);
    const double done = start_us + service;
    chosen->busy_until_us = done;
    chosen->last_used_us = done;
    events.push_back(ServedEvent{arrival, done, cold});
  }
  return AssembleSimResult(events);
}

}  // namespace vnet
